"""Every name ``src/`` defines is one that ``src/`` runs.

A module-level function, class or constant, or a method of ``Graph``, must
be referred to somewhere in the package outside its own definition: called,
imported, subclassed, read or named in an annotation.  Dunder names
(``__all__``, ``__version__``) are exempt.  The only exceptions are
the functions ``perfbench/tracer.py`` wraps by name (its ``TARGETS`` and
``Graph.delete_vertex``), which the benchmark needs even where the package
does not call them.  Code that only tests run belongs in ``tests/oracles.py``.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "graphpurify"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TRACED = {f"{m}.{f}" for m, f in tracer.TARGETS} | {"graphs.Graph.delete_vertex"}


def _definitions(trees):
    """(qualified name, bare name, def node) for every name the guard covers."""
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{mod}.{node.name}", node.name, node
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                targets = []
            for target in targets:
                for name in ast.walk(target):
                    stored = isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                    if stored and not name.id.startswith("__"):
                        yield f"{mod}.{name.id}", name.id, node
            if mod == "graphs" and isinstance(node, ast.ClassDef) and node.name == "Graph":
                for meth in node.body:
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("__"):
                        yield f"graphs.Graph.{meth.name}", meth.name, meth


def _referenced(name, own_def, trees) -> bool:
    """Does any node outside ``own_def`` name ``name``?  Strings (``__all__``
    entries, docstrings) do not count."""
    for tree in trees.values():
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is own_def:
                continue
            if isinstance(node, ast.Name) and node.id == name:
                return True
            if isinstance(node, ast.Attribute) and node.attr == name:
                return True
            if isinstance(node, ast.alias) and node.name == name:
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_definition_is_used_or_traced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    unused = [
        qual
        for qual, name, node in _definitions(trees)
        if qual not in TRACED and not _referenced(name, node, trees)
    ]
    assert unused == [], f"defined in src/ but never used there: {unused}"


def test_the_guard_sees_a_dead_function():
    trees = {"m": ast.parse("def live():\n    return 1\n\ndef dead():\n    return live()\n")}
    found = {qual: _referenced(name, node, trees) for qual, name, node in _definitions(trees)}
    assert found == {"m.live": True, "m.dead": False}


def test_the_guard_sees_a_dead_constant():
    source = (
        "__all__ = ['LIVE']\nLIVE = 1\nDEAD: int = LIVE\n_SEEN, _UNSEEN = 2, 3\n"
        "\ndef f():\n    return _SEEN\n"
    )
    trees = {"m": ast.parse(source)}
    found = {qual: _referenced(name, node, trees) for qual, name, node in _definitions(trees)}
    assert found == {"m.LIVE": True, "m.DEAD": False, "m._SEEN": True, "m._UNSEEN": False,
                     "m.f": False}
