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


def _reference_name(node):
    """The name a node refers to, or None.  Strings (``__all__`` entries,
    docstrings) do not count."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _used(trees) -> dict[str, bool]:
    """Qualified name -> is it named by some node outside its own definition?

    One walk over every tree: each node carries the definitions it sits
    inside, and a reference marks every definition of its name that does
    not enclose it.  A name defined twice counts as used only when both are.
    """
    defs = list(_definitions(trees))
    by_name = {}
    for i, (_, name, node) in enumerate(defs):
        by_name.setdefault(name, []).append((i, node))
    def_nodes = {id(node) for _, _, node in defs}
    seen = set()
    for tree in trees.values():
        stack = [(tree, frozenset())]
        while stack:
            node, inside = stack.pop()
            for i, own in by_name.get(_reference_name(node), ()):
                if id(own) not in inside:
                    seen.add(i)
            if id(node) in def_nodes:
                inside = inside | {id(node)}
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    found = {}
    for i, (qual, _, _) in enumerate(defs):
        found[qual] = found.get(qual, True) and i in seen
    return found


def test_every_definition_is_used_or_traced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    unused = [qual for qual, used in _used(trees).items() if qual not in TRACED and not used]
    assert unused == [], f"defined in src/ but never used there: {unused}"


def test_the_guard_sees_a_dead_function():
    trees = {"m": ast.parse("def live():\n    return 1\n\ndef dead():\n    return live()\n")}
    found = _used(trees)
    assert found == {"m.live": True, "m.dead": False}


def test_the_guard_sees_a_dead_constant():
    source = (
        "__all__ = ['LIVE']\nLIVE = 1\nDEAD: int = LIVE\n_SEEN, _UNSEEN = 2, 3\n"
        "\ndef f():\n    return _SEEN\n"
    )
    trees = {"m": ast.parse(source)}
    found = _used(trees)
    assert found == {"m.LIVE": True, "m.DEAD": False, "m._SEEN": True, "m._UNSEEN": False,
                     "m.f": False}
