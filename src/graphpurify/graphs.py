"""Simple undirected graphs on vertices 0..n-1, stored as bitmask adjacency.

All protocol code manipulates neighborhoods as Python ints used as bitsets
(bit v set <=> vertex v present).  ``Graph.spanning_forest`` is the one
spanning-forest walk: the rebuild merges pair halves along its edges, and
the reconstruction plan folds pair halves along them.  Vertex labels are
stable: the pattern engine leaves a measured vertex in place with no bonds
instead of deleting it, and the dense oracle reads measured qubits as basis
rows where they are 0, so nothing in the package calls ``delete_vertex``
(which renumbers); it stays a public graph edit that ``perfbench``'s tracer
spans.  Python ints are unbounded, but a graph costs about n^2/2 bits, so
vertex counts are capped at ``MAX_VERTICES``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapacityError, ParameterError

MAX_VERTICES = 256


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph; ``adj[v]`` is the neighbor bitset of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ParameterError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, nb in enumerate(self.adj):
            if nb & ~full:
                raise ParameterError(f"vertex {v} has neighbors outside 0..{self.n - 1}")
            if nb >> v & 1:
                raise ParameterError(f"vertex {v} has a self-loop")
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ParameterError(f"edge {v}-{u} is not symmetric")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Graph on n vertices from an iterable of (u, v) pairs; n is checked
        against ``MAX_VERTICES`` before anything is allocated or ``edges`` is
        read, so a family may pass its edges lazily."""
        _check_vertex_count(n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ParameterError(f"self-loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    # -- basic queries -----------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1) << (v + 1)
            out.extend((v, u) for u in _bits(higher))
        return out

    # -- edits (return new graphs) ------------------------------------------

    def toggle_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ParameterError("cannot toggle a self-loop")
        adj = list(self.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return _make(self.n, adj)

    def delete_vertex(self, v: int) -> tuple["Graph", list[int]]:
        """Remove v; returns (graph, old_index_of_new_vertex list)."""
        if not 0 <= v < self.n:
            raise ParameterError(f"vertex {v} out of range")
        keep = [u for u in range(self.n) if u != v]
        pos = {old: new for new, old in enumerate(keep)}
        adj = [0] * (self.n - 1)
        for old in keep:
            nb = self.adj[old] & ~(1 << v)
            m = 0
            for u in _bits(nb):
                m |= 1 << pos[u]
            adj[pos[old]] = m
        return _make(self.n - 1, adj), keep

    # -- traversal -----------------------------------------------------------

    def spanning_forest(self) -> list[list[tuple[int, int]]]:
        """(parent, child) edges of a BFS spanning tree of each component
        that has an edge, rooted at its lowest vertex; components in order of
        their roots, edges in BFS order, so a child's parent edge comes before
        every edge to its own children."""
        seen = 0
        forest = []
        for root in range(self.n):
            if seen >> root & 1 or not self.adj[root]:
                continue
            seen |= 1 << root
            order = [root]
            tree: list[tuple[int, int]] = []
            for v in order:
                for u in _bits(self.adj[v] & ~seen):
                    seen |= 1 << u
                    order.append(u)
                    tree.append((v, u))
            forest.append(tree)
        return forest


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def _make(n: int, adj: list[int]) -> Graph:
    """Construct bypassing validation (inputs already consistent)."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", tuple(adj))
    return g


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- standard families -------------------------------------------------------


def path_graph(n: int) -> Graph:
    _need(n >= 1, "path needs >= 1 vertex")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    _need(n >= 3, "cycle needs >= 3 vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def star_graph(n: int) -> Graph:
    """Hub 0 joined to spokes 1..n-1 (n total vertices)."""
    _need(n >= 2, "star needs >= 2 vertices")
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    _need(n >= 1, "complete graph needs >= 1 vertex")
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def grid_graph(sides: list[int]) -> Graph:
    """Rectangular lattice with the given side lengths, row-major indexing."""
    _need(len(sides) >= 1, "grid needs >= 1 axis")
    _need(all(s >= 1 for s in sides), "grid sides must be >= 1")
    n = 1
    for s in sides:
        n *= s
    if n > MAX_VERTICES:
        raise CapacityError(f"grid has {n} vertices > {MAX_VERTICES}")
    strides = [0] * len(sides)
    acc = 1
    for ax in range(len(sides) - 1, -1, -1):
        strides[ax] = acc
        acc *= sides[ax]
    edges = []
    for idx in range(n):
        coord = [(idx // st) % s for s, st in zip(sides, strides)]
        for ax, st in enumerate(strides):
            if coord[ax] + 1 < sides[ax]:
                edges.append((idx, idx + st))
    return Graph.from_edges(n, edges)


def icosahedron_graph() -> Graph:
    """The icosahedron: apex 0, upper ring 1-5, lower ring 6-10, apex 11."""
    edges = [(0, i) for i in range(1, 6)]
    edges += [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(i, i % 5 + 6) for i in range(6, 11)]
    edges += [(11, i) for i in range(6, 11)]
    edges += [(1, 6), (1, 7), (2, 7), (2, 8), (3, 8), (3, 9), (4, 9), (4, 10), (5, 10), (5, 6)]
    return Graph.from_edges(12, edges)


# side of every axis of 'cluster:d': the smallest lattice whose centre vertex
# has all 2d neighbours
CLUSTER_SIDE = 3


def family_parts(family: str) -> tuple[str, str]:
    """A family string's lower-case name and its argument ('' when none)."""
    name, _, arg = family.partition(":")
    return name.strip().lower(), arg


def grid_sides(arg: str) -> list[int]:
    """Side lengths of a grid argument 'AxBx...'; ValueError when malformed."""
    return [int(s) for s in arg.lower().split("x")]


def parse_family(family: str) -> Graph:
    """Parse 'path:N', 'cycle:N', 'star:N', 'ghz:N', 'complete:N',
    'grid:AxBx...', 'cluster:d' (the d-dimensional grid of side
    ``CLUSTER_SIDE``) or 'icosahedron' into a graph."""
    name, arg = family_parts(family)
    try:
        if name == "path":
            return path_graph(int(arg))
        if name == "cycle":
            return cycle_graph(int(arg))
        if name in ("star", "ghz"):
            n = int(arg)
            _need(n >= 2, f"{name} needs >= 2 vertices")
            return star_graph(n)
        if name == "complete":
            return complete_graph(int(arg))
        if name == "grid":
            return grid_graph(grid_sides(arg))
        if name == "cluster":
            d = int(arg)
            _need(d >= 1, "cluster needs >= 1 dimension")
            if d > MAX_VERTICES or CLUSTER_SIDE**d > MAX_VERTICES:
                raise CapacityError(f"cluster:{d} has {CLUSTER_SIDE}^{d} vertices > {MAX_VERTICES}")
            return grid_graph([CLUSTER_SIDE] * d)
        if name == "icosahedron":
            _need(arg == "", "icosahedron takes no argument")
            return icosahedron_graph()
    except ValueError as exc:
        raise ParameterError(f"bad graph family {family!r}: {exc}") from exc
    raise ParameterError(f"unknown graph family {name!r}")


def load_graph(source: str) -> Graph:
    """Resolve a CLI graph argument: a family name or a path to an edge-list file."""
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParameterError(f"edge-list file {source!r} is not UTF-8: {exc}") from None
        return read_edge_list(text)
    return parse_family(source)


# -- edge-list text format -----------------------------------------------------
#
#   first non-comment line: vertex count
#   remaining lines: "u v" one edge each; '#' starts a comment

def read_edge_list(text: str) -> Graph:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParameterError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ParameterError(f"bad vertex count line {lines[0]!r}") from exc
    if n < 0:
        raise ParameterError(f"vertex count {n} is negative")
    edges = []
    seen = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParameterError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParameterError(f"bad edge line {line!r}") from exc
        # two CZs on one pair cancel, so a repeat leaves the graph ambiguous
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParameterError(f"edge line {line!r} repeats an earlier edge")
        seen.add(key)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def _need(ok: bool, msg: str) -> None:
    if not ok:
        raise ParameterError(msg)
