"""Property tests of the bit-sliced engine and the extraction planner.

The exhaustive oracle sweep covers every graph on at most 5 vertices; these
draw larger and less regular cases.  Every batched rule must act on each
column exactly as a width-1 run on that column alone, its Z-error rows must
be XOR-linear in the input errors, and a measured qubit must come out as an
isolated qubit with zero rows.  The planner must put each edge in exactly one
round on graphs far past the sweep's size, and the compiled run must pass
every structural check there.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphpurify.graphs import MAX_VERTICES, Graph
from graphpurify.pattern import FrameBatch, batch_measure_z, batch_merge, batch_splice
from graphpurify.protocol import _compile, plan_extraction

_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def _graphs(draw, max_n: int, min_n: int = 1, max_edges: int | None = None) -> Graph:
    n = draw(st.integers(min_n, max_n))
    slots = list(itertools.combinations(range(n), 2))
    if not slots:
        return Graph.from_edges(n, [])
    edges = draw(st.lists(st.sampled_from(slots), unique=True, max_size=max_edges))
    return Graph.from_edges(n, edges)


def _columns(draw, n: int) -> list[tuple[int, int]]:
    pattern = st.integers(0, (1 << n) - 1)
    return draw(st.lists(st.tuples(pattern, pattern), min_size=1, max_size=12))


def _outcome(draw):
    return draw(st.sampled_from((+1, -1)))


@st.composite
def _z_measurements(draw):
    g = draw(_graphs(7))
    v = draw(st.integers(0, g.n - 1))
    forced = _outcome(draw)
    return g, _columns(draw, g.n), (v,), lambda b: batch_measure_z(b, v, forced_outcome=forced)


@st.composite
def _merges(draw):
    g = draw(_graphs(7))
    party = draw(st.permutations(range(g.n)))[: draw(st.integers(1, g.n))]
    forced = [_outcome(draw) for _ in party[1:]]
    return g, _columns(draw, g.n), tuple(party[1:]), lambda b: batch_merge(
        b, party, forced_outcomes=forced
    )


@st.composite
def _splices(draw):
    base = draw(_graphs(5, min_n=2))
    n = base.n
    g = Graph.from_edges(n + 2, base.edges() + [(n, n + 1)])
    u, v = draw(st.permutations(range(n)))[:2]
    forced = (_outcome(draw), _outcome(draw))
    return g, _columns(draw, g.n), (n, n + 1), lambda b: batch_splice(
        b, u, v, n, n + 1, forced_outcomes=forced
    )


_RULES = st.one_of(_z_measurements(), _merges(), _splices())


@_SETTINGS
@given(_RULES)
def test_every_column_matches_its_width_one_run(case):
    g, columns, _, rule = case
    run = rule(FrameBatch.of_columns(g, columns))
    for c, column in enumerate(columns):
        alone = rule(FrameBatch.of_columns(g, [column]))
        assert alone.batch.graph == run.batch.graph
        assert alone.batch.alive == run.batch.alive >> c & 1
        assert alone.pivots == run.pivots
        if alone.batch.alive:
            assert alone.batch.column(0) == run.batch.column(c)
            assert alone.outcomes == tuple(o >> c & 1 for o in run.outcomes)


@_SETTINGS
@given(_RULES, st.data())
def test_error_rows_are_xor_linear(case, data):
    g, _, _, rule = case
    pattern = st.integers(0, (1 << g.n) - 1)
    a, b = data.draw(pattern), data.draw(pattern)
    out = rule(FrameBatch.of_columns(g, [(a, 0), (b, 0), (a ^ b, 0)])).batch
    for row in out.z_rows:
        assert row >> 2 & 1 == (row & 1) ^ (row >> 1 & 1)


@_SETTINGS
@given(_RULES)
def test_measured_qubits_come_out_isolated_with_zero_rows(case):
    g, columns, measured, rule = case
    out = rule(FrameBatch.of_columns(g, columns)).batch
    assert out.graph.n == g.n
    for q in measured:
        assert out.graph.adj[q] == 0
        assert out.z_rows[q] == 0
        assert out.frame_rows[q] == 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_graphs(40, max_edges=120))
def test_plan_covers_each_edge_once_and_compiles(g):
    isolated = sum(1 for v in range(g.n) if g.adj[v] == 0)
    assume(2 * g.edge_count() + isolated <= MAX_VERTICES)
    plan = plan_extraction(g)
    placed = [pe.edge for members in plan.rounds for pe in members]
    assert sorted(placed) == g.edges()
    assert all(plan.coverage[pe.edge] == i for i, ms in enumerate(plan.rounds) for pe in ms)
    assert _compile(g, plan).ideal
