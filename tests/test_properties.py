"""Property tests of the bit-sliced engine, the extraction planner and the
pair recurrence.

The exhaustive oracle sweep covers every graph on at most 5 vertices; these
draw larger and less regular cases.  Every batched rule must act on each
column exactly as a width-1 run on that column alone, its Z-error rows must
be XOR-linear in the input errors, any two outcome branches must leave the
same graph and the same Z errors on the columns alive under both, and a
measured qubit must come out as an isolated qubit with zero rows.  A batch
tiled into column blocks, each block given its own outcome branch, must give
in every block what width-1 runs give with the matching outcome bits.  The
planner must put each edge in exactly one round on graphs far past the
sweep's size, and the compiled run must pass every structural check there.
The recurrence's one-round kernel must give exactly (``==``) what a slow
reference over validated ``BellDiagonal``s gives: three full probe steps
through a class permutation, then the chosen step again.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphpurify.graphs import MAX_VERTICES, Graph
from graphpurify.pairs import (
    BellDiagonal,
    DistillTrace,
    composite_r2,
    distill_trace,
    from_z_noise,
    recurrence_step,
)
from graphpurify.pattern import FrameBatch, apply_cz_via_pair, measure_z, merge_local
from graphpurify.protocol import _compile, _rebuild, plan_extraction
from oracles import edge_count, hashing_yield, recurrence_pairing

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


def _column(batch: FrameBatch, c: int) -> tuple[int, int]:
    """Column c of a batch as its (z_errors, correction_frame) pair."""
    e = f = 0
    for q, (zr, fr) in enumerate(zip(batch.z_rows, batch.frame_rows)):
        e |= (zr >> c & 1) << q
        f |= (fr >> c & 1) << q
    return e, f


# A rule case is (graph, columns, measured qubits, rule).  ``rule`` runs the
# batched rule with one outcome row per measured qubit and returns the batch
# and the merge's pivots (empty for the other rules).


@st.composite
def _z_measurements(draw):
    g = draw(_graphs(7))
    v = draw(st.integers(0, g.n - 1))
    return g, _columns(draw, g.n), (v,), lambda b, rows: (measure_z(b, v, rows[0]), ())


@st.composite
def _merges(draw):
    g = draw(_graphs(7))
    party = draw(st.permutations(range(g.n)))[: draw(st.integers(1, g.n))]
    return (
        g,
        _columns(draw, g.n),
        tuple(party[1:]),
        lambda b, rows: merge_local(b, party, rows),
    )


@st.composite
def _splices(draw):
    base = draw(_graphs(5, min_n=2))
    n = base.n
    g = Graph.from_edges(n + 2, base.edges() + [(n, n + 1)])
    u, v = draw(st.permutations(range(n)))[:2]
    return (
        g,
        _columns(draw, g.n),
        (n, n + 1),
        lambda b, rows: (apply_cz_via_pair(b, u, v, n, n + 1, rows), ()),
    )


_RULES = st.one_of(_z_measurements(), _merges(), _splices())


@_SETTINGS
@given(_RULES, st.data())
def test_every_column_matches_its_width_one_run(case, data):
    g, columns, measured, rule = case
    row = st.integers(0, (1 << len(columns)) - 1)
    rows = tuple(data.draw(row) for _ in measured)
    run, pivots = rule(FrameBatch.of_columns(g, columns), rows)
    for c, column in enumerate(columns):
        bits = tuple(r >> c & 1 for r in rows)
        alone, alone_pivots = rule(FrameBatch.of_columns(g, [column]), bits)
        assert alone.graph == run.graph
        assert alone.alive == run.alive >> c & 1
        assert alone_pivots == pivots
        if alone.alive:
            assert _column(alone, 0) == _column(run, c)


@_SETTINGS
@given(_RULES, st.data())
def test_tiled_blocks_match_the_width_one_wrappers(case, data):
    # the oracle's one-call shape: the columns repeated once per block, each
    # block on its own outcome branch, against a width-1 run per column
    g, columns, measured, rule = case
    blocks = data.draw(
        st.lists(st.tuples(*(st.sampled_from((0, 1)) for _ in measured)), min_size=1, max_size=4)
    )
    width = len(columns)
    tiled = FrameBatch.of_columns(g, columns * len(blocks))
    rows = tuple(
        sum(((1 << width) - 1) << b * width for b, o in enumerate(blocks) if o[i])
        for i in range(len(measured))
    )
    run, pivots = rule(tiled, rows)
    for b, outcomes in enumerate(blocks):
        for c, column in enumerate(columns):
            bit = b * width + c
            alone, alone_pivots = rule(FrameBatch.of_columns(g, [column]), outcomes)
            assert alone.alive == run.alive >> bit & 1
            if not alone.alive:
                continue
            assert alone.graph == run.graph
            assert _column(alone, 0) == _column(run, bit)
            assert alone_pivots == pivots


@_SETTINGS
@given(_RULES, st.data())
def test_error_rows_are_xor_linear(case, data):
    g, _, measured, rule = case
    pattern = st.integers(0, (1 << g.n) - 1)
    a, b = data.draw(pattern), data.draw(pattern)
    rows = tuple(data.draw(st.integers(0, 0b111)) for _ in measured)
    out, _ = rule(FrameBatch.of_columns(g, [(a, 0), (b, 0), (a ^ b, 0)]), rows)
    for row in out.z_rows:
        assert row >> 2 & 1 == (row & 1) ^ (row >> 1 & 1)


@_SETTINGS
@given(_RULES, st.data())
def test_measured_qubits_come_out_isolated_with_zero_rows(case, data):
    g, columns, measured, rule = case
    rows = tuple(data.draw(st.integers(0, (1 << len(columns)) - 1)) for _ in measured)
    out, _ = rule(FrameBatch.of_columns(g, columns), rows)
    assert out.graph.n == g.n
    for q in measured:
        assert out.graph.adj[q] == 0
        assert out.z_rows[q] == 0
        assert out.frame_rows[q] == 0


@pytest.mark.parametrize(
    "rules", [_z_measurements(), _merges(), _splices()],
    ids=["measure_z", "merge_local", "apply_cz_via_pair"],
)
@_SETTINGS
@given(data=st.data())
def test_outcomes_change_neither_the_graph_nor_a_live_error(rules, data):
    # an outcome only adds a known byproduct to the frame: any two outcome
    # branches leave the same graph and pivots and, on every column alive
    # under both, the same Z errors.  This is why the protocol compiles its
    # rebuild once, on the all-+1 branch
    g, columns, measured, rule = data.draw(rules)
    row = st.integers(0, (1 << len(columns)) - 1)
    batch = FrameBatch.of_columns(g, columns)
    a, pivots_a = rule(batch, tuple(data.draw(row) for _ in measured))
    b, pivots_b = rule(batch, tuple(data.draw(row) for _ in measured))
    assert a.graph == b.graph
    assert pivots_a == pivots_b
    both = a.alive & b.alive
    assert [z & both for z in a.z_rows] == [z & both for z in b.z_rows]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_graphs(40, max_edges=120))
def test_plan_covers_each_edge_once_and_compiles(g):
    isolated = sum(1 for v in range(g.n) if g.adj[v] == 0)
    assume(2 * edge_count(g) + isolated <= MAX_VERTICES)
    plan = plan_extraction(g)
    placed = [pe.edge for members in plan.rounds for pe in members]
    assert g.edges() == sorted(g.edges())
    assert sorted(placed) == g.edges()
    assert all(sum(e in {pe.edge for pe in ms} for ms in plan.rounds) == 1 for e in g.edges())
    # the error-free rebuild and one with every class: each residual is the
    # XOR of its compiled syndromes
    syndromes = _compile(g)
    assert len(syndromes) == len(g.edges())
    mixed = {e: k % 4 for k, e in enumerate(g.edges())}
    want = 0
    for k, syn in enumerate(syndromes):
        want ^= syn[k % 4]
    assert _rebuild(g, [{}, mixed]) == (0, want)


# -- the pair recurrence against a slow reference ---------------------------

# class index -> core-map slot for each pairing
_REF_PERM = {1: (0, 1, 2, 3), 2: (0, 2, 1, 3), 3: (0, 3, 2, 1)}


def _ref_step_with(bd: BellDiagonal, pairing: int) -> tuple[BellDiagonal, float]:
    perm = _REF_PERM[pairing]
    slots = [0.0] * 4
    for cls, q in enumerate(bd.probs):
        slots[perm[cls]] = q
    a, b, c, d = slots
    n = (a + b) ** 2 + (c + d) ** 2
    out = ((a * a + b * b) / n, 2.0 * a * b / n, (c * c + d * d) / n, 2.0 * c * d / n)
    if max(slots) <= 0.5:
        out = tuple(min(q, 0.5) for q in out)
    return BellDiagonal(tuple(out[perm[cls]] for cls in range(4))), n


def _ref_pairing(bd: BellDiagonal) -> int:
    best, best_fid = 1, -1.0
    for pairing in (1, 2, 3):
        fid = _ref_step_with(bd, pairing)[0].fidelity
        if fid > best_fid:
            best, best_fid = pairing, fid
    return best


def _ref_stuck(nxt: BellDiagonal, cur: BellDiagonal) -> bool:
    return all(abs(x - y) <= 1e-15 for x, y in zip(nxt.probs, cur.probs))


def _ref_distill_trace(bd: BellDiagonal, target: float, max_rounds: int) -> DistillTrace:
    cur, probs, pairings, cost = bd, [], [], 1.0
    while cur.fidelity < target and len(probs) < max_rounds:
        pairing = _ref_pairing(cur)
        nxt, n = _ref_step_with(cur, pairing)
        probs.append(n)
        pairings.append(pairing)
        cost *= 2.0 / n
        stuck = _ref_stuck(nxt, cur)
        cur = nxt
        if stuck:
            break
    return DistillTrace(
        converged=cur.fidelity >= target,
        rounds=len(probs),
        expected_pairs=cost,
        final=cur,
        success_probs=tuple(probs),
        pairings=tuple(pairings),
    )


def _ref_composite_r2(bd: BellDiagonal) -> float:
    if max(bd.probs) <= 0.5:
        return 0.0
    best, survival, cur = hashing_yield(bd), 1.0, bd
    while survival > best:
        nxt, n = _ref_step_with(cur, _ref_pairing(cur))
        survival *= n / 2.0
        stuck = _ref_stuck(nxt, cur)
        cur = nxt
        best = max(best, survival * hashing_yield(cur))
        if stuck:
            break
    return best


def _normalized(raw: list[float]) -> BellDiagonal:
    total = sum(raw)
    probs = [x / total for x in raw[:3]]
    return BellDiagonal((*probs, max(0.0, 1.0 - sum(probs))))


@st.composite
def _bell_diagonals(draw) -> BellDiagonal:
    kind = draw(st.sampled_from(("z-noise", "any", "dominant", "flat", "half")))
    if kind == "z-noise":
        return from_z_noise(draw(st.floats(0.0, 0.5)))
    if kind == "half":
        # one or two classes at or just below 1/2, the tight cases of the
        # map's <= 1/2 clamp: unclamped, rounding lifts some outputs past 1/2
        top = [0.5 - draw(st.floats(0.0, 1e-9)) for _ in range(draw(st.integers(1, 2)))]
        rest = [draw(st.floats(0.0, 1.0)) for _ in range(4 - len(top))]
        assume(sum(rest) > 0.0)
        probs = top + [(1.0 - sum(top)) * x / sum(rest) for x in rest]
        return BellDiagonal(tuple(draw(st.permutations(probs))))
    if kind == "flat":
        # each weight within a factor 2 of the others: every class <= 2/5
        return _normalized([draw(st.floats(1.0, 2.0)) for _ in range(4)])
    raw = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    if kind == "dominant":
        # any class, Z_a, Z_b or Z_aZ_b included, well above the rest
        raw[draw(st.integers(0, 3))] += draw(st.floats(1.0, 1e3))
    assume(sum(raw) > 0.0)
    return _normalized(raw)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_bell_diagonals(), st.floats(0.0, 0.9999))
def test_recurrence_matches_the_probe_reference_exactly(bd, target):
    assert recurrence_pairing(bd) == _ref_pairing(bd)
    assert recurrence_step(bd) == _ref_step_with(bd, _ref_pairing(bd))
    assert distill_trace(bd, target) == _ref_distill_trace(bd, target, 64)
    assert composite_r2(bd) == _ref_composite_r2(bd)
