"""End-to-end protocol checks.

Two independent oracles anchor this module: exact enumeration of the
extraction step (every error pattern times every boundary outcome, summed
with their true weights) and exact enumeration of the rebuild indicator over
all per-edge class combinations (the residual error is outcome-independent,
so the indicator is deterministic and the success probability is a finite
sum).  Monte Carlo estimates must land inside their own confidence interval
around those sums.
"""

import concurrent.futures
import dataclasses
import itertools
import os
import random
import subprocess
import sys

import pytest

import graphpurify
from graphpurify import protocol
from graphpurify.cli import n_geo_formula
from graphpurify.errors import CapacityError, InvariantError, ParameterError
from graphpurify.graphs import Graph, cycle_graph, grid_graph, parse_family, path_graph, star_graph
from graphpurify.pairs import composite_r2, distill_trace, from_z_noise
from graphpurify.pattern import FrameBatch, measure_z
from graphpurify.protocol import (
    CHUNK_SHOTS,
    ExtractionPlan,
    plan_extraction,
    rate_report,
    run_drpp,
    threshold_scan,
)
from graphpurify.protocol import _compile, _rebuild  # white-box: rebuild and its map
from graphpurify.rng import derive_rng
from graphpurify.thermal import P_STAR
from oracles import edge_count


def _closed(g: Graph, u: int, v: int) -> int:
    return (1 << u) | (1 << v) | g.adj[u] | g.adj[v]


def _compatible(g: Graph, e1, e2) -> bool:
    # written from scratch: neither pair may sit inside the other's closed
    # neighborhood, else a boundary measurement would hit a kept qubit
    b1 = (1 << e1[0]) | (1 << e1[1])
    b2 = (1 << e2[0]) | (1 << e2[1])
    return _closed(g, *e1) & b2 == 0 and _closed(g, *e2) & b1 == 0


_PLAN_GRAPHS = [
    path_graph(2),
    path_graph(5),
    path_graph(12),
    cycle_graph(3),
    cycle_graph(7),
    star_graph(6),
    grid_graph([3, 3]),
    parse_family("complete:5"),
    Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),
    Graph.from_edges(4, []),
]


class TestPlanExtraction:
    @pytest.mark.parametrize("g", _PLAN_GRAPHS, ids=lambda g: f"n{g.n}e{edge_count(g)}")
    def test_plan_is_valid(self, g):
        plan = plan_extraction(g)
        rounds_of: dict[tuple[int, int], list[int]] = {}
        for i, members in enumerate(plan.rounds):
            assert members, "empty round"
            for a, b in itertools.combinations(members, 2):
                assert _compatible(g, a.edge, b.edge)
            for pe in members:
                u, v = pe.edge
                assert g.has_edge(u, v)
                want = (g.adj[u] | g.adj[v]) & ~((1 << u) | (1 << v))
                assert pe.z_measure_set == tuple(
                    q for q in range(g.n) if want >> q & 1
                )
                rounds_of.setdefault(pe.edge, []).append(i)
        assert sorted(rounds_of) == sorted(g.edges())
        assert all(len(found) == 1 for found in rounds_of.values())
        assert plan.n_geo == len(plan.rounds)

    def test_round_counts_for_known_families(self):
        assert plan_extraction(path_graph(2)).n_geo == 1
        assert plan_extraction(path_graph(3)).n_geo == 2
        for n in (4, 7, 12, 30):
            assert plan_extraction(path_graph(n)).n_geo == 3
        for n in (3, 5, 8, 20):
            assert plan_extraction(star_graph(n)).n_geo == n - 1
        assert plan_extraction(cycle_graph(3)).n_geo == 3
        assert plan_extraction(cycle_graph(7)).n_geo == 4
        assert plan_extraction(grid_graph([3, 3])).n_geo == 9
        assert plan_extraction(grid_graph([2, 3])).n_geo == 6
        # fully connected: every pair blocks every other
        assert plan_extraction(parse_family("complete:5")).n_geo == 10

    @pytest.mark.parametrize("family", ["grid:5x5", "grid:8x8", "grid:3x3x3"])
    def test_planner_meets_the_cluster_formula_at_size(self, family):
        # graphs past the old 64-vertex cap; the planner's greedy rounds must
        # not exceed the 3d^2 family count
        g = parse_family(family)
        assert plan_extraction(g).n_geo <= n_geo_formula(family)

    def test_equal_graphs_share_one_plan(self):
        a = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        b = Graph.from_edges(5, [(3, 4), (1, 2), (0, 1)])
        assert a is not b and a == b
        assert plan_extraction(a) is plan_extraction(b)

    def test_interfering_round_raises_on_every_call(self, monkeypatch):
        # blockers covering only the pair itself let first-fit put (0, 1) and
        # (2, 3) of path:4 in one round, though 2 is in (0, 1)'s Z set; a
        # failed plan is never cached, so the second call raises too
        monkeypatch.setattr(protocol, "_closed_mask", lambda g, u, v: (1 << u) | (1 << v))
        plan_extraction.cache_clear()
        for _ in range(2):
            with pytest.raises(InvariantError, match="interfering"):
                plan_extraction(path_graph(4))

    def test_edgeless_graph_has_no_rounds(self):
        plan = plan_extraction(Graph.from_edges(3, []))
        assert plan.rounds == ()
        assert plan.n_geo == 0


class TestNGeoFormula:
    def test_known_values(self):
        assert n_geo_formula("path") == 3
        assert n_geo_formula("path:9") == 3
        assert n_geo_formula("cluster:1") == 3
        assert n_geo_formula("cluster:2") == 12
        assert n_geo_formula("cluster:3") == 27
        assert n_geo_formula("star:5") == 4
        assert n_geo_formula("ghz:20") == 19
        assert n_geo_formula("grid:4x4") == 12
        assert n_geo_formula("grid:1x7") == 3
        assert n_geo_formula("grid:2x2x2") == 27

    def test_unknown_or_malformed_gives_none(self):
        assert n_geo_formula("cycle:5") is None
        assert n_geo_formula("cluster:x") is None
        assert n_geo_formula("cluster:0") is None
        assert n_geo_formula("star:1") is None
        assert n_geo_formula("") is None
        assert n_geo_formula(None) is None  # an edge-list file names no family


def _extracted_pair_distribution(g: Graph, edge, p: float):
    """Exact class distribution of one extracted pair, plus the joint
    distribution helper for multi-pair rounds (see below)."""
    u, v = edge
    zset = (g.adj[u] | g.adj[v]) & ~((1 << u) | (1 << v))
    boundary = [q for q in range(g.n) if zset >> q & 1]
    dist = [0.0] * 4
    for e in range(1 << g.n):
        w = 1.0
        for q in range(g.n):
            w *= p if e >> q & 1 else 1.0 - p
        for outs in itertools.product((0, 1), repeat=len(boundary)):
            st = FrameBatch.of_columns(g, [(e, 0)])
            for q, o in zip(boundary, outs):
                st = measure_z(st, q, outcome_row=o)
            assert st.graph.adj[u] == 1 << v
            assert st.alive == 1
            cls = st.z_rows[u] | st.z_rows[v] << 1
            dist[cls] += w * 0.5 ** len(boundary)
    return dist


class TestExtractionStatistics:
    @pytest.mark.parametrize(
        "g, edge",
        [
            (path_graph(3), (0, 1)),
            (star_graph(4), (0, 2)),
            (cycle_graph(4), (1, 2)),
            (cycle_graph(5), (0, 4)),
        ],
        ids=["path3", "star4", "cycle4", "cycle5"],
    )
    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_single_pair_classes_are_product_bernoulli(self, g, edge, p):
        # boundary removal must leave independent flips on the two halves
        dist = _extracted_pair_distribution(g, edge, p)
        want = from_z_noise(p).probs
        for got, expect in zip(dist, want):
            assert got == pytest.approx(expect, abs=1e-12)

    def test_two_pair_round_is_independent(self):
        # path(5) schedules (0,1) and (3,4) together; their joint class
        # distribution must factorize exactly
        g = path_graph(5)
        p = 0.2
        plan = plan_extraction(g)
        round0 = plan.rounds[0]
        assert [pe.edge for pe in round0] == [(0, 1), (3, 4)]
        boundary = sorted({q for pe in round0 for q in pe.z_measure_set})
        joint = {}
        for e in range(1 << g.n):
            w = 1.0
            for q in range(g.n):
                w *= p if e >> q & 1 else 1.0 - p
            for outs in itertools.product((0, 1), repeat=len(boundary)):
                st = FrameBatch.of_columns(g, [(e, 0)])
                for q, o in zip(boundary, outs):
                    st = measure_z(st, q, outcome_row=o)
                key = []
                for pe in round0:
                    u, v = pe.edge
                    key.append(st.z_rows[u] | st.z_rows[v] << 1)
                key = tuple(key)
                joint[key] = joint.get(key, 0.0) + w * 0.5 ** len(boundary)
        want = from_z_noise(p).probs
        for c1 in range(4):
            for c2 in range(4):
                assert joint.get((c1, c2), 0.0) == pytest.approx(
                    want[c1] * want[c2], abs=1e-12
                )


def _residuals(g: Graph, assignments) -> tuple[int, ...]:
    """Each class assignment's residual from one engine rebuild, checked
    against the XOR of its compiled syndromes."""
    residuals = _rebuild(g, assignments)
    syndromes = dict(zip(g.edges(), _compile(g).syndromes))
    for classes, got in zip(assignments, residuals):
        want = 0
        for e, cls in classes.items():
            want ^= syndromes[e][cls]
        assert got == want, classes
    return residuals


def _analytic_fidelity(g: Graph, probs) -> float:
    edges = g.edges()
    combos = list(itertools.product(range(4), repeat=len(edges)))
    residuals = _residuals(g, [dict(zip(edges, combo)) for combo in combos])
    total = 0.0
    for combo, residual in zip(combos, residuals):
        w = 1.0
        for c in combo:
            w *= probs[c]
        if w and not residual:
            total += w
    return total


class TestRebuildIndicator:
    @pytest.mark.parametrize(
        "g", [path_graph(3), cycle_graph(3), star_graph(4), cycle_graph(4)],
        ids=["path3", "cycle3", "star4", "cycle4"],
    )
    def test_outcome_independent(self, g, monkeypatch):
        # the rebuild runs on the all-+1 branch only; random outcome rows
        # for every merge and splice must compile to the same syndromes and
        # leave the same residuals, and must kill no column
        edges = g.edges()
        combos = [dict(zip(edges, c)) for c in itertools.product(range(4), repeat=len(edges))][:40]
        want = _residuals(g, combos)
        want_compiled = _compile(g)
        real_merge, real_splice = protocol.merge_local, protocol.apply_cz_via_pair
        for s in range(5):
            draw = derive_rng(s, "vote")

            def merge(batch, party, outcome_rows):
                rows = tuple(draw.getrandbits(batch.alive.bit_length()) for _ in outcome_rows)
                return real_merge(batch, party, rows)

            def splice(batch, u, v, pair_u, pair_v, outcome_rows):
                rows = tuple(draw.getrandbits(batch.alive.bit_length()) for _ in outcome_rows)
                return real_splice(batch, u, v, pair_u, pair_v, rows)

            monkeypatch.setattr(protocol, "merge_local", merge)
            monkeypatch.setattr(protocol, "apply_cz_via_pair", splice)
            assert _rebuild(g, combos) == want
            assert _compile.__wrapped__(g) == want_compiled  # uncached: the patched rules run

    @pytest.mark.parametrize(
        "g", [path_graph(3), cycle_graph(3), star_graph(4), cycle_graph(4),
              Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])],
        ids=["path3", "cycle3", "star4", "cycle4", "two-comps"],
    )
    def test_all_identity_succeeds_single_error_fails(self, g):
        edges = g.edges()
        singles = [(e, cls) for e in edges for cls in (1, 2, 3)]
        clean = {e: 0 for e in edges}
        residuals = _residuals(g, [clean] + [{**clean, e: cls} for e, cls in singles])
        assert residuals[0] == 0
        for (e, cls), residual in zip(singles, residuals[1:]):
            assert residual != 0, (e, cls)

    def test_isolated_vertices_supported(self):
        g = Graph.from_edges(4, [(1, 2)])
        clean, flipped = _residuals(g, [{(1, 2): 0}, {(1, 2): 3}])
        assert clean == 0
        assert flipped != 0


class TestCompiledParityChecks:
    """The fast path's syndrome table against an engine rebuild that carries
    the errors of each class assignment."""

    @pytest.mark.parametrize(
        "g", [path_graph(3), cycle_graph(3), star_graph(4), cycle_graph(4),
              Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])],
        ids=["path3", "cycle3", "star4", "cycle4", "two-comps"],
    )
    def test_every_assignment(self, g):
        edges = g.edges()
        assert len(_compile(g).syndromes) == len(edges)
        _residuals(g, [dict(zip(edges, c)) for c in itertools.product(range(4), repeat=len(edges))])

    @pytest.mark.parametrize("family", ["icosahedron", "grid:4x4", "complete:6"])
    def test_random_low_weight_assignments(self, family):
        g = parse_family(family)
        edges = g.edges()
        pick = random.Random(f"low-weight/{family}")
        assignments = []
        for _ in range(300):
            combo = [0] * len(edges)
            for k in pick.sample(range(len(edges)), pick.randint(1, 3)):
                combo[k] = pick.randint(1, 3)
            assignments.append(dict(zip(edges, combo)))
        _residuals(g, assignments)

    def test_too_many_edges_names_the_edge_count(self):
        with pytest.raises(CapacityError, match="144 edges.*at most 128 edges"):
            run_drpp(grid_graph([4, 4, 4]), 0.1, shots=1)
        with pytest.raises(CapacityError, match="128 edges and 1 isolated"):
            run_drpp(Graph.from_edges(130, [(v, v + 1) for v in range(128)]), 0.1, shots=1)


_CORRUPT_REBUILD = """
import dataclasses, sys
import graphpurify.protocol as protocol
from graphpurify.errors import InvariantError
from graphpurify.graphs import path_graph

if __debug__:
    sys.exit("asserts are live; run this under python -O")
real = protocol.merge_local

def dropping_an_edge(batch, party, outcome_rows):
    out, pivots = real(batch, party, outcome_rows)
    u, v = out.graph.edges()[0]
    return dataclasses.replace(out, graph=out.graph.toggle_edge(u, v)), pivots

protocol.merge_local = dropping_an_edge
try:
    protocol.run_drpp(path_graph(3), 0.1, shots=10, seed=0)
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit("run_drpp accepted a corrupted rebuild")
"""

# a splice that kills its batch's last column, as an impossible outcome would
_KILLING_SPLICE = """
import dataclasses, sys
import graphpurify.protocol as protocol
from graphpurify.errors import InvariantError
from graphpurify.graphs import cycle_graph

if __debug__:
    sys.exit("asserts are live; run this under python -O")
real = protocol.apply_cz_via_pair

def killing(batch, u, v, pair_u, pair_v, outcome_rows):
    out = real(batch, u, v, pair_u, pair_v, outcome_rows)
    return dataclasses.replace(out, alive=out.alive >> 1)

protocol.apply_cz_via_pair = killing
try:
    protocol._compile(cycle_graph(3))
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit("_compile accepted a rebuild that dropped a column")
"""

# a splice that also XORs its u-side half's error onto qubit 0; on the
# triangle that is vertex 0's kept qubit, off the spliced edge (1, 2)
_STRAY_SPLICE = """
import dataclasses, sys
import graphpurify.protocol as protocol
from graphpurify.errors import InvariantError
from graphpurify.graphs import cycle_graph

if __debug__:
    sys.exit("asserts are live; run this under python -O")
real = protocol.apply_cz_via_pair

def straying(batch, u, v, pair_u, pair_v, outcome_rows):
    out = real(batch, u, v, pair_u, pair_v, outcome_rows)
    z = list(out.z_rows)
    z[0] ^= batch.z_rows[pair_u]
    return dataclasses.replace(out, z_rows=tuple(z))

protocol.apply_cz_via_pair = straying
try:
    protocol._compile(cycle_graph(3))
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit("_compile accepted a syndrome off its edge")
"""


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a child interpreter under python -O."""
    src = os.path.dirname(os.path.dirname(graphpurify.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )


class TestCompileMemo:
    def test_equal_graphs_share_one_compiled_rebuild(self):
        a = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        b = Graph.from_edges(5, [(3, 4), (1, 2), (0, 1)])
        assert a is not b and a == b
        assert _compile(a) is _compile(b)

    def test_corrupt_rebuild_raises_on_every_call(self, monkeypatch):
        # a failed compile is never cached, so every call re-runs the checks
        real = protocol.merge_local

        def dropping_an_edge(batch, party, outcome_rows):
            out, pivots = real(batch, party, outcome_rows)
            u, v = out.graph.edges()[0]
            return dataclasses.replace(out, graph=out.graph.toggle_edge(u, v)), pivots

        _compile.cache_clear()
        monkeypatch.setattr(protocol, "merge_local", dropping_an_edge)
        for _ in range(2):
            with pytest.raises(InvariantError, match="rebuilt graph differs"):
                run_drpp(path_graph(3), 0.1, shots=10, seed=0)


    def test_a_dropped_column_raises(self, monkeypatch):
        # the rebuild runs on the all-+1 branch only; a column that branch
        # kills would leave meaningless rows in M, so the compile refuses it
        real = protocol.apply_cz_via_pair

        def killing(batch, u, v, pair_u, pair_v, outcome_rows):
            out = real(batch, u, v, pair_u, pair_v, outcome_rows)
            return dataclasses.replace(out, alive=out.alive >> 1)

        _compile.cache_clear()
        monkeypatch.setattr(protocol, "apply_cz_via_pair", killing)
        with pytest.raises(InvariantError, match="dropped a column"):
            _compile(cycle_graph(3))

    def test_a_syndrome_off_its_edge_raises(self, monkeypatch):
        # every pair half's error must end on its own edge's endpoints
        real = protocol.apply_cz_via_pair

        def straying(batch, u, v, pair_u, pair_v, outcome_rows):
            out = real(batch, u, v, pair_u, pair_v, outcome_rows)
            z = list(out.z_rows)
            z[0] ^= batch.z_rows[pair_u]  # vertex 0's kept qubit on the triangle
            return dataclasses.replace(out, z_rows=tuple(z))

        _compile.cache_clear()
        monkeypatch.setattr(protocol, "apply_cz_via_pair", straying)
        with pytest.raises(InvariantError, match=r"edge \(1, 2\) reaches a vertex off"):
            _compile(cycle_graph(3))


def test_rebuild_invariants_survive_optimized_mode():
    # -O strips asserts from test modules too, so running the suite under -O
    # would prove nothing; a child interpreter runs under -O instead, where
    # only the package's own checks can catch the corrupted rebuild
    proc = _run_optimized(_CORRUPT_REBUILD)
    assert proc.returncode == 0, proc.stderr
    assert "rebuilt graph differs from the target" in proc.stdout


def test_dropped_column_check_survives_optimized_mode():
    proc = _run_optimized(_KILLING_SPLICE)
    assert proc.returncode == 0, proc.stderr
    assert "dropped a column" in proc.stdout


def test_endpoint_check_survives_optimized_mode():
    proc = _run_optimized(_STRAY_SPLICE)
    assert proc.returncode == 0, proc.stderr
    assert "an error on edge (1, 2) reaches a vertex off that edge" in proc.stdout


class TestRunDrpp:
    def test_perfect_input_perfect_output(self):
        res = run_drpp(path_graph(4), 0.0, shots=500, seed=3)
        assert res.converged
        assert res.fidelity == 1.0
        assert res.rounds == 0
        assert res.ideal_shots == 500
        assert res.copies_consumed == pytest.approx(res.n_geo_plan)
        assert res.ci95[0] <= 1.0 <= res.ci95[1] + 1e-12

    @pytest.mark.parametrize(
        "family, analytic_hint",
        [("path:3", None), ("cycle:3", None), ("star:3", None)],
    )
    def test_monte_carlo_matches_exact_enumeration(self, family, analytic_hint):
        g = parse_family(family)
        p = 0.1
        trace = distill_trace(from_z_noise(p), 0.999)
        analytic = _analytic_fidelity(g, trace.final.probs)
        res = run_drpp(g, p, shots=20000, seed=11)
        assert res.converged
        lo, hi = res.ci95
        assert lo <= analytic <= hi
        assert res.achieved_pair_fidelity == trace.final.fidelity
        assert res.rounds == trace.rounds
        assert res.copies_consumed == pytest.approx(
            res.n_geo_plan * trace.expected_pairs
        )

    @pytest.mark.parametrize(
        "g", [cycle_graph(4), Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]),
              parse_family("icosahedron")],
        ids=["cycle4", "two-comps-isolated", "icosahedron"],
    )
    def test_every_shot_matches_an_engine_rebuild(self, g):
        # replay the documented stream layout (one class per edge in sorted
        # order, by inversion, from derive_rng(seed, "drpp", chunk)) through
        # the engine; a loose target keeps errors common
        p, target, seed = 0.2, 0.9, 4
        shots = CHUNK_SHOTS + 100
        probs = distill_trace(from_z_noise(p), target).final.probs
        res = run_drpp(g, p, shots=shots, pair_target_fidelity=target, seed=seed)
        edges = g.edges()
        hits = 0
        for chunk, count in enumerate((CHUNK_SHOTS, shots - CHUNK_SHOTS)):
            draw = derive_rng(seed, "drpp", chunk)
            assignments = []
            for _ in range(count):
                classes = {}
                for e in edges:
                    r, acc, cls = draw.random(), 0.0, 3
                    for c in range(3):
                        acc += probs[c]
                        if r < acc:
                            cls = c
                            break
                    classes[e] = cls
                assignments.append(classes)
            hits += _residuals(g, assignments).count(0)
        assert 0 < hits < shots
        assert res.ideal_shots == hits

    def test_noise_free_run_is_ideal_across_chunks(self):
        shots = CHUNK_SHOTS + 3
        res = run_drpp(cycle_graph(5), 0.0, shots=shots, seed=1)
        assert res.ideal_shots == shots
        assert res.fidelity == 1.0

    def test_not_purifiable_reports_failure_without_sampling(self):
        # a huge shot budget returns instantly because no trajectory runs
        res = run_drpp(path_graph(3), 0.35, shots=10**9, seed=0)
        assert not res.converged
        assert res.fidelity is None and res.ci95 is None
        assert res.ideal_shots is None and res.copies_consumed is None
        assert res.r2 == 0.0

    def test_same_seed_same_result(self):
        # a loose pair target keeps failures common so the seeds separate
        a = run_drpp(cycle_graph(4), 0.2, shots=1500, pair_target_fidelity=0.9, seed=42)
        b = run_drpp(cycle_graph(4), 0.2, shots=1500, pair_target_fidelity=0.9, seed=42)
        assert a == b
        c = run_drpp(cycle_graph(4), 0.2, shots=1500, pair_target_fidelity=0.9, seed=43)
        assert c.ideal_shots != a.ideal_shots

    def test_worker_count_does_not_change_results(self):
        shots = CHUNK_SHOTS + 700  # force at least two chunks
        a = run_drpp(path_graph(3), 0.1, shots=shots, seed=7, workers=1)
        b = run_drpp(path_graph(3), 0.1, shots=shots, seed=7, workers=3)
        assert a == b

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # a fork-started pool launches all max_workers processes at its first
        # submit; this fake records the size asked for and runs serially.
        # run_drpp imports the pool class from concurrent.futures only when
        # it needs one, so the fake goes there.  The host's CPU count is
        # fixed at 8 unless a test sets it
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        return sizes

    def test_pool_has_no_more_workers_than_chunks(self, pool_sizes):
        shots = CHUNK_SHOTS + 700  # two chunks
        pooled = run_drpp(path_graph(3), 0.1, shots=shots, seed=7, workers=50)
        assert pool_sizes == [2]
        assert pooled == run_drpp(path_graph(3), 0.1, shots=shots, seed=7, workers=1)

    @pytest.mark.parametrize("cpus, want", [(3, [3]), (1, []), (None, [])])
    def test_pool_has_no_more_workers_than_cpus(self, monkeypatch, pool_sizes, cpus, want):
        # --workers 5000 with 5,000 chunks once forked 5,000 processes; one
        # CPU (or an unknown count) runs in-process with no pool at all
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        shots = 4 * CHUNK_SHOTS + 1  # five chunks
        pooled = run_drpp(path_graph(3), 0.1, shots=shots, seed=7, workers=5000)
        assert pool_sizes == want
        assert pooled == run_drpp(path_graph(3), 0.1, shots=shots, seed=7, workers=1)

    def test_graph_record_shape(self):
        res = run_drpp(path_graph(3), 0.05, shots=10, seed=0)
        assert res.graph == {"n": 3, "edges": [[0, 1], [1, 2]]}
        assert res.p == 0.05 and res.shots == 10

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            run_drpp(path_graph(3), 0.1, shots=0)
        with pytest.raises(ParameterError):
            run_drpp(path_graph(3), 0.1, shots=10, workers=0)


class TestRateReport:
    def test_bounds_are_ordered(self):
        for p in (0.0, 0.05, 0.15, 0.25):
            rep = rate_report(star_graph(4), p)
            assert rep.r2 >= rep.r_psi_upper >= rep.r_psi_lower
            assert rep.r_psi_lower == pytest.approx(rep.r2 / rep.n_geo_plan)

    def test_rate_endpoints(self):
        assert rate_report(path_graph(4), 0.0).r2 == 1.0
        for p in (P_STAR, 0.35, 0.45):
            rep = rate_report(path_graph(4), p)
            assert rep.r2 == 0.0 and rep.r_psi_lower == 0.0

    def test_edgeless_graph_keeps_bounds_finite(self):
        rep = rate_report(Graph.from_edges(3, []), 0.1)
        assert rep.n_geo_plan == 0
        assert rep.r_psi_lower == rep.r2  # divisor floored at 1

    def test_state_rate_lower_bound_divides_by_planned_rounds(self):
        rep = rate_report(path_graph(3), 0.1)
        assert rep.n_geo_plan == 2
        assert rep.r2 == composite_r2(from_z_noise(0.1)) > 0.0
        assert rep.r_psi_lower == rep.r2 / rep.n_geo_plan


class TestThresholdScan:
    def test_verdicts_bracket_the_threshold(self):
        rows = threshold_scan(path_graph(3), [0.05, 0.28, 0.30], shots=300, seed=5)
        assert [r.p for r in rows] == [0.05, 0.28, 0.30]
        assert [r.purifiable for r in rows] == [True, True, False]
        assert [r.converged for r in rows] == [True, True, False]
        assert rows[0].fidelity is not None and rows[1].fidelity is not None
        assert rows[2].fidelity is None and rows[2].ci95 is None

    def test_temperature_column(self):
        rows = threshold_scan(
            path_graph(3), [0.1, 0.2], shots=50, seed=1, temperatures=[2.5, 4.0]
        )
        assert [r.temperature for r in rows] == [2.5, 4.0]
        plain = threshold_scan(path_graph(3), [0.1], shots=50, seed=1)
        assert plain[0].temperature is None
        with pytest.raises(ParameterError):
            threshold_scan(path_graph(3), [0.1, 0.2], shots=50, temperatures=[2.5])

    def test_grid_must_be_sorted(self):
        with pytest.raises(ParameterError):
            threshold_scan(path_graph(3), [0.3, 0.1], shots=10)

    def test_deterministic_rows(self):
        a = threshold_scan(star_graph(3), [0.1, 0.2], shots=400, seed=9)
        b = threshold_scan(star_graph(3), [0.1, 0.2], shots=400, seed=9)
        assert a == b
