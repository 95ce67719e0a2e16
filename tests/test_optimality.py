"""Two-party reconstruction checks.

The dense route (explicit noisy qubits, pair CZs, fold circuits, internal
CZs) and the analytic flip-distribution model are built from disjoint
machinery; every dense verification cross-asserts the two, so these tests
lean on structural properties, hand-derived trace distances, and the
documented exactness condition (every cross degree at most one).
"""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpurify
from graphpurify import optimality

from graphpurify.dense import thermal_state_from_p, trace_distance
from graphpurify.errors import CapacityError, ParameterError
from graphpurify.graphs import Graph, cycle_graph, load_graph, path_graph, star_graph
from graphpurify.optimality import (
    MAX_RECONSTRUCTION_QUBITS,
    build_reconstruction,
    proof_applies,
    reconstruction_plan,
    verify_reconstruction,
)
# white-box: the flip model and the screen in front of it
from graphpurify.optimality import (
    _SCREEN_SLACK,
    _analytic_trace_distance,
    _product_flip_vector,
    _screened_distance,
)
from oracles import candidate_flip_probs, check_density_matrix


class TestReconstructionPlan:
    def test_single_cross_edge_is_a_direct_pair(self):
        plan = reconstruction_plan(path_graph(3), [0])
        assert plan is not None
        assert plan.cross_edges == ((0, 1),)
        assert plan.internal_edges == ((1, 2),)
        assert plan.pair_count == 1
        assert plan.copy_slots == ((0, 1),)
        assert plan.merges == ()

    def test_two_cross_edges_at_one_vertex_fold_once(self):
        plan = reconstruction_plan(path_graph(3), [1])
        assert plan is not None
        assert plan.cross_edges == ((0, 1), (1, 2))
        assert plan.pair_count == 2
        # first tree edge direct, second lands on an extra slot folded at
        # the parent vertex
        assert plan.copy_slots == ((0, 1), (3, 2))
        assert plan.merges == ((1, 3),)

    def test_adjacent_square_split_needs_no_folds(self):
        plan = reconstruction_plan(cycle_graph(4), [0, 3])
        assert plan is not None
        assert plan.cross_edges == ((0, 1), (2, 3))
        assert plan.internal_edges == ((0, 3), (1, 2))
        assert plan.pair_count == 2
        assert plan.merges == ()

    def test_diagonal_square_split_has_no_wiring(self):
        # all four edges cross, and they close a cycle
        assert reconstruction_plan(cycle_graph(4), [0, 2]) is None

    def test_side_is_normalized(self):
        plan = reconstruction_plan(path_graph(3), [2, 0, 2])
        assert plan.side_a == (0, 2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            reconstruction_plan(path_graph(3), [5])
        with pytest.raises(CapacityError):
            reconstruction_plan(path_graph(MAX_RECONSTRUCTION_QUBITS + 1), [0])


class TestCandidateFlipProbs:
    def test_widths_follow_cross_degree(self):
        p = 0.1
        probs = candidate_flip_probs(path_graph(3), [1], p)
        two_fold = (1.0 - (1.0 - 2.0 * p) ** 2) / 2.0
        assert probs[0] == pytest.approx(p, abs=1e-15)
        assert probs[1] == pytest.approx(two_fold, abs=1e-15)
        assert probs[2] == pytest.approx(p, abs=1e-15)

    def test_cross_free_vertices_get_plain_noise(self):
        # local preparation carries the same one-qubit noise as a pair half
        probs = candidate_flip_probs(path_graph(3), [0], 0.2)
        assert probs == pytest.approx((0.2, 0.2, 0.2))

    def test_p_validated(self):
        with pytest.raises(ParameterError):
            candidate_flip_probs(path_graph(2), [0], 0.6)


class TestVerifyReconstruction:
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2])
    def test_path3_exact_for_end_split(self, p):
        res = verify_reconstruction(path_graph(3), [0], p)
        assert res.ok
        assert res.trace_distance <= 1e-9
        assert res.method == "dense"

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2])
    def test_square_exact_for_adjacent_split(self, p):
        res = verify_reconstruction(cycle_graph(4), [0, 3], p)
        assert res.ok
        assert res.trace_distance <= 1e-9
        assert res.method == "dense"

    def test_square_diagonal_split_reports_no_wiring(self):
        res = verify_reconstruction(cycle_graph(4), [0, 2], 0.1)
        assert not res.ok
        assert math.isinf(res.trace_distance)
        assert res.method == "no-canonical-wiring"

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2])
    def test_triangle_gap_is_p_times_one_minus_two_p(self, p):
        # hand-derived: exactly one vertex carries a two-fold width, so the
        # gap is |2p(1-p) - p| = p(1-2p), identical for every split
        for side in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            res = verify_reconstruction(cycle_graph(3), side, p)
            assert not res.ok
            assert res.trace_distance == pytest.approx(p * (1 - 2 * p), abs=1e-9)
            assert res.method == "dense"

    def test_analytic_and_dense_report_the_same_distance(self):
        target = _product_flip_vector((0.1,) * 3)
        for side in ([0], [1]):
            a = _analytic_trace_distance(candidate_flip_probs(cycle_graph(3), side, 0.1), target)
            d = verify_reconstruction(cycle_graph(3), side, 0.1)
            assert d.method == "dense"
            assert a == pytest.approx(d.trace_distance, abs=1e-9)
            assert (a <= 1e-9) == d.ok

    def test_two_fold_chain_passes_the_internal_cross_check(self):
        # three cross edges in a row: two folds chained through extras; the
        # dense build must still match the analytic model to 1e-9
        res = verify_reconstruction(path_graph(4), [1, 3], 0.15)
        assert res.method == "dense"
        assert not res.ok
        assert 0.0 < res.trace_distance < 1.0

    def test_noise_endpoints_make_every_wirable_split_exact(self):
        assert verify_reconstruction(cycle_graph(3), [0], 0.0).ok
        assert verify_reconstruction(cycle_graph(3), [0], 0.5).ok

    def test_oversized_dense_request_raises_but_auto_falls_back(self):
        # hub with seven cross edges: six folds push past the dense cap
        g = star_graph(8)
        side = list(range(1, 8))
        with pytest.raises(CapacityError):
            build_reconstruction(g, side, 0.1)
        res = verify_reconstruction(g, side, 0.1)
        assert res.method == "analytic"
        assert not res.ok

    def test_flip_vector_equals_the_kron_fold(self):
        # the outer-product fold must multiply in the kron fold's order, so
        # the two arrays are equal, not merely close
        rng = random.Random(17)
        for n in range(13):
            probs = tuple(rng.uniform(0.0, 0.5) for _ in range(n))
            cols = [np.array([1.0 - q, q]) for q in probs]
            want = reduce(np.kron, reversed(cols)) if cols else np.ones(1)
            assert np.array_equal(_product_flip_vector(probs), want), n


class TestBuildReconstruction:
    def test_candidate_is_a_density_matrix(self):
        rho = build_reconstruction(star_graph(3), [0], 0.1)
        check_density_matrix(rho, atol=1e-9)

    def test_exact_split_reproduces_the_thermal_state(self):
        for g, side in ((path_graph(3), [0]), (cycle_graph(4), [0, 3])):
            rho = build_reconstruction(g, side, 0.12)
            target = thermal_state_from_p(g, 0.12)
            assert trace_distance(rho, target) <= 1e-12

    def test_unwirable_split_rejected(self):
        with pytest.raises(ParameterError):
            build_reconstruction(cycle_graph(4), [0, 2], 0.1)


class TestProofApplies:
    def test_path3_every_edge_covered(self):
        assert proof_applies(path_graph(3)) == {(0, 1): True, (1, 2): True}

    def test_star4_every_edge_covered(self):
        verdicts = proof_applies(star_graph(4))
        assert verdicts == {(0, 1): True, (0, 2): True, (0, 3): True}

    def test_square_every_edge_covered(self):
        verdicts = proof_applies(cycle_graph(4), p=0.1)
        assert all(verdicts.values())
        assert set(verdicts) == {(0, 1), (0, 3), (1, 2), (2, 3)}

    def test_triangle_no_edge_covered(self):
        verdicts = proof_applies(cycle_graph(3), p=0.1)
        assert verdicts == {(0, 1): False, (0, 2): False, (1, 2): False}

    def test_probe_noise_must_be_interior(self):
        with pytest.raises(ParameterError):
            proof_applies(path_graph(3), p=0.0)
        with pytest.raises(ParameterError):
            proof_applies(path_graph(3), p=0.5)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            proof_applies(path_graph(MAX_RECONSTRUCTION_QUBITS + 1))


def _reference_first_splits(g: Graph, p: float, tol: float) -> dict:
    """The search without any screen: plan every split separating the edge,
    take the full flip-vector total variation, and the first split that has
    a wiring and passes wins (None when none does).  Width 1 flips with
    exactly p, as in the program."""
    target = _product_flip_vector((p,) * g.n)
    first = {}
    for u, v in sorted(g.edges()):
        others = [w for w in range(g.n) if w != u and w != v]
        first[(u, v)] = None
        for pick in range(1 << len(others)):
            side = [u] + [w for i, w in enumerate(others) if pick >> i & 1]
            if reconstruction_plan(g, side) is None:
                continue
            amask = sum(1 << x for x in side)
            probs = []
            for x in range(g.n):
                cross = (g.adj[x] & (~amask if amask >> x & 1 else amask)).bit_count()
                probs.append(p if cross <= 1 else (1.0 - (1.0 - 2.0 * p) ** cross) / 2.0)
            if 0.5 * float(np.abs(_product_flip_vector(tuple(probs)) - target).sum()) <= tol:
                first[(u, v)] = frozenset(side)
                break
    return first


_SCREEN_CASES = ((0.1, 1e-9), (0.3, 1e-9), (1e-6, 1e-9), (0.1, 0.05), (0.2, 0.3), (0.01, 0.02))
_BENCH_GRAPHS = ("cycle:3", "cycle:5", "path:6", "grid:2x3", "star:6", "cycle:7")


def _labelled_graphs(max_n: int):
    for n in range(1, max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            yield Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])


class TestScreenedSearch:
    """``proof_applies`` screens a split by cheap bounds before planning it
    and builds one dense witness per edge's winning split; its verdicts must
    be those of the unscreened search."""

    def test_verdicts_equal_the_unscreened_search(self):
        graphs = list(_labelled_graphs(4)) + [load_graph(name) for name in _BENCH_GRAPHS]
        assert len(graphs) == 75 + 6
        for g in graphs:
            for p, tol in _SCREEN_CASES:
                want = {e: side is not None for e, side in _reference_first_splits(g, p, tol).items()}
                assert proof_applies(g, p, tol) == want, (g, p, tol)

    def test_one_plan_and_one_witness_per_winning_split(self, monkeypatch):
        plans = []
        witnesses = []
        real_plan, real_assemble = optimality.reconstruction_plan, optimality._assemble

        def counting_plan(g, side_a):
            plans.append(frozenset(side_a))
            return real_plan(g, side_a)

        def counting_assemble(plan, p):
            witnesses.append(plan.side_a)
            return real_assemble(plan, p)

        monkeypatch.setattr(optimality, "reconstruction_plan", counting_plan)
        monkeypatch.setattr(optimality, "_assemble", counting_assemble)
        firsts = 0
        for name in _BENCH_GRAPHS:
            g = load_graph(name)
            ref = _reference_first_splits(g, 0.1, 1e-9)
            sides = [side for side in ref.values() if side is not None]
            firsts += len(sides)
            plans.clear()
            witnesses.clear()
            assert proof_applies(g, 0.1) == {e: side is not None for e, side in ref.items()}
            # at p = 0.1 every split within tol has all cross degrees <= 1, a
            # matching, so each planned split is some edge's first split
            assert sorted(plans, key=sorted) == sorted(sides, key=sorted), name
            assert sorted(witnesses) == sorted(tuple(sorted(s)) for s in sides), name
        # planning every split before screening it took 211 plans per pass
        assert firsts == 29

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.floats(0.0, 0.5),
        st.lists(st.floats(0.0, 0.5), min_size=1, max_size=6),
    )
    def test_total_variation_bounds_every_marginal_gap(self, p, probs):
        # exactly, in rationals
        exact = [Fraction(q) for q in probs]
        fp = Fraction(p)
        tv = Fraction(0)
        for x in range(1 << len(probs)):
            c = t = Fraction(1)
            for i, q in enumerate(exact):
                bit = x >> i & 1
                c *= q if bit else 1 - q
                t *= fp if bit else 1 - fp
            tv += abs(c - t)
        assert tv / 2 >= max(abs(q - fp) for q in exact)
        # and in floats, within the screen's slack
        gap = max(abs(q - p) for q in probs)
        dist = _analytic_trace_distance(tuple(probs), _product_flip_vector((p,) * len(probs)))
        assert dist >= gap - _SCREEN_SLACK
        if gap > _SCREEN_SLACK:
            assert _screened_distance(tuple(probs), p, gap - 2 * _SCREEN_SLACK, None) is None

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.0, 0.5), st.integers(1, 8), st.floats(0.0, 1e-6))
    def test_equal_tuples_are_exactly_zero(self, p, n, tol):
        probs = (p,) * n
        target = _product_flip_vector(probs)
        assert _analytic_trace_distance(probs, target) == 0.0
        assert _screened_distance(probs, p, tol, target) == 0.0

    def test_zero_tol_gives_the_default_tol_verdicts(self):
        # width 1 flips with exactly p, so an exact split has distance 0.0
        # in floats too; (1 - (1 - 2p)) / 2 rounds off p at p = 0.1 and
        # made every split of path:2 miss at tol 0
        graphs = [*_labelled_graphs(4), *(load_graph(name) for name in _BENCH_GRAPHS)]
        for p in (0.1, 0.3, 1e-6):
            assert candidate_flip_probs(path_graph(3), [0], p) == (p, p, p)
            assert proof_applies(path_graph(2), p, tol=0.0) == {(0, 1): True}
            for g in graphs:
                assert proof_applies(g, p, tol=0.0) == proof_applies(g, p), (g.adj, p)


def test_auto_passes_an_exact_analytic_zero_at_tol_zero():
    # the width-1 probability is exactly p, so the analytic distance is 0.0
    # while the dense eigenvalues can give about 1e-16; the two agree, so
    # the verdict and the search must pass
    res = verify_reconstruction(path_graph(3), [0], 0.3, tol=0.0)
    assert res.method == "dense" and res.trace_distance < 1e-12
    assert res.ok
    probs = candidate_flip_probs(path_graph(3), [0], 0.3)
    assert _analytic_trace_distance(probs, _product_flip_vector((0.3,) * 3)) == 0.0
    for tol in (0.0, 1e-17):
        assert proof_applies(path_graph(3), 0.3, tol=tol) == {(0, 1): True, (1, 2): True}


_CORRUPT_TRACE_DISTANCE = """
import sys
import graphpurify.dense as dense
from graphpurify.errors import InvariantError
from graphpurify.graphs import star_graph
from graphpurify.optimality import verify_reconstruction

if __debug__:
    sys.exit("asserts are live; run this under python -O")
real = dense.trace_distance
dense.trace_distance = lambda a, b: real(a, b) + 1e-3
try:
    verify_reconstruction(star_graph(3), [0], 0.1)
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit("verify_reconstruction accepted a corrupted dense check")
"""

# the screened search in proof_applies must reach the same check
_MISSING_INTERNAL_CZ = """
import dataclasses
import sys
from graphpurify import optimality
from graphpurify.errors import InvariantError
from graphpurify.graphs import path_graph

if __debug__:
    sys.exit("asserts are live; run this under python -O")
real = optimality._assemble
optimality._assemble = lambda plan, p: real(
    dataclasses.replace(plan, internal_edges=plan.internal_edges[:-1]), p
)
try:
    optimality.proof_applies(path_graph(3))
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit("proof_applies accepted a build missing one internal CZ")
"""


def test_dense_cross_check_survives_optimized_mode():
    # -O strips asserts from test modules too, so a child interpreter runs
    # under -O, where only the package's own checks can see the corruption
    src = os.path.dirname(os.path.dirname(graphpurify.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for script in (_CORRUPT_TRACE_DISTANCE, _MISSING_INTERNAL_CZ):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dense circuit disagrees with the analytic flip model" in proc.stdout
