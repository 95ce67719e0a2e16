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
from graphpurify import dense, optimality

from graphpurify.dense import thermal_state_from_p, trace_distance
from graphpurify.errors import CapacityError, InvariantError, ParameterError
from graphpurify.graphs import Graph, _bits, cycle_graph, load_graph, path_graph, star_graph
from graphpurify.optimality import (
    MAX_RECONSTRUCTION_QUBITS,
    build_reconstruction,
    proof_applies,
    reconstruction_plan,
    verify_reconstruction,
)
# white-box: the flip model
from graphpurify.optimality import _analytic_trace_distance, _product_flip_vector
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

    @pytest.mark.parametrize("p", [1e-12, 0.4999999999])
    def test_tolerance_at_the_fold_gap_is_rejected(self, p):
        # the fold gap p(1 - 2p) is below the default tol here, so the
        # triangle's folded split would read as exact
        assert p * (1 - 2 * p) < 1e-9
        with pytest.raises(ParameterError, match=r"--tol .* fold gap .* --p"):
            verify_reconstruction(cycle_graph(3), [0], p)

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
        verdicts = proof_applies(cycle_graph(4))
        assert all(verdicts.values())
        assert set(verdicts) == {(0, 1), (0, 3), (1, 2), (2, 3)}

    def test_triangle_no_edge_covered(self):
        verdicts = proof_applies(cycle_graph(3))
        assert verdicts == {(0, 1): False, (0, 2): False, (1, 2): False}

    def test_path9_past_the_old_cap_covers_every_edge(self):
        # past MAX_RECONSTRUCTION_QUBITS no reference build fits, and the
        # verdicts rest on the matching-cut search as everywhere
        g = path_graph(MAX_RECONSTRUCTION_QUBITS + 1)
        assert proof_applies(g) == {(i, i + 1): True for i in range(MAX_RECONSTRUCTION_QUBITS)}
        assert proof_applies(g) == _matching_cut_reference(g)


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
# the cases whose tol lies below the fold gap p(1 - 2p); verify_reconstruction rejects the rest
_BELOW_GAP = tuple((p, tol) for p, tol in _SCREEN_CASES if tol < p * (1 - 2 * p))
_BENCH_GRAPHS = ("cycle:3", "cycle:5", "path:6", "grid:2x3", "star:6", "cycle:7")


def _labelled_graphs(max_n: int):
    for n in range(1, max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            yield Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])


def _matching_cut_reference(g: Graph) -> dict:
    """An edge is covered iff some split separating its ends is a matching
    cut: no two of the cut edges share a vertex."""
    verdicts = {}
    for u, v in g.edges():
        verdicts[(u, v)] = False
        for pick in range(1 << g.n):
            if not (pick >> u & 1) or pick >> v & 1:
                continue
            cut = [e for e in g.edges() if (pick >> e[0] & 1) != (pick >> e[1] & 1)]
            ends = [x for e in cut for x in e]
            if len(ends) == len(set(ends)):
                verdicts[(u, v)] = True
                break
    return verdicts


class TestScreenedSearch:
    """``proof_applies`` is the matching-cut predicate alone: it takes no
    noise level and no tolerance, and its verdicts must be those of the
    unscreened float search over the canonical family at every (p, tol)
    below the fold gap, and of the matching-cut reference."""

    def test_verdicts_equal_the_unscreened_search(self):
        graphs = list(_labelled_graphs(4)) + [load_graph(name) for name in _BENCH_GRAPHS]
        assert len(graphs) == 75 + 6
        assert len(_BELOW_GAP) == 4
        for g in graphs:
            got = proof_applies(g)
            for p, tol in _BELOW_GAP:
                want = {e: side is not None for e, side in _reference_first_splits(g, p, tol).items()}
                assert got == want, (g, p, tol)

    def test_verdicts_equal_the_matching_cut_reference(self):
        graphs = list(_labelled_graphs(5))
        assert len(graphs) == 1099
        for g in graphs:
            assert proof_applies(g) == _matching_cut_reference(g), g.adj

    @pytest.mark.parametrize("p, tol", [c for c in _SCREEN_CASES if c not in _BELOW_GAP])
    def test_tolerance_at_the_fold_gap_is_rejected(self, p, tol):
        # a vertex folding two pair halves flips p(1 - 2p) away from p, so a
        # tol at or above that gap passes a folded split as exact: the float
        # search would call the triangle covered, and verify_reconstruction
        # refuses such a tol
        triangle = cycle_graph(3)
        assert set(_reference_first_splits(triangle, p, tol).values()) != {None}
        assert not any(proof_applies(triangle).values())
        with pytest.raises(ParameterError, match=r"--tol .* fold gap .* --p"):
            verify_reconstruction(path_graph(3), [0], p, tol)

    def test_each_first_cut_is_the_reference_split_and_exact(self):
        # the canonical family is the reference the predicate answers for:
        # each edge's first matching cut is the first split the float search
        # passes, and its dense candidate is the thermal state, with half
        # the entrywise l1 norm of the difference, an upper bound on the
        # trace distance, within the agreement allowance
        graphs = [*_labelled_graphs(5), *(load_graph(name) for name in _BENCH_GRAPHS)]
        graphs += [load_graph(name) for name in ("cycle:8", "grid:2x4", "star:8", "path:8")]
        assert len(graphs) == 1099 + 6 + 4
        cuts = bench_cuts = 0
        for i, g in enumerate(graphs):
            ref = _reference_first_splits(g, 0.1, 1e-9)
            thermal = thermal_state_from_p(g, 0.1)
            for u, v in sorted(g.edges()):
                amask = optimality._first_matching_cut(g, u, v)
                side = None if amask is None else frozenset(_bits(amask))
                assert side == ref[(u, v)], (g.adj, u, v)
                if side is None:
                    continue
                candidate = build_reconstruction(g, sorted(side), 0.1)
                assert 0.5 * float(np.abs(candidate - thermal).sum()) <= optimality._AGREEMENT, (g.adj, u, v)
                cuts += 1
                bench_cuts += 1099 <= i < 1099 + 6
        # the benchmark graphs' 29 cuts are the traced threshold pass's
        # optimality.edges_verified, which CI pins
        assert bench_cuts == 29
        assert cuts == 2159

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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.0, 0.5), st.integers(1, 8))
    def test_equal_tuples_are_exactly_zero(self, p, n):
        # so a matching cut's analytic distance, which the witness is
        # checked against, is 0.0
        probs = (p,) * n
        target = _product_flip_vector(probs)
        assert _analytic_trace_distance(probs, target) == 0.0

    def test_zero_tol_gives_the_default_tol_verdicts(self):
        # width 1 flips with exactly p, so an exact split has distance 0.0
        # in floats too, and the float search at tol 0 gives the predicate's
        # verdicts; (1 - (1 - 2p)) / 2 rounds off p at p = 0.1 and made
        # every split of path:2 miss at tol 0
        graphs = [*_labelled_graphs(4), *(load_graph(name) for name in _BENCH_GRAPHS)]
        for p in (0.1, 0.3, 1e-6):
            assert candidate_flip_probs(path_graph(3), [0], p) == (p, p, p)
            assert _reference_first_splits(path_graph(2), p, 0.0) == {(0, 1): frozenset({0})}
            for g in graphs:
                want = {e: side is not None for e, side in _reference_first_splits(g, p, 0.0).items()}
                assert proof_applies(g) == want, (g.adj, p)


def _is_matching_cut_of(g: Graph, amask: int, u: int, v: int) -> bool:
    """u on side A, v on side B, and no vertex with two neighbours across."""
    if not amask >> u & 1 or amask >> v & 1:
        return False
    for x, nb in enumerate(g.adj):
        across = [y for y in range(g.n) if nb >> y & 1 and (amask >> y & 1) != (amask >> x & 1)]
        if len(across) > 1:
            return False
    return True


def _pick_order_walk(g: Graph, u: int, v: int) -> int | None:
    """Side A of the first split, walking pick = 0, 1, ... with bit i of pick
    putting the i-th other vertex on u's side, that is a matching cut."""
    picks = [1 << u]
    for w in range(g.n):
        if w != u and w != v:
            picks += [m | 1 << w for m in picks]  # index = pick
    for amask in picks:
        if all((nb & (~amask if amask >> x & 1 else amask)).bit_count() <= 1 for x, nb in enumerate(g.adj)):
            return amask
    return None


@st.composite
def _graphs(draw, max_n):
    n = draw(st.integers(2, max_n))
    slots = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, min_size=1))
    return Graph.from_edges(n, chosen)


class TestMatchingCutSearch:
    """``_first_matching_cut`` must return the split a walk over every pick
    in order would find first."""

    def test_equals_the_pick_order_walk_on_every_labelled_graph(self):
        edges = 0
        for g in _labelled_graphs(6):
            for u, v in g.edges():
                assert optimality._first_matching_cut(g, u, v) == _pick_order_walk(g, u, v), (g.adj, u, v)
                edges += 1
        # each of the C(n, 2) slots is an edge of half the 2^C(n, 2) graphs
        assert edges == sum(math.comb(n, 2) << math.comb(n, 2) - 1 for n in range(2, 7)) == 251_085

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_graphs(9))
    def test_equals_the_pick_order_walk_on_random_graphs(self, g):
        for u, v in g.edges():
            assert optimality._first_matching_cut(g, u, v) == _pick_order_walk(g, u, v), (u, v)

    @pytest.mark.parametrize(
        "name, covered, edges",
        [("grid:8x8", 112, 112), ("grid:3x3x3", 54, 54), ("icosahedron", 0, 30), ("complete:12", 0, 66)],
    )
    def test_verdicts_past_the_old_cap(self, name, covered, edges):
        g = load_graph(name)
        assert g.n > MAX_RECONSTRUCTION_QUBITS
        verdicts = proof_applies(g)
        assert (sum(verdicts.values()), len(verdicts)) == (covered, edges)
        for u, v in g.edges():
            amask = optimality._first_matching_cut(g, u, v)
            assert verdicts[(u, v)] == (amask is not None)
            if amask is not None:
                assert _is_matching_cut_of(g, amask, u, v), (u, v)
            else:
                # a common neighbour w puts a second cut edge at v (w on
                # u's side) or at u (w on v's side)
                assert g.adj[u] & g.adj[v], (u, v)

    def test_a_search_past_its_budget_is_a_capacity_error(self, monkeypatch):
        # path:4's edge (0, 1) leaves vertex 3 free after propagation, so
        # the search needs a second node
        assert optimality._first_matching_cut(path_graph(4), 0, 1) == 0b0001
        monkeypatch.setattr(optimality, "_SEARCH_BUDGET", 1)
        with pytest.raises(CapacityError, match="budget of 1 nodes"):
            proof_applies(path_graph(4))


class TestWitnessBound:
    """The reference build of a matching cut is held to the thermal state by
    half the entrywise l1 norm of candidate - thermal, an upper bound on
    their trace distance; ``proof_applies`` itself builds nothing dense."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.integers(1, 16),
        st.sampled_from(("full", "rank-one", "zero")),
        st.sampled_from((1.0, 1e-17)),
        st.data(),
    )
    def test_half_the_entrywise_norm_bounds_the_trace_distance(self, dim, kind, scale, data):
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim * dim, max_size=dim * dim))
        m = np.array(values).reshape(dim, dim)
        if kind == "full":
            a = (m + m.T) * scale
        elif kind == "rank-one":
            a = np.outer(m[0], m[0]) * scale
        else:
            a = np.zeros((dim, dim))
        bound = 0.5 * float(np.abs(a).sum())
        # the trace norm is max |tr(UA)| over unitaries U, at most
        # sum |A_ij|; the allowance covers the two sums' rounding orders
        assert trace_distance(a, np.zeros_like(a)) <= bound * (1.0 + 1e-12)

    def test_verdicts_need_no_eigensolve(self, monkeypatch):
        # nor anything else in dense: the predicate reads the graph alone
        class Refuse:
            def __getattr__(self, name):
                raise AssertionError(f"proof_applies reached dense.{name}")

        monkeypatch.setattr(optimality, "dense", Refuse())
        graphs = [*_labelled_graphs(5), *(load_graph(name) for name in _BENCH_GRAPHS)]
        graphs += [load_graph(name) for name in ("cycle:8", "grid:2x4", "star:8", "path:8")]
        assert len(graphs) == 1099 + 6 + 4
        for g in graphs:
            assert proof_applies(g) == _matching_cut_reference(g), g.adj

    def test_a_scaled_candidate_falls_back_to_the_eigensolve_and_fails(self, monkeypatch):
        # the trace distance of (1 + 1e-8) rho from rho is 5e-9, past the
        # 1e-9 agreement, so the entrywise bound cannot vouch for the build,
        # and verify_reconstruction's eigensolve must catch it
        calls = []
        real_assemble, real_distance = optimality._assemble, dense.trace_distance

        def counting_distance(a, b):
            calls.append(a.shape)
            return real_distance(a, b)

        monkeypatch.setattr(optimality, "_assemble", lambda plan, p: real_assemble(plan, p) * (1 + 1e-8))
        monkeypatch.setattr(dense, "trace_distance", counting_distance)
        with pytest.raises(InvariantError, match="dense circuit disagrees"):
            verify_reconstruction(path_graph(3), [0], 0.1)
        assert calls == [(8, 8)]


def test_auto_passes_an_exact_analytic_zero_at_tol_zero():
    # the width-1 probability is exactly p, so the analytic distance is 0.0
    # while the dense eigenvalues can give about 1e-16; the two agree, so
    # the verdict must pass
    res = verify_reconstruction(path_graph(3), [0], 0.3, tol=0.0)
    assert res.method == "dense" and res.trace_distance < 1e-12
    assert res.ok
    probs = candidate_flip_probs(path_graph(3), [0], 0.3)
    assert _analytic_trace_distance(probs, _product_flip_vector((0.3,) * 3)) == 0.0


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

# a reference build that loses an internal CZ must reach the same check
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
    optimality.verify_reconstruction(path_graph(3), [0], 0.1)
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit("verify_reconstruction accepted a build missing one internal CZ")
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
