"""The reconstruction build and the thermal target against gate-level oracles.

``build_reconstruction`` applies each CZ layer as one +-1 product in real
arithmetic, and ``thermal_state_from_p`` is a closed form.  Here both meet
slow routes written out in the test: a build that applies every gate, each
CZ included, as its own unitary through ``apply_unitary_rho``, and an
explicit sum over Z-error patterns.  A build that loses one internal CZ must
trip the dense cross-check.  The analytic distance, now fed a target flip
vector built once per search, must equal the per-split form it replaced.
"""

import dataclasses
import itertools
import math
from functools import reduce

import numpy as np
import pytest

from graphpurify import dense, optimality
from graphpurify.errors import InvariantError, ParameterError
from graphpurify.graphs import Graph, _bits, path_graph, star_graph
from graphpurify.optimality import (
    build_reconstruction,
    reconstruction_plan,
    verify_reconstruction,
)
from graphpurify.pattern import FrameBatch, merge_local
from graphpurify.thermal import ThermalModel
from oracles import CZ, apply_unitary_vec, candidate_flip_probs, graph_state_vector, thermal_state

def _gate_by_gate(g: Graph, side_a, p: float) -> np.ndarray:
    """The candidate built one gate at a time, every CZ its own 4x4 unitary."""
    plan = reconstruction_plan(g, side_a)
    n_tot = g.n + len(plan.merges)
    plus = np.array([[0.5, 0.5 - p], [0.5 - p, 0.5]])
    rho = reduce(np.kron, [plus] * n_tot, np.ones((1, 1)))
    for a, b in plan.copy_slots:
        rho = dense.apply_unitary_rho(rho, CZ, (a, b))
    probe_graph = Graph.from_edges(n_tot, list(plan.copy_slots))
    for i, (kappa, extra) in enumerate(plan.merges):
        clean = FrameBatch.of_columns(probe_graph, [(0, 0)])
        runs = [merge_local(clean, [kappa, extra], outcome_rows=(b,)) for b in (0, 1)]
        probes = [batch for batch, _ in runs]
        assert [pr.alive for pr in probes] == [1, 1]
        (pivot,) = runs[0][1]
        # extras fold from the top down, so every slot is its own dense row
        assert extra == n_tot - 1 - i
        rho = dense.apply_unitary_rho(rho, CZ, (kappa, extra))
        acc = 0
        for b in (0, 1):
            br = dense.project_rho(rho, "X", extra, b)
            br = dense.apply_unitary_rho(br, dense.H, (pivot,))
            for q, frame in enumerate(probes[b].frame_rows):
                if frame:
                    br = dense.apply_unitary_rho(br, dense.Z, (q,))
            acc = acc + br
        rho = dense.partial_trace(acc, [q for q in range(n_tot - i) if q != extra])
        probe_graph = probes[0].graph
    for u, v in plan.internal_edges:
        rho = dense.apply_unitary_rho(rho, CZ, (u, v))
    return rho


def _graph_classes(max_n: int) -> list[Graph]:
    """One graph per isomorphism class on 1..max_n vertices."""
    out = []
    for n in range(1, max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for mask in range(1 << len(slots)):
            edges = [e for i, e in enumerate(slots) if mask >> i & 1]
            canon = min(
                tuple(sorted(tuple(sorted((pi[u], pi[v]))) for u, v in edges)) for pi in perms
            )
            if canon not in seen:
                seen.add(canon)
                out.append(Graph.from_edges(n, edges))
    return out


_CLASSES_5 = _graph_classes(5)
_PROBES = (0.0, 0.1, 0.3, 0.5)


def test_the_class_list_is_complete():
    # 1, 2, 4, 11 and 34 unlabeled graphs on 1..5 vertices
    assert len(_CLASSES_5) == 1 + 2 + 4 + 11 + 34


def test_every_wirable_split_on_five_vertices_matches_the_gate_build():
    # both builds read only the plan's wiring, never the side itself, and
    # splits differing only in where isolated vertices sit (or swapping the
    # two sides) share one wiring, so each wiring is built once per probe
    splits = wirings = 0
    seen = set()
    for g in _CLASSES_5:
        for mask in range(1 << g.n):
            side = [v for v in range(g.n) if mask >> v & 1]
            plan = reconstruction_plan(g, side)
            if plan is None:
                continue
            splits += 1
            wiring = (g, plan.copy_slots, plan.merges, plan.internal_edges)
            if wiring in seen:
                continue
            seen.add(wiring)
            wirings += 1
            for p in _PROBES:
                got = build_reconstruction(g, side, p)
                assert got.dtype == np.float64
                np.testing.assert_allclose(got, _gate_by_gate(g, side, p), rtol=0, atol=1e-12)
    assert (splits, wirings) == (1148, 419)


@pytest.mark.parametrize("side", [[0, 1, 2, 3], [0, 1, 2], [0, 1], [0]])
def test_star6_fold_cases_match_the_gate_build(side):
    # the hub keeps 3, 2, 1 and 0 leaves, so it folds 1 to 4 extra pair halves
    g = star_graph(6)
    plan = reconstruction_plan(g, side)
    assert len(plan.merges) == 5 - len(side)
    for p in _PROBES:
        got = build_reconstruction(g, side, p)
        np.testing.assert_allclose(got, _gate_by_gate(g, side, p), rtol=0, atol=1e-12)


def _error_pattern_sum(g: Graph, p: float) -> np.ndarray:
    """sum_e p^|e| (1-p)^(n-|e|) Z^e |G><G| Z^e, one pattern at a time."""
    n = g.n
    psi = graph_state_vector(g)
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    for e in range(1 << n):
        v = psi
        for q in _bits(e):
            v = apply_unitary_vec(v, dense.Z, (q,))
        k = e.bit_count()
        rho += p**k * (1.0 - p) ** (n - k) * np.outer(v, v.conj())
    return rho


def test_thermal_closed_form_matches_the_pattern_sum_and_the_gibbs_state():
    graphs = 0
    for n in range(1, 5):
        slots = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            g = Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])
            for T in (0.4, 1.0, 2.5):
                model = ThermalModel(B=1.0, T=T)
                closed = dense.thermal_state_from_p(g, model.error_prob())
                assert closed.dtype == np.float64
                np.testing.assert_allclose(
                    closed, _error_pattern_sum(g, model.error_prob()), rtol=0, atol=1e-12
                )
                np.testing.assert_allclose(closed, thermal_state(g, model), rtol=0, atol=1e-12)
            for p in (0.0, 0.5, 1.0):
                np.testing.assert_allclose(
                    dense.thermal_state_from_p(g, p), _error_pattern_sum(g, p), rtol=0, atol=1e-12
                )
            graphs += 1
    assert graphs == 1 + 2 + 8 + 64


@pytest.mark.parametrize("p", [0.0, 1e-6, 0.1, 0.3, 0.5, 1.0])
def test_flip_damping_equals_the_kron_folds_it_replaced(p):
    # the noisy-plus product the build started from, and the damping vector
    # the thermal target gathered at b ^ b': both bit for bit
    plus = np.array([[0.5, 0.5 - p], [0.5 - p, 0.5]])
    for n in range(9):
        damping = dense.flip_damping(n, p)
        assert np.array_equal(damping / (1 << n), reduce(np.kron, [plus] * n, np.ones((1, 1)))), n
        vec = reduce(np.kron, [np.array([1.0, 1.0 - 2.0 * p])] * n, np.ones(1))
        idx = np.arange(1 << n)
        assert np.array_equal(damping, vec[idx[:, None] ^ idx[None, :]]), n


def test_a_build_missing_one_internal_cz_trips_the_cross_check(monkeypatch):
    real = optimality._assemble

    def lossy(plan, p):
        return real(dataclasses.replace(plan, internal_edges=plan.internal_edges[:-1]), p)

    # the first matching cut for edge (0, 1) of the 3-path is {0} | {1, 2},
    # whose one internal CZ is (1, 2)
    assert optimality._first_matching_cut(path_graph(3), 0, 1) == 0b001
    assert reconstruction_plan(path_graph(3), [0]).internal_edges == ((1, 2),)
    assert verify_reconstruction(path_graph(3), [0], 0.1).ok
    monkeypatch.setattr(optimality, "_assemble", lossy)
    with pytest.raises(InvariantError, match="dense circuit disagrees"):
        verify_reconstruction(path_graph(3), [0], 0.1)


def _per_split_analytic_distance(g: Graph, side_a, p: float) -> float:
    """The analytic distance as computed split by split before the search
    screened splits: candidate probabilities and both flip vectors rebuilt
    on every call.  A vertex of cross degree <= 1 flips with exactly p (the
    closed form rounds off p at width 1)."""
    amask = 0
    for v in side_a:
        amask |= 1 << v
    probs = []
    for v in range(g.n):
        other = g.adj[v] & (~amask if amask >> v & 1 else amask)
        width = other.bit_count()
        probs.append(p if width <= 1 else (1.0 - (1.0 - 2.0 * p) ** width) / 2.0)
    cand = optimality._product_flip_vector(tuple(probs))
    target = optimality._product_flip_vector(tuple([p] * g.n))
    return 0.5 * float(np.abs(cand - target).sum())


def test_analytic_distance_equals_the_per_split_form_on_five_vertices():
    splits = 0
    for g in _CLASSES_5:
        for mask in range(1 << g.n):
            side = [v for v in range(g.n) if mask >> v & 1]
            # the closed form rounds width-1 probabilities off p at 0.1 and
            # 1e-6, not at 0.3
            for p in (0.1, 0.3, 1e-6):
                if reconstruction_plan(g, side) is None:
                    assert verify_reconstruction(g, side, p).method == "no-canonical-wiring"
                    continue
                got = optimality._analytic_trace_distance(
                    candidate_flip_probs(g, side, p), optimality._product_flip_vector((p,) * g.n)
                )
                assert got == _per_split_analytic_distance(g, side, p), (g, side, p)
            splits += 1
    assert splits == 1 * 2 + 2 * 4 + 4 * 8 + 11 * 16 + 34 * 32


@pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
def test_tolerance_must_be_finite_and_non_negative(tol):
    with pytest.raises(ParameterError, match="--tol"):
        verify_reconstruction(path_graph(3), [0], 0.1, tol=tol)
