"""Trajectory-engine checks.

The exhaustive integer-exact sweep lives in the verification module and runs
in its own tests; here the same correspondence is spot-checked with an
independently coded float replay (projectors and gates from the dense
backend), plus hand-worked examples and contract tests.
"""

import itertools

import numpy as np
import pytest

from graphpurify.dense import CZ, H, Z, apply_unitary_vec, graph_state_vector
from graphpurify.errors import ParameterError
from graphpurify.graphs import Graph, path_graph, star_graph
from graphpurify.pattern import (
    MergeStep,
    PatternState,
    apply_cz,
    apply_cz_via_pair,
    ideal_state,
    is_ideal,
    measure_z,
    merge_local,
    sample_thermal,
)
from graphpurify.rng import derive_rng


def _dense_of(state: PatternState) -> np.ndarray:
    """Z^(e XOR f) |graph state> as a dense vector."""
    psi = graph_state_vector(state.graph)
    pat = state.physical_pattern()
    for q in range(state.graph.n):
        if pat >> q & 1:
            psi = apply_unitary_vec(psi, Z, (q,))
    return psi


def _same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return False
    return abs(abs(np.vdot(a, b)) - na * nb) < 1e-9


def _drop_z(psi: np.ndarray, n: int, v: int, bit: int) -> np.ndarray:
    """Project qubit v onto Z outcome ``bit`` and remove it."""
    r = psi.reshape(1 << (n - 1 - v), 2, 1 << v)
    return r[:, bit, :].reshape(-1)


def _collapse_x(psi: np.ndarray, n: int, v: int, bit: int) -> np.ndarray:
    """Project qubit v onto the X eigenstate for ``bit`` and remove it."""
    r = psi.reshape(1 << (n - 1 - v), 2, 1 << v)
    return (r[:, 0, :] + (1.0 - 2.0 * bit) * r[:, 1, :]).reshape(-1)


class TestPatternState:
    def test_bits_outside_range_rejected(self):
        g = path_graph(2)
        with pytest.raises(ParameterError):
            PatternState(g, z_errors=0b100)
        with pytest.raises(ParameterError):
            PatternState(g, correction_frame=-1)

    def test_physical_pattern_is_xor(self):
        st = PatternState(path_graph(3), z_errors=0b011, correction_frame=0b110)
        assert st.physical_pattern() == 0b101

    def test_ideal_means_no_unknown_error(self):
        g = path_graph(3)
        assert is_ideal(ideal_state(g))
        assert is_ideal(PatternState(g, 0, 0b010))  # frame alone is fine
        assert not is_ideal(PatternState(g, 0b001, 0b001))


class TestSampleThermal:
    def test_reproducible_and_frame_free(self):
        g = star_graph(5)
        a = sample_thermal(g, 0.3, derive_rng(11, "t"))
        b = sample_thermal(g, 0.3, derive_rng(11, "t"))
        assert a == b
        assert a.correction_frame == 0
        assert a.graph == g

    def test_p_zero_is_ideal(self):
        rng = derive_rng(0, "t0")
        for _ in range(20):
            assert sample_thermal(path_graph(4), 0.0, rng).z_errors == 0

    def test_p_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            sample_thermal(path_graph(2), 0.6, derive_rng(0))

    def test_flip_rate_near_p(self):
        # deterministic given the seed, so the bound cannot flake
        g = path_graph(1)
        rng = derive_rng(2024, "rate")
        hits = sum(sample_thermal(g, 0.3, rng).z_errors for _ in range(4000))
        assert abs(hits / 4000 - 0.3) < 0.03


class TestApplyCz:
    def test_toggle_involution(self):
        st = PatternState(path_graph(3), 0b101, 0b010)
        once = apply_cz(st, 0, 2)
        assert once.graph.adj[0] >> 2 & 1
        assert apply_cz(once, 0, 2) == st

    def test_patterns_untouched(self):
        st = PatternState(path_graph(3), 0b101, 0b010)
        out = apply_cz(st, 0, 1)
        assert (out.z_errors, out.correction_frame) == (0b101, 0b010)


class TestMeasureZ:
    def test_worked_example_middle_of_path(self):
        st = ideal_state(path_graph(3))
        plus = measure_z(st, 1, forced_outcome=+1)
        assert plus.outcome == +1
        assert plus.state.graph == Graph.from_edges(2, [])
        assert plus.state == PatternState(Graph.from_edges(2, []), 0, 0)
        assert plus.vertex_map == (0, 2)

        minus = measure_z(st, 1, forced_outcome=-1)
        # the -1 branch leaves a known Z byproduct on both old neighbours
        assert minus.outcome == -1
        assert minus.state.correction_frame == 0b11
        assert minus.state.z_errors == 0

    def test_error_bit_flips_the_sampled_outcome(self):
        g = path_graph(3)
        for trial in range(10):
            clean = measure_z(ideal_state(g), 1, rng=derive_rng(trial, "mz"))
            dirty = measure_z(
                PatternState(g, 0b010, 0), 1, rng=derive_rng(trial, "mz")
            )
            assert clean.outcome == -dirty.outcome

    def test_matches_dense_on_all_three_vertex_graphs(self):
        slots = [(0, 1), (0, 2), (1, 2)]
        for mask in range(8):
            g = Graph.from_edges(3, [slots[i] for i in range(3) if mask >> i & 1])
            for e in range(8):
                st = PatternState(g, e, 0)
                psi = _dense_of(st)
                for v in range(3):
                    for outcome in (+1, -1):
                        res = measure_z(st, v, forced_outcome=outcome)
                        branch = _drop_z(psi, 3, v, (1 - outcome) // 2)
                        assert _same_ray(branch, _dense_of(res.state))
                        assert res.vertex_map == tuple(q for q in range(3) if q != v)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            measure_z(ideal_state(path_graph(2)), 2, forced_outcome=+1)


def _replay_merge(pre: PatternState, party, structure, outcomes) -> np.ndarray:
    """Dense replay of a merge given its (measured, pivot) structure."""
    n = pre.graph.n
    psi = _dense_of(pre)
    kappa = party[0]
    for m in party[1:]:
        psi = apply_unitary_vec(psi, CZ, (kappa, m))
    where = list(range(n))
    cur_n = n
    for (measured, pivot), outcome in zip(structure, outcomes):
        v = where[measured]
        psi = _collapse_x(psi, cur_n, v, (1 - outcome) // 2)
        cur_n -= 1
        for q in range(n):
            if where[q] == v:
                where[q] = -1
            elif where[q] > v:
                where[q] -= 1
        if pivot is not None:
            psi = apply_unitary_vec(psi, H, (where[pivot],))
    return psi


class TestMergeLocal:
    def test_worked_example_fuse_two_pairs(self):
        # two fresh pairs; joining one half of each leaves a three-vertex chain
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        res = merge_local(ideal_state(g), [1, 2], forced_outcomes=[+1])
        assert res.state.graph == path_graph(3)
        assert res.kept_qubit == 1
        assert res.vertex_map == (0, 1, 3)
        assert res.steps == (MergeStep(measured=2, outcome=+1, pivot=3),)

    @pytest.mark.parametrize(
        "g, party",
        [
            (path_graph(4), [0, 3]),
            (path_graph(4), [1, 2]),
            (path_graph(4), [0, 1, 2]),
            (Graph.from_edges(4, [(0, 1), (2, 3)]), [1, 2]),
            (Graph.from_edges(4, [(0, 1), (2, 3)]), [0, 2]),
            (star_graph(4), [1, 2, 3]),
        ],
        ids=["path-ends", "path-mid", "path-trio", "pairs-inner", "pairs-outer", "star-leaves"],
    )
    def test_matches_dense(self, g, party):
        probe = merge_local(ideal_state(g), party, rng=derive_rng(0, "probe"))
        structure = [(s.measured, s.pivot) for s in probe.steps]
        n_meas = len(party) - 1
        for outcomes in itertools.product((+1, -1), repeat=n_meas):
            for e in range(1 << g.n):
                st = PatternState(g, e, 0)
                try:
                    res = merge_local(st, party, forced_outcomes=list(outcomes))
                except ParameterError:
                    replay = _replay_merge(st, party, structure, outcomes)
                    assert np.linalg.norm(replay) < 1e-9
                    continue
                assert [(s.measured, s.pivot) for s in res.steps] == structure
                assert res.outcomes == outcomes
                replay = _replay_merge(st, party, structure, outcomes)
                assert _same_ray(replay, _dense_of(res.state))

    def test_impossible_branch_refused(self):
        # CZ between already-bonded halves cuts the bond: the X outcome on a
        # bare qubit is deterministic, so the other branch must be refused
        g = Graph.from_edges(2, [(0, 1)])
        ok = merge_local(ideal_state(g), [0, 1], forced_outcomes=[+1])
        assert ok.state.graph.n == 1
        with pytest.raises(ParameterError):
            merge_local(ideal_state(g), [0, 1], forced_outcomes=[-1])
        # an unknown error bit flips which branch is possible
        dirty = PatternState(g, 0b10, 0)
        with pytest.raises(ParameterError):
            merge_local(dirty, [0, 1], forced_outcomes=[+1])

    def test_party_validation(self):
        st = ideal_state(path_graph(3))
        with pytest.raises(ParameterError):
            merge_local(st, [])
        with pytest.raises(ParameterError):
            merge_local(st, [1, 1], forced_outcomes=[+1])
        with pytest.raises(ParameterError):
            merge_local(st, [0, 3], forced_outcomes=[+1])
        with pytest.raises(ParameterError):
            merge_local(st, [0, 1], forced_outcomes=[+1, -1])

    def test_rng_route_reproducible(self):
        g = star_graph(4)
        a = merge_local(ideal_state(g), [1, 2, 3], rng=derive_rng(5, "m"))
        b = merge_local(ideal_state(g), [1, 2, 3], rng=derive_rng(5, "m"))
        assert a == b


class TestApplyCzViaPair:
    def test_matches_dense_all_outcomes(self):
        for base_edges in ([], [(0, 1)]):
            g = Graph.from_edges(4, base_edges + [(2, 3)])
            for e in range(16):
                st = PatternState(g, e, 0)
                for o1, o2 in itertools.product((+1, -1), repeat=2):
                    res = apply_cz_via_pair(st, 0, 1, 2, 3, forced_outcomes=(o1, o2))
                    psi = _dense_of(st)
                    psi = apply_unitary_vec(psi, CZ, (0, 2))
                    psi = apply_unitary_vec(psi, CZ, (1, 3))
                    psi = _collapse_x(psi, 4, 3, (1 - o2) // 2)
                    psi = _collapse_x(psi, 3, 2, (1 - o1) // 2)
                    assert res.outcomes == (o1, o2)
                    assert res.vertex_map == (0, 1)
                    assert _same_ray(psi, _dense_of(res.state))

    def test_edge_toggled_pair_consumed(self):
        g = Graph.from_edges(4, [(2, 3)])
        res = apply_cz_via_pair(ideal_state(g), 0, 1, 2, 3, forced_outcomes=(+1, +1))
        assert res.state.graph == Graph.from_edges(2, [(0, 1)])

    def test_pair_must_be_isolated_edge(self):
        g = Graph.from_edges(4, [(1, 2), (2, 3)])
        with pytest.raises(ParameterError):
            apply_cz_via_pair(ideal_state(g), 0, 1, 2, 3, forced_outcomes=(+1, +1))

    def test_endpoints_must_be_distinct_from_pair(self):
        g = Graph.from_edges(4, [(2, 3)])
        with pytest.raises(ParameterError):
            apply_cz_via_pair(ideal_state(g), 0, 2, 2, 3, forced_outcomes=(+1, +1))

    def test_rng_route_reproducible(self):
        g = Graph.from_edges(4, [(2, 3)])
        a = apply_cz_via_pair(ideal_state(g), 0, 1, 2, 3, rng=derive_rng(9, "sp"))
        b = apply_cz_via_pair(ideal_state(g), 0, 1, 2, 3, rng=derive_rng(9, "sp"))
        assert a == b


def _apply_map(z_map, mask: int) -> int:
    """Image of an input Z pattern under a z_map, computed row by row."""
    out = 0
    for i, row in enumerate(z_map):
        if bin(row & mask).count("1") % 2:
            out |= 1 << i
    return out


def _all_graphs(n: int):
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph.from_edges(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])


def _check_z_map(g: Graph, op, n_outcomes: int, columns) -> None:
    """The map of one error-free run reproduces the engine on every column
    and forced-outcome branch: the Z errors exactly, the frame up to a
    byproduct that depends on the outcomes only.  That one map serving every
    pattern and branch is what the protocol relies on.
    """
    z_map = op(PatternState(g), None).z_map
    for outcomes in itertools.product((+1, -1), repeat=n_outcomes):
        byproducts = set()
        for e, f in columns:
            try:
                res = op(PatternState(g, e, f), outcomes)
            except ParameterError:
                continue
            assert _apply_map(z_map, e) == res.state.z_errors, (g, e, f, outcomes)
            byproducts.add(res.state.correction_frame ^ _apply_map(z_map, f))
        assert len(byproducts) <= 1, (g, outcomes)


class TestZMap:
    """The GF(2) error maps against the engine's own error update, over the
    merges and splices the oracle sweep runs on graphs of <= 4 vertices."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_merge_z_map_matches_engine(self, n):
        # columns as in the sweep with all variants: error only, frame only,
        # error equal to frame
        cols = [(e, 0) for e in range(1 << n)]
        cols += [(0, f) for f in range(1, 1 << n)]
        cols += [(e, e) for e in range(1, 1 << n)]
        rng = derive_rng(0, "z-map")
        for g in _all_graphs(n):
            for size in range(2, n + 1):
                for party in itertools.permutations(range(n), size):
                    _check_z_map(
                        g,
                        lambda st, outs: merge_local(st, list(party), rng, outs),
                        size - 1,
                        cols,
                    )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_splice_z_map_matches_engine(self, n):
        cols = [(e, 0) for e in range(1 << (n + 2))]
        cols += [(0, f) for f in range(1, 1 << (n + 2))]
        rng = derive_rng(0, "z-map")
        for base in _all_graphs(n):
            joint = Graph.from_edges(n + 2, list(base.edges()) + [(n, n + 1)])
            for u, v in itertools.permutations(range(n), 2):
                _check_z_map(
                    joint,
                    lambda st, outs: apply_cz_via_pair(st, u, v, n, n + 1, rng, outs),
                    2,
                    cols,
                )

    def test_worked_example_merge(self):
        # fusing one half of each of two pairs: the measured half's error
        # reaches the pivot's old neighbors, the pivot's reaches the kept half
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        res = merge_local(ideal_state(g), [1, 2], forced_outcomes=[+1])
        assert res.vertex_map == (0, 1, 3)
        assert res.z_map == (0b0001, 0b1010, 0b0100)

    def test_worked_example_splice(self):
        g = Graph.from_edges(4, [(2, 3)])
        res = apply_cz_via_pair(ideal_state(g), 0, 1, 2, 3, forced_outcomes=(+1, +1))
        # the far half's error lands on each endpoint
        assert res.z_map == (0b1001, 0b0110)
