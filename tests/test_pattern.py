"""Trajectory-engine checks.

The exhaustive integer-exact sweep lives in the verification module and runs
in its own tests; here the same correspondence is spot-checked with an
independently coded float replay (projectors and gates from the dense
backend), plus hand-worked examples and contract tests.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from graphpurify.dense import H, Z
from graphpurify.errors import ParameterError
from graphpurify.graphs import Graph, path_graph, star_graph
from graphpurify.pattern import (
    FrameBatch,
    apply_cz,
    apply_cz_via_pair,
    is_ideal,
    measure_z,
    merge_local,
    sample_thermal,
)
from graphpurify.rng import derive_rng
from oracles import CZ, apply_unitary_vec, graph_state_vector


def _one(g: Graph, e: int = 0, f: int = 0) -> FrameBatch:
    """A width-1 batch: the one (z_errors, correction_frame) column (e, f)."""
    return FrameBatch.of_columns(g, [(e, f)])


def _column(batch: FrameBatch, c: int = 0) -> tuple[int, int]:
    """Column c of a batch as its (z_errors, correction_frame) pair."""
    e = f = 0
    for q, (zr, fr) in enumerate(zip(batch.z_rows, batch.frame_rows)):
        e |= (zr >> c & 1) << q
        f |= (fr >> c & 1) << q
    return e, f


def _dense_of(batch: FrameBatch) -> np.ndarray:
    """Z^(e XOR f) |graph state> as a dense vector, for column 0."""
    psi = graph_state_vector(batch.graph)
    e, f = _column(batch)
    for q in range(batch.graph.n):
        if (e ^ f) >> q & 1:
            psi = apply_unitary_vec(psi, Z, (q,))
    return psi


def _same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return False
    return abs(abs(np.vdot(a, b)) - na * nb) < 1e-9


def _plus_at(rest: np.ndarray) -> np.ndarray:
    """Put a qubit in |+> (unnormalized) between the (higher, lower) index
    halves of ``rest``, a vector without it."""
    return np.stack((rest, rest), axis=1).reshape(-1)


def _drop_z(psi: np.ndarray, n: int, v: int, bit: int) -> np.ndarray:
    """Project qubit v onto Z outcome ``bit`` and leave it in |+>, the
    engine's picture of a measured qubit."""
    r = psi.reshape(1 << (n - 1 - v), 2, 1 << v)
    return _plus_at(r[:, bit, :])


def _collapse_x(psi: np.ndarray, n: int, v: int, bit: int) -> np.ndarray:
    """Project qubit v onto the X eigenstate for ``bit`` and leave it in |+>."""
    r = psi.reshape(1 << (n - 1 - v), 2, 1 << v)
    return _plus_at(r[:, 0, :] + (1.0 - 2.0 * bit) * r[:, 1, :])


class TestIsIdeal:
    def test_ideal_means_no_unknown_error(self):
        g = path_graph(3)
        assert is_ideal(_one(g)) == 1
        batch = FrameBatch.of_columns(g, [(0, 0), (0, 0b010), (0b001, 0b001), (0b100, 0)])
        assert is_ideal(batch) == 0b0011  # a frame alone is fine
        # a dead column is never ideal
        assert is_ideal(dataclasses.replace(batch, alive=0b1110)) == 0b0010


class TestSampleThermal:
    def test_reproducible_and_frame_free(self):
        g = star_graph(5)
        a = sample_thermal(g, 0.3, derive_rng(11, "t"))
        b = sample_thermal(g, 0.3, derive_rng(11, "t"))
        assert a == b
        assert a.frame_rows == (0,) * g.n
        assert a.graph == g
        assert a.alive == 1

    def test_p_zero_is_ideal(self):
        rng = derive_rng(0, "t0")
        for _ in range(20):
            assert sample_thermal(path_graph(4), 0.0, rng).z_rows == (0,) * 4

    def test_p_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            sample_thermal(path_graph(2), 0.6, derive_rng(0))

    def test_flip_rate_near_p(self):
        # deterministic given the seed, so the bound cannot flake
        g = path_graph(1)
        rng = derive_rng(2024, "rate")
        hits = sum(sample_thermal(g, 0.3, rng).z_rows[0] for _ in range(4000))
        assert abs(hits / 4000 - 0.3) < 0.03


class TestApplyCz:
    def test_toggle_involution(self):
        st = _one(path_graph(3), 0b101, 0b010)
        once = apply_cz(st, 0, 2)
        assert once.graph.adj[0] >> 2 & 1
        assert apply_cz(once, 0, 2) == st

    def test_patterns_untouched(self):
        st = _one(path_graph(3), 0b101, 0b010)
        out = apply_cz(st, 0, 1)
        assert _column(out) == (0b101, 0b010)
        assert out.alive == 1


class TestMeasureZ:
    def test_worked_example_middle_of_path(self):
        st = _one(path_graph(3))
        plus = measure_z(st, 1, outcome_row=0)
        # the measured qubit keeps its index as a bare, error-free |+>
        assert plus == _one(Graph.from_edges(3, []))

        minus = measure_z(st, 1, outcome_row=1)
        # the -1 branch leaves a known Z byproduct on both old neighbours
        assert _column(minus) == (0, 0b101)
        assert minus.alive == 1

    def test_matches_dense_on_all_three_vertex_graphs(self):
        slots = [(0, 1), (0, 2), (1, 2)]
        for mask in range(8):
            g = Graph.from_edges(3, [slots[i] for i in range(3) if mask >> i & 1])
            for e in range(8):
                st = _one(g, e)
                psi = _dense_of(st)
                for v in range(3):
                    for bit in (0, 1):
                        res = measure_z(st, v, outcome_row=bit)
                        assert res.alive == 1
                        branch = _drop_z(psi, 3, v, bit)
                        assert _same_ray(branch, _dense_of(res))
                        assert res.graph.adj[v] == 0
                        assert res.z_rows[v] == res.frame_rows[v] == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            measure_z(_one(path_graph(2)), 2, outcome_row=0)


def _replay_merge(pre: FrameBatch, party, structure, outcomes) -> np.ndarray:
    """Dense replay of a merge given its (measured, pivot) structure; an
    outcome is the bit of its row (1 for -1)."""
    n = pre.graph.n
    psi = _dense_of(pre)
    kappa = party[0]
    for m in party[1:]:
        psi = apply_unitary_vec(psi, CZ, (kappa, m))
    for (measured, pivot), bit in zip(structure, outcomes):
        psi = _collapse_x(psi, n, measured, bit)
        if pivot is not None:
            psi = apply_unitary_vec(psi, H, (pivot,))
    return psi


class TestMergeLocal:
    def test_worked_example_fuse_two_pairs(self):
        # two fresh pairs; joining one half of each leaves a three-vertex chain
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        res, pivots = merge_local(_one(g), [1, 2], outcome_rows=(0,))
        # a three-vertex chain 0-1-3, the measured half 2 left bare
        assert res.graph == Graph.from_edges(4, [(0, 1), (1, 3)])
        assert res.alive == 1
        assert pivots == (3,)

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
        n_meas = len(party) - 1
        _, probe = merge_local(_one(g), party, outcome_rows=(0,) * n_meas)
        structure = list(zip(party[1:], probe))
        for outcomes in itertools.product((0, 1), repeat=n_meas):
            for e in range(1 << g.n):
                st = _one(g, e)
                res, pivots = merge_local(st, party, outcome_rows=outcomes)
                assert list(zip(party[1:], pivots)) == structure
                replay = _replay_merge(st, party, structure, outcomes)
                if not res.alive:
                    assert np.linalg.norm(replay) < 1e-9
                    continue
                assert res.alive == 1
                assert _same_ray(replay, _dense_of(res))

    def test_impossible_branch_refused(self):
        # CZ between already-bonded halves cuts the bond: the X outcome on a
        # bare qubit is deterministic, so the other branch's column dies
        g = Graph.from_edges(2, [(0, 1)])
        ok, _ = merge_local(_one(g), [0, 1], outcome_rows=(0,))
        assert ok.graph == Graph.from_edges(2, [])
        assert ok.alive == 1
        assert merge_local(_one(g), [0, 1], outcome_rows=(1,))[0].alive == 0
        # an unknown error bit flips which branch is possible
        assert merge_local(_one(g, 0b10), [0, 1], outcome_rows=(0,))[0].alive == 0
        assert merge_local(_one(g, 0b10), [0, 1], outcome_rows=(1,))[0].alive == 1

    def test_party_validation(self):
        st = _one(path_graph(3))
        with pytest.raises(ParameterError):
            merge_local(st, [], outcome_rows=())
        with pytest.raises(ParameterError):
            merge_local(st, [1, 1], outcome_rows=(0,))
        with pytest.raises(ParameterError):
            merge_local(st, [0, 3], outcome_rows=(0,))
        with pytest.raises(ParameterError):
            merge_local(st, [0, 1], outcome_rows=(0, 1))

    def test_outcomes_must_be_signs_and_rows_non_negative(self):
        # an outcome is a row of bits (1 for -1), so a negative row is refused
        st = _one(path_graph(3))
        with pytest.raises(ParameterError):
            merge_local(st, [0, 1], outcome_rows=(-1,))
        with pytest.raises(ParameterError):
            measure_z(st, 1, outcome_row=-1)
        pair = _one(Graph.from_edges(4, [(2, 3)]))
        with pytest.raises(ParameterError):
            apply_cz_via_pair(pair, 0, 1, 2, 3, outcome_rows=(0, -1))
        with pytest.raises(ParameterError):
            apply_cz_via_pair(pair, 0, 1, 2, 3, outcome_rows=(0,))


class TestApplyCzViaPair:
    def test_matches_dense_all_outcomes(self):
        for base_edges in ([], [(0, 1)]):
            g = Graph.from_edges(4, base_edges + [(2, 3)])
            for e in range(16):
                st = _one(g, e)
                for o1, o2 in itertools.product((0, 1), repeat=2):
                    res = apply_cz_via_pair(st, 0, 1, 2, 3, outcome_rows=(o1, o2))
                    psi = _dense_of(st)
                    psi = apply_unitary_vec(psi, CZ, (0, 2))
                    psi = apply_unitary_vec(psi, CZ, (1, 3))
                    psi = _collapse_x(psi, 4, 3, o2)
                    psi = _collapse_x(psi, 4, 2, o1)
                    assert res.alive == 1
                    assert _same_ray(psi, _dense_of(res))

    def test_edge_toggled_pair_consumed(self):
        g = Graph.from_edges(4, [(2, 3)])
        res = apply_cz_via_pair(_one(g), 0, 1, 2, 3, outcome_rows=(0, 0))
        assert res.graph == Graph.from_edges(4, [(0, 1)])

    def test_pair_must_be_isolated_edge(self):
        g = Graph.from_edges(4, [(1, 2), (2, 3)])
        with pytest.raises(ParameterError):
            apply_cz_via_pair(_one(g), 0, 1, 2, 3, outcome_rows=(0, 0))

    def test_endpoints_must_be_distinct_from_pair(self):
        g = Graph.from_edges(4, [(2, 3)])
        with pytest.raises(ParameterError):
            apply_cz_via_pair(_one(g), 0, 2, 2, 3, outcome_rows=(0, 0))


def _all_graphs(n: int):
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph.from_edges(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])


def _xor_rows(rows, mask: int) -> int:
    """XOR of the rows picked by the bits of ``mask``."""
    out = 0
    for j, row in enumerate(rows):
        if mask >> j & 1:
            out ^= row
    return out


def _z_map(g: Graph, rule, n_outcomes: int) -> tuple[int, ...]:
    """Bit j of entry i: input qubit j's Z error lands on output qubit i.

    The rule run on the identity batch (column j a lone error on qubit j),
    every outcome +1.
    """
    identity = FrameBatch.of_columns(g, [(1 << q, 0) for q in range(g.n)])
    return rule(identity, (0,) * n_outcomes).z_rows


def _check_z_map(g: Graph, rule, n_outcomes: int, columns, rng) -> None:
    """The map of one error-free run reproduces the engine on every column
    and outcome branch: the Z errors exactly, the frame up to a
    byproduct that depends on the outcomes only.  That one map serving every
    pattern and branch is what the protocol relies on.

    ``rule`` runs once, on the columns tiled once per branch (block b takes
    branch b of ``itertools.product``), and the map is applied to its input
    rows, so every column of every branch is checked at once.  Two sampled
    (branch, column) pairs are cross-checked against the rule run on that
    column alone.
    """
    z_map = _z_map(g, rule, n_outcomes)
    branches = list(itertools.product((0, 1), repeat=n_outcomes))
    width, block = len(columns), (1 << len(columns)) - 1
    batch = FrameBatch.of_columns(g, columns * len(branches))
    rows = tuple(
        sum(block << b * width for b, o in enumerate(branches) if o[i])
        for i in range(n_outcomes)
    )
    out = rule(batch, rows)
    alive = out.alive
    for i, zm in enumerate(z_map):
        assert (out.z_rows[i] ^ _xor_rows(batch.z_rows, zm)) & alive == 0, (g, i)
        byproduct = out.frame_rows[i] ^ _xor_rows(batch.frame_rows, zm)
        for b, outcomes in enumerate(branches):
            live = alive >> b * width & block
            assert byproduct >> b * width & live in (0, live), (g, i, outcomes)
    for _ in range(2):
        b, c = rng.randrange(len(branches)), rng.randrange(width)
        e, f = columns[c]
        alone = rule(_one(g, e, f), branches[b])
        assert alone.alive == alive >> (b * width + c) & 1, (g, e, f, branches[b])
        if alone.alive:
            assert alone.graph == out.graph, (g, e, f, branches[b])
            assert _column(alone) == _column(out, b * width + c), (g, e, f, branches[b])


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
                        lambda b, rows: merge_local(b, party, outcome_rows=rows)[0],
                        size - 1,
                        cols,
                        rng,
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
                    lambda b, rows: apply_cz_via_pair(b, u, v, n, n + 1, outcome_rows=rows),
                    2,
                    cols,
                    rng,
                )

    def test_worked_example_merge(self):
        # fusing one half of each of two pairs: the measured half's error
        # reaches the pivot's old neighbors, the pivot's reaches the kept half
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        z_map = _z_map(g, lambda b, rows: merge_local(b, [1, 2], outcome_rows=rows)[0], 1)
        assert z_map == (0b0001, 0b1010, 0, 0b0100)

    def test_worked_example_splice(self):
        g = Graph.from_edges(4, [(2, 3)])
        z_map = _z_map(g, lambda b, rows: apply_cz_via_pair(b, 0, 1, 2, 3, outcome_rows=rows), 2)
        # the far half's error lands on each endpoint; the halves are cleared
        assert z_map == (0b1001, 0b0110, 0, 0)
