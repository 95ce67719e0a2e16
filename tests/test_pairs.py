"""Pair-recurrence checks against a dense two-pair circuit oracle.

The oracle builds both noisy pairs as explicit density matrices, runs the
coincidence round gate-by-gate (pre-rotations, the two cross CNOTs, the Z
and X readouts), and reads the kept pair's class weights straight off the
state.  The closed-form map must agree with it component-by-component.
"""

import itertools
import math

import numpy as np
import pytest

from graphpurify.dense import H, I2, Z, apply_unitary_rho, partial_trace, project_rho
from graphpurify.errors import ParameterError
from graphpurify.graphs import Graph
from graphpurify.pairs import (
    BellDiagonal,
    composite_r2,
    distill_trace,
    from_z_noise,
    recurrence_step,
)
from graphpurify.rng import derive_rng
from graphpurify.thermal import P_STAR
from oracles import (
    CNOT,
    PAIRING_GATES,
    RX90,
    SDG,
    apply_unitary_vec,
    graph_state_vector,
    hashing_yield,
    recurrence_pairing,
)

_GATE = {"identity": I2, "hadamard": H, "rx90": RX90, "s_dagger": SDG}


def _class_basis() -> list[np.ndarray]:
    """The four error-class states on one pair: Z^e applied to the ideal."""
    ideal = graph_state_vector(Graph.from_edges(2, [(0, 1)]))
    basis = []
    for ea, eb in ((0, 0), (1, 0), (0, 1), (1, 1)):
        v = ideal
        if ea:
            v = apply_unitary_vec(v, Z, (0,))
        if eb:
            v = apply_unitary_vec(v, Z, (1,))
        basis.append(v)
    return basis


_BASIS = _class_basis()


def _dense_round(bd: BellDiagonal, pairing: int) -> tuple[tuple[float, ...], float]:
    """One coincidence round on two explicit copies; returns (kept class
    weights, success probability).  Qubits: kept pair (a=0, b=1), sacrificed
    pair (a=2, b=3)."""
    rho1 = sum(q * np.outer(v, v.conj()) for q, v in zip(bd.probs, _BASIS))
    rho = np.kron(rho1, rho1)
    ga, gb = (_GATE[name] for name in PAIRING_GATES[pairing])
    for q, U in ((0, ga), (1, gb), (2, ga), (3, gb)):
        rho = apply_unitary_rho(rho, U, (q,))
    rho = apply_unitary_rho(rho, CNOT, (0, 2))  # a-side: kept controls spare
    rho = apply_unitary_rho(rho, CNOT, (3, 1))  # b-side: spare controls kept
    kept = np.zeros((4, 4), dtype=complex)
    success = 0.0
    for bit in (0, 1):  # coincidence: both readouts report the same bit
        branch = project_rho(rho, "Z", 2, bit)
        branch = project_rho(branch, "X", 3, bit)
        success += float(np.trace(branch).real)
        kept = kept + partial_trace(branch, [0, 1])
    kept /= success
    kept = apply_unitary_rho(kept, ga.conj().T, (0,))
    kept = apply_unitary_rho(kept, gb.conj().T, (1,))
    weights = tuple(float(np.real(v.conj() @ kept @ v)) for v in _BASIS)
    return weights, success


def _random_bell_diagonals(count: int, seed: int) -> list[BellDiagonal]:
    rng = derive_rng(seed, "bell")
    out = []
    while len(out) < count:
        raw = [rng.expovariate(1.0) for _ in range(4)]
        s = sum(raw)
        probs = [q / s for q in raw[:3]]
        probs.append(1.0 - sum(probs))
        if min(probs) >= 0.0:
            out.append(BellDiagonal(tuple(probs)))
    return out


class TestBellDiagonal:
    def test_validation(self):
        with pytest.raises(ParameterError):
            BellDiagonal((0.5, 0.5, 0.1, -0.1))
        with pytest.raises(ParameterError):
            BellDiagonal((0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ParameterError):
            BellDiagonal((1.0, 0.0, 0.0))

    def test_fidelity_is_identity_class(self):
        assert BellDiagonal((0.7, 0.1, 0.1, 0.1)).fidelity == 0.7

    def test_from_z_noise_values(self):
        assert from_z_noise(0.0).probs == (1.0, 0.0, 0.0, 0.0)
        bd = from_z_noise(0.1)
        assert bd.probs == pytest.approx((0.81, 0.09, 0.09, 0.01), abs=1e-15)
        with pytest.raises(ParameterError):
            from_z_noise(0.6)
        with pytest.raises(ParameterError):
            from_z_noise(-0.01)


class TestRecurrenceAgainstDense:
    @pytest.mark.parametrize("p", [0.02, 0.08, 0.15, 0.22, 0.28, 0.33, 0.41])
    def test_z_noise_inputs(self, p):
        bd = from_z_noise(p)
        pairing = recurrence_pairing(bd)
        out, succ = recurrence_step(bd)
        weights, dense_succ = _dense_round(bd, pairing)
        assert succ == pytest.approx(dense_succ, abs=1e-9)
        for got, want in zip(out.probs, weights):
            assert got == pytest.approx(want, abs=1e-9)

    def test_random_inputs(self):
        for bd in _random_bell_diagonals(100, seed=7):
            pairing = recurrence_pairing(bd)
            out, succ = recurrence_step(bd)
            weights, dense_succ = _dense_round(bd, pairing)
            assert succ == pytest.approx(dense_succ, abs=1e-9)
            for got, want in zip(out.probs, weights):
                assert got == pytest.approx(want, abs=1e-9)

    def test_greedy_choice_is_best_per_dense(self):
        for bd in _random_bell_diagonals(25, seed=13) + [from_z_noise(0.1)]:
            chosen = recurrence_pairing(bd)
            dense_fids = {
                pairing: _dense_round(bd, pairing)[0][0] for pairing in (1, 2, 3)
            }
            best = max(dense_fids.values())
            assert dense_fids[chosen] == pytest.approx(best, abs=1e-9)

    def test_pairing_gates_permute_the_class_basis(self):
        for pairing in (1, 2, 3):
            ga, gb = (_GATE[name] for name in PAIRING_GATES[pairing])
            for v in _BASIS:
                moved = apply_unitary_vec(apply_unitary_vec(v, ga, (0,)), gb, (1,))
                overlaps = [abs(np.vdot(w, moved)) for w in _BASIS]
                assert max(overlaps) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_rises_only_below_threshold(self):
        for p in (0.05, 0.15, 0.25, 0.28):
            bd = from_z_noise(p)
            out, _ = recurrence_step(bd)
            assert out.fidelity > bd.fidelity + 1e-12
        for p in (0.3, 0.35, 0.45):
            bd = from_z_noise(p)
            out, _ = recurrence_step(bd)
            assert out.fidelity <= bd.fidelity + 1e-12

    def test_half_boundary_never_crossed(self):
        # every class starts at or below 1/2, so it must stay there exactly
        bd = from_z_noise(0.3)
        for _ in range(12):
            bd, _ = recurrence_step(bd)
            assert max(bd.probs) <= 0.5


class TestDistill:
    def test_reference_run(self):
        tr = distill_trace(from_z_noise(0.1), 0.999)
        cost, fid = tr.expected_pairs, tr.final.fidelity
        assert tr.rounds == 4
        assert fid >= 0.999
        # cost must equal the product of 2/success over the trace, and each
        # round's success probability must match the dense circuit
        cur = from_z_noise(0.1)
        expected_cost = 1.0
        for k in range(tr.rounds):
            pairing = recurrence_pairing(cur)
            assert pairing == tr.pairings[k]
            weights, dense_succ = _dense_round(cur, pairing)
            assert tr.success_probs[k] == pytest.approx(dense_succ, abs=1e-9)
            expected_cost *= 2.0 / dense_succ
            cur, _ = recurrence_step(cur)
        assert cost == pytest.approx(expected_cost, rel=1e-9)
        assert cur.fidelity == pytest.approx(fid, abs=1e-15)

    def test_monotone_fidelity_along_trace(self):
        cur = from_z_noise(0.2)
        tr = distill_trace(cur, 0.9999)
        assert tr.converged
        fids = [cur.fidelity]
        for _ in range(tr.rounds):
            cur, _ = recurrence_step(cur)
            fids.append(cur.fidelity)
        assert all(a < b for a, b in zip(fids, fids[1:]))
        assert fids[-1] == pytest.approx(tr.final.fidelity, abs=1e-15)

    def test_not_purifiable_never_converges(self):
        tr = distill_trace(from_z_noise(0.35), 0.999)
        assert not tr.converged
        assert tr.final.fidelity < 0.999

    def test_zero_rounds_budget(self):
        tr = distill_trace(from_z_noise(0.1), 0.999, max_rounds=0)
        assert (tr.rounds, tr.expected_pairs, tr.final.fidelity) == (
            0, 1.0, from_z_noise(0.1).fidelity
        )
        tr = distill_trace(from_z_noise(0.0), 0.5, max_rounds=0)
        assert tr.rounds == 0 and tr.final.fidelity == 1.0

    def test_target_validation(self):
        with pytest.raises(ParameterError):
            distill_trace(from_z_noise(0.1), 1.0)
        with pytest.raises(ParameterError):
            distill_trace(from_z_noise(0.1), -0.1)
        with pytest.raises(ParameterError):
            distill_trace(from_z_noise(0.1), 0.9, max_rounds=-1)


class TestRates:
    def test_hashing_yield_landmarks(self):
        assert hashing_yield(from_z_noise(0.0)) == 1.0
        assert hashing_yield(BellDiagonal((0.5, 0.5, 0.0, 0.0))) == 0.0
        assert hashing_yield(BellDiagonal((0.25,) * 4)) == 0.0
        # hand-checked point: 1 - H(0.9, 0.05, 0.03, 0.02)
        h = -(0.9 * math.log2(0.9) + 0.05 * math.log2(0.05)
              + 0.03 * math.log2(0.03) + 0.02 * math.log2(0.02))
        got = hashing_yield(BellDiagonal((0.9, 0.05, 0.03, 0.02)))
        assert got == pytest.approx(1.0 - h, abs=1e-12)

    def test_hashing_yield_decreases_with_noise(self):
        ys = [hashing_yield(from_z_noise(p)) for p in (0.0, 0.02, 0.05, 0.1, 0.2)]
        assert all(a > b for a, b in zip(ys, ys[1:]))

    def test_composite_r2_reference_values(self):
        assert composite_r2(from_z_noise(0.0)) == 1.0
        assert composite_r2(from_z_noise(0.1)) == pytest.approx(
            0.18631149838843622, abs=1e-12
        )
        assert composite_r2(from_z_noise(0.05)) == pytest.approx(
            0.4272060857680877, abs=1e-12
        )

    def test_composite_r2_zero_at_and_above_threshold(self):
        for p in (P_STAR, 0.3, 0.35, 0.45, 0.5):
            assert composite_r2(from_z_noise(p)) == 0.0

    def test_composite_r2_at_least_plain_hashing(self):
        for bd in _random_bell_diagonals(30, seed=3):
            r2 = composite_r2(bd)
            assert 0.0 <= r2 <= 1.0
            assert r2 >= hashing_yield(bd) - 1e-15

    def test_composite_r2_matches_brute_force_over_200_rounds(self):
        # the stopping rule against no rule: every k <= 200 tried, written
        # from the recurrence directly; the points crowd the boundary, where
        # a fixed round cap used to return 0
        for p in (0.0, 0.01, 0.1, 0.2, 0.25, 0.27, 0.2778, 0.28, 0.285, 0.29, 0.2925):
            cur = from_z_noise(p)
            survival, brute = 1.0, hashing_yield(cur)
            for _ in range(200):
                cur, succ = recurrence_step(cur)
                survival *= succ / 2.0
                brute = max(brute, survival * hashing_yield(cur))
            assert composite_r2(from_z_noise(p)) == brute, p
            assert brute > 0.0, p


class TestRoundStatistics:
    def test_success_probability_in_unit_interval(self):
        for bd in _random_bell_diagonals(30, seed=21):
            out, succ = recurrence_step(bd)
            assert 0.0 < succ <= 1.0
            assert abs(sum(out.probs) - 1.0) < 1e-12

    def test_perfect_input_is_a_fixed_point(self):
        out, succ = recurrence_step(from_z_noise(0.0))
        assert out.probs == (1.0, 0.0, 0.0, 0.0)
        assert succ == pytest.approx(1.0, abs=1e-15)

    def test_all_pairings_agree_with_dense_on_asymmetric_input(self):
        # exercise every pre-rotation branch through the public greedy choice
        seen = set()
        for bd in _random_bell_diagonals(60, seed=5):
            seen.add(recurrence_pairing(bd))
        assert seen == {1, 2, 3}
