"""Release gate: the nine checks this package must pass before shipping.

Each check prints one `ACCEPTANCE n (...): PASS/FAIL` line (visible with
`pytest -s`, and on any failure) and enforces its own wall-clock budget.
Expected numbers come from closed forms or from independent dense-matrix
replays built inside this file — never from the code under test.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from graphpurify.cli import main, n_geo_formula
from graphpurify.dense import (
    H,
    I2,
    Z,
    apply_unitary_rho,
    partial_trace,
    project_rho,
    thermal_state_from_p,
    trace_distance,
)
from graphpurify.graphs import (
    Graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from graphpurify.optimality import reconstruction_plan, verify_reconstruction
from graphpurify.pairs import from_z_noise, recurrence_step
from graphpurify.protocol import plan_extraction, rate_report, threshold_scan
from graphpurify.thermal import P_STAR, ThermalModel
from graphpurify.verification import run_oracle_sweep
from oracles import (
    CNOT,
    PAIRING_GATES,
    RX90,
    SDG,
    apply_unitary_vec,
    graph_state_vector,
    recurrence_pairing,
    thermal_state,
)


@contextmanager
def criterion(num: int, label: str, budget_seconds: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget_seconds is not None:
            assert elapsed < budget_seconds, (
                f"criterion {num} took {elapsed:.1f}s, budget {budget_seconds:g}s"
            )
    except BaseException:
        print(
            f"ACCEPTANCE {num} ({label}): FAIL after "
            f"{time.perf_counter() - t0:.1f}s",
            flush=True,
        )
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS in {elapsed:.1f}s", flush=True)


def _cli_json(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


def test_criterion_1_critical_temperature(capsys):
    with criterion(1, "critical temperature", budget_seconds=1.0):
        rc, out = _cli_json(capsys, "threshold", "--B", "1", "--json")
        assert rc == 0
        t_crit = json.loads(out)["results"]["t_crit"]

        assert abs(t_crit - 1.134593) <= 1e-6
        assert t_crit == pytest.approx(-1.0 / math.log(math.sqrt(2) - 1), rel=1e-12)

        # independent bisection: the hottest T where a fresh pair stays
        # purifiable, i.e. (1 - p(T))^2 = 1/2 with p = 1/(1 + e^{B/T})
        def margin(T: float) -> float:
            p = 1.0 / (1.0 + math.exp(1.0 / T))
            return (1.0 - p) ** 2 - 0.5

        lo, hi = 0.1, 10.0
        assert margin(lo) > 0 > margin(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(t_crit - lo) <= 1e-9


def test_criterion_2_thermal_state_equivalence():
    graphs = (
        [path_graph(n) for n in range(2, 6)]
        + [cycle_graph(n) for n in range(3, 6)]
        + [star_graph(n) for n in range(3, 6)]
        + [grid_graph([2, 2]), grid_graph([2, 3])]
    )
    with criterion(2, "thermal-state equivalence", budget_seconds=30.0):
        for g in graphs:
            for ratio in (0.3, 1.0, 3.0):
                model = ThermalModel(B=1.0, T=ratio)
                spectral = thermal_state(g, model)
                errorsum = thermal_state_from_p(g, model.error_prob())
                assert trace_distance(spectral, errorsum) <= 1e-9


def test_criterion_3_oracle_equivalence():
    with criterion(3, "pattern-vs-dense oracle sweep", budget_seconds=300.0):
        report = run_oracle_sweep(max_n=5)
        assert report.ok
        assert report.mismatches == 0
        assert report.failures == ()
        # every labeled graph on 1..5 vertices
        assert report.graphs == sum(1 << (n * (n - 1) // 2) for n in range(1, 6))


def test_criterion_4_threshold_bracketing():
    with criterion(4, "threshold bracketing", budget_seconds=120.0):
        for g in (path_graph(3), star_graph(4)):
            rows = threshold_scan(g, [0.28, 0.30], shots=100_000, seed=7)
            assert [r.p for r in rows] == [0.28, 0.30]
            assert [r.purifiable for r in rows] == [True, False]
            assert [r.converged for r in rows] == [True, False]
            assert rows[0].fidelity is not None and rows[0].fidelity > 0.9
            assert rows[1].fidelity is None
        assert 0.28 < P_STAR < 0.30  # the bracket actually straddles the boundary


def test_criterion_5_geometric_overhead():
    with criterion(5, "geometric overhead", budget_seconds=1.0):
        for n in range(4, 31):
            assert len(plan_extraction(path_graph(n)).rounds) == 3
        for n in range(3, 21):
            assert len(plan_extraction(star_graph(n)).rounds) == n - 1
        assert n_geo_formula("cluster:2") == 12


def test_criterion_6_rate_bounds():
    g = path_graph(4)
    with criterion(6, "rate bounds", budget_seconds=10.0):
        for p in (0.0, 0.05, 0.15, 0.25):
            rep = rate_report(g, p)
            assert rep.r2 >= rep.r_psi_upper >= rep.r_psi_lower
            assert rep.r_psi_lower == rep.r2 / rep.n_geo_plan
            if p == 0.0:
                assert rep.r2 == 1.0
            else:
                assert 0.0 < rep.r2 < 1.0
        for p in (P_STAR, 0.3, 0.35, 0.45):
            assert rate_report(g, p).r2 == 0.0


def test_criterion_7_reconstruction_verdicts():
    with criterion(7, "two-party reconstruction", budget_seconds=120.0):
        plan = reconstruction_plan(cycle_graph(4), [0, 3])
        assert plan is not None and plan.pair_count == 2  # consumes two pair copies
        for p in (0.05, 0.1, 0.2):
            res = verify_reconstruction(path_graph(3), [0], p)
            assert res.ok and res.trace_distance <= 1e-9

            res = verify_reconstruction(cycle_graph(4), [0, 3], p)
            assert res.ok and res.trace_distance <= 1e-9

            # a triangle admits no faithful split anywhere in the family
            for size in (1, 2):
                for side in itertools.combinations(range(3), size):
                    res = verify_reconstruction(cycle_graph(3), list(side), p)
                    assert not res.ok


# --- dense two-pair replay for the recurrence round ------------------------

_GATE = {"identity": I2, "hadamard": H, "rx90": RX90, "s_dagger": SDG}


def _class_basis():
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


def _dense_round(probs, pairing):
    """Coincidence round on two explicit copies: kept pair on qubits (0, 1),
    sacrificed pair on (2, 3).  Returns (kept class weights, success prob)."""
    basis = _class_basis()
    rho1 = sum(q * np.outer(v, v.conj()) for q, v in zip(probs, basis))
    rho = np.kron(rho1, rho1)
    ga, gb = (_GATE[name] for name in PAIRING_GATES[pairing])
    for q, U in ((0, ga), (1, gb), (2, ga), (3, gb)):
        rho = apply_unitary_rho(rho, U, (q,))
    rho = apply_unitary_rho(rho, CNOT, (0, 2))
    rho = apply_unitary_rho(rho, CNOT, (3, 1))
    kept = np.zeros((4, 4), dtype=complex)
    success = 0.0
    for bit in (0, 1):
        branch = project_rho(rho, "Z", 2, bit)
        branch = project_rho(branch, "X", 3, bit)
        success += float(np.trace(branch).real)
        kept = kept + partial_trace(branch, [0, 1])
    kept /= success
    kept = apply_unitary_rho(kept, ga.conj().T, (0,))
    kept = apply_unitary_rho(kept, gb.conj().T, (1,))
    weights = tuple(float(np.real(v.conj() @ kept @ v)) for v in basis)
    return weights, success


def test_criterion_8_recurrence_sanity():
    # 25 noise levels; the grid stays clear of the boundary itself, where a
    # one-step fidelity change is smaller than float noise
    grid = [0.01 + i * (0.27 / 12) for i in range(13)]
    grid += [0.30 + i * (0.18 / 11) for i in range(12)]
    assert len(grid) == 25
    with criterion(8, "recurrence sanity", budget_seconds=30.0):
        for p in grid:
            bd = from_z_noise(p)
            out, success = recurrence_step(bd)
            weights, dense_success = _dense_round(bd.probs, recurrence_pairing(bd))
            for engine_q, dense_q in zip(out.probs, weights):
                assert abs(engine_q - dense_q) <= 1e-9
            assert abs(success - dense_success) <= 1e-9
            if (1.0 - p) ** 2 > 0.5:
                assert out.fidelity > bd.fidelity + 1e-12
            else:
                assert out.fidelity <= bd.fidelity + 1e-12


def test_criterion_9_byte_identical_json(capsys):
    with criterion(9, "determinism across workers"):
        sim = [
            "simulate", "--graph", "star:4", "--p", "0.12",
            "--shots", "5000", "--seed", "11", "--json",
        ]
        outs = []
        for workers in ("1", "2", "4"):
            rc, out = _cli_json(capsys, *sim, "--workers", workers)
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

        scan = [
            "scan", "--graph", "path:3", "--p-grid", "0.1,0.2",
            "--shots", "4500", "--seed", "5", "--json",
        ]
        outs = []
        for workers in ("1", "3"):
            rc, out = _cli_json(capsys, *scan, "--workers", workers)
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]
