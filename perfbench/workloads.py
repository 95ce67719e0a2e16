"""The benchmark's three workloads.

A workload is a cycle of passes; a pass is a fixed list of parts, and a part
is one timed call into graphpurify plus an untimed check of its output.
Every input is generated from the benchmark seed and the pass index, so the
same seed gives the same calls.  A *unit* is the smallest timed user-level
call: a shot (mc-large), an oracle check (oracle-sweep) or a whole pass
(threshold).

- mc-large: Monte Carlo trajectories on 30-60-qubit states.  Time goes to
  the pattern engine and the protocol; icosahedron is splice-heavy (19 of
  30 edges are non-tree edges), grid:4x4 merge-heavy (15 of 24 are tree
  edges), so a change that favours one rebuild primitive shows on the other.
- oracle-sweep: the same pattern engine on <= 6-qubit states with forced
  outcomes, one call per error-pattern column, checked against numpy dense
  panels.  protocol is untouched.
- threshold: the only workload where pairs, optimality and dense do real
  work, and where protocol runs at the small-state end.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

P_MC = "0.1"
MC_SHOTS = 1000
MC_GRAPHS = ("icosahedron", "grid:4x4")
# A correct program misses a reference fidelity by this many binomial
# standard deviations with negligible probability.
FIDELITY_BAND_SIGMAS = 10.0

SWEEP_MAX_N = 3
SWEEP_CHECKS = 20_700
CLASS_CHECKS = 14_996  # check_graph on any 4-vertex graph, max_party=4, full variants
ISO_CLASSES_4 = 11

SCAN_GRAPHS = ("path:3", "star:4")
SCAN_P_GRID = (0.26, 0.28, 0.29, 0.30)
SCAN_SHOTS = 2000
OPTIMALITY_GRAPHS = ("cycle:3", "cycle:5", "path:6", "grid:2x3", "star:6", "cycle:7")
RATE_GRAPHS = ("path:6", "grid:3x3", "star:5")
RATE_P_GRID = tuple(k / 5000 for k in range(1, 1501))  # 0.0002 ... 0.3000

# simulate on these needs more than 64 internal qubits today (exit code 3)
CAPACITY_PROBE_GRAPHS = ("grid:5x5", "complete:12")


@dataclass
class Result:
    """What one part did: units attempted and failed, plus layer counts."""

    units: int
    failed: int = 0
    shots: int = 0  # protocol shots simulated
    envelope_bytes: int = 0
    checks: int = 0
    mismatches: int = 0
    note: str = ""


@dataclass(frozen=True)
class Part:
    key: str  # names the part within a pass; timing medians are per key
    units: int
    call: Callable[[], object]  # the timed call
    check: Callable[[object], Result]  # untimed output check


def run_cli(pkg, argv: list[str]) -> tuple[int, str]:
    """In-process CLI call; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = pkg.cli.main(argv)
    return rc, out.getvalue()


def _envelope(raw: tuple[int, str]) -> dict:
    rc, text = raw
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)


def _stream(name: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{k}")


def _checked(units: int, raw: tuple[int, str], problems: list[str], **counts) -> Result:
    return Result(
        units=units,
        failed=units if problems else 0,
        envelope_bytes=len(raw[1].encode()),
        note="; ".join(problems),
        **counts,
    )


class McLarge:
    name = "mc-large"
    unit = "shot"
    min_passes = 2
    units_per_pass = MC_SHOTS * len(MC_GRAPHS)

    def __init__(self, reference: dict) -> None:
        self.reference = reference["mc_fidelity"]
        self.outputs: dict[tuple[str, ...], str] = {}

    @staticmethod
    def smallest_unit(pkg) -> None:
        for graph in MC_GRAPHS:
            envelope = _envelope(
                run_cli(pkg, ["simulate", "--graph", graph, "--p", P_MC, "--shots", "1",
                              "--seed", "1", "--workers", "1", "--json"])
            )
            if envelope["results"]["shots"] != 1:
                raise ValueError(f"1-shot simulate on {graph} reported the wrong shot count")

    def parts(self, pkg, seed: int, k: int) -> list[Part]:
        # Pass 1 repeats pass 0's grid:4x4 seed, so every run checks that an
        # equal seed gives byte-identical --json.
        seeds = self._seeds(seed, k)
        if k == 1:
            seeds[-1] = self._seeds(seed, 0)[-1]
        parts = []
        for graph, s in zip(MC_GRAPHS, seeds):
            argv = ["simulate", "--graph", graph, "--p", P_MC, "--shots", str(MC_SHOTS),
                    "--seed", str(s), "--workers", "1", "--json"]
            parts.append(
                Part(graph, MC_SHOTS, lambda argv=argv: run_cli(pkg, argv),
                     lambda raw, graph=graph, argv=argv: self._check(graph, argv, raw))
            )
        return parts

    def _seeds(self, seed: int, k: int) -> list[int]:
        rng = _stream(self.name, seed, k)
        return [rng.randrange(2**31) for _ in MC_GRAPHS]

    def _check(self, graph: str, argv: list[str], raw) -> Result:
        res = _envelope(raw)["results"]
        problems = []
        if self.outputs.setdefault(tuple(argv), raw[1]) != raw[1]:
            problems.append(f"{graph}: --json differs on a repeated seed")
        if not res["converged"]:
            problems.append(f"{graph}: not converged")
        elif res["shots"] != MC_SHOTS or res["ideal_shots"] > MC_SHOTS:
            problems.append(f"{graph}: shot counts {res['shots']}/{res['ideal_shots']}")
        else:
            ref = self.reference[graph]["fidelity"]
            band = FIDELITY_BAND_SIGMAS * math.sqrt(ref * (1 - ref) / MC_SHOTS)
            if abs(res["fidelity"] - ref) > band:
                problems.append(f"{graph}: fidelity {res['fidelity']} outside {ref} +- {band:.4f}")
        return _checked(MC_SHOTS, raw, problems, shots=MC_SHOTS)


def _canonical(n: int, edges: frozenset) -> tuple:
    return min(
        tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        for perm in itertools.permutations(range(n))
    )


def _iso_class_representatives(n: int) -> list[tuple]:
    slots = list(itertools.combinations(range(n), 2))
    classes = set()
    for mask in range(1 << len(slots)):
        edges = frozenset(slots[i] for i in range(len(slots)) if mask >> i & 1)
        classes.add(_canonical(n, edges))
    return sorted(classes, key=lambda e: (len(e), e))


class OracleSweep:
    name = "oracle-sweep"
    unit = "check"
    min_passes = 1
    units_per_pass = SWEEP_CHECKS + ISO_CLASSES_4 * CLASS_CHECKS

    def __init__(self, reference: dict) -> None:
        self.classes = _iso_class_representatives(4)
        if len(self.classes) != ISO_CLASSES_4:
            raise RuntimeError("expected 11 isomorphism classes of 4-vertex graphs")

    @staticmethod
    def smallest_unit(pkg) -> None:
        g = pkg.graphs.Graph.from_edges(1, [])
        checks, bad = pkg.verification.check_graph(g, max_party=4, full_variants=True)
        if bad or not checks:
            raise ValueError(f"check_graph on one vertex: {checks} checks, {bad} mismatches")

    def parts(self, pkg, seed: int, k: int) -> list[Part]:
        rng = _stream(self.name, seed, k)
        parts = [
            Part("sweep-n3", SWEEP_CHECKS,
                 lambda: pkg.verification.run_oracle_sweep(max_n=SWEEP_MAX_N),
                 lambda rep: self._check(SWEEP_CHECKS, rep.checks, rep.mismatches))
        ]
        for i, edges in enumerate(self.classes):
            perm = list(range(4))
            rng.shuffle(perm)
            g = pkg.graphs.Graph.from_edges(4, [(perm[u], perm[v]) for u, v in edges])
            parts.append(
                Part(f"class-{i}", CLASS_CHECKS,
                     lambda g=g: pkg.verification.check_graph(g, max_party=4, full_variants=True),
                     lambda out: self._check(CLASS_CHECKS, *out))
            )
        return parts

    @staticmethod
    def _check(expected: int, checks: int, mismatches: int) -> Result:
        failed = mismatches if checks == expected else expected
        note = "" if failed == 0 else f"{checks} checks (expected {expected}), {mismatches} mismatches"
        return Result(units=expected, failed=failed, checks=checks, mismatches=mismatches, note=note)


class Threshold:
    name = "threshold"
    unit = "pass"
    min_passes = 1
    units_per_pass = 1

    def __init__(self, reference: dict) -> None:
        self.verdicts = reference["optimality_verdicts"]

    @staticmethod
    def smallest_unit(pkg) -> None:
        _envelope(run_cli(pkg, ["threshold", "--B", "1", "--json"]))

    def parts(self, pkg, seed: int, k: int) -> list[Part]:
        rng = _stream(self.name, seed, k)
        p_star = pkg.thermal.P_STAR
        parts = [
            Part("threshold", 1, lambda: run_cli(pkg, ["threshold", "--B", "1", "--json"]),
                 self._check_threshold)
        ]
        grid = ",".join(f"{p:.2f}" for p in SCAN_P_GRID)
        for graph in SCAN_GRAPHS:
            argv = ["scan", "--graph", graph, "--p-grid", grid, "--shots", str(SCAN_SHOTS),
                    "--seed", str(rng.randrange(2**31)), "--workers", "1", "--json"]
            parts.append(Part(f"scan-{graph}", 1, lambda argv=argv: run_cli(pkg, argv),
                              lambda raw, graph=graph: self._check_scan(graph, p_star, raw)))
        for graph in OPTIMALITY_GRAPHS:
            argv = ["check-optimality", "--graph", graph, "--p", "0.1", "--json"]
            parts.append(Part(f"optimality-{graph}", 1, lambda argv=argv: run_cli(pkg, argv),
                              lambda raw, graph=graph: self._check_optimality(graph, raw)))
        for graph in RATE_GRAPHS:
            g = pkg.graphs.load_graph(graph)
            parts.append(
                Part(f"rates-{graph}", 1,
                     lambda g=g: [pkg.protocol.rate_report(g, p) for p in RATE_P_GRID],
                     lambda reports, graph=graph: self._check_rates(graph, p_star, reports))
            )
        return parts

    @staticmethod
    def _check_threshold(raw) -> Result:
        res = _envelope(raw)["results"]
        problems = []
        t_crit = 1.0 / math.log(1.0 + math.sqrt(2.0))
        if abs(res["t_crit"] - t_crit) > 1e-12 or abs(res["p_star"] - (1 - 1 / math.sqrt(2))) > 1e-12:
            problems.append(f"threshold: t_crit {res['t_crit']} p_star {res['p_star']}")
        if [row["purifiable"] for row in res["table"]] != [True, False]:
            problems.append("threshold: purifiable verdicts around T_crit are not [True, False]")
        return _checked(1, raw, problems)

    @staticmethod
    def _check_scan(graph: str, p_star: float, raw) -> Result:
        rows = _envelope(raw)["results"]
        problems = []
        if [row["p"] for row in rows] != list(SCAN_P_GRID):
            problems.append(f"scan {graph}: grid {[row['p'] for row in rows]}")
        shots = 0
        for row in rows:
            below = row["p"] < p_star
            if row["purifiable"] != below or row["converged"] != below:
                problems.append(f"scan {graph} p={row['p']}: purifiable/converged wrong")
            elif below and not 0.0 <= row["fidelity"] <= 1.0:
                problems.append(f"scan {graph} p={row['p']}: fidelity {row['fidelity']}")
            elif not below and row["fidelity"] is not None:
                problems.append(f"scan {graph} p={row['p']}: fidelity reported past p*")
            shots += SCAN_SHOTS if row["converged"] else 0
        return _checked(1, raw, problems, shots=shots)

    def _check_optimality(self, graph: str, raw) -> Result:
        res = _envelope(raw)["results"]
        got = [row["reconstructable"] for row in res["edges"]]
        problems = []
        if got != self.verdicts[graph]:
            problems.append(f"check-optimality {graph}: verdicts {got}")
        if graph == "cycle:3" and res["graph_ok"]:
            problems.append("check-optimality cycle:3 must be negative")
        return _checked(1, raw, problems)

    @staticmethod
    def _check_rates(graph: str, p_star: float, reports) -> Result:
        problems = []
        for p, rep in zip(RATE_P_GRID, reports):
            if not rep.r_psi_lower <= rep.r_psi_upper:
                problems.append(f"rates {graph} p={p}: r_psi_lower > r_psi_upper")
            if p >= p_star and rep.r2 != 0.0:
                problems.append(f"rates {graph} p={p}: r2 = {rep.r2} at or above p*")
            if not rep.r2 >= 0.0:
                problems.append(f"rates {graph} p={p}: r2 = {rep.r2}")
        if len(reports) != len(RATE_P_GRID):
            problems.append(f"rates {graph}: {len(reports)} reports")
        return Result(units=1, failed=1 if problems else 0, note="; ".join(problems[:3]))


WORKLOADS = {cls.name: cls for cls in (McLarge, OracleSweep, Threshold)}


def capacity_exits(pkg) -> int:
    """Known limit: simulate exits 3 on graphs needing > 64 internal qubits."""
    return sum(
        run_cli(pkg, ["simulate", "--graph", graph, "--p", P_MC, "--shots", "1",
                      "--seed", "1", "--workers", "1", "--json"])[0] == 3
        for graph in CAPACITY_PROBE_GRAPHS
    )


def r2_zero_below_pstar(pkg) -> int:
    """Known limit: rate-grid points below p* where the bounded chain gives r2 = 0."""
    p_star = pkg.thermal.P_STAR
    return sum(
        pkg.pairs.composite_r2(pkg.pairs.from_z_noise(p)) == 0.0
        for p in RATE_P_GRID
        if p < p_star
    )
