"""Exhaustive cross-validation of the trajectory engine against dense states.

Strategy: for a given graph, lay out one column per (z_errors, frame) pattern
holding the unnormalized state vector of Z^(e XOR f)|graph state> — every
entry is +-1, so the whole panel lives in exact int64 arithmetic.  Each
engine operation is replayed on the panel with elementary row operations
(CZ sign flips, X/Z projections, Hadamard pairs), all unnormalized.

The engine side runs on the same columns as one bit-sliced ``FrameBatch``
(bit c of each qubit's row is column c), built once per graph: each CZ,
Z measurement, merge and splice runs once per forced-outcome branch for all
columns together.  The engine's claimed output state of every surviving
column is expanded into a +-1 panel, and the two must agree column-by-column
up to a scalar — checked by integer cross-multiplication, so the comparison
is exact rather than to a float tolerance.  A claimed-impossible branch (the
batch drops the column from ``alive``) must correspond to an exactly zero
column, and vice versa.

Entries stay bounded by 2^(number of projections), far inside int64.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .dense import cz_diagonal
from .errors import ParameterError
from .graphs import Graph
from .pattern import FrameBatch, batch_cz, batch_measure_z, batch_merge, batch_splice

__all__ = ["SweepReport", "run_oracle_sweep", "check_graph"]

_MAX_FAILURES_KEPT = 25

# sign of (-1)^popcount(x) for x < 2^16 — plenty for <= 8-qubit panels
_PARITY = np.zeros(1 << 16, dtype=np.int64)
for _b in range(16):
    _PARITY[1 << _b : 2 << _b] = _PARITY[: 1 << _b] ^ 1
_SIGN = 1 - 2 * _PARITY


@dataclass(frozen=True)
class SweepReport:
    graphs: int
    checks: int
    mismatches: int
    failures: tuple[str, ...]
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _pattern_panel(g: Graph, physical: list[int]) -> np.ndarray:
    """Columns of unnormalized Z^g |psi_G> vectors, one per pattern."""
    rows = np.arange(1 << g.n, dtype=np.int64)
    base = cz_diagonal(g)
    pats = np.asarray(physical, dtype=np.int64)
    return base[:, None] * _SIGN[rows[:, None] & pats[None, :]]


def _cz_rows(panel: np.ndarray, n: int, u: int, v: int) -> np.ndarray:
    rows = np.arange(1 << n, dtype=np.int64)
    flip = ((rows >> u) & (rows >> v) & 1).astype(np.int64)
    return panel * (1 - 2 * flip)[:, None]


def _split(panel: np.ndarray, n: int, v: int):
    c = panel.shape[1]
    r = panel.reshape(1 << (n - 1 - v), 2, 1 << v, c)
    return r[:, 0], r[:, 1]


def _project_x_rows(panel: np.ndarray, n: int, v: int, bit: int) -> np.ndarray:
    lo, hi = _split(panel, n, v)
    out = lo + hi if bit == 0 else lo - hi
    return out.reshape(1 << (n - 1), panel.shape[1])


def _project_z_rows(panel: np.ndarray, n: int, v: int, bit: int) -> np.ndarray:
    lo, hi = _split(panel, n, v)
    return (hi if bit else lo).reshape(1 << (n - 1), panel.shape[1])


def _h_rows(panel: np.ndarray, n: int, v: int) -> np.ndarray:
    lo, hi = _split(panel, n, v)
    out = np.stack((lo + hi, lo - hi), axis=1)
    return out.reshape(1 << n, panel.shape[1])


def _columns(rows, width: int) -> np.ndarray:
    """Un-slice: entry c has bit q set when bit c of rows[q] is set."""
    nbytes = (width + 7) // 8
    out = np.zeros(width, dtype=np.int64)
    for q, row in enumerate(rows):
        raw = np.frombuffer(row.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, count=width, bitorder="little")
        out |= bits.astype(np.int64) << q
    return out


def _compare(dense: np.ndarray, out: FrameBatch, label: str, failures: list[str]) -> int:
    """Count mismatching columns; append one description per bad column."""
    bad = 0
    width = dense.shape[1]
    colmax = np.abs(dense).max(axis=0) if dense.size else np.zeros(width)
    alive = _columns((out.alive,), width).astype(bool)

    for c in np.nonzero(~alive & (colmax > 0))[0]:
        bad += 1
        if len(failures) < _MAX_FAILURES_KEPT:
            failures.append(f"{label} col={c}: engine refused a possible branch")
    survivors = np.nonzero(alive)[0]
    if not survivors.size:
        return bad

    physical = _columns([z ^ f for z, f in zip(out.z_rows, out.frame_rows)], width)
    claimed = _pattern_panel(out.graph, physical[survivors])
    sub = dense[:, survivors]
    lhs = sub * claimed[0][None, :]
    rhs = claimed * sub[0][None, :]
    good = np.all(lhs == rhs, axis=0) & (np.abs(sub).max(axis=0) > 0)
    for k in np.nonzero(~good)[0]:
        bad += 1
        if len(failures) < _MAX_FAILURES_KEPT:
            failures.append(f"{label} col={survivors[k]}: state mismatch")
    return bad


def _pattern_columns(n: int, full_variants: bool) -> list[tuple[int, int]]:
    all_masks = range(1 << n)
    cols = [(e, 0) for e in all_masks]
    cols += [(0, f) for f in all_masks if f]
    if full_variants:
        cols += [(e, e) for e in all_masks if e]
    return cols


def _column_batch(g: Graph, full_variants: bool) -> tuple[FrameBatch, np.ndarray]:
    """The engine's batch and the dense panel, one column per pattern."""
    cols = _pattern_columns(g.n, full_variants)
    return FrameBatch.of_columns(g, cols), _pattern_panel(g, [e ^ f for e, f in cols])


def _ordered_parties(n: int, max_size: int):
    for size in range(2, max_size + 1):
        yield from itertools.permutations(range(n), size)


def check_graph(
    g: Graph,
    *,
    max_party: int | None = None,
    full_variants: bool = True,
    failures: list[str] | None = None,
) -> tuple[int, int]:
    """Sweep every operation variant on one graph.

    Returns (checks, mismatches); mismatch descriptions go into `failures`.
    """
    if failures is None:
        failures = []
    n = g.n
    batch, base = _column_batch(g, full_variants)
    width = base.shape[1]
    checks = 0
    bad = 0
    gname = f"n={n} adj={g.adj}"

    for u in range(n):
        for v in range(u + 1, n):
            dense = _cz_rows(base, n, u, v)
            checks += width
            bad += _compare(dense, batch_cz(batch, u, v), f"{gname} cz({u},{v})", failures)

    for v in range(n):
        for outcome in (+1, -1):
            out = batch_measure_z(batch, v, forced_outcome=outcome).batch
            dense = _project_z_rows(base, n, v, (1 - outcome) // 2)
            checks += width
            bad += _compare(dense, out, f"{gname} mz({v},{outcome:+d})", failures)

    limit = max_party if max_party is not None else n
    for party in _ordered_parties(n, limit):
        checks_p, bad_p = _check_merge_party(batch, base, list(party), gname, failures)
        checks += checks_p
        bad += bad_p
    return checks, bad


def _check_merge_party(batch: FrameBatch, base: np.ndarray, party, gname, failures):
    checks = 0
    bad = 0
    for outcomes in itertools.product((+1, -1), repeat=len(party) - 1):
        run = batch_merge(batch, party, forced_outcomes=outcomes)
        structure = zip(party[1:], run.pivots)
        dense = _replay_merge(base, batch.graph.n, party, structure, outcomes)
        checks += base.shape[1]
        bad += _compare(
            dense, run.batch, f"{gname} merge{tuple(party)} outcomes={outcomes}", failures
        )
    return checks, bad


def _replay_merge(base: np.ndarray, n: int, party, structure, outcomes) -> np.ndarray:
    panel = base
    kappa = party[0]
    for m in party[1:]:
        panel = _cz_rows(panel, n, kappa, m)
    where = list(range(n))  # input label -> current row index, -1 if gone
    cur_n = n
    for (measured, pivot), outcome in zip(structure, outcomes):
        v = where[measured]
        panel = _project_x_rows(panel, cur_n, v, (1 - outcome) // 2)
        cur_n -= 1
        for q in range(n):
            if where[q] == v:
                where[q] = -1
            elif where[q] > v:
                where[q] -= 1
        if pivot is not None:
            panel = _h_rows(panel, cur_n, where[pivot])
    return panel


def _check_splice(base_graph: Graph, failures: list[str]) -> tuple[int, int]:
    """Pair-mediated CZ between every ordered endpoint pair of a base graph."""
    n = base_graph.n
    joint = Graph.from_edges(n + 2, list(base_graph.edges()) + [(n, n + 1)])
    batch, base = _column_batch(joint, full_variants=False)
    gname = f"splice base n={n} adj={base_graph.adj}"
    checks = 0
    bad = 0
    for u, v in itertools.permutations(range(n), 2):
        for o1, o2 in itertools.product((+1, -1), repeat=2):
            out = batch_splice(batch, u, v, n, n + 1, forced_outcomes=(o1, o2)).batch
            dense = _cz_rows(base, n + 2, u, n)
            dense = _cz_rows(dense, n + 2, v, n + 1)
            dense = _project_x_rows(dense, n + 2, n + 1, (1 - o2) // 2)
            dense = _project_x_rows(dense, n + 1, n, (1 - o1) // 2)
            checks += base.shape[1]
            bad += _compare(
                dense, out, f"{gname} u={u} v={v} outcomes=({o1:+d},{o2:+d})", failures
            )
    return checks, bad


def _all_graphs(n: int):
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph.from_edges(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])


def _six_qubit_merge_configs():
    """Merging one half from each of three disjoint pairs — the rebuild shape."""
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    parties = set()
    for halves in itertools.product((0, 1), (2, 3), (4, 5)):
        for perm in itertools.permutations(halves):
            parties.add(perm)
        for duo in itertools.combinations(halves, 2):
            parties.add(duo)
            parties.add(duo[::-1])
    return g, sorted(parties)


def run_oracle_sweep(
    max_n: int = 5,
    *,
    include_splice: bool = True,
    include_six_qubit_merges: bool = True,
    progress=None,
) -> SweepReport:
    """Exhaustively validate engine ops against dense replay.

    Covers every labeled graph on 1..max_n vertices, every error pattern
    (plus frame-only and error-equals-frame variants on smaller graphs),
    every CZ, every Z measurement with both outcomes, merges over ordered
    parties (all sizes up to 4 vertices, pairs at 5), pair-mediated CZ over
    every base graph on <= 4 vertices, and three-pair merge configurations
    on 6 qubits.  Exact integer comparison throughout.
    """
    if not 1 <= max_n <= 6:
        raise ParameterError("sweep supports 1..6 vertices")
    t0 = time.perf_counter()
    failures: list[str] = []
    graphs = 0
    checks = 0
    bad = 0
    for n in range(1, max_n + 1):
        for g in _all_graphs(n):
            c, b = check_graph(
                g,
                max_party=min(n, 4) if n <= 4 else 2,
                full_variants=n <= 4,
                failures=failures,
            )
            graphs += 1
            checks += c
            bad += b
        if progress is not None:
            progress(f"graphs on {n} vertices done ({time.perf_counter() - t0:.1f}s)")
    if include_splice:
        for n in range(1, min(max_n, 4) + 1):
            for g in _all_graphs(n):
                c, b = _check_splice(g, failures)
                checks += c
                bad += b
        if progress is not None:
            progress(f"pair splices done ({time.perf_counter() - t0:.1f}s)")
    if include_six_qubit_merges and max_n >= 5:
        g, parties = _six_qubit_merge_configs()
        batch, base = _column_batch(g, full_variants=False)
        for party in parties:
            c, b = _check_merge_party(batch, base, list(party), "three-pair", failures)
            checks += c
            bad += b
        if progress is not None:
            progress(f"three-pair merges done ({time.perf_counter() - t0:.1f}s)")
    return SweepReport(
        graphs=graphs,
        checks=checks,
        mismatches=bad,
        failures=tuple(failures),
        elapsed_seconds=time.perf_counter() - t0,
    )
