"""Exhaustive cross-validation of the trajectory engine against dense states.

Strategy: for a given graph, lay out one column per (z_errors, frame) pattern
holding the unnormalized state vector of Z^(e XOR f)|graph state> — every
entry is +-1, so the whole panel lives in exact int64 arithmetic.  Each
engine operation is replayed on the panel with elementary row operations
(CZ sign flips, X/Z projections, Hadamard pairs), all unnormalized.  A
merge's replay is linear in the panel and depends only on (n, party,
pivots), not on the graph, so it is replayed once on the 2^n identity into a
cached integer operator, and all the merge parties of one size are replayed
by one matmul of their stacked operators with the panel.

The engine side runs on the same columns as one bit-sliced ``FrameBatch``
(bit c of each qubit's row is column c), built once per graph.  An operation
site is all CZ pairs of a graph, both outcomes of one Z measurement, every
outcome tuple of one merge party, or the four outcomes of one splice.  The
site's dense branches sit side by side in one wide panel (a merge or splice
replay emits both X outcomes of every branch at each measurement), in
``itertools.product((+1, -1), ...)`` order.  The engine runs each Z
measurement, merge and splice site once: on the batch tiled once per branch
(each row times the repunit sum_b 2^(b*width)), with one outcome row per
measured qubit that reads -1 on exactly the blocks of the branches where it
does.  Its output rows then already carry branch b at bit b*width.  The CZ
pairs of a graph give different graphs, so they run one batch per pair.

Sites of one kind whose panels have the same height, 2^(n-k) rows after k
measured qubits, form a group: all CZ pairs of a graph, all its Z
measurements, all its merge parties of one size, or all ordered endpoint
pairs of one splice base.  The engine still runs once per site, but the
group's dense panels sit side by side and the rows of site i are shifted by
i times its column count, so one exact comparison checks every column of the
group; each site keeps its own measured mask.

The engine keeps a measured qubit at its index as an isolated, error-free
|+>, while the panel drops it.  So a panel row is found from a qubit label by
skipping the measured labels below it, and panel row r is the engine's basis
row where every measured qubit reads 0 and the others read r's bits in
order.  A column whose measured qubits are not isolated or carry a nonzero
error or frame bit counts as a mismatch.  The engine claims each column up
to a scalar: the +-1 vector that is (-1)^popcount(r & pattern) times the
post-graph's CZ sign on row r, +1 on row 0.  The comparison never builds it.
It stays in the bit-sliced layout: the claimed sign bits of panel row r for
every column of a group are one int, the XOR of the pattern rows of r's
qubits (one XOR per qubit serves every column) and of the column block of
each batch whose CZ sign is -1 on row r.  ``np.packbits`` turns the dense
panel into bitmasks of the same layout: each row's sign bits, the nonzero
columns, and the columns whose every entry has row 0's magnitude.  A
surviving column must be nonzero, have one magnitude and, on every row,
row 0's sign times the claimed one.  That is the exact integer test
dense == claimed * dense[0], with no float tolerance.  A claimed-impossible
branch (the batch drops the column from ``alive``) must correspond to an
exactly zero column, and vice versa.

Entries stay bounded by 2^(number of projections and Hadamards), far inside
int64.  The merge matmul runs in float64 (an int64 matmul gets no BLAS): each
operator entry is at most 2^(2k) for k measured qubits and each panel entry
+-1, so every product and partial sum is an integer of magnitude at most
2^(n+2k) <= 2^16 on the sweep's <= 6 qubits, exact in float64 up to 2^53; the
bound is checked before each matmul.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dense import cz_diagonal, cz_layer_diagonal
from .errors import InvariantError, ParameterError
from .graphs import Graph, _bits
from .pattern import FrameBatch, apply_cz, apply_cz_via_pair, measure_z, merge_local

__all__ = ["SweepReport", "run_oracle_sweep", "check_graph"]

_MAX_FAILURES_KEPT = 25
# constant memo bounds: CZ diagonals per graph (about 1 KB each on the
# sweep's <= 6 qubits), the -1 rows of a post-graph's CZ diagonal per
# measured mask (at most 32 row numbers each; the 5-vertex sweep has 1,598
# such keys), and sign vectors, outcome rows and pattern layouts per size
_DIAGONAL_CACHE_SIZE = 1024
_MINUS_CACHE_SIZE = 2048
_SMALL_CACHE_SIZE = 256
# merge operators per (n, party, pivots): at most 64 x 64 entries each on the
# sweep's <= 6 qubits, one byte apiece for parties of <= 4 vertices; the
# 5-vertex sweep builds 872 of them
_OPERATOR_CACHE_SIZE = 1024
# float64 holds every integer of magnitude up to 2^53 exactly
_FLOAT_EXACT = 1 << 53
# vertices per graph the sweep and check_graph take
_MAX_VERTICES = 6


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


@lru_cache(maxsize=_DIAGONAL_CACHE_SIZE)
def _diagonal(g: Graph) -> np.ndarray:
    """``cz_diagonal(g)``, memoised: the branches of one site mostly share a post-graph."""
    diag = cz_diagonal(g)
    diag.flags.writeable = False
    return diag


@lru_cache(maxsize=_SMALL_CACHE_SIZE)
def _cz_sign(n: int, u: int, v: int) -> np.ndarray:
    sign = cz_layer_diagonal(n, [(u, v)])
    sign.flags.writeable = False
    return sign


@lru_cache(maxsize=_SMALL_CACHE_SIZE)
def _repunit(copies: int, width: int) -> int:
    """sum_b 2^(b*width) over ``copies`` blocks: a row of ``width`` bits times it repeats."""
    return sum(1 << b * width for b in range(copies))


@lru_cache(maxsize=_SMALL_CACHE_SIZE)
def _branch_rows(k: int, width: int) -> tuple[int, ...]:
    """Outcome rows of k measured qubits over 2^k blocks of ``width`` columns.

    Block b takes branch b of ``itertools.product((+1, -1), repeat=k)``: the
    i-th measured qubit reads -1 there exactly when bit k-1-i of b is set.
    """
    block = (1 << width) - 1
    return tuple(
        sum(block << b * width for b in range(1 << k) if b >> (k - 1 - i) & 1)
        for i in range(k)
    )


def _tile(batch: FrameBatch, copies: int, width: int) -> FrameBatch:
    """``copies`` copies of a batch of ``width`` columns, side by side."""
    rep = _repunit(copies, width)
    return FrameBatch(
        batch.graph,
        tuple(row * rep for row in batch.z_rows),
        tuple(row * rep for row in batch.frame_rows),
        batch.alive * rep,
    )


@lru_cache(maxsize=_MINUS_CACHE_SIZE)
def _minus_rows(g: Graph, measured: int) -> tuple[int, ...]:
    """Panel rows where the CZ sign of g is -1, the qubits in the mask ``measured`` gone.

    The panel's rows are, in increasing order, g's basis rows where every
    measured qubit reads 0.
    """
    kept = np.flatnonzero((np.arange(1 << g.n) & measured) == 0)
    return tuple(np.flatnonzero(_diagonal(g)[kept] < 0).tolist())


def _cz_rows(panel: np.ndarray, n: int, u: int, v: int) -> np.ndarray:
    return panel * _cz_sign(n, u, v)[:, None]


def _split(panel: np.ndarray, n: int, v: int):
    c = panel.shape[1]
    r = panel.reshape(1 << (n - 1 - v), 2, 1 << v, c)
    return r[:, 0], r[:, 1]


def _x_branches(panel: np.ndarray, n: int, v: int, width: int) -> np.ndarray:
    """Project qubit v onto X = +1 and X = -1 in every column block of ``width``.

    Block b of the result's 2x wider panel becomes blocks 2b (+1) and 2b + 1
    (-1), so repeated calls lay branches out in ``itertools.product`` order.
    """
    lo, hi = _split(panel, n, v)
    shape = lo.shape[:2] + (panel.shape[1] // width, 1, width)
    lo, hi = lo.reshape(shape), hi.reshape(shape)
    out = np.empty(shape[:3] + (2, width), dtype=panel.dtype)
    np.add(lo, hi, out=out[:, :, :, :1])
    np.subtract(lo, hi, out=out[:, :, :, 1:])
    return out.reshape(1 << (n - 1), 2 * panel.shape[1])


def _h_rows(panel: np.ndarray, n: int, v: int) -> np.ndarray:
    lo, hi = _split(panel, n, v)
    out = np.empty((lo.shape[0], 2) + lo.shape[1:], dtype=panel.dtype)
    np.add(lo, hi, out=out[:, 0])
    np.subtract(lo, hi, out=out[:, 1])
    return out.reshape(panel.shape)


def _row(q: int, measured: int) -> int:
    """Panel row of qubit q once the qubits in the mask ``measured`` are gone."""
    return q - (measured & ((1 << q) - 1)).bit_count()


def _compare(
    dense: np.ndarray,
    outs: list[FrameBatch],
    measured: Sequence[int],
    branches: Sequence,
    name: Callable[[object], str],
    failures: list[str],
) -> int:
    """Count mismatching columns of a group of operation sites; describe each bad one.

    Branch b of the group, named ``name(branches[b])``, is columns b*width ..
    (b+1)*width - 1 of ``dense``; a name is formatted only when the group has
    a failure to describe.  The engine's batches ``outs`` cover equal shares
    of those columns in order, one per site (tiled over its branches) or one
    per branch.  Batch i's share of ``dense`` lacks the qubits in the mask
    ``measured[i]``, which the engine must have left isolated with zero rows;
    the batch keeps them, so its claim is read on the rows where they all
    read 0.  Every mask has the same popcount, so every share has the same
    height.  The check runs on bit-sliced ints, bit c for column c of the
    group.  Descriptions follow branch order, then column order.
    """
    n = outs[0].graph.n
    height, total = dense.shape
    span = total // len(outs)
    block = (1 << span) - 1
    # per panel qubit (the j-th unmeasured qubit of every batch) its physical
    # pattern, then alive, stray (a measured qubit left bonded or with a
    # nonzero bit) and the claimed CZ sign bits per panel row; batch i starts
    # at bit i*span
    pattern = [0] * (n - measured[0].bit_count())
    alive = stray = 0
    minus = [0] * height
    for i, (out, gone) in enumerate(zip(outs, measured)):
        shift = i * span
        z, f = out.z_rows, out.frame_rows
        loose = 0
        top = out.alive
        j = 0
        for q in range(n):
            if gone >> q & 1:
                loose |= (out.alive if out.graph.adj[q] else 0) | z[q] | f[q]
            else:
                row = z[q] ^ f[q]
                top |= row
                pattern[j] |= row << shift
                j += 1
        if (top | loose) >> span:
            site = name(branches[i * len(branches) // len(outs)])
            raise InvariantError(f"{site}: engine rows carry bits past column {span - 1}")
        alive |= out.alive << shift
        stray |= loose << shift
        cols = block << shift
        for r in _minus_rows(out.graph, gone):
            minus[r] ^= cols
    # the pattern part of the claimed sign bits of panel row r: the XOR of the
    # patterns of r's qubits (row r drops its lowest qubit to reach a row
    # already built); minus[r] holds the CZ part
    claimed = [0] * height
    for r in range(1, height):
        low = r & -r
        claimed[r] = claimed[r ^ low] ^ pattern[low.bit_length() - 1]

    # a column is proportional to its claimed one (+1 on row 0, which has no
    # sign) iff it is nonzero, every entry has row 0's magnitude, and every
    # row's sign relative to row 0 is the claimed one
    mag = np.abs(dense)
    bits = np.empty((height + 2, total), dtype=bool)
    np.less(dense, 0, out=bits[:height])
    np.any(mag, axis=0, out=bits[height])
    np.all(mag == mag[:1], axis=0, out=bits[height + 1])
    packed = np.packbits(bits, axis=1, bitorder="little")
    *negative, nonzero, level = (int.from_bytes(row.tobytes(), "little") for row in packed)
    off = 0
    for r in range(1, height):
        off |= negative[r] ^ negative[0] ^ claimed[r] ^ minus[r]
    refused = nonzero & ~alive
    wrong = alive & ~(nonzero & level & ~off & ~stray)
    bad = refused.bit_count() + wrong.bit_count()
    if bad:
        labels = [name(branch) for branch in branches]
        width = total // len(labels)
        kinds = ((refused, "engine refused a possible branch"), (wrong, "state mismatch"))
        notes = (
            f"{label} col={c}: {what}"
            for b, label in enumerate(labels)
            for mask, what in kinds
            for c in _bits(mask >> b * width & (1 << width) - 1)
        )
        failures.extend(itertools.islice(notes, max(0, _MAX_FAILURES_KEPT - len(failures))))
    return bad


@lru_cache(maxsize=_SMALL_CACHE_SIZE)
def _pattern_layout(n: int, full_variants: bool) -> tuple[FrameBatch, np.ndarray]:
    """The graph-independent part of ``_column_batch``: the column batch on the
    empty graph, and the signs (-1)^popcount(x & (e XOR f)) of basis row x in
    the column of pattern (e, f)."""
    all_masks = range(1 << n)
    cols = [(e, 0) for e in all_masks]
    cols += [(0, f) for f in all_masks if f]
    if full_variants:
        cols += [(e, e) for e in all_masks if e]
    pats = np.array([e ^ f for e, f in cols], dtype=np.int64)
    # fold the n bits of x & (e XOR f) onto bit 0: shifts 1, 2, 4, ... reach bit n-1
    parity = np.arange(1 << n, dtype=np.int64)[:, None] & pats
    for s in range(n.bit_length()):
        parity ^= parity >> (1 << s)
    signs = 1 - 2 * (parity & 1)
    signs.flags.writeable = False
    return FrameBatch.of_columns(Graph.from_edges(n, []), cols), signs


def _column_batch(g: Graph, full_variants: bool) -> tuple[FrameBatch, np.ndarray]:
    """The engine's batch and the dense panel, one column per pattern."""
    empty, signs = _pattern_layout(g.n, full_variants)
    return FrameBatch(g, empty.z_rows, empty.frame_rows, empty.alive), _diagonal(g)[:, None] * signs


def _check_vertices(n: int) -> None:
    if not 1 <= n <= _MAX_VERTICES:
        raise ParameterError(f"sweep supports 1..{_MAX_VERTICES} vertices")


def check_graph(
    g: Graph,
    *,
    max_party: int | None = None,
    full_variants: bool = True,
    failures: list[str] | None = None,
) -> tuple[int, int]:
    """Sweep every operation variant on one graph.

    Returns (checks, mismatches); mismatch descriptions go into `failures`.
    Takes the sweep's 1..6 vertices, else raises ``ParameterError``.
    """
    n = g.n
    _check_vertices(n)
    if failures is None:
        failures = []
    batch, base = _column_batch(g, full_variants)
    width = base.shape[1]
    checks = 0
    bad = 0
    gname = f"n={n} adj={g.adj}"

    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        dense = np.hstack([_cz_rows(base, n, u, v) for u, v in pairs])
        outs = [apply_cz(batch, u, v) for u, v in pairs]
        checks += width * len(pairs)
        bad += _compare(
            dense, outs, [0] * len(pairs), pairs,
            lambda uv: f"{gname} cz({uv[0]},{uv[1]})", failures,
        )

    both = _tile(batch, 2, width)
    (minus,) = _branch_rows(1, width)
    # Z = +1 keeps qubit v's 0 rows, Z = -1 its 1 rows
    dense = np.hstack([
        np.concatenate(_split(base, n, v), axis=2).reshape(1 << (n - 1), 2 * width)
        for v in range(n)
    ])
    outs = [measure_z(both, v, minus) for v in range(n)]
    checks += 2 * width * n
    bad += _compare(
        dense, outs, [1 << v for v in range(n)], [(v, o) for v in range(n) for o in (+1, -1)],
        lambda vo: f"{gname} mz({vo[0]},{vo[1]:+d})", failures,
    )

    limit = min(max_party, n) if max_party is not None else n
    for size in range(2, limit + 1):
        checks_s, bad_s = _check_merge_parties(
            batch, base, list(itertools.permutations(range(n), size)), gname, failures
        )
        checks += checks_s
        bad += bad_s
    return checks, bad


def _check_merge_parties(batch: FrameBatch, base: np.ndarray, parties, gname, failures):
    """Every outcome branch of every merge party, all parties of one size."""
    width = base.shape[1]
    k = len(parties[0]) - 1
    tiled = _tile(batch, 1 << k, width)
    rows = _branch_rows(k, width)
    runs = [merge_local(tiled, list(party), rows) for party in parties]
    # the pivots depend only on the graph, so one replay serves every branch
    dense = _merge_panel(base, batch.graph.n, parties, [piv for _, piv in runs], gname)
    outcomes = list(itertools.product((+1, -1), repeat=k))
    bad = _compare(
        dense, [out for out, _ in runs],
        [sum(1 << m for m in party[1:]) for party in parties],
        [(party, o) for party in parties for o in outcomes],
        lambda po: f"{gname} merge{po[0]} outcomes={po[1]}", failures,
    )
    return len(parties) * width << k, bad


def _merge_panel(base: np.ndarray, n: int, parties, pivots, gname: str) -> np.ndarray:
    """``np.hstack`` of ``_replay_merge`` over parties of one size, as one matmul.

    Every product and partial sum of the float64 matmul is an integer of
    magnitude at most 2^(n+2k) times the base's largest entry, so it is exact
    while that stays within 2^53.
    """
    k = len(parties[0]) - 1
    if int(np.abs(base).max()) << n + 2 * k > _FLOAT_EXACT:
        raise InvariantError(f"{gname}: merge panel entries may exceed {_FLOAT_EXACT} in float64")
    ops = [_merge_operator(n, party, piv) for party, piv in zip(parties, pivots)]
    panel = np.concatenate(ops, dtype=np.float64) @ base.astype(np.float64)
    # rows (party, branch, panel row) to the hstack layout (panel row, party, branch, column)
    return (
        panel.reshape(len(ops) << k, 1 << n - k, base.shape[1])
        .transpose(1, 0, 2)
        .astype(np.int64, order="C")
        .reshape(1 << n - k, -1)
    )


@lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _merge_operator(n: int, party: tuple[int, ...], pivots: tuple[int | None, ...]) -> np.ndarray:
    """``_replay_merge`` as a matrix M: its branch b, panel row r is row b*2^(n-k) + r of M @ base.

    The replay is linear in the base panel, so replaying it on the 2^n
    identity gives every coefficient.  Entries are at most 2^(2k) in absolute
    value for k measured qubits (each X projection and Hadamard adds two
    rows), so the matrix is kept in the narrowest signed dtype holding them.
    """
    k = len(party) - 1
    size = 1 << n
    op = _replay_merge(np.eye(size, dtype=np.int64), n, party, pivots, size)
    op = op.reshape(size >> k, 1 << k, size).transpose(1, 0, 2).reshape(size, size)
    peak = int(np.abs(op).max())
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if peak <= np.iinfo(t).max)
    op = op.astype(dtype)
    op.flags.writeable = False
    return op


def _replay_merge(base: np.ndarray, n: int, party, pivots, width: int) -> np.ndarray:
    """Every outcome branch of a merge with the given pivots, side by side.

    CZ party[0] to the rest, then X-measure party[1:] in turn (both outcomes
    of each, in ``itertools.product`` order) with the Hadamard on each pivot.
    """
    panel = base
    for m in party[1:]:
        panel = _cz_rows(panel, n, party[0], m)
    gone = 0
    for m, pivot in zip(party[1:], pivots):
        panel = _x_branches(panel, n - gone.bit_count(), _row(m, gone), width)
        gone |= 1 << m
        if pivot is not None:
            panel = _h_rows(panel, n - gone.bit_count(), _row(pivot, gone))
    return panel


def _check_splice(base_graph: Graph, failures: list[str]) -> tuple[int, int]:
    """Pair-mediated CZ between every ordered endpoint pair of a base graph."""
    n = base_graph.n
    pairs = list(itertools.permutations(range(n), 2))
    if not pairs:
        return 0, 0
    joint = Graph.from_edges(n + 2, list(base_graph.edges()) + [(n, n + 1)])
    batch, base = _column_batch(joint, full_variants=False)
    width = base.shape[1]
    gname = f"splice base n={n} adj={base_graph.adj}"
    branches = list(itertools.product((+1, -1), repeat=2))
    tiled = _tile(batch, len(branches), width)
    rows = _branch_rows(2, width)
    panels = []
    for u, v in pairs:
        dense = _cz_rows(_cz_rows(base, n + 2, u, n), n + 2, v, n + 1)
        # the two X projections commute; measuring qubit n first gives (o1, o2) order
        dense = _x_branches(dense, n + 2, n, width)
        panels.append(_x_branches(dense, n + 1, n, width))
    outs = [apply_cz_via_pair(tiled, u, v, n, n + 1, rows) for u, v in pairs]
    bad = _compare(
        np.hstack(panels), outs, [0b11 << n] * len(pairs),
        [(u, v, o) for u, v in pairs for o in branches],
        lambda s: f"{gname} u={s[0]} v={s[1]} outcomes=({s[2][0]:+d},{s[2][1]:+d})", failures,
    )
    return width * len(branches) * len(pairs), bad


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


def run_oracle_sweep(max_n: int = 5, *, progress=None) -> SweepReport:
    """Exhaustively validate engine ops against dense replay.

    Covers every labeled graph on 1..max_n vertices, every error pattern
    (plus frame-only and error-equals-frame variants on smaller graphs),
    every CZ, every Z measurement with both outcomes, merges over ordered
    parties (all sizes up to 4 vertices, pairs at 5), pair-mediated CZ over
    every base graph on <= 4 vertices, and three-pair merge configurations
    on 6 qubits.  Exact integer comparison throughout.
    """
    _check_vertices(max_n)
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
    for n in range(1, min(max_n, 4) + 1):
        for g in _all_graphs(n):
            c, b = _check_splice(g, failures)
            checks += c
            bad += b
    if progress is not None:
        progress(f"pair splices done ({time.perf_counter() - t0:.1f}s)")
    if max_n >= 5:
        g, parties = _six_qubit_merge_configs()
        batch, base = _column_batch(g, full_variants=False)
        # sorted order mixes sizes: each maximal run of one size is one group,
        # so the failures keep the order of one call per party
        for _, run in itertools.groupby(parties, key=len):
            c, b = _check_merge_parties(batch, base, list(run), "three-pair", failures)
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
