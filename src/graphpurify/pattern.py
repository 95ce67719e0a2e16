"""Bit-packed trajectory simulation of noisy graph states.

A state is (graph, z_errors, correction_frame): physically Z^(e XOR f) applied
to the ideal graph state, where e = z_errors is the trajectory's actual
(unknown to the protocol) error pattern and f = correction_frame is the
accumulated record of outcome-conditioned Z-byproducts the protocol knows
about and will undo.  The state is ideal for the protocol exactly when e = 0.

Every rule here has a single correctness contract: exact agreement with dense
simulation on every (graph, pattern, outcome) triple at small size, enforced
by the exhaustive sweep in the verification module.  The X-measurement update
inside a merge rewires the measured qubit's neighborhood through a pivot
neighbor and applies a compensating single-qubit Hadamard there as part of
the channel, which keeps every intermediate state in graph form with Z-type
residuals only.

Bit-sliced batches.  The graph rewiring of every rule depends only on the
graph, and the error and frame updates are GF(2)-linear row operations, so
each rule is written once over a ``FrameBatch``: many (error, frame) columns
on one graph, stored as one int per qubit whose bit c is column c's bit (the
layout of Pauli-frame samplers such as Stim).  A rule rewires the graph once
and XORs whole rows.  An outcome is a row too (bit c set when column c reads
-1); a forced outcome that has probability zero for some columns clears them
from the batch's ``alive`` mask instead of raising.

The single-pattern API (``measure_z``, ``merge_local``, ``apply_cz_via_pair``
on a ``PatternState``) runs the same rules on a width-1 batch and raises
``ParameterError`` when its one column dies.  Their results expose the
Z-error update as ``z_map`` (bit j of ``z_map[i]``: input qubit j's Z error
lands on output qubit i), which is the same rule run on the identity batch,
one column per input qubit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .errors import ParameterError
from .graphs import Graph, _bits, _make

__all__ = [
    "PatternState",
    "FrameBatch",
    "BatchResult",
    "ZMeasurement",
    "MergeResult",
    "MergeStep",
    "PairSpliceResult",
    "ideal_state",
    "sample_thermal",
    "apply_cz",
    "measure_z",
    "merge_local",
    "apply_cz_via_pair",
    "is_ideal",
    "batch_cz",
    "batch_measure_z",
    "batch_merge",
    "batch_splice",
]


@dataclass(frozen=True)
class PatternState:
    graph: Graph
    z_errors: int = 0
    correction_frame: int = 0

    def __post_init__(self) -> None:
        full = (1 << self.graph.n) - 1
        if self.z_errors & ~full or self.z_errors < 0:
            raise ParameterError("z_errors bits outside vertex range")
        if self.correction_frame & ~full or self.correction_frame < 0:
            raise ParameterError("correction_frame bits outside vertex range")

    def physical_pattern(self) -> int:
        """Combined Z pattern actually applied to the ideal graph state."""
        return self.z_errors ^ self.correction_frame


@dataclass(frozen=True)
class FrameBatch:
    """Many (z_errors, correction_frame) columns on one graph, bit-sliced.

    Bit c of ``z_rows[q]`` is column c's error bit on qubit q, bit c of
    ``frame_rows[q]`` its frame bit.  Bit c of ``alive`` is set while column
    c's forced outcomes so far have nonzero probability; the rows of a dead
    column carry no meaning.
    """

    graph: Graph
    z_rows: tuple[int, ...]
    frame_rows: tuple[int, ...]
    alive: int

    @staticmethod
    def of_columns(graph: Graph, columns) -> "FrameBatch":
        """Batch whose column c is the (z_errors, correction_frame) pair columns[c]."""
        z = [0] * graph.n
        f = [0] * graph.n
        for c, (e, fr) in enumerate(columns):
            for q in _bits(e):
                z[q] |= 1 << c
            for q in _bits(fr):
                f[q] |= 1 << c
        return FrameBatch(graph, tuple(z), tuple(f), (1 << len(columns)) - 1)

    @staticmethod
    def identity(graph: Graph) -> "FrameBatch":
        """Column j is a lone Z error on qubit j, with an empty frame."""
        return FrameBatch(
            graph, tuple(1 << q for q in range(graph.n)), (0,) * graph.n, (1 << graph.n) - 1
        )

    def column(self, c: int) -> PatternState:
        e = 0
        f = 0
        for q, (zr, fr) in enumerate(zip(self.z_rows, self.frame_rows)):
            e |= (zr >> c & 1) << q
            f |= (fr >> c & 1) << q
        return PatternState(self.graph, e, f)


@dataclass(frozen=True)
class BatchResult:
    batch: FrameBatch
    outcomes: tuple[int, ...]  # outcome row per measured qubit, in order
    vertex_map: tuple[int, ...]  # input index of each surviving vertex
    pivots: tuple[int | None, ...] = ()  # merges: input index of each step's pivot


@dataclass(frozen=True)
class ZMeasurement:
    outcome: int  # +1 or -1
    state: PatternState
    vertex_map: tuple[int, ...]  # old index of each surviving vertex


@dataclass(frozen=True)
class MergeStep:
    measured: int  # input-state index of the measured qubit
    outcome: int  # +1 or -1
    pivot: int | None  # input-state index of the pivot, None if isolated


@dataclass(frozen=True)
class MergeResult:
    kept_qubit: int  # index of the kept qubit in the output state
    state: PatternState
    outcomes: tuple[int, ...]  # +-1 per measured qubit, in order
    vertex_map: tuple[int, ...]  # input-state index of each output vertex
    steps: tuple[MergeStep, ...]
    _on_identity: Callable[[], BatchResult] = field(repr=False, compare=False)

    @cached_property
    def z_map(self) -> tuple[int, ...]:
        """Bit j of ``z_map[i]``: input qubit j's Z error lands on output qubit i."""
        return self._on_identity().batch.z_rows


@dataclass(frozen=True)
class PairSpliceResult:
    state: PatternState
    outcomes: tuple[int, int]  # +-1 for the two consumed halves, in order
    vertex_map: tuple[int, ...]
    _on_identity: Callable[[], BatchResult] = field(repr=False, compare=False)

    @cached_property
    def z_map(self) -> tuple[int, ...]:
        """Bit j of ``z_map[i]``: input qubit j's Z error lands on output qubit i."""
        return self._on_identity().batch.z_rows


def ideal_state(g: Graph) -> PatternState:
    return PatternState(g, 0, 0)


def is_ideal(state: PatternState) -> bool:
    """True iff no unknown Z error remains once the frame is accounted for."""
    return state.z_errors == 0


def sample_thermal(g: Graph, p: float, rng: random.Random) -> PatternState:
    """Independent Bernoulli(p) Z error on every vertex; empty frame."""
    if not 0.0 <= p <= 0.5:
        raise ParameterError("flip probability must lie in [0, 0.5]")
    e = 0
    for v in range(g.n):
        if rng.random() < p:
            e |= 1 << v
    return PatternState(g, e, 0)


def apply_cz(state: PatternState, u: int, v: int) -> PatternState:
    """Toggle edge {u,v}; Z patterns commute through and are untouched."""
    g = state.graph.toggle_edge(u, v)
    return PatternState(g, state.z_errors, state.correction_frame)


def batch_cz(batch: FrameBatch, u: int, v: int) -> FrameBatch:
    """``apply_cz`` on every column: only the graph changes."""
    return FrameBatch(batch.graph.toggle_edge(u, v), batch.z_rows, batch.frame_rows, batch.alive)


def _width1(state: PatternState) -> FrameBatch:
    return FrameBatch.of_columns(state.graph, [(state.z_errors, state.correction_frame)])


def _survivor(run: BatchResult) -> PatternState:
    if not run.batch.alive:
        raise ParameterError("forced outcome has probability zero")
    return run.batch.column(0)


def _outcome_row(forced: int | None, rng: random.Random | None, alive: int) -> int:
    """One outcome bit per column: forced for all, or drawn per column."""
    if forced is None:
        if rng is None:
            raise ParameterError("an rng is required when no outcome is forced")
        return rng.getrandbits(alive.bit_length())
    if forced not in (+1, -1):
        raise ParameterError("forced outcome must be +1 or -1")
    return alive if forced == -1 else 0


def _without(n: int, *gone: int) -> tuple[int, ...]:
    # from a list, not a generator: a tuple grown from a generator is
    # resized after allocation, which bypasses CPython's tuple free lists,
    # and over a long run those lists fill up (about 2 MB of peak RSS)
    return tuple([q for q in range(n) if q not in gone])


def batch_measure_z(
    batch: FrameBatch,
    v: int,
    rng: random.Random | None = None,
    forced_outcome: int | None = None,
) -> BatchResult:
    """Measure Z on qubit v: sever its bonds and drop it from the state.

    The outcome is uniform, reported with the qubit's error bit folded in;
    the outcome-conditioned Z byproduct on the neighborhood goes into the
    correction frame.  Both outcomes are possible for every column.
    """
    g = batch.graph
    if not 0 <= v < g.n:
        raise ParameterError(f"vertex {v} out of range")
    o = _outcome_row(forced_outcome, rng, batch.alive)
    if forced_outcome is None:
        o ^= batch.z_rows[v]
    f = list(batch.frame_rows)
    for x in _bits(g.adj[v]):
        f[x] ^= o
    del f[v]
    z = list(batch.z_rows)
    del z[v]
    new_g, _ = g.delete_vertex(v)
    return BatchResult(
        FrameBatch(new_g, tuple(z), tuple(f), batch.alive), (o,), _without(g.n, v)
    )


def measure_z(
    state: PatternState,
    v: int,
    rng: random.Random | None = None,
    forced_outcome: int | None = None,
) -> ZMeasurement:
    """``batch_measure_z`` on the one pattern of ``state``."""
    run = batch_measure_z(_width1(state), v, rng, forced_outcome)
    return ZMeasurement(
        outcome=1 - 2 * run.outcomes[0], state=_survivor(run), vertex_map=run.vertex_map
    )


def _measure_x(
    g: Graph,
    z: list[int],
    f: list[int],
    alive: int,
    m: int,
    kappa: int,
    rng: random.Random | None,
    forced_outcome: int | None,
) -> tuple[Graph, int, int, int | None]:
    """X-measure qubit m, preferring a pivot other than ``kappa``.

    Updates the rows in place (row m is deleted) and returns (post-graph,
    alive mask, outcome row, pivot index before the deletion or None when m
    has no neighbor).  The channel includes the Hadamard correction on the
    pivot, so the post-state is in graph form again.
    """
    nb = g.adj[m]

    if nb == 0:
        # Bare |+> up to a Z: the X outcome is deterministic per column.
        det = z[m] ^ f[m]
        if forced_outcome is None:
            sigma = det
        else:
            sigma = _outcome_row(forced_outcome, None, alive)
            alive &= ~(det ^ sigma)
        del z[m], f[m]
        return g.delete_vertex(m)[0], alive, sigma, None

    sigma = _outcome_row(forced_outcome, rng, alive)

    cand = nb & ~(1 << kappa)
    pivot = _lowest_bit(cand) if cand else _lowest_bit(nb)

    b_set = nb & ~(1 << pivot)
    c_set = g.adj[pivot] & ~(1 << m)

    adj = list(g.adj)
    # detach pivot from its old neighborhood
    adj[pivot] &= ~c_set
    for c in _bits(c_set):
        adj[c] &= ~(1 << pivot)
    # complement the bipartite overlap between the two neighborhoods
    for x in _bits(b_set | c_set):
        mask = 0
        if b_set >> x & 1:
            mask ^= c_set
        if c_set >> x & 1:
            mask ^= b_set
        adj[x] ^= mask & ~(1 << x)
    # reattach pivot across the measured qubit's other neighbors
    adj[pivot] |= b_set
    for b in _bits(b_set):
        adj[b] |= 1 << pivot

    # the pivot's errors spread over b_set, the measured qubit's over c_set
    # and onto the pivot; the frame also picks up the outcome byproduct
    e_m, e_p, f_p = z[m], z[pivot], f[pivot]
    sigma_f = sigma ^ f[m]
    for x in _bits(b_set):
        z[x] ^= e_p
        f[x] ^= f_p
    for x in _bits(b_set & c_set):
        f[x] ^= alive
    for x in _bits(c_set):
        z[x] ^= e_m
        f[x] ^= sigma_f
    z[pivot] = e_m
    f[pivot] = sigma_f
    del z[m], f[m]

    new_g, _ = _make(g.n, adj).delete_vertex(m)
    return new_g, alive, sigma, pivot


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def batch_merge(
    batch: FrameBatch,
    party_qubits,
    rng: random.Random | None = None,
    forced_outcomes=None,
) -> BatchResult:
    """Fuse one party's qubits: CZ the first qubit to each of the others,
    then X-measure the others in order, keeping only the first.

    Forced outcomes (+-1 per measured qubit, the same for every column)
    replace random draws; columns for which a forced branch is impossible
    drop out of ``alive``.  All indices refer to the input state.
    """
    party = list(party_qubits)
    if not party:
        raise ParameterError("party must contain at least one qubit")
    if len(set(party)) != len(party):
        raise ParameterError("party qubits must be distinct")
    n = batch.graph.n
    if any(not 0 <= q < n for q in party):
        raise ParameterError("party qubit out of range")
    measured = party[1:]
    if forced_outcomes is not None and len(forced_outcomes) != len(measured):
        raise ParameterError("need one forced outcome per measured qubit")

    kappa = party[0]
    adj = list(batch.graph.adj)
    for m in measured:
        adj[kappa] ^= 1 << m
        adj[m] ^= 1 << kappa
    g = _make(n, adj)

    z = list(batch.z_rows)
    f = list(batch.frame_rows)
    alive = batch.alive
    labels = list(range(n))  # input index of each current qubit
    outcomes: list[int] = []
    pivots: list[int | None] = []
    for i, m in enumerate(measured):
        m_cur = labels.index(m)
        forced = forced_outcomes[i] if forced_outcomes is not None else None
        g, alive, sigma, pivot = _measure_x(
            g, z, f, alive, m_cur, labels.index(kappa), rng, forced
        )
        outcomes.append(sigma)
        pivots.append(None if pivot is None else labels[pivot])
        del labels[m_cur]
    return BatchResult(
        FrameBatch(g, tuple(z), tuple(f), alive), tuple(outcomes), tuple(labels), tuple(pivots)
    )


def merge_local(
    state: PatternState,
    party_qubits: list[int],
    rng: random.Random | None = None,
    forced_outcomes: list[int] | None = None,
) -> MergeResult:
    """``batch_merge`` on the one pattern of ``state``; forcing a
    zero-probability branch raises ``ParameterError``.

    The result carries the surviving-vertex map and, per measured qubit,
    its outcome and pivot.
    """
    run = batch_merge(_width1(state), party_qubits, rng, forced_outcomes)
    post = _survivor(run)
    outcomes = tuple(1 - 2 * o for o in run.outcomes)
    g, party = state.graph, tuple(party_qubits)
    return MergeResult(
        kept_qubit=run.vertex_map.index(party[0]),
        state=post,
        outcomes=outcomes,
        vertex_map=run.vertex_map,
        steps=tuple(MergeStep(*s) for s in zip(party[1:], outcomes, run.pivots)),
        _on_identity=lambda: batch_merge(
            FrameBatch.identity(g), party, forced_outcomes=(1,) * (len(party) - 1)
        ),
    )


def batch_splice(
    batch: FrameBatch,
    u: int,
    v: int,
    pair_u: int,
    pair_v: int,
    rng: random.Random | None = None,
    forced_outcomes: tuple[int, int] | None = None,
) -> BatchResult:
    """Toggle edge {u,v} by consuming a fresh two-qubit graph pair.

    pair_u/pair_v must form an isolated edge.  Each half is CZ-joined to its
    endpoint and X-measured; the four outcome branches are uniform, and the
    net effect is the edge toggle plus outcome-conditioned Z corrections on u
    and v (recorded in the frame) and the far half's error bit landing on
    each endpoint.
    """
    g = batch.graph
    ids = (u, v, pair_u, pair_v)
    if len(set(ids)) != 4:
        raise ParameterError("splice endpoints and pair halves must be distinct")
    if any(not 0 <= q < g.n for q in ids):
        raise ParameterError("splice qubit out of range")
    if g.adj[pair_u] != 1 << pair_v or g.adj[pair_v] != 1 << pair_u:
        raise ParameterError("pair halves must form an isolated edge")

    forced = forced_outcomes if forced_outcomes is not None else (None, None)
    s1 = _outcome_row(forced[0], rng, batch.alive)
    s2 = _outcome_row(forced[1], rng, batch.alive)

    z = list(batch.z_rows)
    f = list(batch.frame_rows)
    z[u] ^= z[pair_v]
    z[v] ^= z[pair_u]
    f[u] ^= f[pair_v] ^ s2
    f[v] ^= f[pair_u] ^ s1
    lo, hi = sorted((pair_u, pair_v))
    del z[hi], z[lo], f[hi], f[lo]

    adj = list(g.adj)
    adj[pair_u] = 0
    adj[pair_v] = 0
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    # deleting the higher half first keeps the lower one's index valid
    g1, _ = _make(g.n, adj).delete_vertex(hi)
    g2, _ = g1.delete_vertex(lo)
    return BatchResult(
        FrameBatch(g2, tuple(z), tuple(f), batch.alive), (s1, s2), _without(g.n, lo, hi)
    )


def apply_cz_via_pair(
    state: PatternState,
    u: int,
    v: int,
    pair_u: int,
    pair_v: int,
    rng: random.Random | None = None,
    forced_outcomes: tuple[int, int] | None = None,
) -> PairSpliceResult:
    """``batch_splice`` on the one pattern of ``state``."""
    run = batch_splice(_width1(state), u, v, pair_u, pair_v, rng, forced_outcomes)
    g = state.graph
    return PairSpliceResult(
        state=_survivor(run),
        outcomes=tuple(1 - 2 * o for o in run.outcomes),
        vertex_map=run.vertex_map,
        _on_identity=lambda: batch_splice(
            FrameBatch.identity(g), u, v, pair_u, pair_v, forced_outcomes=(1, 1)
        ),
    )
