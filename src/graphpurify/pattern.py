"""Bit-packed trajectory simulation of noisy graph states.

A state is (graph, z_errors, correction_frame): physically Z^(e XOR f) applied
to the ideal graph state, where e = z_errors is the trajectory's actual
(unknown to the protocol) error pattern and f = correction_frame is the
accumulated record of outcome-conditioned Z-byproducts the protocol knows
about and will undo.  The state is ideal for the protocol exactly when e = 0.

Every rule here has a single correctness contract: exact agreement with dense
simulation on every (graph, pattern, outcome) triple at small size, enforced
by the exhaustive sweep in the verification module.  The X-measurement update
inside ``merge_local`` rewires the measured qubit's neighborhood through a
pivot neighbor and applies a compensating single-qubit Hadamard there as part
of the channel, which keeps every intermediate state in graph form with
Z-type residuals only.

The Z-error update of every rule is GF(2)-linear in the error bits and does
not depend on the outcomes, so ``merge_local`` and ``apply_cz_via_pair``
results expose it as ``z_map``: bit j of ``z_map[i]`` is set when input
qubit j's Z error lands on output qubit i.  The correction frame follows the
same map plus an outcome-dependent byproduct.  The map is built only when
read, from rewiring data the rule computes anyway.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ParameterError
from .graphs import Graph, _bits, _make

__all__ = [
    "PatternState",
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
    # per X measurement, in the indices current at that step:
    # (measured, pivot or None, b_set, c_set, surviving-vertex map)
    _rewires: tuple = field(repr=False, compare=False)

    @cached_property
    def z_map(self) -> tuple[int, ...]:
        """Bit j of ``z_map[i]``: input qubit j's Z error lands on output qubit i."""
        rows = [1 << q for q in range(self.state.graph.n + len(self.steps))]
        for m, pivot, b_set, c_set, keep in self._rewires:
            if pivot is not None:
                from_m, from_pivot = rows[m], rows[pivot]
                for x in _bits(b_set):
                    rows[x] ^= from_pivot
                for x in _bits(c_set):
                    rows[x] ^= from_m
                rows[pivot] = from_m
            rows = [rows[old] for old in keep]
        return tuple(rows)


@dataclass(frozen=True)
class PairSpliceResult:
    state: PatternState
    outcomes: tuple[int, int]  # +-1 for the two consumed halves, in order
    vertex_map: tuple[int, ...]
    _ends: tuple[int, int, int, int] = field(repr=False, compare=False)  # u, v, pair_u, pair_v

    @cached_property
    def z_map(self) -> tuple[int, ...]:
        """Bit j of ``z_map[i]``: input qubit j's Z error lands on output qubit i."""
        u, v, pair_u, pair_v = self._ends
        rows = [1 << q for q in range(self.state.graph.n + 2)]
        rows[u] |= 1 << pair_v
        rows[v] |= 1 << pair_u
        return tuple(rows[old] for old in self.vertex_map)


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


def _outcome_bit(forced: int | None, sampler) -> int:
    if forced is None:
        return sampler()
    if forced not in (+1, -1):
        raise ParameterError("forced outcome must be +1 or -1")
    return (1 - forced) // 2


def measure_z(
    state: PatternState,
    v: int,
    rng: random.Random | None = None,
    forced_outcome: int | None = None,
) -> ZMeasurement:
    """Measure Z on qubit v: sever its bonds and drop it from the state.

    The outcome is uniform, reported with the qubit's error bit folded in;
    the outcome-conditioned Z byproduct on the neighborhood goes into the
    correction frame.
    """
    g = state.graph
    if not 0 <= v < g.n:
        raise ParameterError(f"vertex {v} out of range")
    e_v = state.z_errors >> v & 1
    o = _outcome_bit(forced_outcome, lambda: _need_rng(rng).getrandbits(1) ^ e_v)
    frame = state.correction_frame
    if o:
        frame ^= g.adj[v]
    new_g, keep = g.delete_vertex(v)
    return ZMeasurement(
        outcome=1 - 2 * o,
        state=PatternState(new_g, _restrict(state.z_errors, keep), _restrict(frame, keep)),
        vertex_map=tuple(keep),
    )


def _need_rng(rng: random.Random | None) -> random.Random:
    if rng is None:
        raise ParameterError("an rng is required when no outcome is forced")
    return rng


def _restrict(mask: int, keep: list[int]) -> int:
    out = 0
    for new, old in enumerate(keep):
        out |= (mask >> old & 1) << new
    return out


def _measure_x(
    state: PatternState,
    m: int,
    kappa: int | None,
    rng: random.Random | None,
    forced_outcome: int | None,
) -> tuple[int, PatternState, tuple[int, ...], int | None, int, int]:
    """X-measure qubit m, preferring a pivot other than ``kappa``.

    Returns (outcome bit, post-state, vertex map, pivot index pre-deletion,
    b_set, c_set); the two sets are 0 when m has no neighbor.
    The channel includes the Hadamard correction on the pivot, so the
    post-state is in graph form again.
    """
    g = state.graph
    e, f = state.z_errors, state.correction_frame
    nb = g.adj[m]

    if nb == 0:
        # Bare |+> up to a Z: the X outcome is deterministic.
        det = (e >> m & 1) ^ (f >> m & 1)
        if forced_outcome is not None:
            if _outcome_bit(forced_outcome, None) != det:
                raise ParameterError("forced outcome has probability zero")
        new_g, keep = g.delete_vertex(m)
        post = PatternState(new_g, _restrict(e, keep), _restrict(f, keep))
        return det, post, tuple(keep), None, 0, 0

    sigma = _outcome_bit(forced_outcome, lambda: _need_rng(rng).getrandbits(1))

    cand = nb & ~(1 << kappa) if kappa is not None else nb
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

    drop = (1 << m) | (1 << pivot)
    sigma_f = sigma ^ (f >> m & 1)
    new_f = f & ~drop
    if f >> pivot & 1:
        new_f ^= b_set
    new_f ^= b_set & c_set
    if sigma_f:
        new_f ^= c_set | (1 << pivot)

    new_e = e & ~drop
    if e >> pivot & 1:
        new_e ^= b_set
    if e >> m & 1:
        new_e ^= c_set | (1 << pivot)

    interim = _make(g.n, adj)
    new_g, keep = interim.delete_vertex(m)
    post = PatternState(new_g, _restrict(new_e, keep), _restrict(new_f, keep))
    return sigma, post, tuple(keep), pivot, b_set, c_set


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def merge_local(
    state: PatternState,
    party_qubits: list[int],
    rng: random.Random | None = None,
    forced_outcomes: list[int] | None = None,
) -> MergeResult:
    """Fuse one party's qubits: CZ the first qubit to each of the others,
    then X-measure the others in order, keeping only the first.

    Forced outcomes (+-1 per measured qubit) replace random draws; forcing a
    zero-probability branch raises.  All indices refer to the input state;
    the result carries the surviving-vertex map.
    """
    if not party_qubits:
        raise ParameterError("party must contain at least one qubit")
    if len(set(party_qubits)) != len(party_qubits):
        raise ParameterError("party qubits must be distinct")
    n = state.graph.n
    if any(not 0 <= q < n for q in party_qubits):
        raise ParameterError("party qubit out of range")
    measured = party_qubits[1:]
    if forced_outcomes is not None and len(forced_outcomes) != len(measured):
        raise ParameterError("need one forced outcome per measured qubit")

    kappa = party_qubits[0]
    cur = state
    for m in measured:
        cur = apply_cz(cur, kappa, m)

    # current index of each input vertex; None once deleted
    where: list[int | None] = list(range(n))
    outcomes: list[int] = []
    steps: list[MergeStep] = []
    rewires = []
    for i, m in enumerate(measured):
        m_cur = where[m]
        assert m_cur is not None
        k_cur = where[kappa]
        forced = forced_outcomes[i] if forced_outcomes is not None else None
        sigma, cur, keep, pivot_cur, b_set, c_set = _measure_x(cur, m_cur, k_cur, rng, forced)
        rewires.append((m_cur, pivot_cur, b_set, c_set, keep))
        inv = {old: new for new, old in enumerate(keep)}
        pivot_in = None
        if pivot_cur is not None:
            for q in range(n):
                if where[q] == pivot_cur:
                    pivot_in = q
                    break
        for q in range(n):
            w = where[q]
            where[q] = inv.get(w) if w is not None else None
        outcomes.append(1 - 2 * sigma)
        steps.append(MergeStep(measured=m, outcome=1 - 2 * sigma, pivot=pivot_in))

    vertex_map = tuple(q for q in range(n) if where[q] is not None)
    kept_final = where[kappa]
    assert kept_final is not None
    return MergeResult(
        kept_qubit=kept_final,
        state=cur,
        outcomes=tuple(outcomes),
        vertex_map=vertex_map,
        steps=tuple(steps),
        _rewires=tuple(rewires),
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
    """Toggle edge {u,v} by consuming a fresh two-qubit graph pair.

    pair_u/pair_v must form an isolated edge.  Each half is CZ-joined to its
    endpoint and X-measured; the four outcome branches are uniform, and the
    net effect is the edge toggle plus outcome-conditioned Z corrections on u
    and v (recorded in the frame) and the far half's error bit landing on
    each endpoint.
    """
    g = state.graph
    ids = (u, v, pair_u, pair_v)
    if len(set(ids)) != 4:
        raise ParameterError("splice endpoints and pair halves must be distinct")
    if any(not 0 <= q < g.n for q in ids):
        raise ParameterError("splice qubit out of range")
    if g.adj[pair_u] != 1 << pair_v or g.adj[pair_v] != 1 << pair_u:
        raise ParameterError("pair halves must form an isolated edge")

    if forced_outcomes is None:
        r = _need_rng(rng)
        s1, s2 = r.getrandbits(1), r.getrandbits(1)
    else:
        s1 = _outcome_bit(forced_outcomes[0], None)
        s2 = _outcome_bit(forced_outcomes[1], None)

    e, f = state.z_errors, state.correction_frame
    new_e = e
    if e >> pair_v & 1:
        new_e ^= 1 << u
    if e >> pair_u & 1:
        new_e ^= 1 << v
    new_f = f
    if (f >> pair_v & 1) ^ s2:
        new_f ^= 1 << u
    if (f >> pair_u & 1) ^ s1:
        new_f ^= 1 << v

    drop = (1 << pair_u) | (1 << pair_v)
    new_e &= ~drop
    new_f &= ~drop

    adj = list(g.adj)
    adj[pair_u] = 0
    adj[pair_v] = 0
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    interim = _make(g.n, adj)
    g1, keep1 = interim.delete_vertex(max(pair_u, pair_v))
    g2, keep2 = g1.delete_vertex(_position(keep1, min(pair_u, pair_v)))
    keep = [keep1[i] for i in keep2]
    post = PatternState(g2, _restrict(new_e, keep), _restrict(new_f, keep))
    return PairSpliceResult(
        state=post,
        outcomes=(1 - 2 * s1, 1 - 2 * s2),
        vertex_map=tuple(keep),
        _ends=(u, v, pair_u, pair_v),
    )


def _position(keep: list[int], old: int) -> int:
    for new, idx in enumerate(keep):
        if idx == old:
            return new
    raise AssertionError("vertex vanished from the keep map")
