"""Two-party reconstruction checks behind the purification-threshold argument.

The reduction works like this: if two parties can assemble the full thermal
graph state out of noisy two-qubit pairs (plus locally prepared thermal
qubits and local gates), then any protocol purifying the big state also
purifies a pair — so the pair threshold caps the state threshold.  This
module makes the assembly question concrete for desk-scale graphs.

Canonical wiring family.  For a bipartition (A, B): every edge inside a side
is a local CZ; every cross edge consumes one noisy pair, one half per side.
A vertex with a single cross edge simply *is* its pair half.  A vertex with
several cross edges keeps one half as its qubit and folds the other halves
in by X-measurement (the same transfer step the rebuild engine uses), which
XORs an independent noise bit per fold onto surviving qubits.  The fold only
lands cleanly when the pivot half is still pristine, which forces a
parents-first schedule and restricts the family to bipartitions whose
cross-edge graph is a forest — anything else has no wiring here.

Net effect: the candidate carries independent Z-flips with per-vertex
probability (1 - (1-2p)^w)/2, width w = max(1, cross degree), so it matches
the target state exactly iff every cross degree is at most one: the split is
a matching cut (its cut edges share no vertex).  An edge's verdict is
therefore a graph property, and a negative one means exactly "no matching
cut separates its ends", not a proof of impossibility.

``proof_applies`` is that graph predicate alone: it finds each edge's
first matching cut in pick order by a depth-first search that propagates
forced sides, within a node budget, so it takes any graph within
``graphs.MAX_VERTICES`` and needs neither numpy nor a noise level.  The
canonical family below (``reconstruction_plan``, ``build_reconstruction``,
the analytic flip model and ``verify_reconstruction``) stays as the
reference implementation the tests hold the predicate to, and as a target
of the benchmark's tracer; it loads numpy on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import dense
from .errors import CapacityError, InvariantError, ParameterError
from .graphs import Graph, _bits
from .pattern import FrameBatch, merge_local

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_RECONSTRUCTION_QUBITS",
    "Reconstruction",
    "VerifyResult",
    "reconstruction_plan",
    "build_reconstruction",
    "verify_reconstruction",
    "proof_applies",
]

MAX_RECONSTRUCTION_QUBITS = 8
# the dense and analytic trace distances are one quantity computed two ways;
# they must agree within this allowance or the build is wrong
_AGREEMENT = 1e-9


@dataclass(frozen=True)
class Reconstruction:
    """Structure of one canonical-family assembly (noise level comes later).

    Qubit slots: vertex v sits at slot v for the whole build; the extra
    pair half of merge i sits at slot n_tot - 1 - i (n_tot = n + number of
    merges), so the merges fold extras from the top down and each fold
    traces out the current top qubit.
    """

    graph: Graph
    side_a: tuple[int, ...]
    cross_edges: tuple[tuple[int, int], ...]
    internal_edges: tuple[tuple[int, int], ...]
    pair_count: int
    copy_slots: tuple[tuple[int, int], ...]  # CZ per consumed pair
    merges: tuple[tuple[int, int], ...]  # (vertex slot keeping the fold, extra slot)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    trace_distance: float
    method: str


def _side_mask(g: Graph, side_a) -> int:
    mask = 0
    for v in side_a:
        if not 0 <= v < g.n:
            raise ParameterError(f"bipartition vertex {v} out of range")
        mask |= 1 << v
    return mask


def reconstruction_plan(g: Graph, side_a) -> Reconstruction | None:
    """Wiring for this bipartition, or None when the family has none.

    Cross edges must form a forest: each tree roots at its smallest vertex,
    the root's first edge survives as a direct pair, and every deeper edge
    is folded at the parent side, parents first, so each fold's pivot (the
    child's half) is still untouched when needed.
    """
    if g.n > MAX_RECONSTRUCTION_QUBITS:
        raise CapacityError(
            f"reconstruction checks are capped at {MAX_RECONSTRUCTION_QUBITS} vertices"
        )
    amask = _side_mask(g, side_a)
    cross = []
    internal = []
    for u, v in g.edges():
        if (amask >> u & 1) != (amask >> v & 1):
            cross.append((u, v))
        else:
            internal.append((u, v))

    forest = Graph.from_edges(g.n, cross).spanning_forest()
    forest_edges = sum(len(tree) for tree in forest)
    if forest_edges < len(cross):
        return None  # cross edges contain a cycle: no clean fold order
    top = g.n + forest_edges - len(forest)  # n_tot: one extra per non-root edge
    copy_slots: list[tuple[int, int]] = []
    merges: list[tuple[int, int]] = []
    for tree in forest:
        copy_slots.append(tree[0])
        for parent, child in tree[1:]:
            # pair half at the child, the parent side folds the other half in
            top -= 1
            copy_slots.append((top, child))
            merges.append((parent, top))
    return Reconstruction(
        graph=g,
        side_a=tuple(sorted(set(side_a))),
        cross_edges=tuple(cross),
        internal_edges=tuple(internal),
        pair_count=len(cross),
        copy_slots=tuple(copy_slots),
        merges=tuple(merges),
    )


def _cross_degrees(g: Graph, amask: int) -> list[int]:
    """Neighbours of each vertex on the other side of the split given as the
    bitset of side A."""
    return [(nb & (~amask if amask >> v & 1 else amask)).bit_count() for v, nb in enumerate(g.adj)]


def _flip_probs(g: Graph, amask: int, p: float) -> tuple[float, ...]:
    """Per-vertex flip probability of the canonical candidate for the side
    given as a vertex bitset.

    Independent across vertices; width = number of pair halves XORed into
    the vertex qubit, i.e. max(1, cross degree).  Width 1 gives exactly p,
    not the closed form (1 - (1-2p)^w)/2, which rounds off p in floats
    (0.09999999999999998 at p = 0.1) and would make an exact split miss at
    tol 0.
    """
    return tuple(
        p if w <= 1 else (1.0 - (1.0 - 2.0 * p) ** w) / 2.0 for w in _cross_degrees(g, amask)
    )


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 0.5:
        raise ParameterError("flip probability must lie in [0, 1/2]")


def _cz_layer(rho: np.ndarray, n: int, edges) -> np.ndarray:
    """CZ on every edge at once: their +-1 diagonal s scales rho by s_b s_b'."""
    s = dense.cz_layer_diagonal(n, edges)
    return rho * (s[:, None] * s)


def build_reconstruction(g: Graph, side_a, p: float) -> np.ndarray:
    """Dense density matrix of the canonical candidate for this bipartition."""
    plan = reconstruction_plan(g, side_a)
    if plan is None:
        raise ParameterError("bipartition admits no wiring in the canonical family")
    return _assemble(plan, p)


def _assemble(plan: Reconstruction, p: float) -> np.ndarray:
    """Every initial qubit starts as a Z-noisy plus state; pair CZs, folds
    and internal CZs follow the plan, all real, so the build is float64.
    Fold corrections are read off a clean run of the pattern engine on two
    columns, one per branch, so this build shares no arithmetic with the
    analytic model."""
    _check_p(p)
    g = plan.graph
    n_tot = g.n + len(plan.merges)
    if n_tot > dense.MAX_DENSE_QUBITS:
        raise CapacityError(
            f"candidate needs {n_tot} dense qubits, cap is {dense.MAX_DENSE_QUBITS}"
        )
    rho = dense.flip_damping(n_tot, p) / (1 << n_tot)  # noisy |+> on every qubit
    rho = _cz_layer(rho, n_tot, plan.copy_slots)

    # merge i folds the extra at slot n_tot - 1 - i, the top qubit left
    probe_graph = Graph.from_edges(n_tot, list(plan.copy_slots))
    for i, (kappa, extra) in enumerate(plan.merges):
        # column b reads outcome b, so bit b of a frame row is branch b's Z
        clean = FrameBatch.of_columns(probe_graph, [(0, 0), (0, 0)])
        probe, (pivot,) = merge_local(clean, [kappa, extra], (0b10,))
        if pivot is None:
            raise InvariantError("folded pair half has no twin to pivot on")
        rho = _cz_layer(rho, n_tot - i, [(kappa, extra)])
        acc = None
        for b in (0, 1):
            br = dense.project_rho(rho, "X", extra, b)
            br = dense.apply_unitary_rho(br, dense.H, (pivot,))
            for q, frame in enumerate(probe.frame_rows):
                if frame >> b & 1:
                    br = dense.apply_unitary_rho(br, dense.Z, (q,))
            acc = br if acc is None else acc + br
        rho = dense.partial_trace(acc, list(range(extra)))
        probe_graph = probe.graph

    return _cz_layer(rho, g.n, plan.internal_edges)


def _product_flip_vector(probs: tuple[float, ...]) -> np.ndarray:
    import numpy as np

    v = np.ones(1)
    for q in reversed(probs):  # vertex 0 in the low bit
        v = np.outer(v, (1.0 - q, q)).ravel()
    return v


def _analytic_trace_distance(probs: tuple[float, ...], target: np.ndarray) -> float:
    """Both states are diagonal in the Z-error basis of the target graph
    state, so trace distance collapses to total variation between the two
    flip-pattern distributions: the candidate's per-vertex ``probs`` and the
    target's ``_product_flip_vector((p,) * n)``."""
    return 0.5 * float(abs(_product_flip_vector(probs) - target).sum())


def _check_tol(p: float, tol: float) -> None:
    """tol must be finite, non-negative and below the fold gap p(1 - 2p): a
    vertex folding two pair halves flips that far from p, so a tol at or
    above the gap would pass a folded split as exact.  At p = 0 and p = 1/2
    the gap is 0 and every candidate is exact."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"--tol must be finite and non-negative, got {tol!r}")
    gap = p * (1 - 2 * p)
    if 0.0 < p < 0.5 and tol >= gap:
        raise ParameterError(
            f"--tol {tol} is at or above the fold gap p(1 - 2p) = {gap:.3g} at"
            f" --p {p}, so a folded split would pass as exact; lower --tol"
        )


def verify_reconstruction(g: Graph, side_a, p: float, tol: float = 1e-9) -> VerifyResult:
    """Does the canonical candidate reproduce the thermal state exactly?

    The circuit-level build is compared with the dense thermal state
    whenever both fit the dense caps; it must agree with the analytic
    flip-distribution model (else ``InvariantError``), and the split passes
    when either distance is within tol.  Past the caps the analytic model
    decides alone.  A tol at or above the fold gap is a ``ParameterError``.
    """
    _check_tol(p, tol)
    plan = reconstruction_plan(g, side_a)
    if plan is None:
        return VerifyResult(ok=False, trace_distance=math.inf, method="no-canonical-wiring")
    _check_p(p)
    analytic = _analytic_trace_distance(
        _flip_probs(g, _side_mask(g, side_a), p), _product_flip_vector((p,) * g.n)
    )
    if g.n + len(plan.merges) > dense.MAX_DENSE_QUBITS:
        return VerifyResult(ok=analytic <= tol, trace_distance=analytic, method="analytic")
    dist = dense.trace_distance(_assemble(plan, p), dense.thermal_state_from_p(g, p))
    if abs(dist - analytic) > _AGREEMENT:
        raise InvariantError("dense circuit disagrees with the analytic flip model")
    # once they agree, either one within tol passes: at tol 0 an exact
    # analytic 0.0 must not fail on the eigenvalues' float noise
    return VerifyResult(ok=dist <= tol or analytic <= tol, trace_distance=dist, method="dense")


# nodes the matching-cut search may visit for one edge
_SEARCH_BUDGET = 20_000


def _first_matching_cut(g: Graph, u: int, v: int) -> int | None:
    """Side A, as a vertex bitset, of the first matching cut in pick order
    that puts u on side A and v on side B; None when no matching cut
    separates them.

    Pick order walks pick = 0, 1, ... over ``others``, the vertices other
    than u and v in ascending order, with bit i of pick putting others[i]
    on side A.  A depth-first search that assigns the highest unassigned
    vertex first and tries v's side before u's meets the splits in that
    order, so its first leaf is the smallest pick.  Propagating forced
    sides only cuts branches that hold no matching cut.  A vertex outside
    the edge's component constrains nothing there, so it takes side B, as
    in the smallest pick.
    """
    adj = g.adj
    comp = frontier = 1 << u
    while frontier:
        frontier = _neighbours(adj, frontier) & ~comp
        comp |= frontier
    start = 1 << u | 1 << v
    stack = [(1 << u, 1 << v, start | _neighbours(adj, start))]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > _SEARCH_BUDGET:
            raise CapacityError(
                f"matching-cut search for edge ({u}, {v}) ran past its budget of"
                f" {_SEARCH_BUDGET} nodes"
            )
        forced = _propagate(adj, *stack.pop())
        if forced is None:
            continue
        a, b = forced
        free = comp & ~(a | b)
        if not free:
            return a
        w = free.bit_length() - 1
        bit, touched = 1 << w, 1 << w | adj[w]
        stack.append((a | bit, b, touched))
        stack.append((a, b | bit, touched))
    return None


def _neighbours(adj: tuple[int, ...], mask: int) -> int:
    nb = 0
    for w in _bits(mask):
        nb |= adj[w]
    return nb


def _propagate(adj: tuple[int, ...], a: int, b: int, todo: int) -> tuple[int, int] | None:
    """Close the partial split (a, b) under the sides a matching cut forces,
    rechecking the vertices of ``todo``; None when no matching cut extends it.

    A vertex with a neighbour across pulls its other neighbours to its own
    side, and an unassigned vertex with two neighbours on one side joins
    that side.  Two neighbours across, or two on each side, is a conflict.
    Each vertex that gains a side puts itself and its neighbours back on
    the worklist.
    """
    while todo:
        x = todo.bit_length() - 1
        todo ^= 1 << x
        nb = adj[x]
        on_a, on_b = nb & a, nb & b
        if a >> x & 1 or b >> x & 1:
            across = on_b if a >> x & 1 else on_a
            if across & (across - 1):
                return None
            gained = nb & ~(a | b) if across else 0
            to_a = a >> x & 1
        else:
            two_a, two_b = on_a & (on_a - 1), on_b & (on_b - 1)
            if two_a and two_b:
                return None
            gained = 1 << x if two_a or two_b else 0
            to_a = two_a
        if gained:
            if to_a:
                a |= gained
            else:
                b |= gained
            todo |= gained | _neighbours(adj, gained)
    return a, b


def proof_applies(g: Graph) -> dict:
    """Per-edge verdict: can the two ends of this edge sit with different
    parties who then rebuild the full state from pairs?

    True iff some matching cut separates the edge: a split where no vertex
    has more than one neighbour across, so every width is 1 and the
    canonical candidate is exact at every p.  Any other split leaves a
    vertex flipping at least the fold gap p(1 - 2p) away from p, so the
    verdict depends on the graph alone.  Each edge's first matching cut in
    pick order comes from ``_first_matching_cut`` and is re-checked by the
    integer predicate.  The graph-level claim is simply all(values).
    """
    verdicts: dict[tuple[int, int], bool] = {}
    for u, v in g.edges():
        amask = _first_matching_cut(g, u, v)
        verdicts[(u, v)] = amask is not None
        if amask is None:
            continue
        if max(_cross_degrees(g, amask)) > 1 or not amask >> u & 1 or amask >> v & 1:
            raise InvariantError(f"split {amask:#x} is not a matching cut separating ({u}, {v})")
    return verdicts
