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
cross-edge graph is a forest — anything else has no wiring here, and a
negative verdict means exactly "nothing found in this family", not a proof
of impossibility.

Net effect: the candidate carries independent Z-flips with per-vertex
probability (1 - (1-2p)^w)/2, width w = max(1, cross degree), so it matches
the target state exactly iff every cross degree is at most one.

The dense check builds the candidate in real arithmetic (every operator of
the family is real), applies each layer of CZs as one +-1 diagonal product,
and compares it with ``dense.thermal_state_from_p`` by trace distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense
from .errors import CapacityError, InvariantError, ParameterError
from .graphs import Graph, _bits
from .pattern import FrameBatch, merge_local

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
# the float flip-vector distance differs from the exact one by rounding alone
# (entries are products of at most 8 factors, summed over at most 256 terms),
# far below this slack; a marginal gap rejects a split only past it, so the
# screen never rejects a split that the float distance would accept
_SCREEN_SLACK = 1e-12
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
    for u, v in sorted(g.edges()):
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


def _flip_probs(g: Graph, amask: int, p: float) -> tuple[float, ...]:
    """Per-vertex flip probability of the canonical candidate for the side
    given as a vertex bitset.

    Independent across vertices; width = number of pair halves XORed into
    the vertex qubit, i.e. max(1, cross degree).  Width 1 gives exactly p,
    not the closed form (1 - (1-2p)^w)/2, which rounds off p in floats
    (0.09999999999999998 at p = 0.1) and would make an exact split miss at
    tol 0.
    """
    probs = []
    for v in range(g.n):
        width = (g.adj[v] & (~amask if amask >> v & 1 else amask)).bit_count()
        probs.append(p if width <= 1 else (1.0 - (1.0 - 2.0 * p) ** width) / 2.0)
    return tuple(probs)


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 0.5:
        raise ParameterError("flip probability must lie in [0, 1/2]")


def _cz_layer(rho: np.ndarray, n: int, edges) -> np.ndarray:
    """CZ on every edge at once: their +-1 diagonal s scales rho by s_b s_b'."""
    s = dense.cz_layer_diagonal(n, edges)
    return rho * np.outer(s, s)


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
    v = np.ones(1)
    for q in reversed(probs):  # vertex 0 in the low bit
        v = np.outer(v, (1.0 - q, q)).ravel()
    return v


def _analytic_trace_distance(probs: tuple[float, ...], target: np.ndarray) -> float:
    """Both states are diagonal in the Z-error basis of the target graph
    state, so trace distance collapses to total variation between the two
    flip-pattern distributions: the candidate's per-vertex ``probs`` and the
    target's ``_product_flip_vector((p,) * n)``."""
    return 0.5 * float(np.abs(_product_flip_vector(probs) - target).sum())


def _screened_distance(
    probs: tuple[float, ...], p: float, tol: float, target: np.ndarray
) -> float | None:
    """``_analytic_trace_distance(probs, target)`` when it is at most tol,
    else None, trying the cheap bound first (``target`` is the flip vector of
    ``(p,) * n``).

    The total variation between two product distributions is at least every
    per-vertex gap |q_v - p|, so one gap past tol (and the float slack)
    rejects without building the candidate's vector.
    """
    if any(abs(q - p) > tol + _SCREEN_SLACK for q in probs):
        return None
    dist = _analytic_trace_distance(probs, target)
    return dist if dist <= tol else None


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"--tol must be finite and non-negative, got {tol!r}")


def verify_reconstruction(g: Graph, side_a, p: float, tol: float = 1e-9) -> VerifyResult:
    """Does the canonical candidate reproduce the thermal state exactly?

    The circuit-level build is compared with the dense thermal state
    whenever both fit the dense caps; it must agree with the analytic
    flip-distribution model (else ``InvariantError``), and the split passes
    when either distance is within tol.  Past the caps the analytic model
    decides alone.
    """
    _check_tol(tol)
    plan = reconstruction_plan(g, side_a)
    if plan is None:
        return VerifyResult(ok=False, trace_distance=math.inf, method="no-canonical-wiring")
    _check_p(p)
    analytic = _analytic_trace_distance(
        _flip_probs(g, _side_mask(g, side_a), p), _product_flip_vector((p,) * g.n)
    )
    return _verify(plan, p, analytic, tol)


def _verify(
    plan: Reconstruction,
    p: float,
    analytic: float,
    tol: float,
    target: np.ndarray | None = None,
) -> VerifyResult:
    """Judge one plan; ``target`` is ``dense.thermal_state_from_p(g, p)`` when
    the caller already has it."""
    g = plan.graph
    n_tot = g.n + len(plan.merges)
    if n_tot <= dense.MAX_DENSE_QUBITS:
        if target is None:
            target = dense.thermal_state_from_p(g, p)
        dist = dense.trace_distance(_assemble(plan, p), target)
        if abs(dist - analytic) > _AGREEMENT:
            raise InvariantError("dense circuit disagrees with the analytic flip model")
        # once they agree, either one within tol passes: at tol 0 an exact
        # analytic 0.0 must not fail on the eigenvalues' float noise
        ok = dist <= tol or analytic <= tol
        return VerifyResult(ok=ok, trace_distance=dist, method="dense")
    return VerifyResult(ok=analytic <= tol, trace_distance=analytic, method="analytic")


def proof_applies(g: Graph, p: float = 0.1, tol: float = 1e-9) -> dict:
    """Per-edge verdict: can the two ends of this edge sit with different
    parties who then rebuild the full state from pairs?

    Searches every bipartition separating the edge (the canonical family
    only); True needs a verified reconstruction, and the graph-level claim
    is simply all(values).  The first split that passes wins, and each is
    screened before it is planned, cheapest test first: the marginal bound,
    then the flip-vector distance (``_screened_distance``).  Only a split
    within tol is planned (a cycle of cross edges has no wiring), and each
    edge's winning split gets a dense witness, cross-checked against the
    analytic distance, on a thermal target built once per call.

    The probe noise level must be interior — at the endpoints every
    candidate matches trivially.
    """
    if g.n > MAX_RECONSTRUCTION_QUBITS:
        raise CapacityError(
            f"reconstruction checks are capped at {MAX_RECONSTRUCTION_QUBITS} vertices"
        )
    if not 0.0 < p < 0.5:
        raise ParameterError("probe flip probability must lie strictly inside (0, 1/2)")
    _check_tol(tol)
    flip_target = _product_flip_vector((p,) * g.n)
    thermal = None
    verdicts: dict[tuple[int, int], bool] = {}
    for u, v in sorted(g.edges()):
        others = [w for w in range(g.n) if w != u and w != v]
        found = False
        for pick in range(1 << len(others)):
            amask = 1 << u | sum(1 << w for i, w in enumerate(others) if pick >> i & 1)
            analytic = _screened_distance(_flip_probs(g, amask, p), p, tol, flip_target)
            if analytic is None:
                continue
            plan = reconstruction_plan(g, list(_bits(amask)))
            if plan is None:
                continue
            if thermal is None:
                thermal = dense.thermal_state_from_p(g, p)
            if not _verify(plan, p, analytic, tol, thermal).ok:
                raise InvariantError("analytic success must survive the dense check")
            found = True
            break
        verdicts[(u, v)] = found
    return verdicts
