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
from .pattern import PatternState, merge_local

__all__ = [
    "MAX_RECONSTRUCTION_QUBITS",
    "Reconstruction",
    "VerifyResult",
    "reconstruction_plan",
    "build_reconstruction",
    "candidate_flip_probs",
    "verify_reconstruction",
    "proof_applies",
]

MAX_RECONSTRUCTION_QUBITS = 8
# the float flip-vector distance differs from the exact one by rounding alone
# (entries are products of at most 8 factors, summed over at most 256 terms),
# far below this slack; a marginal gap rejects a split only past it, so the
# screen never rejects a split that the float distance would accept
_SCREEN_SLACK = 1e-12


@dataclass(frozen=True)
class Reconstruction:
    """Structure of one canonical-family assembly (noise level comes later).

    Qubit slots: vertex v sits at slot v for the whole build; extra pair
    halves occupy slots n, n+1, ... in merge order and are measured away.
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

    xg = Graph.from_edges(g.n, cross)
    copy_slots: list[tuple[int, int]] = []
    merges: list[tuple[int, int]] = []
    next_extra = g.n
    for comp in xg.components():
        size = comp.bit_count()
        if size == 1:
            continue
        comp_edges = sum((xg.adj[v] & comp).bit_count() for v in range(g.n) if comp >> v & 1) // 2
        if comp_edges != size - 1:
            return None  # cross edges contain a cycle: no clean fold order
        root = (comp & -comp).bit_length() - 1
        te = xg.bfs_tree_edges(root)
        a0, b0 = te[0]
        copy_slots.append((a0, b0))
        for parent, child in te[1:]:
            # pair half at the child, the parent side folds the other half in
            copy_slots.append((next_extra, child))
            merges.append((parent, next_extra))
            next_extra += 1
    return Reconstruction(
        graph=g,
        side_a=tuple(sorted(set(side_a))),
        cross_edges=tuple(cross),
        internal_edges=tuple(internal),
        pair_count=len(cross),
        copy_slots=tuple(copy_slots),
        merges=tuple(merges),
    )


def candidate_flip_probs(g: Graph, side_a, p: float) -> tuple[float, ...]:
    """Per-vertex flip probability of the canonical candidate.

    Independent across vertices; width = number of pair halves XORed into
    the vertex qubit, i.e. max(1, cross degree).
    """
    _check_p(p)
    return _flip_probs(g, _side_mask(g, side_a), p)


def _flip_probs(g: Graph, amask: int, p: float) -> tuple[float, ...]:
    """``candidate_flip_probs`` for the side given as a vertex bitset."""
    probs = []
    for v in range(g.n):
        other = g.adj[v] & (~amask if amask >> v & 1 else amask)
        width = max(1, other.bit_count())
        probs.append((1.0 - (1.0 - 2.0 * p) ** width) / 2.0)
    return tuple(probs)


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 0.5:
        raise ParameterError("flip probability must lie in [0, 1/2]")


def _cz_layer(rho: np.ndarray, n: int, edges) -> np.ndarray:
    """CZ on every edge at once: their +-1 diagonal s scales rho by s_b s_b'."""
    s = dense.cz_diagonal(Graph.from_edges(n, edges))
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
    Fold corrections are read off a clean run of the pattern engine, branch
    by branch, so this build shares no arithmetic with the analytic model."""
    _check_p(p)
    g = plan.graph
    n_tot = g.n + len(plan.merges)
    if n_tot > dense.MAX_DENSE_QUBITS:
        raise CapacityError(
            f"candidate needs {n_tot} dense qubits, cap is {dense.MAX_DENSE_QUBITS}"
        )
    rho = dense.flip_damping(n_tot, p) / (1 << n_tot)  # noisy |+> on every qubit
    rho = _cz_layer(rho, n_tot, plan.copy_slots)

    # extras are folded in slot order and the dense state drops each one, so
    # at fold i slot q sits at row q below the extras and at row q - i above
    probe_graph = Graph.from_edges(n_tot, list(plan.copy_slots))
    for i, (kappa, extra) in enumerate(plan.merges):
        probes = [
            merge_local(PatternState(probe_graph), [kappa, extra], forced_outcomes=[1 - 2 * b])
            for b in (0, 1)
        ]
        if probes[0].state.graph != probes[1].state.graph:
            raise InvariantError("fold rewiring depends on the outcome")
        steps = [(s.measured, s.pivot) for s in probes[0].steps]
        if steps != [(st.measured, st.pivot) for st in probes[1].steps]:
            raise InvariantError("fold pivot depends on the outcome")
        (_, pivot) = steps[0]
        if pivot is None:
            raise InvariantError("folded pair half has no twin to pivot on")

        def row(q: int) -> int:
            return q if q < g.n else q - i

        m_row = row(extra)
        rho = _cz_layer(rho, n_tot - i, [(kappa, m_row)])
        acc = None
        for b in (0, 1):
            br = dense.project_rho(rho, "X", m_row, b)
            br = dense.apply_unitary_rho(br, dense.H, (row(pivot),))
            for q in _bits(probes[b].state.correction_frame):
                br = dense.apply_unitary_rho(br, dense.Z, (row(q),))
            acc = br if acc is None else acc + br
        rho = dense.partial_trace(acc, [q for q in range(n_tot - i) if q != m_row])
        probe_graph = probes[0].state.graph

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


def verify_reconstruction(
    g: Graph,
    side_a,
    p: float,
    tol: float = 1e-9,
    method: str = "auto",
) -> VerifyResult:
    """Does the canonical candidate reproduce the thermal state exactly?

    method: "dense" demands the circuit-level build and oracle comparison,
    "analytic" uses the flip-distribution model alone, "auto" runs the dense
    route whenever it fits and cross-checks the two against each other.
    """
    if method not in ("auto", "dense", "analytic"):
        raise ParameterError(f"unknown method {method!r}")
    _check_tol(tol)
    plan = reconstruction_plan(g, side_a)
    if plan is None:
        return VerifyResult(ok=False, trace_distance=math.inf, method="no-canonical-wiring")
    analytic = _analytic_trace_distance(
        candidate_flip_probs(g, side_a, p), _product_flip_vector((p,) * g.n)
    )
    return _verify(plan, p, analytic, tol, method)


def _verify(
    plan: Reconstruction,
    p: float,
    analytic: float,
    tol: float,
    method: str,
    target: np.ndarray | None = None,
) -> VerifyResult:
    """Judge one plan; ``target`` is ``dense.thermal_state_from_p(g, p)`` when
    the caller already has it."""
    g = plan.graph
    n_tot = g.n + len(plan.merges)
    dense_ok = n_tot <= dense.MAX_DENSE_QUBITS and g.n <= dense.MAX_THERMAL_QUBITS
    if method == "dense" and not dense_ok:
        raise CapacityError("dense verification does not fit the qubit cap")
    if method != "analytic" and dense_ok:
        if target is None:
            target = dense.thermal_state_from_p(g, p)
        dist = dense.trace_distance(_assemble(plan, p), target)
        if abs(dist - analytic) > 1e-9:
            raise InvariantError("dense circuit disagrees with the analytic flip model")
        return VerifyResult(ok=dist <= tol, trace_distance=dist, method="dense")
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
            if not _verify(plan, p, analytic, tol, "auto", thermal).ok:
                raise InvariantError("analytic success must survive the dense check")
            found = True
            break
        verdicts[(u, v)] = found
    return verdicts
