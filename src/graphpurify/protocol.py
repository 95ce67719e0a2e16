"""The end-to-end divide-and-rebuild protocol.

Stages: (1) extraction — on fresh thermal copies, Z-measure the
neighborhoods of the scheduled pairs so each pair becomes an isolated noisy
Bell-type edge; (2) purification — the ensemble of extracted pairs is pushed
through the validated Bell-diagonal recurrence channel to a target fidelity,
so each rebuilt edge draws its residual error class from the channel's
output distribution; (3) rebuild — one qubit per target vertex is fused from
pair halves (spanning-forest edges via local merges, remaining edges via
pair-mediated CZ splices).  A trajectory counts as success when no unknown Z
error remains anywhere.

Compile once, then sample: the rewiring of extraction and rebuild depends
only on the graph, and the rebuild's Z-error update is GF(2)-linear and
outcome-independent (an outcome only adds a known Pauli byproduct to the
frame).  So each graph's extraction isolation check and rebuild run through
the pattern engine once, on the all-+1 outcome branch, with every
structural invariant checked.  The rebuild carries a bit-sliced batch with
one column per (edge, class 1 or 2) error, so its final error rows give
each error's syndrome: the set of target vertices it leaves flipped, which
lies on the edge's two endpoints.  Class 3's is the XOR of the two.  Each
shot then only draws one error class per edge and counts as ideal iff the
drawn syndromes XOR to 0.

Scheduling constraint: two pairs can be extracted from the same copy exactly
when neither pair touches the other's vertices or their neighbors — that
keeps each pair's measured boundary disjoint from the other pair itself,
while boundaries of different pairs may overlap.

Determinism: shots are processed in fixed-size chunks, each chunk drawing
from its own derived stream, so results are byte-identical for any worker
count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError, InvariantError, ParameterError
from .graphs import MAX_VERTICES, Graph, _bits
from .pairs import composite_r2, distill_trace, from_z_noise
from .pattern import FrameBatch, apply_cz_via_pair, measure_z, merge_local
from .rng import derive_rng, derive_seed
from .thermal import purifiable_at

__all__ = [
    "PairExtraction",
    "ExtractionPlan",
    "RateReport",
    "ProtocolResult",
    "ScanRow",
    "plan_extraction",
    "rate_report",
    "run_drpp",
    "threshold_scan",
    "CHUNK_SHOTS",
]

CHUNK_SHOTS = 4096
# Plans and compiled rebuilds memoised per graph: a process plans a handful
# of graphs, each many times (every rate-grid point, every simulate call).
_PLAN_CACHE_SIZE = 64


# ---------------------------------------------------------------------------
# extraction planning


@dataclass(frozen=True)
class PairExtraction:
    edge: tuple[int, int]
    z_measure_set: tuple[int, ...]


@dataclass(frozen=True)
class ExtractionPlan:
    rounds: tuple[tuple[PairExtraction, ...], ...]

    @property
    def n_geo(self) -> int:
        return len(self.rounds)


def _closed_mask(g: Graph, u: int, v: int) -> int:
    return (1 << u) | (1 << v) | g.adj[u] | g.adj[v]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def plan_extraction(g: Graph) -> ExtractionPlan:
    """Greedy first-fit partition of edges into simultaneous rounds.

    Edges are taken in sorted order; an edge joins the first round where no
    already-placed pair has it inside its closed neighborhood (the test is
    symmetric, so neither pair disturbs the other's extraction).  The plan
    depends only on the graph, so it is memoised per graph and shared
    between callers; it is immutable.
    """
    rounds: list[list[tuple[int, int]]] = []
    blockers: list[int] = []
    for u, v in g.edges():
        bits = (1 << u) | (1 << v)
        for i, blocked in enumerate(blockers):
            if blocked & bits == 0:
                rounds[i].append((u, v))
                blockers[i] |= _closed_mask(g, u, v)
                break
        else:
            rounds.append([(u, v)])
            blockers.append(_closed_mask(g, u, v))

    built = []
    for members in rounds:
        items = []
        occupied = measured = 0
        for u, v in members:
            pair = (1 << u) | (1 << v)
            zset = (g.adj[u] | g.adj[v]) & ~pair
            occupied |= pair
            measured |= zset
            items.append(
                PairExtraction(
                    edge=(u, v),
                    z_measure_set=tuple(
                        q for q in range(g.n) if zset >> q & 1
                    ),
                )
            )
        # read from the built sets, not the blockers: no Z measurement of the
        # round may hit a pair (pairs sharing a vertex fail too, since each
        # one's far end is in the other's set)
        if measured & occupied:
            raise InvariantError("round contains interfering pairs")
        built.append(tuple(items))
    return ExtractionPlan(rounds=tuple(built))


# ---------------------------------------------------------------------------
# rate accounting


@dataclass(frozen=True, slots=True)
class RateReport:
    n_geo_plan: int
    r2: float
    r_psi_lower: float
    r_psi_upper: float


def rate_report(g: Graph, p: float) -> RateReport:
    """Bell-pair rate and the graph-state rate it brackets.

    The output-state rate R is sandwiched as r2/n_geo <= R <= r2, with n_geo
    the planner's round count (at least 1 to keep the bound meaningful for
    edgeless graphs).
    """
    n_geo = plan_extraction(g).n_geo
    r2 = composite_r2(from_z_noise(p))
    return RateReport(n_geo, r2, r2 / (n_geo or 1), r2)


# ---------------------------------------------------------------------------
# trajectory simulation


@dataclass(frozen=True)
class ProtocolResult:
    graph: dict
    p: float
    shots: int
    converged: bool
    pair_target_fidelity: float
    achieved_pair_fidelity: float
    rounds: int  # recurrence rounds per pair
    fidelity: float | None
    ci95: tuple[float, float] | None
    ideal_shots: int | None
    copies_consumed: float | None
    n_geo_plan: int
    r2: float
    r_psi_bounds: tuple[float, float]


def _graph_record(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _wilson_ci95(successes: int, trials: int) -> tuple[float, float]:
    z = 1.959963984540054
    ph = successes / trials
    denom = 1.0 + z * z / trials
    center = (ph + z * z / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _check_extraction(g: Graph, plan: ExtractionPlan) -> None:
    """Measure out each round's boundaries on one copy; check isolation.

    The rewiring does not depend on error patterns or outcomes, so one pass
    on the error-free state, every outcome +1, covers every shot.
    """
    for items in plan.rounds:
        copy = FrameBatch.of_columns(g, [(0, 0)])
        for q in sorted({q for pe in items for q in pe.z_measure_set}):
            copy = measure_z(copy, q, 0)
        for pe in items:
            u, v = pe.edge
            if copy.graph.adj[u] != 1 << v or copy.graph.adj[v] != 1 << u:
                raise InvariantError(f"extracted pair {pe.edge} is not isolated")


def _draw_class(probs: tuple[float, ...], rng) -> int:
    r = rng.random()
    acc = 0.0
    for c, q in enumerate(probs[:-1]):
        acc += q
        if r < acc:
            return c
    return len(probs) - 1


@dataclass(frozen=True)
class _Rebuild:
    """The rebuild's Z-error map as one syndrome per (edge, class).

    ``syndromes[k][c]`` is the bitset of target vertices that a class-c
    error on the k-th edge (sorted edge order) leaves flipped; class 0 flips
    none.  A shot's residual error is the XOR of its edges' syndromes.
    """

    syndromes: tuple[tuple[int, int, int, int], ...]


def _rebuild(g: Graph, columns) -> tuple[int, ...]:
    """Fuse purified pairs into the target graph through the pattern engine.

    One pair per edge; spanning-forest edges are realized by merging each
    vertex's pair halves (BFS order, parents first, so every measured half's
    twin is still pristine and the fused edge lands cleanly), remaining
    edges by pair-mediated CZ between the finished vertex qubits.  Every
    structural invariant is checked.  ``columns`` holds class assignments
    (``{edge: class}`` dicts, a missing edge being class 0), one engine
    column each; class 1 is an error on the low vertex's half, class 2 on
    the high vertex's, class 3 on both.  Returns each column's residual
    error as a bitset of target vertices.  Every measurement takes its +1
    outcome: the Z errors do not depend on the outcomes, and no column may
    die on that branch.
    """
    n = g.n
    forest = [e for tree in g.spanning_forest() for e in tree]
    tree_set = {frozenset(e) for e in forest}
    edges = g.edges()
    nontree = [e for e in edges if frozenset(e) not in tree_set]
    isolated = [v for v in range(n) if g.degree(v) == 0]
    _check_capacity(len(edges), len(isolated))

    edges_built: list[tuple[int, int]] = []
    nq = 0
    halves_of: dict[tuple[int, int], tuple[int, int]] = {}  # (low half, high half)

    def alloc_pair(u: int, v: int) -> tuple[int, int]:
        """A fresh pair for edge u-v: (half at u, half at v)."""
        nonlocal nq
        hu, hv = nq, nq + 1
        nq += 2
        edges_built.append((hu, hv))
        halves_of[(u, v) if u < v else (v, u)] = (hu, hv) if u < v else (hv, hu)
        return hu, hv

    # each vertex's merge party; BFS order puts the parent's half first
    halves_at: dict[int, list[int]] = {}
    for a, b in forest:
        ha, hb = alloc_pair(a, b)
        halves_at.setdefault(a, []).append(ha)
        halves_at.setdefault(b, []).append(hb)
    kept: dict[int, int] = {}
    for v in isolated:
        kept[v] = nq
        nq += 1
    splices = [(u, v, *alloc_pair(u, v)) for u, v in nontree]

    z = [0] * nq
    for c, classes in enumerate(columns):
        bit = 1 << c
        for e, cls in classes.items():
            low, high = halves_of[e]
            if cls & 1:
                z[low] |= bit
            if cls & 2:
                z[high] |= bit
    all_alive = (1 << len(columns)) - 1
    state = FrameBatch(Graph.from_edges(nq, edges_built), tuple(z), (0,) * nq, all_alive)

    # tree by tree: the root, then the other vertices in BFS order
    for v, party in halves_at.items():
        kept[v] = party[0]
        if len(party) > 1:
            state, _ = merge_local(state, party, (0,) * (len(party) - 1))

    for u, v, hu, hv in splices:
        state = apply_cz_via_pair(state, kept[u], kept[v], hu, hv, (0, 0))

    if state.alive != all_alive:
        raise InvariantError("rebuild dropped a column on the all-+1 outcome branch")
    measured = set(range(nq)) - set(kept.values())
    if any(state.graph.adj[a] or state.z_rows[a] or state.frame_rows[a] for a in measured):
        raise InvariantError("rebuild left a measured qubit bonded or with nonzero rows")
    for u in range(n):
        for v in range(u + 1, n):
            if state.graph.has_edge(kept[u], kept[v]) != g.has_edge(u, v):
                raise InvariantError("rebuilt graph differs from the target")
    residuals = [0] * len(columns)
    for v in range(n):
        bit = 1 << v
        for c in _bits(state.z_rows[kept[v]]):
            residuals[c] |= bit
    return tuple(residuals)


def _check_capacity(edges: int, isolated: int) -> None:
    if 2 * edges + isolated <= MAX_VERTICES:
        return
    if isolated:
        raise CapacityError(
            f"graph has {edges} edges and {isolated} isolated vertices; simulate "
            "rebuilds each edge from 2 qubits and each isolated vertex from 1, "
            f"and supports at most {MAX_VERTICES} such qubits"
        )
    raise CapacityError(
        f"graph has {edges} edges; simulate rebuilds each edge from 2 qubits "
        f"and supports at most {MAX_VERTICES // 2} edges"
    )


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _compile(g: Graph) -> _Rebuild:
    """Check extraction, then rebuild every one-edge error of class 1 and 2.

    Outcomes do not change the rewiring or the Z-error map, so the all-+1
    branch serves every shot, and the map is GF(2)-linear, so class 3's
    syndrome is the XOR of the other two.  A syndrome that reaches a vertex
    off its edge raises.  Memoised per graph (the result is immutable); a
    failed check raises on every call, since ``lru_cache`` caches no
    exception.
    """
    _check_extraction(g, plan_extraction(g))
    edges = g.edges()
    flips = _rebuild(g, [{e: cls} for e in edges for cls in (1, 2)])
    syndromes = []
    for k, (u, v) in enumerate(edges):
        a, b = flips[2 * k], flips[2 * k + 1]
        if (a | b) & ~(1 << u | 1 << v):
            raise InvariantError(f"an error on edge {(u, v)} reaches a vertex off that edge")
        syndromes.append((0, a, b, a ^ b))
    return _Rebuild(tuple(syndromes))


def _simulate_chunk(args) -> int:
    compiled, probs, seed, chunk_index, count = args
    rng = derive_rng(seed, "drpp", chunk_index)
    syndromes = compiled.syndromes
    hits = 0
    for _ in range(count):
        x = 0
        for syn in syndromes:
            x ^= syn[_draw_class(probs, rng)]
        if not x:
            hits += 1
    return hits


def run_drpp(
    g: Graph,
    p: float,
    shots: int,
    pair_target_fidelity: float = 0.999,
    seed: int = 0,
    workers: int = 1,
) -> ProtocolResult:
    """Monte Carlo estimate of the protocol's output fidelity.

    Returns a convergence-failure record (fidelity fields None) when the
    recurrence cannot reach the pair target at this noise level.
    """
    if shots < 1:
        raise ParameterError("shots must be >= 1")
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    trace = distill_trace(from_z_noise(p), pair_target_fidelity)
    rates = rate_report(g, p)
    common = dict(
        graph=_graph_record(g),
        p=p,
        shots=shots,
        pair_target_fidelity=pair_target_fidelity,
        achieved_pair_fidelity=trace.final.fidelity,
        rounds=trace.rounds,
        n_geo_plan=rates.n_geo_plan,
        r2=rates.r2,
        r_psi_bounds=(rates.r_psi_lower, rates.r_psi_upper),
    )
    if not trace.converged:
        return ProtocolResult(
            converged=False,
            fidelity=None,
            ci95=None,
            ideal_shots=None,
            copies_consumed=None,
            **common,
        )

    compiled = _compile(g)
    specs = []
    done = 0
    chunk_index = 0
    while done < shots:
        count = min(CHUNK_SHOTS, shots - done)
        specs.append((compiled, trace.final.probs, seed, chunk_index, count))
        done += count
        chunk_index += 1
    # a fork-started pool launches all its processes at the first submit, so
    # it gets no more workers than there are chunks or CPUs
    size = min(workers, len(specs), os.cpu_count() or 1)
    if size == 1:
        counts = [_simulate_chunk(s) for s in specs]
    else:
        # imported here so that a one-worker run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            counts = list(pool.map(_simulate_chunk, specs))
    hits = sum(counts)
    return ProtocolResult(
        converged=True,
        fidelity=hits / shots,
        ci95=_wilson_ci95(hits, shots),
        ideal_shots=hits,
        copies_consumed=rates.n_geo_plan * trace.expected_pairs,
        **common,
    )


# ---------------------------------------------------------------------------
# threshold scanning


@dataclass(frozen=True)
class ScanRow:
    p: float
    temperature: float | None  # set when the scan is run against a field scale
    # the pair recurrence's verdict, p < p*; not whether this graph state
    # purifies (thermal K3 does at p = 0.30, where this reads False)
    purifiable: bool
    converged: bool  # did the recurrence actually reach the target
    fidelity: float | None
    ci95: tuple[float, float] | None
    rounds: int


def threshold_scan(
    g: Graph,
    p_grid,
    shots: int,
    seed: int = 0,
    pair_target_fidelity: float = 0.999,
    workers: int = 1,
    temperatures=None,
) -> list[ScanRow]:
    """Purifiability verdict and achieved fidelity across a noise grid.

    ``temperatures``, when given, holds one bath temperature per grid point.
    """
    grid = list(p_grid)
    if grid != sorted(grid):
        raise ParameterError("p grid must be sorted ascending")
    if temperatures is not None and len(temperatures) != len(grid):
        raise ParameterError("need one temperature per grid point")
    rows = []
    for i, p in enumerate(grid):
        res = run_drpp(
            g,
            p,
            shots,
            pair_target_fidelity,
            seed=derive_seed(seed, "scan", i),
            workers=workers,
        )
        rows.append(
            ScanRow(
                p=p,
                temperature=temperatures[i] if temperatures is not None else None,
                purifiable=purifiable_at(p),
                converged=res.converged,
                fidelity=res.fidelity,
                ci95=res.ci95,
                rounds=res.rounds,
            )
        )
    return rows
