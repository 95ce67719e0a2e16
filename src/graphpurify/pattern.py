"""Bit-sliced trajectory simulation of noisy graph states.

A state is a ``FrameBatch``: one graph and many (z_errors, correction_frame)
columns on it.  A column stands for Z^(e XOR f) applied to the ideal graph
state, where e = z_errors is the trajectory's actual (unknown to the
protocol) error pattern and f = correction_frame is the accumulated record
of outcome-conditioned Z-byproducts the protocol knows about and will undo.
A column is ideal for the protocol exactly when e = 0.  The columns are
stored bit-sliced, one int per qubit whose bit c is column c's bit (the
Pauli-frame layout of samplers such as Stim, Gidney, Quantum 5, 497, 2021).

Four rules act on a batch, the Pauli-measurement graph rules of Hein,
Eisert & Briegel (PRA 69, 062311, 2004): ``apply_cz``, ``measure_z`` (the
extraction), and ``merge_local`` and ``apply_cz_via_pair`` (the rebuild).
The graph rewiring of every rule depends only on the graph, and the error
and frame updates are GF(2)-linear row operations, so a rule rewires the
graph once and XORs whole rows.  The X-measurement update inside a merge
rewires the measured qubit's neighborhood through a pivot neighbor and
applies a compensating single-qubit Hadamard there as part of the channel,
which keeps every intermediate state in graph form with Z-type residuals
only.

Outcomes.  An outcome is a row too (bit c set when column c reads -1), and
every measuring rule takes its outcome rows as an input: a batch tiled once
per outcome branch runs every branch of a rule in one call.  An outcome
only adds a known Pauli byproduct to the frame, so the graph and the Z
errors of a column do not depend on it; the protocol runs its rebuild once,
on the all-+1 branch.  A given outcome that has probability zero for some
columns clears them from the batch's ``alive`` mask instead of raising.  A
rule's Z-error map (where each input qubit's Z error lands) is the rule run
on a batch with one lone-error column per input qubit.

Stable labels.  A measured qubit keeps its index: the rule cuts its bonds
and clears its error and frame bits, which leaves it an isolated, error-free
|+>.  So every index into and out of the engine is an input index.

Every rule has a single correctness contract: exact agreement with dense
simulation on every (graph, pattern, outcome) triple at small size, enforced
by the exhaustive sweep in the verification module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ParameterError
from .graphs import Graph, _bits, _make

__all__ = [
    "FrameBatch",
    "sample_thermal",
    "is_ideal",
    "apply_cz",
    "measure_z",
    "merge_local",
    "apply_cz_via_pair",
]


@dataclass(frozen=True)
class FrameBatch:
    """Many (z_errors, correction_frame) columns on one graph, bit-sliced.

    Bit c of ``z_rows[q]`` is column c's error bit on qubit q, bit c of
    ``frame_rows[q]`` its frame bit.  Bit c of ``alive`` is set while column
    c's given outcomes so far have nonzero probability; the rows of a dead
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


def is_ideal(batch: FrameBatch) -> int:
    """Row of the live columns with no unknown Z error once the frame is
    accounted for."""
    errors = 0
    for row in batch.z_rows:
        errors |= row
    return batch.alive & ~errors


def sample_thermal(g: Graph, p: float, rng: random.Random) -> FrameBatch:
    """One column: an independent Bernoulli(p) Z error on every vertex, in
    vertex order, and an empty frame."""
    if not 0.0 <= p <= 0.5:
        raise ParameterError("flip probability must lie in [0, 0.5]")
    z = tuple(int(rng.random() < p) for _ in range(g.n))
    return FrameBatch(g, z, (0,) * g.n, 1)


def apply_cz(batch: FrameBatch, u: int, v: int) -> FrameBatch:
    """Toggle edge {u,v}; Z patterns commute through, so only the graph changes."""
    return FrameBatch(batch.graph.toggle_edge(u, v), batch.z_rows, batch.frame_rows, batch.alive)


def _outcome_row(row: int, alive: int) -> int:
    """One outcome bit per column: the given row on the live columns."""
    if row < 0:
        raise ParameterError("an outcome row must be a non-negative int")
    return row & alive


def _cut(adj: list[int], v: int) -> None:
    """Isolate v in place: clear its bonds on both sides."""
    for x in _bits(adj[v]):
        adj[x] &= ~(1 << v)
    adj[v] = 0


def measure_z(batch: FrameBatch, v: int, outcome_row: int) -> FrameBatch:
    """Measure Z on qubit v: sever its bonds and leave it a clean |+>.

    ``outcome_row`` has bit c set when column c reads -1; the
    outcome-conditioned Z byproduct on the neighborhood goes into the
    correction frame.  Both outcomes are possible for every column.
    """
    g = batch.graph
    if not 0 <= v < g.n:
        raise ParameterError(f"vertex {v} out of range")
    o = _outcome_row(outcome_row, batch.alive)
    f = list(batch.frame_rows)
    for x in _bits(g.adj[v]):
        f[x] ^= o
    z = list(batch.z_rows)
    z[v] = f[v] = 0
    adj = list(g.adj)
    _cut(adj, v)
    return FrameBatch(_make(g.n, adj), tuple(z), tuple(f), batch.alive)


def _measure_x(
    g: Graph,
    z: list[int],
    f: list[int],
    alive: int,
    m: int,
    kappa: int,
    outcome_row: int,
) -> tuple[Graph, int, int | None]:
    """X-measure qubit m, preferring a pivot other than ``kappa``.

    Updates the rows in place (m's rows are cleared) and returns
    (post-graph, alive mask, pivot or None when m has no neighbor).  The
    channel includes the Hadamard correction on the pivot, so the post-state
    is in graph form again.
    """
    nb = g.adj[m]
    sigma = _outcome_row(outcome_row, alive)

    if nb == 0:
        # Bare |+> up to a Z: the X outcome is deterministic per column, so
        # the columns that read the other one die.
        alive &= ~(z[m] ^ f[m] ^ sigma)
        z[m] = f[m] = 0
        return g, alive, None

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
    z[m] = f[m] = 0
    _cut(adj, m)
    return _make(g.n, adj), alive, pivot


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def merge_local(
    batch: FrameBatch, party_qubits, outcome_rows
) -> tuple[FrameBatch, tuple[int | None, ...]]:
    """Fuse one party's qubits: CZ the first qubit to each of the others,
    then X-measure the others in order, keeping only the first.

    ``outcome_rows`` holds one row per measured qubit (bit c set when column
    c reads -1); columns for which their given branch is impossible drop out
    of ``alive``.  Returns the batch and each X measurement's pivot (None
    for a bare qubit).  The rewiring and the pivots depend only on the
    graph, so columns may take different branches in one call.
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
    if len(outcome_rows) != len(measured):
        raise ParameterError("need one outcome row per measured qubit")

    kappa = party[0]
    adj = list(batch.graph.adj)
    for m in measured:
        adj[kappa] ^= 1 << m
        adj[m] ^= 1 << kappa
    g = _make(n, adj)

    z = list(batch.z_rows)
    f = list(batch.frame_rows)
    alive = batch.alive
    pivots: list[int | None] = []
    for m, row in zip(measured, outcome_rows):
        g, alive, pivot = _measure_x(g, z, f, alive, m, kappa, row)
        pivots.append(pivot)
    return FrameBatch(g, tuple(z), tuple(f), alive), tuple(pivots)


def apply_cz_via_pair(
    batch: FrameBatch,
    u: int,
    v: int,
    pair_u: int,
    pair_v: int,
    outcome_rows: tuple[int, int],
) -> FrameBatch:
    """Toggle edge {u,v} by consuming a fresh two-qubit graph pair.

    pair_u/pair_v must form an isolated edge.  Each half is CZ-joined to its
    endpoint and X-measured; the four outcome branches are uniform, and the
    net effect is the edge toggle plus outcome-conditioned Z corrections on u
    and v (recorded in the frame) and the far half's error bit landing on
    each endpoint.  ``outcome_rows`` holds pair_u's row, then pair_v's.
    """
    g = batch.graph
    ids = (u, v, pair_u, pair_v)
    if len(set(ids)) != 4:
        raise ParameterError("splice endpoints and pair halves must be distinct")
    if any(not 0 <= q < g.n for q in ids):
        raise ParameterError("splice qubit out of range")
    if g.adj[pair_u] != 1 << pair_v or g.adj[pair_v] != 1 << pair_u:
        raise ParameterError("pair halves must form an isolated edge")

    if len(outcome_rows) != 2:
        raise ParameterError("need one outcome row per pair half")
    s1 = _outcome_row(outcome_rows[0], batch.alive)
    s2 = _outcome_row(outcome_rows[1], batch.alive)

    z = list(batch.z_rows)
    f = list(batch.frame_rows)
    z[u] ^= z[pair_v]
    z[v] ^= z[pair_u]
    f[u] ^= f[pair_v] ^ s2
    f[v] ^= f[pair_u] ^ s1
    z[pair_u] = z[pair_v] = f[pair_u] = f[pair_v] = 0

    adj = list(g.adj)
    adj[pair_u] = 0
    adj[pair_v] = 0
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return FrameBatch(_make(g.n, adj), tuple(z), tuple(f), batch.alive)
