"""Dense density-matrix simulation: the exact oracle for small systems.

``optimality`` runs it to build reconstruction candidates and their thermal
targets, and ``verification`` reads graph-state signs from ``cz_diagonal``;
nothing else in the package calls it.

Conventions, fixed across the whole package:

* Qubit 0 is the least-significant bit of a basis index.
* Multi-qubit gates take a ``targets`` tuple; ``targets[0]`` is the least
  significant bit of the gate's own index.
* Everything is capped at ``MAX_DENSE_QUBITS`` to keep memory bounded; this
  module is an oracle for small instances, not a production simulator.
* The gates are I2, X, Y and Z (the Pauli projectors' axes) and H.  A layer
  of CZs is diagonal: ``cz_layer_diagonal`` gives its +-1 entries s
  (``cz_diagonal`` for every edge of a graph), and conjugating rho by it is
  ``rho * outer(s, s)``.  Apart from Y these are real, so circuits built
  from them stay float64, and so does ``thermal_state_from_p``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, ParameterError
from .graphs import Graph

MAX_DENSE_QUBITS = 12
MAX_THERMAL_QUBITS = 10

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

PAULIS = {"X": X, "Y": Y, "Z": Z}


def _nqubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise ParameterError(f"dimension {dim} is not a power of two")
    return n


def _check_cap(n: int) -> None:
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(f"{n} qubits exceeds dense cap {MAX_DENSE_QUBITS}")


def _apply_front(mat: np.ndarray, U: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Left-multiply U onto the row index of ``mat`` (shape (2**n, M))."""
    k = len(targets)
    if len(set(targets)) != k:
        raise ParameterError("duplicate gate targets")
    if any(not 0 <= q < n for q in targets):
        raise ParameterError("gate target out of range")
    m = mat.shape[1]
    src = mat.reshape((2,) * n + (m,))
    # axis j <-> qubit n-1-j; bring targets to the front, targets[0] innermost
    t_axes = [n - 1 - q for q in targets]
    perm = [n - 1 - targets[k - 1 - i] for i in range(k)]
    perm += [ax for ax in range(n) if ax not in t_axes] + [n]
    moved = np.transpose(src, perm).reshape(2**k, -1)
    out = (U @ moved).reshape([2] * n + [m])
    return np.transpose(out, np.argsort(perm)).reshape(2**n, m)


def apply_unitary_rho(rho: np.ndarray, U: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    n = _nqubits(rho.shape[0])
    left = _apply_front(rho, U, targets, n)
    return _apply_front(left.conj().T, U, targets, n).conj().T


def pauli_projector(axis: str, outcome: int) -> np.ndarray:
    """(I + s * sigma_axis) / 2 with s = +1 for outcome 0, -1 for outcome 1."""
    if axis not in PAULIS:
        raise ParameterError(f"unknown Pauli axis {axis!r}")
    if outcome not in (0, 1):
        raise ParameterError("outcome must be 0 or 1")
    s = 1.0 if outcome == 0 else -1.0
    return (I2 + s * PAULIS[axis]) / 2.0


def project_rho(rho: np.ndarray, axis: str, qubit: int, outcome: int) -> np.ndarray:
    P = pauli_projector(axis, outcome)
    return apply_unitary_rho(rho, P, (qubit,))


def partial_trace(rho: np.ndarray, keep: list[int]) -> np.ndarray:
    """Trace out all qubits not in ``keep``; kept qubits keep relative order."""
    n = _nqubits(rho.shape[0])
    keep_s = sorted(set(keep))
    if keep_s and (keep_s[0] < 0 or keep_s[-1] >= n):
        raise ParameterError("keep list out of range")
    cur = rho
    m = n
    for q in sorted(set(range(n)) - set(keep_s), reverse=True):
        r = cur.reshape((2,) * m + (2,) * m)
        ax = m - 1 - q
        cur = np.trace(r, axis1=ax, axis2=m + ax).reshape(2 ** (m - 1), 2 ** (m - 1))
        m -= 1
    return cur


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1/2 ||A - B||_1 for density matrices."""
    w = np.linalg.eigvalsh(a - b)
    return float(np.sum(np.abs(w)) / 2.0)


# -- graph states under independent Z flips -----------------------------------


def cz_diagonal(g: Graph) -> np.ndarray:
    """Diagonal (+-1 per basis state) of the product of CZ over all edges."""
    return cz_layer_diagonal(g.n, g.edges())


def cz_layer_diagonal(n: int, edges) -> np.ndarray:
    """``cz_diagonal`` of the CZs on the qubit pairs ``edges`` of n qubits."""
    _check_cap(n)
    idx = np.arange(1 << n, dtype=np.int64)
    sign = np.ones(1 << n, dtype=np.int64)
    for u, v in edges:
        sign *= 1 - 2 * ((idx >> u & 1) & (idx >> v & 1))
    return sign


def flip_damping(n: int, p: float) -> np.ndarray:
    """(1 - 2p)^popcount(b ^ b') for every pair of n-qubit basis states.

    Independent Z flips at rate p scale entry (b, b') of a density matrix by
    (1 - 2p) for every qubit where b and b' differ.  Built by doubling: one
    more qubit copies the block onto the diagonal and scales it by 1 - 2p off
    it, so each entry is the same left-to-right product of 1 - 2p factors a
    kron of n per-qubit factors gives.
    """
    _check_cap(n)
    d = 1.0 - 2.0 * p
    out = np.ones((1, 1))
    for _ in range(n):
        k = out.shape[0]
        grown = np.empty((2 * k, 2 * k))
        grown[:k, :k] = out
        grown[k:, k:] = out
        np.multiply(out, d, out=grown[:k, k:])
        grown[k:, :k] = grown[:k, k:]
        out = grown
    return out


def thermal_state_from_p(g: Graph, p: float) -> np.ndarray:
    """Mixture of Z-error patterns with independent per-qubit flip rate p.

    Summing Z^e rho_G Z^e over patterns e factorizes per qubit, so
    rho = outer(psi, psi) * flip_damping(n, p), real like the graph state.
    """
    if g.n > MAX_THERMAL_QUBITS:
        raise CapacityError(f"{g.n} qubits exceeds thermal cap {MAX_THERMAL_QUBITS}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError("flip probability must lie in [0, 1]")
    psi = cz_diagonal(g) / math.sqrt(1 << g.n)
    return np.outer(psi, psi) * flip_damping(g.n, p)

