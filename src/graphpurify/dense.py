"""Dense state-vector / density-matrix simulation used as a reference oracle.

Conventions, fixed across the whole package:

* Qubit 0 is the least-significant bit of a basis index.
* Multi-qubit gates take a ``targets`` tuple; ``targets[0]`` is the least
  significant bit of the gate's own index.
* Everything is capped at ``MAX_DENSE_QUBITS`` to keep memory bounded; this
  module is an oracle for small instances, not a production simulator.
* Real gates (I2, X, Z, H, CZ, CNOT) are float64, so circuits built from
  them stay real, and so does ``thermal_state_from_p``.  A
  layer of CZs is diagonal: ``cz_diagonal`` gives its +-1 entries s, and
  conjugating rho by it is ``rho * outer(s, s)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, ParameterError
from .graphs import Graph
from .thermal import ThermalModel

MAX_DENSE_QUBITS = 12
MAX_THERMAL_QUBITS = 10

_SQ2 = math.sqrt(2.0)

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQ2
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj().T
# quarter turn about X: exp(-i pi X / 4)
RX90 = np.array([[1, -1j], [-1j, 1]], dtype=complex) / _SQ2

CZ = np.diag([1.0, 1.0, 1.0, -1.0])
# targets (control, target): control is gate bit 0
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]],
    dtype=np.float64,
)

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


def apply_unitary_vec(psi: np.ndarray, U: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    n = _nqubits(psi.shape[0])
    return _apply_front(psi.reshape(-1, 1), U, targets, n).reshape(-1)


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


def fidelity_vec(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ParameterError("zero vector has no fidelity")
    return float(abs(np.vdot(a, b)) ** 2 / (na * nb) ** 2)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1/2 ||A - B||_1 for density matrices, exact pure formula for vectors."""
    if a.ndim == 1 and b.ndim == 1:
        f = fidelity_vec(a, b)
        return math.sqrt(max(0.0, 1.0 - f))
    if a.ndim == 1:
        a = _as_rho(a)
    if b.ndim == 1:
        b = _as_rho(b)
    w = np.linalg.eigvalsh(a - b)
    return float(np.sum(np.abs(w)) / 2.0)


def _as_rho(psi: np.ndarray) -> np.ndarray:
    v = psi / np.linalg.norm(psi)
    return np.outer(v, v.conj())


# -- graph states and their thermal mixtures -----------------------------------


def _bit_parity(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.int64).copy()
    for s in (32, 16, 8, 4, 2, 1):
        x ^= x >> s
    return x & 1


def cz_diagonal(g: Graph) -> np.ndarray:
    """Diagonal (+-1 per basis state) of the product of CZ over all edges."""
    _check_cap(g.n)
    idx = np.arange(1 << g.n, dtype=np.int64)
    sign = np.ones(1 << g.n, dtype=np.int64)
    for u, v in g.edges():
        sign *= 1 - 2 * ((idx >> u & 1) & (idx >> v & 1))
    return sign


def graph_state_vector(g: Graph) -> np.ndarray:
    """CZ-entangled all-plus state: amplitudes are +-1 / sqrt(2**n)."""
    return (cz_diagonal(g) / math.sqrt(1 << g.n)).astype(complex)


def graph_hamiltonian(g: Graph, B: float) -> np.ndarray:
    """-(B/2) * sum of vertex stabilizers X_v Z_{N(v)} as a dense matrix."""
    _check_cap(g.n)
    if not (B > 0 and math.isfinite(B)):
        raise ParameterError("field strength B must be positive and finite")
    dim = 1 << g.n
    idx = np.arange(dim, dtype=np.int64)
    Hm = np.zeros((dim, dim), dtype=np.float64)
    for v in range(g.n):
        sign = 1.0 - 2.0 * _bit_parity(idx & g.adj[v])
        Hm[idx ^ (1 << v), idx] += -(B / 2.0) * sign
    return Hm


def thermal_state(g: Graph, model: ThermalModel) -> np.ndarray:
    """Gibbs state of the stabilizer Hamiltonian via dense diagonalization."""
    if g.n > MAX_THERMAL_QUBITS:
        raise CapacityError(f"{g.n} qubits exceeds thermal cap {MAX_THERMAL_QUBITS}")
    Hm = graph_hamiltonian(g, model.B)
    w, V = np.linalg.eigh(Hm)
    if model.T == 0.0:
        weights = (w <= w[0] + 1e-12).astype(np.float64)
    else:
        weights = np.exp(-(w - w[0]) / model.T)
    weights /= weights.sum()
    return (V * weights) @ V.conj().T


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


# -- state-validity contracts ---------------------------------------------------


def check_density_matrix(rho: np.ndarray, atol: float = 1e-12,
                         eig_floor: float = -1e-10) -> None:
    """Raise unless rho is Hermitian, trace one, and PSD up to eig_floor."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ParameterError("density matrix must be square")
    _nqubits(rho.shape[0])
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise ParameterError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise ParameterError("density matrix trace is not one")
    if np.linalg.eigvalsh(rho).min() < eig_floor:
        raise ParameterError("density matrix has a significantly negative eigenvalue")
