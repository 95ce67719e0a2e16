"""Reference code that the tests share and the package never runs.

State-vector routes and the gates only the tests apply (the dense module
keeps what ``optimality`` and ``verification`` call), the spectral Gibbs
state of the stabilizer Hamiltonian, and the small wrappers over package
internals that tests name directly.  Import as ``from oracles import ...``.
"""

import math

import numpy as np

from graphpurify import dense
from graphpurify.errors import CapacityError, ParameterError
from graphpurify.graphs import Graph
from graphpurify.optimality import _check_p, _flip_probs, _side_mask
from graphpurify.pairs import BellDiagonal, _hashing_yield, _round
from graphpurify.thermal import ThermalModel

# -- gates ------------------------------------------------------------------

# S^dagger, the conjugate transpose of S = diag(1, i)
SDG = np.array([[1, 0], [0, 1j]], dtype=complex).conj().T
# quarter turn about X: exp(-i pi X / 4)
RX90 = np.array([[1, -1j], [-1j, 1]], dtype=complex) / math.sqrt(2.0)
CZ = np.diag([1.0, 1.0, 1.0, -1.0])
# targets (control, target): control is gate bit 0
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]],
    dtype=np.float64,
)


# -- state vectors ----------------------------------------------------------


def apply_unitary_vec(psi: np.ndarray, U: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """U on ``targets`` of the state vector psi, in the dense conventions."""
    n = dense._nqubits(psi.shape[0])
    return dense._apply_front(psi.reshape(-1, 1), U, targets, n).reshape(-1)


def graph_state_vector(g: Graph) -> np.ndarray:
    """CZ-entangled all-plus state: amplitudes are +-1 / sqrt(2**n)."""
    return (dense.cz_diagonal(g) / math.sqrt(1 << g.n)).astype(complex)


# -- the thermal state by diagonalization -------------------------------------


def _bit_parity(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.int64).copy()
    for s in (32, 16, 8, 4, 2, 1):
        x ^= x >> s
    return x & 1


def graph_hamiltonian(g: Graph, B: float) -> np.ndarray:
    """-(B/2) * sum of vertex stabilizers X_v Z_{N(v)} as a dense matrix."""
    dense._check_cap(g.n)
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
    if g.n > dense.MAX_THERMAL_QUBITS:
        raise CapacityError(f"{g.n} qubits exceeds thermal cap {dense.MAX_THERMAL_QUBITS}")
    Hm = graph_hamiltonian(g, model.B)
    w, V = np.linalg.eigh(Hm)
    if model.T == 0.0:
        weights = (w <= w[0] + 1e-12).astype(np.float64)
    else:
        weights = np.exp(-(w - w[0]) / model.T)
    weights /= weights.sum()
    return (V * weights) @ V.conj().T


def check_density_matrix(rho: np.ndarray, atol: float = 1e-12,
                         eig_floor: float = -1e-10) -> None:
    """Raise unless rho is Hermitian, trace one, and PSD up to eig_floor."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ParameterError("density matrix must be square")
    dense._nqubits(rho.shape[0])
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise ParameterError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise ParameterError("density matrix trace is not one")
    if np.linalg.eigvalsh(rho).min() < eig_floor:
        raise ParameterError("density matrix has a significantly negative eigenvalue")


# -- named views of package internals ------------------------------------------


def edge_count(g: Graph) -> int:
    """Half the degree sum: a count of ``g.edges()`` reached another way."""
    return sum(g.degree(v) for v in range(g.n)) // 2


def write_edge_list(g: Graph) -> str:
    """The text ``graphs.read_edge_list`` parses: vertex count, then "u v" lines."""
    out = [str(g.n)]
    out += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(out) + "\n"


def temperature_for_p(B: float, p: float) -> float:
    """Invert ``ThermalModel.error_prob``: the temperature giving flip probability p."""
    if not (B > 0 and math.isfinite(B)):
        raise ParameterError("field strength B must be positive and finite")
    if not (0.0 < p < 0.5):
        raise ParameterError("flip probability must lie in (0, 0.5)")
    return B / math.log((1.0 - p) / p)


def recurrence_pairing(bd: BellDiagonal) -> int:
    """The error class (1, 2 or 3) a greedy recurrence round routes into the
    coincidence-detected slot: largest one-round output fidelity, ties to
    the smallest index."""
    return _round(bd.probs)[2]


def hashing_yield(bd: BellDiagonal) -> float:
    """max(0, 1 - H2(probs)): asymptotic Bell pairs per input pair."""
    return _hashing_yield(bd.probs)


def candidate_flip_probs(g: Graph, side_a, p: float) -> tuple[float, ...]:
    """Per-vertex flip probability of the canonical reconstruction candidate
    for the bipartition with side ``side_a``; p must lie in [0, 1/2]."""
    _check_p(p)
    return _flip_probs(g, _side_mask(g, side_a), p)
