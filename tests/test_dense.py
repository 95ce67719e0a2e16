"""Dense-matrix backend checks.

The backend is itself the oracle for most of the package, so its own tests
lean on algebraic identities: stabilizer eigenvalue equations, spectra that
must coincide by construction, and two independently coded routes to the same
thermal state.
"""

import math

import numpy as np
import pytest

from graphpurify import dense
from graphpurify.dense import (
    CNOT,
    CZ,
    H,
    MAX_DENSE_QUBITS,
    MAX_THERMAL_QUBITS,
    X,
    Z,
    apply_unitary_rho,
    apply_unitary_vec,
    check_density_matrix,
    cz_diagonal,
    graph_hamiltonian,
    graph_state_vector,
    partial_trace,
    pauli_projector,
    project_rho,
    thermal_state,
    thermal_state_from_p,
    trace_distance,
)
from graphpurify.errors import CapacityError, ParameterError
from graphpurify.graphs import (
    Graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from graphpurify.thermal import ThermalModel


def _basis(n: int, index: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[index] = 1.0
    return v


# -- local oracles: state-level helpers the package itself never needs -------


def transverse_field_hamiltonian(n: int, B: float) -> np.ndarray:
    """B * sum of single-qubit X operators on n qubits."""
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    Hm = np.zeros((dim, dim), dtype=np.float64)
    for v in range(n):
        Hm[idx ^ (1 << v), idx] += B
    return Hm


def isospectral_hamiltonian(g: Graph, B: float) -> np.ndarray:
    """The transverse-field sum conjugated by the edge-CZ circuit.

    Built literally as D (B sum X_i) D with D the CZ-product diagonal, so that
    its spectrum provably equals that of the bare transverse field; each
    conjugated X_i becomes the corresponding vertex stabilizer.  Note the
    normalization differs from ``graph_hamiltonian`` (+B per stabilizer here
    versus -B/2 there); the two are spectrally unrelated on purpose.
    """
    d = cz_diagonal(g).astype(np.float64)
    return d[:, None] * transverse_field_hamiltonian(g.n, B) * d[None, :]


def project_vec(psi: np.ndarray, axis: str, qubit: int, outcome: int) -> np.ndarray:
    """Unnormalized branch after measuring ``axis`` on ``qubit``."""
    return apply_unitary_vec(psi, pauli_projector(axis, outcome), (qubit,))


def measure_pauli_rho(rho: np.ndarray, axis: str, qubit: int, outcome: int
                      ) -> tuple[float, np.ndarray]:
    """(probability, normalized post-state); probability may be 0."""
    branch = project_rho(rho, axis, qubit, outcome)
    p = float(np.real(np.trace(branch)))
    if p <= 1e-300:
        return 0.0, branch
    return p, branch / p


def fidelity_vec_rho(psi: np.ndarray, rho: np.ndarray) -> float:
    n = np.linalg.norm(psi)
    if n == 0:
        raise ParameterError("zero vector has no fidelity")
    v = psi / n
    return float(np.real(np.vdot(v, rho @ v)))


def check_state_vector(psi: np.ndarray, atol: float = 1e-12) -> None:
    """Raise unless psi is a unit-norm vector on a whole number of qubits."""
    if psi.ndim != 1:
        raise ParameterError("state vector must be one-dimensional")
    dense._nqubits(psi.shape[0])
    if abs(np.linalg.norm(psi) - 1.0) > atol:
        raise ParameterError("state vector is not normalized")


class TestGateConventions:
    # qubit 0 is the least-significant bit of the basis index

    def test_x_targets_low_bit(self):
        psi = apply_unitary_vec(_basis(2, 0b00), X, (0,))
        assert np.allclose(psi, _basis(2, 0b01))

    def test_x_targets_high_bit(self):
        psi = apply_unitary_vec(_basis(2, 0b00), X, (1,))
        assert np.allclose(psi, _basis(2, 0b10))

    def test_cnot_control_is_first_target(self):
        # control set (qubit 0) flips the target (qubit 1)
        assert np.allclose(
            apply_unitary_vec(_basis(2, 0b01), CNOT, (0, 1)), _basis(2, 0b11)
        )
        # control clear: no-op even though the target bit is set
        assert np.allclose(
            apply_unitary_vec(_basis(2, 0b10), CNOT, (0, 1)), _basis(2, 0b10)
        )
        # swapped roles
        assert np.allclose(
            apply_unitary_vec(_basis(2, 0b10), CNOT, (1, 0)), _basis(2, 0b11)
        )

    def test_cz_phase_on_both_set(self):
        psi = apply_unitary_vec(_basis(3, 0b101), CZ, (0, 2))
        assert np.allclose(psi, -_basis(3, 0b101))
        psi = apply_unitary_vec(_basis(3, 0b100), CZ, (0, 2))
        assert np.allclose(psi, _basis(3, 0b100))

    def test_rho_conjugation_matches_vector_route(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        via_vec = apply_unitary_vec(v, H, (1,))
        via_rho = apply_unitary_rho(rho, H, (1,))
        assert np.allclose(via_rho, np.outer(via_vec, via_vec.conj()))

    def test_duplicate_or_bad_targets_rejected(self):
        with pytest.raises(ParameterError):
            apply_unitary_vec(_basis(2, 0), CZ, (0, 0))
        with pytest.raises(ParameterError):
            apply_unitary_vec(_basis(2, 0), X, (2,))


class TestGraphStates:
    def test_cz_diagonal_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert list(cz_diagonal(g)) == [1, 1, 1, -1]

    @pytest.mark.parametrize(
        "g",
        [path_graph(3), cycle_graph(4), star_graph(4), grid_graph([2, 2])],
        ids=["path3", "cycle4", "star4", "grid2x2"],
    )
    def test_vertex_stabilizers_fix_the_state(self, g):
        # X on v together with Z on every neighbour must act as identity
        psi = graph_state_vector(g)
        for v in range(g.n):
            out = apply_unitary_vec(psi, X, (v,))
            for u in range(g.n):
                if g.adj[v] >> u & 1:
                    out = apply_unitary_vec(out, Z, (u,))
            assert np.allclose(out, psi)

    def test_state_is_normalized_uniform_magnitude(self):
        g = cycle_graph(5)
        psi = graph_state_vector(g)
        check_state_vector(psi)
        assert np.allclose(np.abs(psi), 1.0 / math.sqrt(2**5))

    def test_ground_state_energy(self):
        # every stabilizer at +1 gives energy -n*B/2
        g = path_graph(4)
        B = 1.7
        Hm = graph_hamiltonian(g, B)
        psi = graph_state_vector(g)
        assert np.allclose(Hm @ psi, -(g.n * B / 2.0) * psi)
        w = np.linalg.eigvalsh(Hm)
        assert w[0] == pytest.approx(-g.n * B / 2.0, abs=1e-12)

    def test_isospectral_matches_transverse_field(self):
        g = cycle_graph(4)
        B = 0.9
        wa = np.linalg.eigvalsh(isospectral_hamiltonian(g, B))
        wb = np.linalg.eigvalsh(transverse_field_hamiltonian(g.n, B))
        assert np.allclose(wa, wb, atol=1e-10)


class TestThermalStates:
    @pytest.mark.parametrize("ratio", [0.4, 1.0, 2.5])
    @pytest.mark.parametrize(
        "g", [path_graph(3), star_graph(4), cycle_graph(5)],
        ids=["path3", "star4", "cycle5"],
    )
    def test_two_routes_agree(self, g, ratio):
        model = ThermalModel(B=1.0, T=ratio)
        a = thermal_state(g, model)
        b = thermal_state_from_p(g, model.error_prob())
        check_density_matrix(a, atol=1e-9)
        check_density_matrix(b, atol=1e-9)
        assert trace_distance(a, b) <= 1e-9

    def test_zero_temperature_is_pure_graph_state(self):
        g = path_graph(3)
        rho = thermal_state(g, ThermalModel(B=1.0, T=0.0))
        psi = graph_state_vector(g)
        assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)

    def test_p_zero_is_pure_graph_state(self):
        g = cycle_graph(4)
        psi = graph_state_vector(g)
        assert np.allclose(
            thermal_state_from_p(g, 0.0), np.outer(psi, psi.conj()), atol=1e-12
        )

    def test_p_half_is_maximally_mixed(self):
        # uniform phase flips fully dephase a state with flat amplitudes
        g = path_graph(3)
        rho = thermal_state_from_p(g, 0.5)
        assert np.allclose(rho, np.eye(8) / 8.0, atol=1e-12)

    def test_fidelity_decreases_with_p(self):
        g = star_graph(3)
        psi = graph_state_vector(g)
        fids = [
            fidelity_vec_rho(psi, thermal_state_from_p(g, p))
            for p in (0.0, 0.05, 0.1, 0.2, 0.3)
        ]
        assert fids[0] == pytest.approx(1.0, abs=1e-12)
        assert all(a > b for a, b in zip(fids, fids[1:]))

    def test_p_validated(self):
        with pytest.raises(ParameterError):
            thermal_state_from_p(path_graph(2), 1.2)

    def test_thermal_cap_enforced(self):
        g = path_graph(MAX_THERMAL_QUBITS + 1)
        with pytest.raises(CapacityError):
            thermal_state_from_p(g, 0.1)

    def test_dense_cap_enforced(self):
        g = path_graph(MAX_DENSE_QUBITS + 1)
        with pytest.raises(CapacityError):
            graph_state_vector(g)


class TestMeasurement:
    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_projector_algebra(self, axis):
        p0 = pauli_projector(axis, 0)
        p1 = pauli_projector(axis, 1)
        assert np.allclose(p0 + p1, np.eye(2))
        assert np.allclose(p0 @ p0, p0)
        assert np.allclose(p1 @ p1, p1)
        assert np.allclose(p0 @ p1, np.zeros((2, 2)))

    def test_branch_probabilities_sum_to_one(self):
        g = cycle_graph(3)
        rho = thermal_state_from_p(g, 0.12)
        for axis in ("X", "Y", "Z"):
            pr0, post0 = measure_pauli_rho(rho, axis, 1, 0)
            pr1, _ = measure_pauli_rho(rho, axis, 1, 1)
            assert pr0 + pr1 == pytest.approx(1.0, abs=1e-12)
            if pr0 > 0:
                check_density_matrix(post0, atol=1e-9)

    def test_project_rho_unnormalized(self):
        rho = np.eye(4) / 4.0
        branch = project_rho(rho, "Z", 0, 0)
        assert np.trace(branch).real == pytest.approx(0.5, abs=1e-12)

    def test_project_vec_plus_state(self):
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        kept = project_vec(plus, "X", 0, 0)
        assert np.allclose(kept, plus)
        gone = project_vec(plus, "X", 0, 1)
        assert np.allclose(gone, 0.0)


class TestCompositionTools:
    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(3)

        def rand_rho(dim):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            r = m @ m.conj().T
            return r / np.trace(r)

        rho_hi = rand_rho(4)  # qubits 2,3
        rho_lo = rand_rho(4)  # qubits 0,1
        joint = np.kron(rho_hi, rho_lo)
        assert np.allclose(partial_trace(joint, [0, 1]), rho_lo, atol=1e-12)
        assert np.allclose(partial_trace(joint, [2, 3]), rho_hi, atol=1e-12)

    def test_partial_trace_keeps_relative_order(self):
        # tracing the middle qubit of |a> x |b> x |c| keeps (a, c) order
        v = [_basis(1, 1), _basis(1, 0), _basis(1, 1)]  # qubits 2,1,0
        psi = np.kron(np.kron(v[0], v[1]), v[2])
        rho = np.outer(psi, psi.conj())
        red = partial_trace(rho, [0, 2])
        expect = np.outer(np.kron(v[0], v[2]), np.kron(v[0], v[2]).conj())
        assert np.allclose(red, expect)

    def test_trace_distance_extremes(self):
        a = np.outer(_basis(1, 0), _basis(1, 0))
        b = np.outer(_basis(1, 1), _basis(1, 1))
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance_pure_overlap(self):
        # for pure states: sqrt(1 - |<a|b>|^2)
        zero = _basis(1, 0)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        td = trace_distance(np.outer(zero, zero), np.outer(plus, plus))
        assert td == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)


class TestValidityContracts:
    def test_state_vector_contract(self):
        check_state_vector(_basis(3, 5))
        with pytest.raises(ParameterError):
            check_state_vector(np.ones(4, dtype=complex))  # not normalized
        with pytest.raises(ParameterError):
            check_state_vector(np.ones(3, dtype=complex) / math.sqrt(3))

    def test_density_matrix_contract(self):
        check_density_matrix(np.eye(2) / 2.0)
        with pytest.raises(ParameterError):
            check_density_matrix(np.eye(2))  # trace 2
        bad = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(ParameterError):
            check_density_matrix(bad)

    def test_module_caps_exported(self):
        assert dense.MAX_DENSE_QUBITS >= dense.MAX_THERMAL_QUBITS
