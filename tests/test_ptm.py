"""Ideal gate tables and the reduced frame against direct dense-matrix computations."""

import numpy as np
import pytest

import corrtomo as ct
from conftest import PAULIS, block_diag, pauli_transfer
from corrtomo.linear_inversion import ideal_seven_ptms
from corrtomo.ptm import GATE_UNITARIES, ideal_qubit_ptms, reduced_frame

KET0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
PROJ0 = np.outer(KET0, KET0.conj())

# Upper blocks of the ideal seven-dimensional matrices, row order (I, X, Y, Z):
# Hadamard swaps X and Z and flips Y; the phase gate sends X to -Y and Y to X.
H_PTM = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]], dtype=float)
S_PTM = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]], dtype=float)


def pauli_vector(rho):
    """Independent oracle: the state's Pauli coefficients Tr(sigma rho)."""
    return np.array([np.trace(p @ rho).real for p in PAULIS])


def conjugation(u):
    return lambda mat: u @ mat @ u.conj().T


def depolarized(label, eps):
    """Kraus form of the noisy gate: conjugation, then the average of the Pauli conjugations."""
    u = GATE_UNITARIES[label]

    def channel(mat):
        out = u @ mat @ u.conj().T
        return (1.0 - eps) * out + eps / 4.0 * sum(p @ out @ p.conj().T for p in PAULIS)

    return channel


def dense_mean(q, channels, rho):
    """Independent oracle: propagate the density matrix directly, first channel first."""
    out = rho.copy()
    for channel in channels:
        out = channel(out)
    return float(np.real(np.trace(q @ out)))


def random_word(gen, max_len):
    return tuple(np.where(gen.integers(0, 2, size=int(gen.integers(0, max_len + 1))) == 0, "H", "S"))


class TestVectorize:
    def test_ground_state(self):
        rho = ct.constant_depolarizing_model(0.0).rho_vec()
        assert np.allclose(rho, pauli_vector(PROJ0), atol=1e-15)
        assert np.array_equal(rho, [1, 0, 0, 1])

    def test_maximally_mixed(self):
        # a fully depolarizing gate leaves I / 2 whatever the ideal rotation
        rho = ct.constant_depolarizing_model(0.0).rho_vec()
        for label in GATE_UNITARIES:
            out = ct.depolarized_gates(label, [1.0])[0] @ rho
            assert np.allclose(out, pauli_vector(np.eye(2) / 2), atol=1e-15)

    def test_plus_state_against_trace_oracle(self):
        rho = ct.constant_depolarizing_model(0.0).rho_vec()
        got = ideal_qubit_ptms()["H"] @ rho
        assert np.allclose(got, pauli_vector(np.outer(KET_PLUS, KET_PLUS.conj())), atol=1e-15)
        assert np.allclose(got, [1, 1, 0, 0], atol=1e-15)


class TestDualize:
    def test_projector_via_pauli_expansion(self):
        # |0><0| = (I + Z) / 2, so the dual picks up half of each component
        dual = ct.constant_depolarizing_model(0.0).dual_vec()
        assert np.allclose(dual, pauli_vector(PROJ0) / 2.0, atol=1e-15)
        assert np.array_equal(dual, [0.5, 0, 0, 0.5])


class TestTransferOfUnitary:
    def test_hadamard_block(self):
        got = ideal_qubit_ptms()["H"]
        assert np.allclose(got, pauli_transfer(conjugation(GATE_UNITARIES["H"])), atol=1e-15)
        assert np.allclose(got, H_PTM, atol=1e-12)

    def test_phase_block(self):
        got = ideal_qubit_ptms()["S"]
        assert np.allclose(got, pauli_transfer(conjugation(GATE_UNITARIES["S"])), atol=1e-15)
        assert np.allclose(got, S_PTM, atol=1e-12)

    def test_orthogonality_for_unitaries(self):
        for tm in ideal_qubit_ptms().values():
            assert np.allclose(tm @ tm.T, np.eye(4), atol=1e-12)

    def test_composition_homomorphism(self, rng):
        # the tables multiply like the unitaries they represent
        ideal = ideal_qubit_ptms()
        for _ in range(20):
            word = random_word(rng, 8)
            lhs = np.eye(4)
            u = np.eye(2, dtype=complex)
            for label in word:
                lhs = ideal[label] @ lhs
                u = GATE_UNITARIES[label] @ u
            assert np.max(np.abs(lhs - pauli_transfer(conjugation(u)))) < 1e-12


class TestExpectation:
    def test_z_on_ground_state(self, device_m5):
        assert ct.run_circuit(device_m5, ()).mean == pytest.approx(1.0, abs=1e-15)

    def test_hadamard_kills_z(self, noiseless):
        want = dense_mean(PROJ0, [conjugation(GATE_UNITARIES["H"])], PROJ0)
        assert ct.run_circuit(noiseless, ("H",)).mean == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.5, abs=1e-15)

    def test_hssh_sequence_against_dense_oracle(self, noiseless):
        seq_labels = ["H", "S", "S", "H"]
        got = ct.run_circuit(noiseless, seq_labels).mean
        want = dense_mean(PROJ0, [conjugation(GATE_UNITARIES[l]) for l in seq_labels], PROJ0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_simulation_on_random_channels(self, rng):
        # exact means of depolarized H/S sequences against a dense Kraus
        # simulation: a frozen drift model, averaged over its support points,
        # and a context model, whose rate is set by the previous gate
        drift = ct.build_low_freq_model(1.3, 0.4, 3)
        rates = {(chi, lam): rng.uniform(0.0, 0.3) for chi in "HS" for lam in "HS"}
        initial = np.array([0.3, 0.7])
        context = ct.ContextModel(
            gate_labels=("H", "S"),
            rates={chi: {lam: rates[chi, lam] for lam in "HS"} for chi in "HS"},
            initial=initial,
        )
        for _ in range(20):
            word = random_word(rng, 12)
            want_drift = sum(
                w * dense_mean(PROJ0, [depolarized(g, ct.gate_error_rate(g, lam, 0.4)) for g in word], PROJ0)
                for lam, w in zip(drift.support, drift.weights)
            )
            assert ct.run_circuit(drift, word).mean == pytest.approx(want_drift, abs=1e-12)
            want_context = 0.0
            for first, w0 in zip("HS", initial):
                channels = [depolarized(g, rates[(g, last)]) for g, last in zip(word, (first,) + word)]
                want_context += w0 * dense_mean(PROJ0, channels, PROJ0)
            assert ct.run_circuit(context, word).mean == pytest.approx(want_context, abs=1e-12)


class TestSevenDim:
    def test_identity_channel(self):
        for weights in ((0.5, 0.5), (0.7, 0.3)):
            frame = reduced_frame(np.array(weights))
            assert np.allclose(frame.T @ np.eye(8) @ frame, np.eye(7), atol=1e-15)

    def test_ideal_gates_match_reference_matrices(self):
        h_expected = np.array(
            [
                [1, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0],
                [0, 0, -1, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, 0, -1, 0],
                [0, 0, 0, 0, 1, 0, 0],
            ],
            dtype=float,
        )
        s_expected = np.array(
            [
                [1, 0, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0],
                [0, -1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, -1, 0, 0],
                [0, 0, 0, 0, 0, 0, 1],
            ],
            dtype=float,
        )
        ptms = ideal_seven_ptms()
        assert np.allclose(ptms["H"], h_expected, atol=1e-12)
        assert np.allclose(ptms["S"], s_expected, atol=1e-12)
        assert np.array_equal(np.rint(ptms["H"]), h_expected)
        assert np.array_equal(np.rint(ptms["S"]), s_expected)

    def test_ideal_gates_match_the_hand_built_frame_bit_for_bit(self):
        # the form ideal_seven_ptms had, at the equal weights every caller passed, before it became
        # the export of the noiseless two-point model; other weights agree up to rounding
        ptms = ideal_seven_ptms()
        for weights in ((0.5, 0.5), (0.7, 0.3)):
            frame = reduced_frame(np.array(weights))
            for label, g in ideal_qubit_ptms().items():
                want = frame.T @ block_diag(np.stack([g, g])) @ frame
                if weights == (0.5, 0.5):
                    assert ptms[label].tobytes() == want.tobytes()
                assert np.max(np.abs(ptms[label] - want)) <= 1e-15

    def test_seven_basis_invariants(self):
        # read as block operators sum_{k,p} frame[4k+p, c] |k><k| (x) P_p, the
        # frame's columns are the seven-element basis: I (x) rho_E / sqrt(a)
        # with a = Tr(rho_E^2), then X, Y, Z at each environment point, and
        # Tr(sigma tau) = 2 delta
        p1, p2 = 0.25, 0.75
        frame = reduced_frame(np.array([p1, p2]))
        env = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        ops = [
            sum(frame[4 * k + p, c] * np.kron(env[k], PAULIS[p]) for k in range(2) for p in range(4))
            for c in range(7)
        ]
        rho_e = np.diag([p1, p2])
        assert np.allclose(ops[0], np.kron(rho_e, PAULIS[0]) / np.sqrt(p1**2 + p2**2), atol=1e-15)
        for k in range(2):
            for p in range(1, 4):
                assert np.allclose(ops[1 + 3 * k + p - 1], np.kron(env[k], PAULIS[p]), atol=1e-15)
        gram = np.array([[np.trace(a @ b) for b in ops] for a in ops])
        assert np.allclose(gram, 2.0 * np.eye(7), atol=1e-14)
