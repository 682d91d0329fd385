"""Shared fixtures; expensive device/tomography artifacts are session scoped."""

import numpy as np
import pytest
from scipy.optimize import minimize

import corrtomo as ct
from corrtomo.bounds import (
    BoundCheckReport,
    _fibonacci_sphere,
    dual_norm,
    invariance_defect,
    ket_norm,
    operation_norm,
    projection_from_vectors,
    sequence_bound,
)
from corrtomo.linear_inversion import collect_trial_data, svd_truncate, trial_sequences
from corrtomo.mle import records_from_tomography
from corrtomo.tomography import fiducial_frames


PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def pauli_transfer(channel) -> np.ndarray:
    """Independent oracle: entry (s, t) = Tr[s channel(t)] / 2 over the Paulis (I, X, Y, Z)."""
    return np.array([[np.trace(s @ channel(t)).real / 2.0 for t in PAULIS] for s in PAULIS])


def frozen_fold_mean(model, gates) -> float:
    """Independent oracle for frozen models: fold the (m, 4) state stack through each gate's (m, 4, 4) stack."""
    v = np.zeros((model.m, 4))
    v[:, 0] = model.weights
    v[:, 3] = model.weights
    for label in gates:
        v = np.einsum("mij,mj->mi", model.sys_ptms[label], v)
    return 0.5 * float(np.sum(v[:, 0] + v[:, 3]))


def _trace_output_norm(cols) -> np.ndarray:
    """Trace norms of output vectors stacked as columns (dim x n)."""
    blocks = cols.reshape(cols.shape[0] // 4, 4, -1)
    return np.sum(np.maximum(np.abs(blocks[:, 0, :]), np.linalg.norm(blocks[:, 1:, :], axis=1)), axis=0)


def nelder_mead_operation_norm(matrix, n_grid: int = 2048) -> float:
    """Independent oracle for the trace-induced operation norm: the same sphere
    grid and top-4 starts per environment value, each polished by SciPy's
    Nelder-Mead."""
    mat = np.asarray(matrix, dtype=float)
    m = mat.shape[0] // 4
    dirs = _fibonacci_sphere(n_grid)
    best_val = 0.0
    best_args = []
    for lam in range(m):
        inputs = np.zeros((4 * m, n_grid))
        inputs[4 * lam, :] = 1.0
        inputs[4 * lam + 1 : 4 * lam + 4, :] = dirs.T
        vals = _trace_output_norm(mat @ inputs)
        for idx in np.argsort(vals)[-4:]:
            best_args.append((lam, dirs[idx]))
        best_val = max(best_val, float(vals.max()))

    def neg_val(angles, lam):
        t, p = angles
        col = np.zeros(4 * m)
        col[4 * lam] = 1.0
        col[4 * lam + 1 : 4 * lam + 4] = [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)]
        return -float(_trace_output_norm((mat @ col)[:, None])[0])

    for lam, n0 in best_args:
        t0 = float(np.arccos(np.clip(n0[2], -1.0, 1.0)))
        p0 = float(np.arctan2(n0[1], n0[0]))
        res = minimize(neg_val, np.array([t0, p0]), args=(lam,), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
        best_val = max(best_val, -float(res.fun))
    return best_val


def loop_bound_check(model, fiducials, n_sequences, max_len, seed=0, norm_kind="trace") -> BoundCheckReport:
    """Independent oracle for ``empirical_bound_check``: draw each sequence and
    fold its full and compressed chains one gate at a time."""
    m_out, m_in = fiducial_frames(model, fiducials)
    proj = projection_from_vectors(m_in)
    labels = tuple(model.gate_labels)
    eps = max(invariance_defect(proj, model.gate_block(l), norm_kind) for l in labels)
    n_o = max(operation_norm(model.gate_block(l), norm_kind) for l in labels)
    n_q = max(dual_norm(row, norm_kind) for row in m_out)
    n_rho = max(ket_norm(col, norm_kind) for col in m_in.T)
    gen = np.random.default_rng(seed)
    lhs = np.empty(n_sequences)
    rhs = np.empty(n_sequences)
    seqs = []
    p = proj.matrix
    for s in range(n_sequences):
        n = int(gen.integers(1, max_len + 1))
        seq = tuple(labels[i] for i in gen.integers(0, len(labels), size=n))
        seqs.append(seq)
        full = m_in.copy()
        compressed = p @ m_in
        for label in seq:
            block = model.gate_block(label)
            full = block @ full
            compressed = p @ (block @ compressed)
        lhs[s] = float(np.max(np.abs(m_out @ (full - compressed))))
        rhs[s] = sequence_bound(n_q, n_rho, n_o, eps, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0.0, lhs / rhs, np.where(lhs <= 1e-12, 0.0, np.inf))
    violations = [i for i in range(n_sequences) if lhs[i] > rhs[i] * (1.0 + 1e-9) + 1e-12]
    return BoundCheckReport(lhs=lhs, rhs=rhs, ratios=ratios, epsilon=eps, n_q=n_q, n_rho=n_rho, n_o=n_o,
                            norm_kind=norm_kind, violations=violations, sequences=seqs)


def sequences_up_to(max_len: int, labels=("H", "S")) -> list[tuple[str, ...]]:
    """All gate sequences with length 0 .. max_len, shortest first."""
    seqs = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (g,) for s in frontier for g in labels]
        seqs.extend(frontier)
    return seqs


@pytest.fixture(scope="session")
def device_m5():
    """Reference correlated-noise device: sigma=1, eta=0.02, 5-point support."""
    return ct.build_low_freq_model(1.0, 0.02, 5)


@pytest.fixture(scope="session")
def device_m2():
    return ct.build_low_freq_model(1.0, 0.02, 2)


@pytest.fixture(scope="session")
def noiseless():
    return ct.constant_depolarizing_model(0.0)


@pytest.fixture(scope="session")
def trial_d7():
    return trial_sequences("d7")


@pytest.fixture(scope="session")
def trial_data_m5(device_m5, trial_d7):
    return collect_trial_data(device_m5, trial_d7)


@pytest.fixture(scope="session")
def truncation_d7(trial_data_m5):
    return svd_truncate(trial_data_m5.gram, trial_data_m5.gate_mats, 7)


@pytest.fixture(scope="session")
def truncation_d4(trial_data_m5):
    return svd_truncate(trial_data_m5.gram, trial_data_m5.gate_mats, 4)


@pytest.fixture(scope="session")
def suite_records(trial_data_m5):
    return records_from_tomography(trial_data_m5)


@pytest.fixture(scope="session")
def suite_fit_l2(suite_records):
    return ct.fit(suite_records, 2, seed=0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
