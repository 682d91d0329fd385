"""Shared fixtures; expensive device/tomography artifacts are session scoped."""

import csv
import math

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
from corrtomo.lm import DWARF, EPS, STEP_FACTOR, LMResult
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


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of a (k, n, n) stack, the blocks in stack order."""
    k, n, _ = blocks.shape
    out = np.zeros((k, n, k, n))
    out[np.arange(k), :, np.arange(k), :] = blocks
    return out.reshape(k * n, k * n)


def model_predict(model, circuit) -> float:
    """Independent oracle for frozen models: fold a 4-vector through diag(1, 1 - eps, 1 - eps, 1 - eps) @ ideal
    gate by gate at every environment value, from the model's weights and rates, then average."""
    gates = tuple(circuit)
    ideal = ct.ideal_qubit_ptms()
    total = 0.0
    for lam in range(model.m):
        v = np.array([1.0, 0.0, 0.0, 1.0])
        for label in gates:
            eps = model.rates[label][lam]
            v = np.diag([1.0, 1.0 - eps, 1.0 - eps, 1.0 - eps]) @ (ideal[label] @ v)
        total += model.weights[lam] * 0.5 * (v[0] + v[3])
    return float(total)


def loop_fold(mats, gates, start) -> np.ndarray:
    """Independent oracle for ``fold_gates``: fold each row's sequence on its own, gate by gate.

    A 3-d ``start`` holds one start per row.
    """
    out = []
    for r, row in enumerate(gates):
        value = np.array(start[r] if np.ndim(start) == 3 else start, dtype=float)
        for j in row:
            if j < len(mats):
                value = mats[j] @ value
        out.append(value)
    return np.array(out).reshape(len(gates), *np.shape(start)[-2:])


def loop_row_fold(q, mats, sequences) -> np.ndarray:
    """Independent oracle for a row-vector fold: ``q @ mats[g_last] ... mats[g_first]`` of every
    sequence, one sequence and one gate at a time."""
    rows = []
    for seq in sequences:
        value = np.asarray(q, dtype=float)
        for label in reversed(seq):
            value = value @ mats[label]
        rows.append(value)
    return np.array(rows)


def ideal_output_state(gates) -> np.ndarray:
    """Independent oracle: the state vector of the noiseless gates applied to |0>."""
    psi = np.array([1.0, 0.0], dtype=complex)
    for label in gates:
        psi = ct.GATE_UNITARIES[label] @ psi
    return psi


def load_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    """Reader of ``save_matrix_csv`` files: the header's labels and the rows as floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        labels = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return np.asarray(rows), labels

def block_loop_mean(model, gates) -> float:
    """Independent oracle for models with transitions: fold the block vector gate by gate."""
    v = model.rho_vec()
    for label in gates:
        v = model.gate_block(label) @ v
    return float(model.dual_vec() @ v)


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
    """Independent oracle for ``empirical_bound_check``: draw all lengths, then a
    full row of gates per sequence, and fold each sequence's full and
    compressed chains alone, one gate at a time."""
    m_out, m_in = fiducial_frames(model, fiducials)
    proj = projection_from_vectors(m_in)
    labels = tuple(model.gate_labels)
    eps = max(invariance_defect(proj, model.gate_block(l), norm_kind) for l in labels)
    n_o = max(operation_norm(model.gate_block(l), norm_kind) for l in labels)
    n_q = max(dual_norm(row, norm_kind) for row in m_out)
    n_rho = max(ket_norm(col, norm_kind) for col in m_in.T)
    gen = np.random.default_rng(seed)
    lengths = gen.integers(1, max_len + 1, size=n_sequences)
    draws = gen.integers(0, len(labels), size=(n_sequences, max_len))
    lhs = np.empty(n_sequences)
    rhs = np.empty(n_sequences)
    seqs = []
    p = proj.matrix
    for s in range(n_sequences):
        n = int(lengths[s])
        seq = tuple(labels[i] for i in draws[s, :n])
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
        ratios = np.where(lhs <= 1e-12, 0.0, np.where(rhs > 0.0, lhs / rhs, np.inf))
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


def _norm(v) -> float:
    return math.sqrt(v @ v)


def _loop_curvature(w, dxnorm, shifted):
    """``w @ (w / shifted) / dxnorm**2``, from the unit step where the sum overflows."""
    with np.errstate(over="ignore"):
        curvature = w @ (w / shifted) / dxnorm**2
    if not np.isfinite(curvature):
        unit = w / dxnorm
        curvature = unit @ (unit / shifted)
    return curvature


def _loop_damping(lam, g, delta, par):
    """One start's ``lmpar``: the scalar form of ``corrtomo.lm._damping``."""
    full_rank = lam > lam[0] * EPS
    w = np.divide(g, lam, out=np.zeros_like(g), where=full_rank)
    dxnorm = _norm(w)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, w
    parl = (fp / delta) / _loop_curvature(w, dxnorm, lam) if full_rank.all() else 0.0
    gnorm = _norm(g)
    paru = gnorm / delta or DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru) or gnorm / dxnorm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(DWARF, 0.001 * paru)
        shifted = lam + par
        w = g / shifted
        dxnorm = _norm(w)
        previous, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and previous < 0.0 and fp <= previous) or iteration == 10:
            break
        correction = (fp / delta) / _loop_curvature(w, dxnorm, shifted)
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + correction)
    return par, w


def loop_lm(fun, jac, x0, tol, max_nfev, jac_scale=True, stops=None) -> LMResult:
    """Independent oracle for ``levenberg_marquardt``: one start, run alone in nested loops.

    ``fun`` and ``jac`` take and return one point's arrays.  When ``stops``
    is a list, the name of the test that ended the fit is appended to it.
    """

    def stop(name, result):
        if stops is not None:
            stops.append(name)
        return result

    x = np.array(x0, dtype=float)
    f = fun(x)
    fnorm = _norm(f)
    nfev, njev = 1, 0
    diag = None
    par = 0.0
    first = True
    while True:
        j = jac(x)
        njev += 1
        normal, jtf = j.T @ j, j.T @ f
        col_norms = np.sqrt(np.diag(normal))
        if diag is None:
            diag = np.where(col_norms > 0.0, col_norms, 1.0) if jac_scale else np.ones(x.size)
            xnorm = _norm(diag * x)
            delta = STEP_FACTOR * xnorm or STEP_FACTOR
        gradient = np.abs(jtf) / np.where(col_norms > 0.0, col_norms, np.inf)
        if fnorm == 0.0:
            return stop("zero residual", LMResult(x, f, nfev, njev, True))
        if gradient.max(initial=0.0) <= tol * fnorm:
            return stop("gradient", LMResult(x, f, nfev, njev, True))
        if jac_scale:
            diag = np.maximum(diag, col_norms)
        lam, vecs = np.linalg.eigh(normal / np.outer(diag, diag))
        lam, vecs = np.maximum(lam[::-1], 0.0), vecs[:, ::-1]
        g = (jtf / diag) @ vecs
        while True:  # shrink the step until it lowers the residuals enough
            par, w = _loop_damping(lam, g, delta, par)
            pnorm = _norm(w)
            if first:
                delta = min(delta, pnorm)
            trial = x - (vecs @ w) / diag
            f_trial = fun(trial)
            nfev += 1
            fnorm1 = _norm(f_trial)
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            linear = lam @ (w * w) / fnorm**2
            damped = par * (pnorm / fnorm) ** 2
            prered = linear + 2.0 * damped
            dirder = -(linear + damped)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            accepted = ratio >= 1e-4
            if accepted:
                x, f, fnorm = trial, f_trial, fnorm1
                xnorm = _norm(diag * x)
                first = False
            if abs(actred) <= tol and prered <= tol and ratio <= 2.0:
                return stop("reduction", LMResult(x, f, nfev, njev, True))
            if delta <= tol * xnorm:
                return stop("step bound", LMResult(x, f, nfev, njev, True))
            if nfev >= max_nfev:
                return stop("budget", LMResult(x, f, nfev, njev, False))
            if accepted:
                break


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
