"""Approximate reconstruction by linear inversion with SVD truncation.

When the accessible subspace is larger than the model dimension one wants to
fit, plain inversion of the Gram matrix fails.  Instead, a large *trial* set
of preparation/measurement sequences is measured, the trial Gram matrix is
decomposed as ``U g^t V = diag(s_1 >= s_2 >= ...)``, and the reconstruction
keeps only the subspace of the ``d`` largest singular values:

    g = diag(s_1, ..., s_d),      O~(chi) = D U O~^t(chi) V D^T,

with ``D`` the d x d^t selector.  From there the gauge-fixed error model is
built exactly as in :mod:`corrtomo.tomography`.  The singular spectrum itself
is the diagnostic for choosing ``d``: each well-separated cluster of values
counts the dimensions the device actually explores.

``gauge_fit_to_ideal`` removes the residual gauge freedom by choosing the
output frame that brings the reconstructed gate matrices as close as possible
to the ideal gates, which makes reconstructed and ideal matrices directly
comparable entry by entry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from .device import _gate_matrix, fold_gates
from .lm import levenberg_marquardt
from .mle import induced_error_model
from .noise import DEFAULT_GATE_LABELS, frozen_model
from .ptm import ideal_qubit_ptms
from .tomography import ErrorModel, FiducialSet, TomographyData, collect_data

__all__ = [
    "TruncationResult",
    "GaugeFitResult",
    "trial_sequences",
    "collect_trial_data",
    "svd_truncate",
    "singular_spectrum",
    "lim_reconstruct",
    "gauge_fit_to_ideal",
    "ideal_seven_ptms",
]

DEFAULT_SELECTION_SEED = 20260808


def trial_sequences(preset: str, seed: int | None = DEFAULT_SELECTION_SEED) -> FiducialSet:
    """Standard trial sets over the gates H and S: states from the sequences, observables from their reverses.

    * ``"d4"``: the four sequences (), (H), (H,S), (H,S,H) that already span
      a bare qubit.
    * ``"d7"``: every sequence of length 0..5 plus four seeded random picks
      per length 6..20, 123 sequences in total; long sequences let slow
      environment directions show up in the spectrum.
    """
    if preset == "d4":
        seqs: list[tuple[str, ...]] = [(), ("H",), ("H", "S"), ("H", "S", "H")]
    elif preset == "d7":
        seqs = [s for n in range(6) for s in product(DEFAULT_GATE_LABELS, repeat=n)]
        gen = np.random.default_rng(seed)
        base = len(DEFAULT_GATE_LABELS)
        for n in range(6, 21):
            codes = gen.choice(base**n, size=4, replace=False)
            for code in sorted(int(c) for c in codes):
                digits = []
                for _ in range(n):
                    digits.append(DEFAULT_GATE_LABELS[code % base])
                    code //= base
                seqs.append(tuple(digits))
    else:
        raise ValueError(f"unknown preset {preset!r}; expected d4 or d7")
    return FiducialSet(prep_sequences=tuple(seqs), meas_sequences=tuple(s[::-1] for s in seqs))


def collect_trial_data(
    model,
    trial: FiducialSet,
    shots: int | None = None,
    seed: int | None = None,
) -> TomographyData:
    """Measure the trial Gram matrix and per-gate trial matrices."""
    return collect_data(model, trial, shots=shots, seed=seed)


@dataclass
class TruncationResult:
    """SVD factors of the trial Gram matrix and the truncated data matrices.

    ``u`` and ``v`` are the orthogonal factors in the convention
    ``u @ g_trial @ v = diag(singular_values)``; ``d`` is the kept dimension.
    ``g_col0``/``g_row0`` keep the first column/row of the trial Gram matrix,
    from which the truncated state and readout vectors are derived.
    """

    u: np.ndarray
    v: np.ndarray
    singular_values: np.ndarray
    d: int
    g_trunc: np.ndarray
    gate_mats_trunc: dict[str, np.ndarray]
    g_col0: np.ndarray
    g_row0: np.ndarray


def singular_spectrum(g_trial: np.ndarray) -> np.ndarray:
    """Singular values of the trial Gram matrix in descending order."""
    return np.linalg.svd(np.asarray(g_trial, dtype=float), compute_uv=False)


#: Singular values below this fraction of the largest count as zero for the numerical rank.
RANK_RTOL = 1e-12


def svd_truncate(g_trial: np.ndarray, gate_mats_trial: Mapping[str, np.ndarray], d: int) -> TruncationResult:
    """Keep the subspace of the d largest singular values of the trial Gram matrix.

    Sign/permutation freedom of the SVD is fixed by making the largest-magnitude
    entry of every left singular vector positive, so results are deterministic
    across linear-algebra backends.  Requesting ``d`` beyond the numerical
    rank triggers a warning carrying the spectrum.
    """
    g_trial = np.asarray(g_trial, dtype=float)
    d_trial = g_trial.shape[0]
    if g_trial.shape != (d_trial, d_trial):
        raise ValueError(f"trial Gram matrix must be square, got {g_trial.shape}")
    if not 1 <= d <= d_trial:
        raise ValueError(f"kept dimension d = {d} must be in 1 .. {d_trial}")
    u_np, s, vh = np.linalg.svd(g_trial)
    # deterministic sign convention
    flip = u_np[np.argmax(np.abs(u_np), axis=0), np.arange(d_trial)] < 0.0
    u_np[:, flip] = -u_np[:, flip]
    vh[flip] = -vh[flip]
    if s[0] > 0.0 and d > np.count_nonzero(s > RANK_RTOL * s[0]):
        warnings.warn(
            f"kept dimension d = {d} exceeds the numerical rank "
            f"{np.count_nonzero(s > RANK_RTOL * s[0])}; spectrum: {s}",
            RuntimeWarning,
            stacklevel=2,
        )
    u = u_np.T
    v = vh.T
    gate_mats_trunc = {
        label: (u @ np.asarray(mat, dtype=float) @ v)[:d, :d] for label, mat in gate_mats_trial.items()
    }
    return TruncationResult(
        u=u,
        v=v,
        singular_values=s,
        d=d,
        g_trunc=np.diag(s[:d]),
        gate_mats_trunc=gate_mats_trunc,
        g_col0=g_trial[:, 0].copy(),
        g_row0=g_trial[0, :].copy(),
    )


RHO_FORMULA_TOL = 1e-10


def lim_reconstruct(truncation: TruncationResult, m_hat_in: np.ndarray | None = None) -> ErrorModel:
    """Gauge-fixed error model from truncated data.

    The truncated state vector has two algebraically equal expressions (via
    the right singular vectors and via the first Gram column); both are
    evaluated and must agree to RHO_FORMULA_TOL, which guards against a
    truncation inconsistent with the data.
    """
    d = truncation.d
    if m_hat_in is None:
        m_hat_in = np.eye(d)
    m_hat_in = np.asarray(m_hat_in, dtype=float)
    if m_hat_in.shape != (d, d):
        raise ValueError(f"gauge matrix must be {d} x {d}, got {m_hat_in.shape}")
    s_kept = np.diag(truncation.g_trunc)
    if np.any(s_kept <= 0.0):
        raise np.linalg.LinAlgError("truncated Gram matrix is singular; reduce d")
    m_in_inv = np.linalg.inv(m_hat_in)
    m_out_inv = m_hat_in @ np.diag(1.0 / s_kept)
    state_a = m_hat_in @ truncation.v[0, :d]
    state_b = m_out_inv @ (truncation.u @ truncation.g_col0)[:d]
    dev = np.max(np.abs(state_a - state_b))
    if dev > RHO_FORMULA_TOL * max(1.0, np.max(np.abs(state_a))):
        raise np.linalg.LinAlgError(
            f"the two state-vector expressions disagree by {dev:.3e}; truncation inconsistent with data"
        )
    dual = (truncation.g_row0 @ truncation.v)[:d] @ m_in_inv
    gates = {label: m_out_inv @ mat @ m_in_inv for label, mat in truncation.gate_mats_trunc.items()}
    return ErrorModel(
        state=state_a,
        dual=dual,
        gates=gates,
        gauge={
            "m_hat_in": m_hat_in,
            "d": d,
            "singular_values": truncation.singular_values,
            "state_formula_dev": dev,
        },
    )


@dataclass
class GaugeFitResult:
    """Outcome of the gauge optimization toward the ideal gate matrices."""

    m_hat_out: np.ndarray
    objective: float
    error_model: ErrorModel
    n_evaluations: int
    converged: bool  # the fit met its tolerance, and the rank floor lies below it
    target: dict[str, np.ndarray]  # the ideal gate matrices fitted to, by label
    rank_floor: float  # no gauge brings the objective below this (Eckart-Young)


#: Depolarizing rates of the synthetic reference model used to seed the d = 7
#: gauge optimization.  Exactly noiseless dynamics never leaves a 4-dimensional
#: subspace, so a rank-7 starting frame needs two distinct (small) rates; the
#: optimizer is insensitive to their precise values.
REFERENCE_RATES = (1e-3, 1e-2)


def ideal_seven_ptms() -> dict[str, np.ndarray]:
    """7x7 transfer matrices of the ideal H and S gates on the reduced frame: the noiseless two-point export."""
    return induced_error_model(frozen_model([0.5, 0.5], dict.fromkeys(DEFAULT_GATE_LABELS, (0.0, 0.0)))).gates


def _reference_trial_duals(trial: FiducialSet, d: int, gate_labels: Sequence[str]) -> np.ndarray:
    """Rows of effective reference observables for each trial measurement (d^t x d).

    For d = 4 the reference is the ideal qubit gate set.  For d = 7 it is a
    near-ideal two-point model whose two depolarizing scales make the rows
    span the full reduced space.
    """
    if d == 4:
        ptms = ideal_qubit_ptms()
        q0 = np.array([0.5, 0.0, 0.0, 0.5])
    elif d == 7:
        reference = induced_error_model(frozen_model([0.5, 0.5], dict.fromkeys(gate_labels, REFERENCE_RATES)))
        ptms, q0 = reference.gates, reference.dual
    else:
        raise ValueError(f"no reference frame for d = {d}; the gauge fit needs d = 4 or d = 7")
    labels = tuple(gate_labels)
    # q0 @ ptms[g_last] @ ... @ ptms[g_first] of every measurement sequence: the transposes over the reversed rows
    gates = _gate_matrix(trial.meas_sequences, labels)[:, ::-1]
    return fold_gates([ptms[g].T for g in labels], gates, q0[:, None])[..., 0]


GAUGE_TOL = 1e-14  # the gauge fit's tolerance


def gauge_fit_to_ideal(truncation: TruncationResult, trial: FiducialSet, max_nfev: int = 20000) -> GaugeFitResult:
    """Choose the output gauge minimising the distance to the ideal gates.

    Minimises ``sum_G || M^-1 A_G M - ideal(G) ||_F^2`` over the d^2 entries of
    ``M = M_out_hat``, where ``A_G = O~(G) g^-1`` and ``M_in_hat = M^-1 g``.
    The ideal gates are ``ideal_qubit_ptms()`` at d = 4 and
    ``ideal_seven_ptms()`` at d = 7, returned as ``target``; no other d has a
    reference frame.  The starting point maps the truncated data frame onto
    the ideal frame (built from ``trial``), so noiseless data sits at a
    zero-objective fixed point.

    The fit is one Levenberg-Marquardt run
    (:func:`corrtomo.lm.levenberg_marquardt`) with the closed-form Jacobian
    ``kron(M^-1 A_G, I) - kron(M^-1, R_G^T)``, ``R_G = M^-1 A_G M``, per gate.
    ``M -> cM`` leaves the objective unchanged, so the result is rescaled to
    the Frobenius norm of the start; the state and dual then do not depend on
    where along that direction the optimizer stopped.  ``n_evaluations`` counts
    residual plus Jacobian evaluations, ``max_nfev`` the residual ones alone.

    ``M^-1 A_G M`` has the rank of ``A_G``, so by Eckart-Young no gauge brings
    the objective below ``rank_floor``, the sum over the gates of the squared
    singular values of ``ideal(G)`` past the numerical rank of ``A_G`` (with
    ``RANK_RTOL``).  When that floor is above the fit's tolerance, the fit
    still runs, but it reports ``converged=False`` and warns with the ranks.
    Deterministic; a fit that stops unconverged returns its last accepted
    point.
    """
    d = truncation.d
    labels = sorted(truncation.gate_mats_trunc.keys())
    m_start = (truncation.u @ _reference_trial_duals(trial, d, labels))[:d, :]
    ideal_ptms = ideal_qubit_ptms() if d == 4 else ideal_seven_ptms()
    target = {label: ideal_ptms[label] for label in labels}
    g_inv = np.diag(1.0 / np.diag(truncation.g_trunc))
    a_mats = np.stack([truncation.gate_mats_trunc[label] @ g_inv for label in labels])
    ideal = np.stack(list(target.values()))

    def model(x: np.ndarray) -> tuple[np.ndarray, Callable]:
        m = x.reshape(len(x), 1, d, d)
        out = np.full((len(x), len(labels) * d * d), 1e6)
        fine = np.linalg.cond(m[:, 0]) <= 1e12  # also catches inf and nan
        out[fine] = (np.linalg.solve(m[fine], a_mats @ m[fine]) - ideal).reshape(-1, out.shape[1])
        return out, lambda rows: jacobian(m[rows])

    def jacobian(m: np.ndarray) -> np.ndarray:
        m_inv = np.linalg.inv(m)
        m_inv_a = m_inv @ a_mats
        # the two Kronecker products per gate, broadcast to (start, gate, i, j, p, q)
        left = m_inv_a[:, :, :, None, :, None] * np.eye(d)[:, None, :]
        right = m_inv[:, :, :, None, :, None] * (m_inv_a @ m).swapaxes(2, 3)[:, :, None, :, None, :]
        return (left - right).reshape(len(m), -1, d * d)

    (result,) = levenberg_marquardt(model, m_start.reshape(1, -1), GAUGE_TOL, max_nfev)
    singular_values = np.linalg.svd(a_mats, compute_uv=False)  # (gates, d), descending
    ranks = np.count_nonzero(singular_values > RANK_RTOL * singular_values[:, :1], axis=1)
    floor = float(sum(np.sum(s[r:] ** 2) for s, r in zip(np.linalg.svd(ideal, compute_uv=False), ranks)))
    m_hat_out = result.x.reshape(d, d)
    m_hat_out *= np.linalg.norm(m_start) / np.linalg.norm(m_hat_out)
    m_hat_in = np.linalg.solve(m_hat_out, truncation.g_trunc)
    model = lim_reconstruct(truncation, m_hat_in=m_hat_in)
    objective = float(result.residuals @ result.residuals)
    if floor > GAUGE_TOL:
        warnings.warn(
            f"gauge optimization cannot reach its target: data gates of ranks {ranks.tolist()} against a rank-{d} "
            f"target leave a floor of {floor:.3e} under the objective {objective:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    elif not result.converged:
        warnings.warn(
            f"gauge optimization stopped before converging (objective {objective:.3e})", RuntimeWarning, stacklevel=2
        )
    return GaugeFitResult(
        m_hat_out=m_hat_out,
        objective=objective,
        error_model=model,
        n_evaluations=result.n_evaluations,
        converged=result.converged and floor <= GAUGE_TOL,
        target=target,
        rank_floor=floor,
    )
