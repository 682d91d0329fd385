"""Maximum-likelihood reconstruction of a parametric correlated-error model.

The model family: the environment variable takes ``L`` values with weights
``p(lam)``; each gate acts as its ideal unitary followed by depolarizing
noise with a rate ``eps[gate](lam)`` that depends on the environment value,
which is frozen over a circuit.  State and readout are error free.  This
is a frozen :class:`corrtomo.noise.LowFreqModel`, and a fit exports one.

Fitting minimises the Gaussian negative log-likelihood

    sum_m (Cbar_m(x) - C_m)^2 / sigma_m^2

over the weights and rates, with exact-mean records assigned a configurable
variance floor.  The objective is a weighted sum of squares, so the
optimizer is a deterministic multi-start Levenberg-Marquardt on the residual
vector, with the analytic Jacobian, over an unconstrained parametrization
(weights through softmax, rates through a logistic map).  The starts run
independently, in one batch through :mod:`corrtomo.lm`: the residuals and
Jacobians of all running starts are evaluated in one call each, and every
start's iterates are bit for bit those it has when run alone.  The winning
start is chosen by (objective, start index), so results are reproducible
and independent of evaluation order.  Fits are canonicalized by ascending
first-gate rate to remove the label permutation symmetry.

Because depolarizing noise commutes with the ideal gates, a circuit's
predicted mean only depends on its ideal output and its per-gate counts.
The ideal H and S permute the signed Bloch axes, so both come from one
integer fold over all records; ``fit`` and ``negative_log_likelihood`` then
evaluate the likelihood for all records at once in the closed form that
:func:`corrtomo.device.exact_means` uses for frozen models, from the same
features (it is checked against the generic block evaluation in the tests).

Records travel as a columnar :class:`RecordSet` (a padded gate-index matrix,
means, variances, shots) that :func:`records_from_tomography` builds from
the tomography matrices; a plain list of records is converted once on entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .device import (
    RATE_CLAMP,
    MeasurementRecord,
    _damping,
    _fast_predictions,
    _gate_matrix,
    _ideal_features,
    _log_damping,
)
from .lm import levenberg_marquardt
from .noise import LowFreqModel, frozen_model
from .ptm import reduced_frame
from .tomography import ErrorModel

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "negative_log_likelihood",
    "fit",
    "induced_error_model",
    "records_from_tomography",
    "RecordSet",
]

DEFAULT_SIGMA_FLOOR = 1e-3


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Measurement records held as columns.

    ``gates[r]`` holds record ``r``'s gates as indices into ``labels``, padded
    anywhere in the row with ``len(labels)``, the identity row of the
    signed-axis table.  ``shots[r] == 0`` marks an exact record.
    """

    labels: tuple[str, ...]
    gates: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    shots: np.ndarray

    def __post_init__(self) -> None:
        exact = self.shots == 0
        if np.any(self.variances[exact] != 0.0) or np.any(self.variances[~exact] <= 0.0):
            raise ValueError("exact records must have zero variance and sampled records a positive one")

    @classmethod
    def from_records(cls, records: Sequence[MeasurementRecord]) -> RecordSet:
        """Columnar copy of a list of records, over the sorted labels they use."""
        labels = tuple(sorted(set(chain.from_iterable(rec.circuit for rec in records))))
        means = np.array([rec.mean for rec in records], dtype=float)
        variances = np.array([rec.variance for rec in records], dtype=float)
        shots = np.array([rec.shots or 0 for rec in records], dtype=np.int64)
        return cls(labels, _gate_matrix([rec.circuit for rec in records], labels), means, variances, shots)

    def __len__(self) -> int:
        return len(self.means)

    def used_labels(self) -> tuple[str, ...]:
        """Sorted labels that occur in at least one record."""
        return tuple(sorted(label for j, label in enumerate(self.labels) if (self.gates == j).any()))


def _record_features(
    records: RecordSet,
    gate_labels: tuple[str, ...],
    sigma_floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-record ideal outcome, gate counts, means and variances.

    The ideal outcome is 2 C_ideal - 1, the Bloch z component of the
    noiseless circuit output, exactly -1, 0 or 1.  Both it and the integer
    gate counts come from the gate-index matrix, re-indexed onto
    ``gate_labels`` when the records use other labels.
    """
    gates = records.gates
    if records.labels != gate_labels:
        outside = sorted(set(records.used_labels()) - set(gate_labels))
        if outside:
            raise KeyError(f"record uses gate {outside[0]!r} outside the fitted gate set {gate_labels}")
        lookup = [gate_labels.index(g) if g in gate_labels else len(gate_labels) for g in records.labels]
        gates = np.array([*lookup, len(gate_labels)], dtype=np.int8)[gates]
    z_ideal, counts = _ideal_features(gates, gate_labels)
    return z_ideal, counts, records.means, np.maximum(records.variances, sigma_floor**2)


class _SufficientStatistics:
    """Grouped form of the weighted least-squares objective.

    Records sharing (gate counts, ideal outcome) predict the same mean, so
    the objective collapses exactly to ``sum_g A_g Cbar_g^2 - 2 B_g Cbar_g
    + D_g`` with three scalars per group, independent of the group sizes or
    the per-record variances.  The objective is ``spread`` plus the squared
    norm of ``residuals``; ``jacobian`` is the derivative of ``residuals``.
    """

    def __init__(
        self,
        records: RecordSet,
        gate_labels: tuple[str, ...],
        sigma_floor: float,
    ) -> None:
        z_ideal, counts, means, variances = _record_features(records, gate_labels, sigma_floor)
        # one integer key per record, ordered like its (counts, outcome) row
        digits = (*counts.T, z_ideal.astype(np.intp) + 1)
        keys = np.ravel_multi_index(digits, (*(counts.max(axis=0) + 1), 3))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        inv_var = 1.0 / variances
        n_groups = first.size
        self.counts = counts[first].astype(float)
        self.minus_counts_t = -np.ascontiguousarray(self.counts.T)
        self.z_ideal = z_ideal[first]
        self.a = np.bincount(inverse, weights=inv_var, minlength=n_groups)
        self.sqrt_a = np.sqrt(self.a)
        b = np.bincount(inverse, weights=means * inv_var, minlength=n_groups)
        self.mu = b / self.a
        # within-group scatter, accumulated around the group means so the
        # objective is an explicit sum of nonnegative terms
        self.spread = float(np.sum((means - self.mu[inverse]) ** 2 * inv_var))
        self.n_records = len(records)

    def objective(self, p: np.ndarray, rates: np.ndarray) -> float:
        pred = _fast_predictions(p, _log_damping(rates), self.z_ideal, self.counts)
        return float(self.a @ (pred - self.mu) ** 2 + self.spread)

    def residuals(self, x: np.ndarray, m: int) -> np.ndarray:
        """``sqrt(A_g) (Cbar_g - mu_g)`` at every row of unconstrained parameters ``x``: (k, groups)."""
        p, rates = _unpack(x, m, self.counts.shape[1])
        mean = (_damping(rates, self.counts) @ p[:, :, None])[:, :, 0]  # the closed form's sum, per row
        return self.sqrt_a * (0.5 * (1.0 + self.z_ideal * mean) - self.mu)

    def jacobian(self, x: np.ndarray, m: int) -> np.ndarray:
        """Closed-form derivative of ``residuals`` through softmax and logistic: (k, groups, params).

        With D_l the damping at environment value l and z the ideal outcome,
        d Cbar / d u_k = z p_{k+1} (D_{k+1} - D.p) / 2 and
        d Cbar / d v_{G,l} = -z p_l D_l n_G eps_{G,l} / 2
        (zero where the rate is clamped).  The products run with the group
        axis innermost; one copy then lays the rows out group by group, the
        order in which the optimizer's sums have always run.
        """
        n_gates, n_groups = self.counts.shape[1], len(self.mu)
        p, rates = _unpack(x, m, n_gates)
        scaled = (0.5 * self.sqrt_a * self.z_ideal)[:, None] * _damping(rates, self.counts)  # (k, groups, m)
        weighted = (scaled @ p[:, :, None])[:, :, 0]
        scaled = scaled.transpose(0, 2, 1).copy()  # (k, m, groups)
        out = np.empty((len(x), x.shape[1], n_groups))
        out[:, : m - 1] = p[:, 1:, None] * (scaled[:, 1:] - weighted[:, None])
        slope = np.where(rates < 1.0 - RATE_CLAMP, rates, 0.0) * p[:, None, :]  # (k, gates, m)
        d_rates = out[:, m - 1 :].reshape(len(x), n_gates, m, n_groups)
        np.multiply(scaled[:, None], slope[:, :, :, None], out=d_rates)
        d_rates *= self.minus_counts_t[:, None, :]
        return np.ascontiguousarray(out.swapaxes(1, 2))


def negative_log_likelihood(
    model: LowFreqModel,
    records: RecordSet | Sequence[MeasurementRecord],
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
) -> float:
    """Sum of squared residuals of a frozen model's predictions, weighted by the per-record variances.

    Exact records (zero variance) use the floor; sampled records use the
    larger of their variance estimate and the floor.
    """
    _require_frozen(model)
    if not records:
        raise ValueError("need at least one record")
    if sigma_floor <= 0.0:
        raise ValueError("sigma_floor must be positive (records may carry zero variance)")
    if not isinstance(records, RecordSet):
        records = RecordSet.from_records(records)
    stats = _SufficientStatistics(records, model.gate_labels, sigma_floor)
    return stats.objective(model.weights, np.stack([model.rates[g] for g in model.gate_labels]))


@dataclass(frozen=True)
class OptimizerConfig:
    n_starts: int = 16
    sigma_floor: float = DEFAULT_SIGMA_FLOOR
    rate_scale: float = 0.01  # typical rate magnitude used to seed starts


@dataclass
class FitResult:
    param_model: LowFreqModel  # frozen, its support the labels 1..m
    error_model: ErrorModel
    nll: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return bool(self.diagnostics.get("converged", False))

    def to_json(self) -> dict:
        return {
            "param_model": _parametric_json(self.param_model),
            "error_model": self.error_model.to_json(),
            "nll": self.nll,
            "diagnostics": {
                k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in self.diagnostics.items()
            },
        }


def _logit(p: float) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return float(np.log(p / (1.0 - p)))


def _unpack(x: np.ndarray, m: int, n_gates: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights (k, m), through softmax, and rates (k, gates, m) of every row of ``x``."""
    u = np.concatenate([np.zeros((len(x), 1)), x[:, : m - 1]], axis=1)
    e = np.exp(u - u.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    rates = np.exp(-np.logaddexp(0.0, -x[:, m - 1 :])).reshape(len(x), n_gates, m)  # logistic, overflow free
    return p, rates


def fit(
    records: RecordSet | Sequence[MeasurementRecord],
    l_size: int,
    optimizer_config: OptimizerConfig | None = None,
    seed: int = 0,
    gate_labels: Sequence[str] | None = None,
) -> FitResult:
    """Fit weights and per-gate rates to measured circuit means.

    Deterministic multi-start Levenberg-Marquardt on the weighted residuals,
    with the analytic Jacobian of the closed-form predictions.  The first
    start uses equal weights and a common small rate; the remaining starts
    are drawn from the seeded generator.  Starts run independently, all in
    one batch of :func:`corrtomo.lm.levenberg_marquardt`; the winner is the
    lowest objective with ties broken by start index, and
    ``converged`` is the winning start's own termination status.  The fitted
    model is canonicalized by ascending first-gate rate and exported both as
    a frozen LowFreqModel (``sigma`` and ``eta`` None, the support the labels
    1..m) and as the equivalent reduced-space ErrorModel.

    Records should cover circuits long enough for the slow environment
    directions to matter (lengths of order tens for weak noise); otherwise
    the weights are poorly identified.
    """
    cfg = optimizer_config or OptimizerConfig()
    if l_size < 1:
        raise ValueError(f"l_size must be >= 1, got {l_size}")
    if cfg.n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {cfg.n_starts}")
    if cfg.sigma_floor <= 0.0:
        raise ValueError(f"sigma_floor must be positive, got {cfg.sigma_floor}")
    if not records:
        raise ValueError("need at least one record")
    if not isinstance(records, RecordSet):
        records = RecordSet.from_records(records)
    if gate_labels is None:
        gate_labels = records.used_labels() or ("H", "S")
    gate_labels = tuple(gate_labels)
    stats = _SufficientStatistics(records, gate_labels, cfg.sigma_floor)
    m = l_size
    n_gates = len(gate_labels)

    gen = np.random.default_rng(seed)
    base_rate_logit = _logit(cfg.rate_scale)
    starts = [np.concatenate([np.zeros(m - 1), np.full(n_gates * m, base_rate_logit)])]
    for _ in range(cfg.n_starts - 1):
        w = gen.normal(0.0, 1.0, size=m - 1)
        v = gen.normal(base_rate_logit, 2.0, size=n_gates * m)
        starts.append(np.concatenate([w, v]))

    results = levenberg_marquardt(
        lambda x: stats.residuals(x, m), lambda x: stats.jacobian(x, m), np.stack(starts), 1e-15, 100 * starts[0].size
    )
    p_all, rates_all = _unpack(np.stack([r.x for r in results]), m, n_gates)
    objectives = [stats.objective(p, rates) for p, rates in zip(p_all, rates_all)]
    winner = min(range(len(results)), key=lambda i: (objectives[i], i))

    order = np.argsort(rates_all[winner, 0], kind="stable")  # canonical: ascending rate of the first gate label
    param_model = frozen_model(p_all[winner, order], dict(zip(gate_labels, rates_all[winner][:, order])))
    return FitResult(
        param_model=param_model,
        error_model=induced_error_model(param_model),
        nll=objectives[winner],
        diagnostics={
            "converged": results[winner].converged,
            "start_objectives": np.array(objectives),
            "winner": winner,
            "n_evaluations": sum(r.n_evaluations for r in results),
            "n_records": len(records),
            "sigma_floor": cfg.sigma_floor,
            "seed": seed,
        },
    )


def records_from_tomography(data) -> RecordSet:
    """Flatten tomography data into per-circuit records for likelihood fitting.

    Every Gram entry corresponds to the circuit (preparation fiducial i,
    measurement fiducial k) and every gate-matrix entry to the same pair
    with the gate interposed; the measured value is the record mean.  The
    :class:`RecordSet` is ordered by k, then i, then the Gram entry before
    the gates in ``gate_mats`` order.  Exact data yield exact records,
    sampled data carry the binomial variance estimate.
    """
    shots = data.provenance.get("shots")
    labels = tuple(sorted(data.gate_mats))
    fids = data.fiducials
    prep, meas = _gate_matrix(fids.prep_sequences, labels), _gate_matrix(fids.meas_sequences, labels)
    middle = np.array([len(labels), *map(labels.index, data.gate_mats)], dtype=np.int8)
    width = prep.shape[1]
    # row (k, i, g) is prep_i, then the Gram's pad or gate g, then meas_k
    gates = np.empty((len(meas), len(prep), len(middle), width + 1 + meas.shape[1]), dtype=np.int8)
    gates[..., :width] = prep[:, None, :]
    gates[..., width] = middle
    gates[..., width + 1 :] = meas[:, None, None, :]
    means = np.stack([data.gram, *data.gate_mats.values()], axis=2).ravel()
    variances = np.zeros_like(means)
    if shots is not None:
        smoothed = (means * shots + 1.0) / (shots + 2.0)
        variances = smoothed * (1.0 - smoothed) / shots
    return RecordSet(labels, gates.reshape(means.size, -1), means, variances, np.full(means.size, shots or 0))


def _require_frozen(model) -> None:
    if not model.identity_transitions:
        raise ValueError("the model's environment must be frozen: every transition None")


def _parametric_json(model: LowFreqModel) -> dict:
    """The ``{labels, p, eps}`` description of a frozen model, as fit reports write it."""
    rates = {g: v.tolist() for g, v in model.rates.items()}
    return {"labels": list(range(1, model.m + 1)), "p": model.weights.tolist(), "eps": rates}


def induced_error_model(model: LowFreqModel) -> ErrorModel:
    """Equivalent error model of a frozen model on the reduced (3m + 1)-dimensional space.

    The block dynamics of a frozen environment keeps the reachable subspace
    spanned by the weighted identity profile and the per-value X, Y, Z slots,
    so projecting the block matrices onto that frame loses nothing: the
    induced model predicts identically to the block one.
    """
    _require_frozen(model)
    frame = reduced_frame(model.weights)
    return ErrorModel(
        state=frame.T @ model.rho_vec(),
        dual=model.dual_vec() @ frame,
        gates={label: frame.T @ model.gate_block(label) @ frame for label in model.gate_labels},
        gauge={"parametric": _parametric_json(model)},
    )
