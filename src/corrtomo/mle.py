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
(weights through softmax, rates through a logistic map).  Start 0 is the
moment-matched discretization of the records' decay.  The starts run
independently, in one batch through :mod:`corrtomo.lm`, with one model call
per pass whose Jacobians reuse its weights, rates and dampings; every
start's iterates are bit for bit those it has when run alone.  The winning
start is chosen by (objective, start index), so results are reproducible
and independent of evaluation order.  Fits are canonicalized by ascending
first-gate rate to remove the label permutation symmetry.

Because depolarizing noise commutes with the ideal gates, a circuit's
predicted mean only depends on its ideal output and its per-gate counts.
The ideal H and S permute the signed Bloch axes, so both are exact integer
facts of a record, held on its :class:`RecordSet`.  For tomography records
they are composed from the circuits' factors, preparation fiducial, gate and
measurement fiducial; a list of records takes them from one integer fold of
its gate matrix.  ``fit`` and ``negative_log_likelihood`` then
evaluate the likelihood with one residual per distinct gate-count vector, in
the closed form of :mod:`corrtomo.device` with its frozen features, the
per-gate counts: outputs on the equator (z = 0) predict 1/2 whatever the
parameters, and z = +1 and z = -1 differ only in the sign of the decay.

Records travel as a columnar :class:`RecordSet` (the ideal outputs and gate
counts, means, variances, shots) that :func:`records_from_tomography` builds
from the tomography matrices; a plain list of records is converted once on
entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .device import (
    _AXES,
    RATE_CLAMP,
    MeasurementRecord,
    _damping,
    _fold_signed_axes,
    _gate_matrix,
    _ideal_features,
    _signed_axis_table,
)
from .lm import levenberg_marquardt
from .noise import LowFreqModel, MomentSequenceError, discretize_from_moments, frozen_model
from .ptm import reduced_frame
from .tomography import ErrorModel

__all__ = [
    "FitResult",
    "negative_log_likelihood",
    "fit",
    "induced_error_model",
    "records_from_tomography",
    "RecordSet",
]

DEFAULT_SIGMA_FLOOR = 1e-3
START_RATE = 0.01  # typical rate magnitude used to seed starts


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Measurement records held as columns.

    Record ``r``'s features are ``z_ideal[r]``, the Bloch z of its noiseless
    output (exactly -1, 0 or 1), and ``counts[r, j]``, the integer count of
    ``labels[j]`` among its gates.  ``shots[r] == 0`` marks an exact record.
    """

    labels: tuple[str, ...]
    z_ideal: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    shots: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.means)
        columns = self.z_ideal, self.variances, self.shots
        if any(c.shape != self.means.shape for c in columns) or self.counts.shape != (n, len(self.labels)):
            raise ValueError(
                f"features of shapes {self.z_ideal.shape} and {self.counts.shape}, variances {self.variances.shape} "
                f"and shots {self.shots.shape} do not match {n} records over {len(self.labels)} labels"
            )
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
        gates = _gate_matrix([rec.circuit for rec in records], labels)
        return cls(labels, *_ideal_features(gates, labels), means, variances, shots)

    def __len__(self) -> int:
        return len(self.means)

    def used_labels(self) -> tuple[str, ...]:
        """Sorted labels that occur in at least one record."""
        return tuple(sorted(label for label, used in zip(self.labels, self.counts.any(axis=0)) if used))


def _record_features(
    records: RecordSet,
    gate_labels: tuple[str, ...],
    sigma_floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-record ideal outcome, gate counts, means and variances.

    The ideal outcome is 2 C_ideal - 1, the Bloch z component of the
    noiseless circuit output, exactly -1, 0 or 1.  Both it and the integer
    gate counts are the records' own features; the counts are their columns
    for ``gate_labels``, zero for a label the records do not hold.
    """
    counts = records.counts
    if records.labels != gate_labels:
        outside = sorted(set(records.used_labels()) - set(gate_labels))
        if outside:
            raise KeyError(f"record uses gate {outside[0]!r} outside the fitted gate set {gate_labels}")
        column = {label: j for j, label in enumerate(records.labels)}
        counts = np.column_stack([counts, np.zeros(len(records), counts.dtype)])
        counts = counts[:, [column.get(g, -1) for g in gate_labels]]  # -1: the zero column
    return records.z_ideal, counts, records.means, np.maximum(records.variances, sigma_floor**2)


class _SufficientStatistics:
    """The weighted least-squares objective with one residual per gate-count vector.

    A record with ideal outcome z = 0 predicts 1/2 whatever the parameters; one
    with z = +-1 has residual ``z (s - y) / 2``, with ``s = sum_l p_l D_l`` the
    damping sum of its gate counts and ``y = z (2 C - 1)``.  So the objective is
    exactly ``spread + sum_n A_n (s_n - t_n)^2``, where ``A_n`` is a quarter of the
    summed inverse variances of the z != 0 records with counts ``n`` and ``t_n``
    their weighted mean of ``y``.  ``records`` may be a list; ``gate_labels`` None takes their own.
    """

    def __init__(self, records, gate_labels: tuple[str, ...] | None, sigma_floor: float) -> None:
        if not records:
            raise ValueError("need at least one record")
        if sigma_floor <= 0.0:
            raise ValueError(f"sigma_floor must be positive (records may carry zero variance), got {sigma_floor}")
        if not isinstance(records, RecordSet):
            records = RecordSet.from_records(records)
        self.gate_labels = records.used_labels() or ("H", "S") if gate_labels is None else gate_labels
        z_ideal, counts, means, variances = _record_features(records, self.gate_labels, sigma_floor)
        inv_var = 1.0 / variances
        flat = z_ideal == 0.0
        flat_spread = np.sum((means[flat] - 0.5) ** 2 * inv_var[flat])
        counts, inv_var, y = counts[~flat], inv_var[~flat], (z_ideal * (2.0 * means - 1.0))[~flat]
        # one integer key per record, ordered like its count vector
        keys = np.ravel_multi_index(counts.T, counts.max(axis=0, initial=0) + 1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        self.counts = counts[first].astype(float)
        self.minus_counts_t = -np.ascontiguousarray(self.counts.T)
        weight = np.bincount(inverse, weights=inv_var, minlength=first.size)
        self.target = np.bincount(inverse, weights=y * inv_var, minlength=first.size) / weight
        self.a = 0.25 * weight
        self.sqrt_a = np.sqrt(self.a)
        # the z = 0 records and the within-group scatter, an explicit sum of nonnegative terms
        self.spread = float(flat_spread + 0.25 * np.sum((y - self.target[inverse]) ** 2 * inv_var))

    def objective(self, p: np.ndarray, rates: np.ndarray) -> float:
        return float(self.a @ (_damping(rates, self.counts) @ p - self.target) ** 2 + self.spread)

    def evaluate(self, x: np.ndarray, m: int) -> tuple[np.ndarray, Callable]:
        """``sqrt(A_n) (s_n - t_n)`` at every row of unconstrained parameters ``x``, (k, groups), and
        ``jacobian_at(rows)``: their closed-form derivatives through softmax and logistic at those rows,
        (rows, groups, params), from the weights, rates and dampings of this call.

        With D_l the damping at environment value l,
        d s / d u_k = p_{k+1} (D_{k+1} - D.p) and
        d s / d v_{G,l} = -p_l D_l n_G eps_{G,l}
        (zero where the rate is clamped).  The products run with the group
        axis innermost; one copy then lays the rows out group by group, the
        order in which the optimizer's sums have always run.
        """
        n_groups, n_gates = self.counts.shape
        p, rates = _unpack(x, m, n_gates)
        damping = _damping(rates, self.counts)  # (k, groups, m)
        s = (damping @ p[:, :, None])[:, :, 0]  # the damping sum, per row

        def jacobian_at(rows) -> np.ndarray:
            p_rows, rates_rows = p[rows], rates[rows]
            scaled = self.sqrt_a[:, None] * damping[rows]  # (k, groups, m)
            weighted = (scaled @ p_rows[:, :, None])[:, :, 0]
            scaled = scaled.transpose(0, 2, 1).copy()  # (k, m, groups)
            out = np.empty((len(p_rows), x.shape[1], n_groups))
            out[:, : m - 1] = p_rows[:, 1:, None] * (scaled[:, 1:] - weighted[:, None])
            slope = np.where(rates_rows < 1.0 - RATE_CLAMP, rates_rows, 0.0) * p_rows[:, None, :]  # (k, gates, m)
            d_rates = out[:, m - 1 :].reshape(len(p_rows), n_gates, m, n_groups)
            np.multiply(scaled[:, None], slope[:, :, :, None], out=d_rates)
            d_rates *= self.minus_counts_t[:, None, :]
            return np.ascontiguousarray(out.swapaxes(1, 2))

        return self.sqrt_a * (s - self.target), jacobian_at


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
    stats = _SufficientStatistics(records, model.gate_labels, sigma_floor)
    return stats.objective(model.weights, np.stack([model.rates[g] for g in model.gate_labels]))


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


def _unpack(x: np.ndarray, m: int, n_gates: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights (k, m), through softmax, and rates (k, gates, m) of every row of ``x``."""
    u = np.concatenate([np.zeros((len(x), 1)), x[:, : m - 1]], axis=1)
    e = np.exp(u - u.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    rates = np.exp(-np.logaddexp(0.0, -x[:, m - 1 :])).reshape(len(x), n_gates, m)  # logistic, overflow free
    return p, rates


def _moment_rule(stats: _SufficientStatistics, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Rates and weights of the n points whose decay matches the records' at 0, k, ..., (2n - 1) k gates.

    ``y(N) = sum_l p_l r_l^N`` for a common rate ``1 - r_l`` of every gate, so the
    a-weighted mean targets ``y(jk) / y(0)`` of the groups with ``jk`` gates in all
    are the moments of weights ``p_l`` at nodes ``r_l^k`` (Golub-Welsch), with
    ``k`` the largest stride at which ``(2n - 1) k`` gates occur.  None when a
    total is missing, or no measure on (0, 1] with positive weights has them.
    """
    total = stats.counts.sum(axis=1).astype(np.int64)
    stride = int(total.max(initial=0)) // (2 * n - 1)
    at = stride * np.arange(2 * n)
    weight = np.bincount(total, weights=stats.a, minlength=at[-1] + 1)[at]
    if stride == 0 or not np.all(weight > 0.0):
        return None
    y = np.bincount(total, weights=stats.a * stats.target, minlength=at[-1] + 1)[at] / weight
    if not y[0] > 0.0:
        return None
    try:
        nodes, weights = discretize_from_moments(y[1:] / y[0], n)
    except MomentSequenceError:
        return None
    if not (np.all((nodes > 0.0) & (nodes <= 1.0)) and np.all(weights > 0.0)):
        return None
    return np.clip(1.0 - nodes ** (1.0 / stride), RATE_CLAMP, 1.0 - RATE_CLAMP), weights


def _moment_start(stats: _SufficientStatistics, m: int) -> np.ndarray | None:
    """The first usable n-point rule, n = m, m - 1, ..., 1, as m points: its heaviest split in m - n + 1 parts."""
    for n in range(m, 0, -1):
        if (rule := _moment_rule(stats, n)) is not None:
            rates, weights = rule
            parts = [int(np.argmax(weights)), *range(n, m)]
            rates = np.append(rates, np.full(m - n, rates[parts[0]]))
            weights = np.append(weights, np.zeros(m - n))
            weights[parts] = weights[parts[0]] / len(parts)
            logits = np.tile(np.log(rates / (1.0 - rates)), stats.counts.shape[1])
            return np.concatenate([np.log(weights[1:] / weights[0]), logits])
    return None


def fit(
    records: RecordSet | Sequence[MeasurementRecord],
    l_size: int,
    n_starts: int = 16,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
    seed: int = 0,
) -> FitResult:
    """Fit weights and per-gate rates to measured circuit means.

    Deterministic multi-start Levenberg-Marquardt on the weighted residuals,
    with the analytic Jacobian of the closed-form predictions.  The first
    start matches the moments of the records' decay (:func:`_moment_start`),
    or, where no rule fits them, takes equal weights and a common small
    rate; the remaining starts are drawn from the seeded generator.  Starts
    run independently, all in one batch of
    :func:`corrtomo.lm.levenberg_marquardt`; the winner is the
    lowest objective with ties broken by start index, and
    ``converged`` is the winning start's own termination status.  The fitted
    model is canonicalized by ascending first-gate rate and exported both as
    a frozen LowFreqModel (the support the labels 1..m, see
    :func:`corrtomo.noise.frozen_model`) and as the equivalent reduced-space
    ErrorModel.

    Records should cover circuits long enough for the slow environment
    directions to matter (lengths of order tens for weak noise); otherwise
    the weights are poorly identified.
    """
    if l_size < 1:
        raise ValueError(f"l_size must be >= 1, got {l_size}")
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    stats = _SufficientStatistics(records, None, sigma_floor)
    m = l_size
    n_gates = len(stats.gate_labels)

    gen = np.random.default_rng(seed)
    base_rate_logit = float(np.log(START_RATE / (1.0 - START_RATE)))
    starts = [_moment_start(stats, m)]
    if starts[0] is None:
        starts[0] = np.concatenate([np.zeros(m - 1), np.full(n_gates * m, base_rate_logit)])
    for _ in range(n_starts - 1):
        w = gen.normal(0.0, 1.0, size=m - 1)
        v = gen.normal(base_rate_logit, 2.0, size=n_gates * m)
        starts.append(np.concatenate([w, v]))

    results = levenberg_marquardt(lambda x: stats.evaluate(x, m), np.stack(starts), 1e-15, 100 * starts[0].size)
    p_all, rates_all = _unpack(np.stack([r.x for r in results]), m, n_gates)
    objectives = [stats.objective(p, rates) for p, rates in zip(p_all, rates_all)]
    winner = min(range(len(results)), key=lambda i: (objectives[i], i))

    order = np.argsort(rates_all[winner, 0], kind="stable")  # canonical: ascending rate of the first gate label
    param_model = frozen_model(p_all[winner, order], dict(zip(stats.gate_labels, rates_all[winner][:, order])))
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
            "sigma_floor": sigma_floor,
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

    The features come from the three factors, never from a record's whole
    circuit: a record's counts are the sum of its fiducials' and its gate's,
    and its ideal output is its preparation's signed axis, moved by the gate's
    row of the signed-axis table, then by its measurement fiducial's map of
    the six axes, one fold of the measurement rows.
    """
    shots = data.shots
    labels = tuple(sorted(data.gate_mats))
    fids = data.fiducials
    prep, meas = _gate_matrix(fids.prep_sequences, labels), _gate_matrix(fids.meas_sequences, labels)
    middle = np.array([len(labels), *map(labels.index, data.gate_mats)], dtype=np.int8)  # the Gram's pad, the gates
    n = len(labels)
    counts = _ideal_features(meas, labels)[1][:, None] + _ideal_features(prep, labels)[1]  # (k, i, labels)
    counts = counts[:, :, None] + np.eye(n + 1, n, dtype=counts.dtype)[middle]  # (k, i, g, labels); the pad counts 0
    table = _signed_axis_table(labels)
    states = table[middle][:, _fold_signed_axes(table, prep)].T  # (i, g): after prep_i, then the pad or gate g
    z_ideal = _AXES[_fold_signed_axes(table, meas, np.arange(len(_AXES))[:, None]).T[:, states], 2]  # (k, i, g)
    means = np.stack([data.gram, *data.gate_mats.values()], axis=2).ravel()
    variances = np.zeros_like(means)
    if shots is not None:
        smoothed = (means * shots + 1.0) / (shots + 2.0)
        variances = smoothed * (1.0 - smoothed) / shots
    return RecordSet(
        labels, z_ideal.ravel(), counts.reshape(means.size, n), means, variances, np.full(means.size, shots or 0)
    )


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
