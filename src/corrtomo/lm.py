"""Levenberg-Marquardt least squares with an analytic Jacobian, for a batch of starts.

Nielsen's gain-ratio damping (H. B. Nielsen, IMM-REP-1999-05; K. Madsen, H. B.
Nielsen and O. Tingleff, "Methods for non-linear least squares problems", IMM
DTU, 2004), which has no inner iteration.  A pass solves
``(J^T J + mu D) h = -J^T f`` at the point ``x``, with ``D`` the diagonal of
``J^T J`` raised to at least machine epsilon times its largest entry
(Marquardt's scaling, bounded so that a vanishing column cannot ask for an
unbounded step), in the variables scaled by ``sqrt(D)``.  The gain ratio
``rho`` is the actual reduction of ``|f|^2`` over the predicted one,
``h^T (mu D h - J^T f)``.  On ``rho > 0`` the step is accepted,
``mu <- mu max(1/3, 1 - (2 rho - 1)^3)`` and ``nu <- 2``; otherwise
``mu <- mu nu`` and ``nu <- 2 nu``.  ``mu`` starts at ``MU_START``, the value
for a start near its optimum, ``nu`` at 2, and ``mu`` never falls below machine
epsilon, where it would be lost in the unit diagonal of the scaled system.

The starts run independently: every start's state is a row of the batch's
arrays, every pass solves all running starts' systems in one stacked
``np.linalg.solve`` and moves them with one model call, whose intermediates
give the Jacobians of the accepted steps, and finished starts leave together
before the model call.  Row sums and norms are stacked products whose rows are
the one-start products, so a start's iterates are bit for bit those it has
when run alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["LMResult", "levenberg_marquardt"]

EPS = np.finfo(float).eps
HUGE = np.finfo(float).max
MU_START = 1e-6  # the first damping


@dataclass(frozen=True)
class LMResult:
    """End point of a fit: ``residuals`` at ``x``, and the evaluation counts."""

    x: np.ndarray
    residuals: np.ndarray
    nfev: int
    njev: int
    converged: bool  # a tolerance test ended the fit, not the budget

    @property
    def n_evaluations(self) -> int:
        return self.nfev + self.njev


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a_i @ b_i`` of every pair of rows: one stacked product, each row the 1-D product's BLAS dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_dots(v, v))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions of the stacked systems ``a_i h_i = b_i``; a system singular in floating point gets a NaN step."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([_solve(a[i : i + 1], b[i : i + 1]) for i in range(len(a))])


def levenberg_marquardt(
    model: Callable[[np.ndarray], tuple[np.ndarray, Callable]],
    x0: np.ndarray,
    tol: float,
    max_nfev: int,
) -> list[LMResult]:
    """Minimise ``|f(x)|^2`` from every start, a row of the (S, n) ``x0``.

    ``model`` maps a (k, n) stack of the running starts' points to their
    (k, r) residuals ``f`` and ``jacobian_at(rows)``, the Jacobians at those
    rows (an index array or a slice) of the same stack; it is asked for them
    only at accepted points.

    A start stops at the first of these tests to hold, in this order:

    * unconverged, after a trial step, if its next ``mu`` would overflow;
    * converged, at a new point (its start or an accepted step), if its
      scaled gradient is small: ``max_i |(J^T f)_i| / sqrt(D_ii) <= tol |f|``,
      which zero residuals meet, and which bounds the cosine of every column
      of ``J`` not below machine epsilon times the largest with ``f``;
    * unconverged, if its next step is not finite (its damped system is
      singular in floating point);
    * converged, if its next step is short in the scaled variables:
      ``|sqrt(D) h| <= tol (|sqrt(D) x| + tol)``;
    * unconverged, if it has spent ``max_nfev`` residual evaluations.

    So ``converged`` means a tolerance test ended the fit, not the budget, and
    no step that is not finite reaches the model.  Returns one result per
    start, in the order of ``x0``: the last accepted point, with ``nfev``
    counting the start's residual evaluations, its start included, and
    ``njev`` its Jacobian ones.
    """
    x = np.array(x0, dtype=float)
    f, jacobian_at = model(x)
    k, n = x.shape
    diagonal = np.arange(n)
    results: list[LMResult | None] = [None] * k
    index, nfev, njev = np.arange(k), np.ones(k, dtype=int), np.zeros(k, dtype=int)
    fnorm2 = _dots(f, f)
    # J^T J and J^T f in the variables scaled by root = sqrt(D), so the damped system is normal + mu I
    normal, gradient, root = np.empty((k, n, n)), np.empty((k, n)), np.empty((k, n))
    mu, nu = np.full(k, MU_START), np.full(k, 2.0)
    failed = np.zeros(k, dtype=bool)  # their next mu would overflow
    moved = np.arange(k)  # rows at new points, whose Jacobians are still to come
    while True:
        converged = np.zeros(len(x), dtype=bool)
        if moved.size:
            rows = slice(None) if moved.size == len(x) else moved
            j = jacobian_at(rows)
            jt = j.swapaxes(1, 2)
            normal_rows = jt @ j
            diag = normal_rows.diagonal(axis1=1, axis2=2)
            d = np.maximum(diag, EPS * diag.max(axis=1, keepdims=True))
            root_rows = root[rows] = np.sqrt(np.where(d > 0.0, d, 1.0))
            normal[rows] = normal_rows / (root_rows[:, :, None] * root_rows[:, None, :])
            gradient[rows] = (jt @ f[rows, :, None])[:, :, 0] / root_rows
            njev[rows] += 1
            converged[rows] = np.abs(gradient[rows]).max(axis=1) <= tol * np.sqrt(fnorm2[rows])
        system = normal.copy()
        system[:, diagonal, diagonal] += mu[:, None]
        step = _solve(system, -gradient)
        finite = np.isfinite(step).all(axis=1)
        converged |= ~failed & finite & (_norms(step) <= tol * (_norms(root * x) + tol))
        done = converged | failed | ~finite | (nfev >= max_nfev)
        if done.any():
            for row in np.flatnonzero(done):
                results[index[row]] = LMResult(
                    x[row].copy(), f[row].copy(), int(nfev[row]), int(njev[row]), bool(converged[row])
                )
            if done.all():
                return results
            keep = ~done
            index, x, f, step, fnorm2, normal, gradient, root, mu, nu, nfev, njev = (
                a[keep] for a in (index, x, f, step, fnorm2, normal, gradient, root, mu, nu, nfev, njev)
            )
        # one trial step of every running start
        trial = x + step / root
        f_trial, jacobian_at = model(trial)
        nfev += 1
        fnorm2_trial = _dots(f_trial, f_trial)
        actual = fnorm2 - fnorm2_trial
        predicted = _dots(step, mu[:, None] * step - gradient)
        accepted = (actual > 0.0) & (predicted > 0.0)
        rho = np.divide(np.minimum(actual, predicted), predicted, out=np.zeros_like(actual), where=accepted)
        t = 2.0 * rho - 1.0
        factor = np.where(accepted, np.maximum(1.0 / 3.0, 1.0 - t * t * t), nu)
        nu = np.where(accepted, 2.0, 2.0 * nu)
        failed = mu > HUGE / np.maximum(factor, 1.0)
        np.multiply(mu, factor, out=mu, where=~failed)
        np.maximum(mu, EPS, out=mu)
        x[accepted], f[accepted], fnorm2[accepted] = trial[accepted], f_trial[accepted], fnorm2_trial[accepted]
        moved = np.flatnonzero(accepted & ~failed)
