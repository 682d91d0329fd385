"""Levenberg-Marquardt least squares with an analytic Jacobian, for a batch of starts.

Moré's trust-region form of the method, with the step-bound and damping
rules of MINPACK's ``lmder`` (J. J. Moré, "The Levenberg-Marquardt
algorithm: implementation and theory", 1978).  The damped subproblem is
solved in the eigenbasis of the scaled normal matrix, which gives the step
and the derivative of its length in closed form for every damping value.

The starts run independently, in one batch.  Every pass moves each running
start by one trial step with one model call, whose intermediates give the
Jacobians of the starts that moved.  Each start keeps its own variable
scale, step bound, damping, budget and stopping tests, and leaves the batch
when it stops.  Its sums and norms are stacked ``matmul`` and ``eigh``
calls, which work one start at a time, and its damping and trust-region
updates are scalar arithmetic of its own, so a start's iterates are bit for
bit those it has when run alone.  Plain NumPy, so the same inputs always
give the same iterates.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["LMResult", "levenberg_marquardt"]

EPS = np.finfo(float).eps
DWARF = np.finfo(float).tiny
STEP_FACTOR = 100.0  # initial step bound, relative to the scaled start


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


def _curvature(w: np.ndarray, dxnorm: float, shifted: np.ndarray) -> float:
    """``w @ (w / shifted) / dxnorm**2``, taken from the unit step where that sum overflows, as ``lmpar``
    does.  Its callers turn overflow warnings off."""
    curvature = w @ (w / shifted) / dxnorm**2
    return curvature if math.isfinite(curvature) else (w / dxnorm) @ (w / dxnorm / shifted)


def _gauss_newton(lam: np.ndarray, g: np.ndarray) -> list[tuple]:
    """:func:`_damping`'s entry for every row of ``lam`` and ``g``: the rows, the Gauss-Newton step ``g / lam``
    without the directions whose eigenvalues are lost in rounding, its length, ``|g|`` and whether none was lost."""
    full_rank = lam > lam[:, :1] * EPS
    w = np.divide(g, lam, out=np.zeros_like(g), where=full_rank)
    return list(zip(lam, g, w, _norms(w).tolist(), _norms(g).tolist(), full_rank.all(axis=1).tolist()))


def _gauss_newton_fits(entry: tuple, delta: float) -> bool:
    """Whether the Gauss-Newton step of a :func:`_gauss_newton` entry is short enough for ``delta``."""
    return entry[3] - delta <= 0.1 * delta


def _damping(entry: tuple, delta: float, par: float) -> tuple[float, np.ndarray]:
    """Damping ``par`` whose step has length within 10% of ``delta`` (MINPACK ``lmpar``).

    ``entry`` is a start's row of :func:`_gauss_newton`: ``lam`` are the
    eigenvalues of its scaled normal matrix, descending, and ``g`` its scaled
    gradient in their eigenbasis.  Returns ``par`` and the step's coordinates
    ``w = g / (lam + par)`` in that basis.  The Gauss-Newton step
    (``par = 0``) is taken when it fits (:func:`_gauss_newton_fits`).
    Otherwise Moré's Newton iteration on the reciprocal step length runs
    inside safeguarding bounds, for at most ten steps; its callers turn
    overflow warnings off, as :func:`_curvature` replaces a sum that overflows.
    """
    lam, g, w, dxnorm, gnorm, full_rank = entry
    if _gauss_newton_fits(entry, delta):
        return 0.0, w
    fp = dxnorm - delta
    parl = (fp / delta) / _curvature(w, dxnorm, lam) if full_rank else 0.0
    paru = gnorm / delta or DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru) or gnorm / dxnorm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(DWARF, 0.001 * paru)
        shifted = lam + par
        w = g / shifted
        dxnorm = math.sqrt(w @ w)
        previous, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and previous < 0.0 and fp <= previous) or iteration == 10:
            break
        correction = (fp / delta) / _curvature(w, dxnorm, shifted)
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + correction)
    return par, w


class _Start:
    """The scalar state of one running start: counts, norms, step bound, damping and :func:`_damping`'s entry."""

    __slots__ = ("index", "fnorm", "nfev", "njev", "xnorm", "delta", "par", "entry", "first", "converged", "done")

    def __init__(self, index: int, fnorm: float) -> None:
        self.index, self.fnorm = index, fnorm
        self.nfev, self.njev = 1, 0
        self.xnorm = self.delta = self.par = 0.0
        self.entry = None  # from its last Jacobian
        self.first = True  # no step accepted yet
        self.converged = self.done = False

    def trial(self, pnorm: float, fnorm1: float, lam_w2: float, xnorm: float, tol: float, max_nfev: int) -> bool:
        """Update the step bound and damping from a trial step; True if the step is accepted.

        ``pnorm`` is the length of the step ``w`` in the eigenbasis of the scaled
        normal matrix, ``lam_w2`` its eigenvalues' sum weighted by ``w**2``, and
        ``fnorm1`` and ``xnorm`` the lengths of the trial residuals and scaled
        point.  Sets ``converged`` when a tolerance test ends the fit, ``done``
        when the fit ends.
        """
        self.nfev += 1
        if self.first:
            self.delta = min(self.delta, pnorm)
        fnorm = self.fnorm
        actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
        linear = lam_w2 / fnorm**2
        damped = self.par * (pnorm / fnorm) ** 2
        prered = linear + 2.0 * damped
        dirder = -(linear + damped)
        ratio = actred / prered if prered != 0.0 else 0.0
        if ratio <= 0.25:
            temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
            if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                temp = 0.1
            self.delta = temp * min(self.delta, pnorm / 0.1)
            self.par /= temp
        elif self.par == 0.0 or ratio >= 0.75:
            self.delta = pnorm / 0.5
            self.par *= 0.5
        accepted = ratio >= 1e-4
        if accepted:
            self.fnorm, self.xnorm, self.first = fnorm1, xnorm, False
        self.converged = bool((abs(actred) <= tol and prered <= tol and ratio <= 2.0) or self.delta <= tol * self.xnorm)
        self.done = self.converged or self.nfev >= max_nfev
        return accepted


def levenberg_marquardt(
    model: Callable[[np.ndarray], tuple[np.ndarray, Callable]],
    x0: np.ndarray,
    tol: float,
    max_nfev: int,
    jac_scale: bool = True,
) -> list[LMResult]:
    """Minimise ``||f(x)||^2`` from every start, a row of the (S, n) ``x0``.

    ``model`` maps a (k, n) stack of the running starts' points to their
    (k, r) residuals ``f`` and ``jacobian_at(rows)``, the Jacobians at those
    rows (an index array or a slice) of the same stack; it is asked for them
    only at accepted points.  ``jac_scale`` scales each variable by the
    largest norm its Jacobian column has reached (MINPACK's mode 1);
    otherwise all scales are one.  A start ends converged when the relative
    reduction, actual and predicted, is at most ``tol``, when its step bound
    falls to ``tol`` times its scaled ``x``, or when its scaled gradient's
    largest cosine with its residuals is at most ``tol`` (``tol`` should be
    at least machine epsilon).  It ends unconverged when it has spent
    ``max_nfev`` residual evaluations.  Returns one result per start, in the
    order of ``x0``: the last accepted point, with ``nfev`` counting the
    start's residual evaluations, its start included, and ``njev`` its
    Jacobian ones.
    """
    x = np.array(x0, dtype=float)
    f, jacobian_at = model(x)
    starts = [_Start(i, fnorm) for i, fnorm in enumerate(_norms(f).tolist())]
    results: list[LMResult | None] = [None] * len(starts)
    moved = list(range(len(starts)))  # rows of the last model call at new points, whose Jacobians are still to come
    diag = lam = vecs = None
    while True:
        if moved:
            rows = slice(None) if len(moved) == len(starts) else np.array(moved)
            j = jacobian_at(rows)
            jt = j.swapaxes(1, 2)
            normal = jt @ j
            jtf = (jt @ f[rows, :, None])[:, :, 0]
            col_norms = np.sqrt(normal.diagonal(axis1=1, axis2=2))
            if diag is None:  # the first Jacobians, of every start: scales and step bounds
                diag = np.where(col_norms > 0.0, col_norms, 1.0) if jac_scale else np.ones_like(x)
                for start, xnorm in zip(starts, _norms(diag * x).tolist()):
                    start.xnorm, start.delta = xnorm, STEP_FACTOR * xnorm or STEP_FACTOR
                lam, vecs = np.empty_like(x), np.empty(normal.shape)
            scale = diag[rows]
            if jac_scale:
                diag[rows] = scale = np.maximum(scale, col_norms)
            lam_rows, vecs_rows = np.linalg.eigh(normal / (scale[:, :, None] * scale[:, None, :]))
            lam_rows = np.maximum(lam_rows[:, ::-1], 0.0)
            lam[rows], vecs[rows] = lam_rows, vecs_rows
            g = ((jtf / scale)[:, None, :] @ vecs_rows[:, :, ::-1])[:, 0]
            largest = (np.abs(jtf) / np.where(col_norms > 0.0, col_norms, np.inf)).max(axis=1, initial=0.0).tolist()
            for row, entry, largest_row in zip(moved, _gauss_newton(lam_rows, g), largest):
                start = starts[row]
                start.njev += 1
                start.entry = entry
                start.done = start.converged = start.fnorm == 0.0 or largest_row <= tol * start.fnorm
        if any(start.done for start in starts):
            for start, x_row, f_row in zip(starts, x, f):
                if start.done:
                    results[start.index] = LMResult(x_row.copy(), f_row.copy(), start.nfev, start.njev, start.converged)
            keep = [row for row, start in enumerate(starts) if not start.done]
            if not keep:
                return results
            starts = [starts[row] for row in keep]
            x, f, diag, lam, vecs = x[keep], f[keep], diag[keep], lam[keep], vecs[keep]
        # one trial step of every running start, with overflow warnings off where a damping iterates
        steps = []
        iterates = not all(_gauss_newton_fits(start.entry, start.delta) for start in starts)
        with np.errstate(over="ignore") if iterates else contextlib.nullcontext():
            for start in starts:
                start.par, step = _damping(start.entry, start.delta, start.par)
                steps.append(step)
        w = np.array(steps)
        trial = x - (vecs[:, :, ::-1] @ w[:, :, None])[:, :, 0] / diag
        f_trial, jacobian_at = model(trial)
        scalars = zip(_norms(w).tolist(), _norms(f_trial).tolist(), _dots(lam, w * w), _norms(diag * trial).tolist())
        accepted = [row for row, (start, s) in enumerate(zip(starts, scalars)) if start.trial(*s, tol, max_nfev)]
        moved = [row for row in accepted if not starts[row].done]
        if accepted:
            rows = slice(None) if len(accepted) == len(starts) else np.array(accepted)
            x[rows], f[rows] = trial[rows], f_trial[rows]
