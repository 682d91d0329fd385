"""Levenberg-Marquardt least squares with an analytic Jacobian, for a batch of starts.

Moré's trust-region form of the method, with the step-bound and damping
rules of MINPACK's ``lmder`` (J. J. Moré, "The Levenberg-Marquardt
algorithm: implementation and theory", 1978).  The damped subproblem is
solved in the eigenbasis of the scaled normal matrix, which gives the step
and the derivative of its length in closed form for every damping value.

The starts run independently, in one batch.  Every pass moves each running
start by one trial step: one call evaluates the residuals of all of them,
and one the Jacobians of those that moved.  Each start keeps its own
variable scale, step bound, damping, budget and stopping tests, and leaves
the batch when it stops.  Its sums are stacked ``matmul`` and ``eigh``
calls, which work one start at a time, and its trust-region updates are
scalar arithmetic of its own, so a start's iterates are bit for bit those
it has when run alone.  Plain NumPy, so the same inputs always give the
same iterates.
"""

from __future__ import annotations

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


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v @ v)


def _curvature(w: np.ndarray, dxnorm: float, shifted: np.ndarray) -> float:
    """``w @ (w / shifted) / dxnorm**2``, taken from the unit step where that sum overflows, as ``lmpar``
    does.  Its callers turn overflow warnings off."""
    curvature = w @ (w / shifted) / dxnorm**2
    return curvature if math.isfinite(curvature) else (w / dxnorm) @ (w / dxnorm / shifted)


def _damping(lam: np.ndarray, g: np.ndarray, delta: float, par: float) -> tuple[float, np.ndarray]:
    """Damping ``par`` whose step has length within 10% of ``delta`` (MINPACK ``lmpar``).

    ``lam`` are the eigenvalues of the scaled normal matrix, descending, and
    ``g`` the scaled gradient in its eigenbasis.  Returns ``par`` and the
    step's coordinates ``w = g / (lam + par)`` in that basis.  The
    Gauss-Newton step (``par = 0``, with the directions whose eigenvalues
    are lost in rounding dropped) is taken when it is short enough.
    Otherwise Moré's Newton iteration on the reciprocal step length runs
    inside safeguarding bounds, for at most ten steps.
    """
    full_rank = lam > lam[0] * EPS
    w = np.divide(g, lam, out=np.zeros_like(g), where=full_rank)
    dxnorm = _norm(w)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, w
    with np.errstate(over="ignore"):  # _curvature replaces a sum that overflows
        parl = (fp / delta) / _curvature(w, dxnorm, lam) if full_rank.all() else 0.0
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
            correction = (fp / delta) / _curvature(w, dxnorm, shifted)
            if fp > 0.0:
                parl = max(parl, par)
            elif fp < 0.0:
                paru = min(paru, par)
            par = max(parl, par + correction)
    return par, w


class _Start:
    """The scalar state of one running start: counts, norms, step bound and damping."""

    __slots__ = ("index", "fnorm", "nfev", "njev", "xnorm", "delta", "par", "first", "converged")

    def __init__(self, index: int, fnorm: float) -> None:
        self.index, self.fnorm = index, fnorm
        self.nfev, self.njev = 1, 0
        self.xnorm = self.delta = self.par = 0.0
        self.first = True  # no step accepted yet
        self.converged = False

    def trial(self, lam: np.ndarray, w: np.ndarray, scaled: np.ndarray, f_trial: np.ndarray, tol: float) -> bool:
        """Update the step bound and damping from a trial step; True if the step is accepted.

        ``w`` is the step in the eigenbasis of the scaled normal matrix, whose
        eigenvalues are ``lam``; ``scaled`` is the scaled trial point and
        ``f_trial`` its residuals.  Sets ``converged`` when a tolerance test
        ends the fit.
        """
        self.nfev += 1
        pnorm, fnorm1 = _norm(w), _norm(f_trial)
        if self.first:
            self.delta = min(self.delta, pnorm)
        fnorm = self.fnorm
        actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
        linear = lam @ (w * w) / fnorm**2
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
            self.fnorm, self.xnorm, self.first = fnorm1, _norm(scaled), False
        self.converged = bool((abs(actred) <= tol and prered <= tol and ratio <= 2.0) or self.delta <= tol * self.xnorm)
        return accepted


def levenberg_marquardt(
    fun: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_nfev: int,
    jac_scale: bool = True,
) -> list[LMResult]:
    """Minimise ``||fun(x)||^2`` from every start, a row of the (S, n) ``x0``.

    ``fun`` maps a (k, n) stack of points to their (k, r) residuals and
    ``jac`` to their (k, r, n) Jacobians; both see only the running starts.
    ``jac_scale`` scales each variable by the largest norm its Jacobian
    column has reached (MINPACK's mode 1); otherwise all scales are one.  A
    start ends converged when the relative reduction, actual and predicted,
    is at most ``tol``, when its step bound falls to ``tol`` times its
    scaled ``x``, or when its scaled gradient's largest cosine with its
    residuals is at most ``tol`` (``tol`` should be at least machine
    epsilon).  It ends unconverged when it has spent ``max_nfev`` residual
    evaluations.  Returns one result per start, in the order of ``x0``: the
    last accepted point, with ``nfev`` counting the start's residual
    evaluations, its start included, and ``njev`` its Jacobian ones.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    starts = [_Start(i, _norm(row)) for i, row in enumerate(f)]
    results: list[LMResult | None] = [None] * len(starts)
    moved = np.ones(len(starts), dtype=bool)  # at a new point, whose Jacobian is still to come
    done = ~moved
    diag = lam = vecs = g = None
    while True:
        rows = np.flatnonzero(moved)
        if rows.size:
            j = jac(x[rows])
            jt = j.swapaxes(1, 2)
            normal = jt @ j
            jtf = (jt @ f[rows, :, None])[:, :, 0]
            col_norms = np.sqrt(np.diagonal(normal, axis1=1, axis2=2))
            if diag is None:  # the first Jacobians, of every start: scales and step bounds
                diag = np.where(col_norms > 0.0, col_norms, 1.0) if jac_scale else np.ones_like(x)
                for start, scaled in zip(starts, diag * x):
                    start.xnorm = _norm(scaled)
                    start.delta = STEP_FACTOR * start.xnorm or STEP_FACTOR
                lam, vecs, g = np.empty_like(x), np.empty(normal.shape), np.empty_like(x)
            gradient = np.abs(jtf) / np.where(col_norms > 0.0, col_norms, np.inf)
            for row, largest in zip(rows.tolist(), gradient.max(axis=1, initial=0.0).tolist()):
                start = starts[row]
                start.njev += 1
                done[row] = start.converged = bool(start.fnorm == 0.0 or largest <= tol * start.fnorm)
            if done.any():
                go = ~done[rows]
                rows, normal, jtf, col_norms = rows[go], normal[go], jtf[go], col_norms[go]
            if jac_scale:
                diag[rows] = np.maximum(diag[rows], col_norms)
            scale = diag[rows]
            lam_rows, vecs_rows = np.linalg.eigh(normal / (scale[:, :, None] * scale[:, None, :]))
            lam[rows], vecs[rows] = np.maximum(lam_rows[:, ::-1], 0.0), vecs_rows
            g[rows] = ((jtf / scale)[:, None, :] @ vecs_rows[:, :, ::-1])[:, 0]
        if done.any():
            for row in np.flatnonzero(done).tolist():
                start = starts[row]
                results[start.index] = LMResult(x[row].copy(), f[row].copy(), start.nfev, start.njev, start.converged)
            keep = ~done
            if not keep.any():
                return results
            starts = [start for start, kept in zip(starts, keep.tolist()) if kept]
            x, f, diag, lam, vecs, g = x[keep], f[keep], diag[keep], lam[keep], vecs[keep], g[keep]
        # one trial step of every running start
        w = np.empty_like(x)
        for row, start in enumerate(starts):
            start.par, w[row] = _damping(lam[row], g[row], start.delta, start.par)
        trial = x - (vecs[:, :, ::-1] @ w[:, :, None])[:, :, 0] / diag
        f_trial = fun(trial)
        scaled = diag * trial
        moved = np.array([start.trial(lam[i], w[i], scaled[i], f_trial[i], tol) for i, start in enumerate(starts)])
        np.copyto(x, trial, where=moved[:, None])
        np.copyto(f, f_trial, where=moved[:, None])
        done = np.array([start.converged or start.nfev >= max_nfev for start in starts])
        moved &= ~done
