"""Levenberg-Marquardt least squares with an analytic Jacobian.

Moré's trust-region form of the method, with the step-bound and damping
rules of MINPACK's ``lmder`` (J. J. Moré, "The Levenberg-Marquardt
algorithm: implementation and theory", 1978).  The damped subproblem is
solved in the eigenbasis of the scaled normal matrix, which gives the step
and the derivative of its length in closed form for every damping value.
Plain NumPy, so the same inputs always give the same iterates.
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
    parl = (fp / delta) / (w @ (w / lam) / dxnorm**2) if full_rank.all() else 0.0
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
        correction = (fp / delta) / (w @ (w / shifted) / dxnorm**2)
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + correction)
    return par, w


def levenberg_marquardt(
    fun: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_nfev: int,
    jac_scale: bool = True,
) -> LMResult:
    """Minimise ``||fun(x)||^2`` from ``x0``.

    ``jac_scale`` scales each variable by the largest norm its Jacobian
    column has reached (MINPACK's mode 1); otherwise all scales are one.  The
    fit ends converged when the relative reduction, actual and predicted, is
    at most ``tol``, when the step bound falls to ``tol`` times the scaled
    ``x``, or when the scaled gradient's largest cosine with the residuals is
    at most ``tol`` (``tol`` should be at least machine epsilon).  It ends
    unconverged when ``max_nfev`` residual evaluations are spent.  The result
    is the last accepted point; ``nfev`` counts residual evaluations, the
    start included, and ``njev`` Jacobian ones.
    """
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
        if fnorm == 0.0 or gradient.max(initial=0.0) <= tol * fnorm:
            return LMResult(x, f, nfev, njev, True)
        if jac_scale:
            diag = np.maximum(diag, col_norms)
        lam, vecs = np.linalg.eigh(normal / np.outer(diag, diag))
        lam, vecs = np.maximum(lam[::-1], 0.0), vecs[:, ::-1]
        g = (jtf / diag) @ vecs
        while True:  # shrink the step until it lowers the residuals enough
            par, w = _damping(lam, g, delta, par)
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
            if (abs(actred) <= tol and prered <= tol and ratio <= 2.0) or delta <= tol * xnorm:
                return LMResult(x, f, nfev, njev, True)
            if nfev >= max_nfev:
                return LMResult(x, f, nfev, njev, False)
            if accepted:
                break
