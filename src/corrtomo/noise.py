"""Noise models with temporal correlations.

Two families are covered:

* **Low-frequency noise**: every gate's error depends on a slowly drifting
  classical variable ``lambda`` with a stationary distribution.  The
  continuous variable is replaced by a finite support whose points and
  weights reproduce the leading moments of the exact distribution
  (moment-matched Gaussian quadrature built from the moment sequence).
  Correlation decay over time enters through a stochastic transition matrix
  applied with each gate.

* **Context-dependent noise**: the error of a gate depends on which gate was
  applied last.  The environment is a classical register holding the previous
  gate label, updated deterministically.

Both families expose the same block representation: the state space is the
qubit Pauli space tensored with the finite environment (dimension ``4 m``,
environment index slowest), gates are ``4m x 4m`` real block matrices, and
the initial state / readout are ``|0><0|`` with the stationary (resp.
initial) environment distribution attached.

The concrete gate set is Hadamard + phase with depolarizing error rates
``eta * (1 - exp(-lambda^2))``, optimal at ``lambda = 0``.  Frozen and
context models take their means in closed form; others fold the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .ptm import ideal_qubit_ptms

__all__ = [
    "MomentSequenceError",
    "LowFreqModel",
    "ContextModel",
    "depolarized_gates",
    "gate_error_rate",
    "gaussian_x_moments",
    "discretize_from_moments",
    "build_low_freq_model",
    "frozen_model",
    "dense_low_freq_model",
    "gauss_legendre",
    "constant_depolarizing_model",
    "transition_decay",
    "second_order_model",
]

EPS = np.finfo(float).eps
WEIGHT_TOL = 1e-12

DEFAULT_GATE_LABELS = ("H", "S")

# gauss_legendre's switch from the exact sum to Stieltjes' expansion, in n sin(theta), and the expansion's length
GL_EDGE = 30.0
GL_TERMS = 20


class MomentSequenceError(ValueError):
    """Raised when a moment sequence is not that of a probability distribution.

    ``failing_minor`` is the order of the first non-positive leading principal
    minor of the Hankel moment matrix.
    """

    def __init__(self, failing_minor: int, message: str) -> None:
        super().__init__(message)
        self.failing_minor = failing_minor


def depolarized_gates(label: str, rates: Sequence[float] | np.ndarray) -> np.ndarray:
    """Stack (k, 4, 4) of the ideal gate followed by depolarizing noise at each rate.

    The depolarizing channel of rate eps keeps the state with probability
    1 - eps and replaces it by the average of the four Pauli conjugations
    otherwise, so its transfer matrix is diag(1, 1 - eps, 1 - eps, 1 - eps).
    One stacked product applies it after the ideal gate at every rate.
    """
    ideal = ideal_qubit_ptms()[label]
    rates = np.asarray(rates, dtype=float)
    outside = np.flatnonzero(~((0.0 <= rates) & (rates <= 1.0)))
    if outside.size:
        raise ValueError(f"depolarizing rate must be in [0, 1], got {rates[outside[0]]}")
    channels = np.zeros((rates.size, 4, 4))
    channels[:, 0, 0] = 1.0
    channels[:, [1, 2, 3], [1, 2, 3]] = (1.0 - rates)[:, None]
    return channels @ ideal


def gate_error_rate(lam: float | np.ndarray, eta: float) -> float | np.ndarray:
    """Depolarizing rate of a gate at noise value ``lam``: eta * (1 - exp(-lam^2)).

    The same curve applies to both gates of the set; it vanishes at
    ``lam = 0`` and saturates at ``eta``.  An array of values gives the
    array of their rates.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"noise strength eta must be in [0, 1], got {eta}")
    lam = np.asarray(lam, dtype=float)
    rate = eta * -np.expm1(-(lam * lam))
    return float(rate) if rate.ndim == 0 else rate


def gaussian_x_moments(sigma: float, k: int) -> float:
    """Moments of x = exp(-lambda^2) under lambda ~ N(0, sigma^2).

    E[x^k] = (1 + 2 k sigma^2)^(-1/2), the Gaussian integral of
    exp(-k lambda^2) against the density.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"moment order must be a nonnegative integer, got {k}")
    return float((1.0 + 2.0 * k * sigma * sigma) ** -0.5)


def _moment_recurrence(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Three-term recurrence coefficients of the orthogonal polynomials of a
    measure given by its raw moments mu[0 .. 2m-1] (mu[0] = total mass).

    Classical moment-to-Jacobi chain; raises MomentSequenceError when the
    Hankel matrix of moments is not positive definite.
    """
    m = mu.size // 2
    alpha = np.zeros(m)
    beta = np.zeros(m)
    if mu[0] <= 0.0:
        raise MomentSequenceError(1, "zeroth moment (total mass) must be positive")
    alpha[0] = mu[1] / mu[0]
    beta[0] = mu[0]
    sig_prev = np.zeros(mu.size + 1)
    sig = mu.astype(float).copy()
    for k in range(1, m):
        new = np.zeros(mu.size)
        for l in range(k, 2 * m - k):
            new[l] = sig[l + 1] - alpha[k - 1] * sig[l] - beta[k - 1] * sig_prev[l]
        if new[k] <= 0.0:
            raise MomentSequenceError(
                k + 1,
                f"moment sequence is not positive definite: leading principal minor "
                f"of order {k + 1} of the Hankel matrix is non-positive",
            )
        alpha[k] = new[k + 1] / new[k] - sig[k] / sig[k - 1]
        beta[k] = new[k] / sig[k - 1]
        sig_prev[: sig.size] = sig
        sig = new
    return alpha, beta


def discretize_from_moments(moments: Sequence[float], m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point discrete distribution matching the moments mu_1 .. mu_{2m-1}.

    ``moments[k-1]`` is the k-th raw moment; the zeroth moment is taken to be
    one.  Nodes are the eigenvalues of the symmetric tridiagonal recurrence
    matrix and weights the squared first components of its eigenvectors, so
    the first ``2m - 1`` moments of the returned support reproduce the inputs
    to near machine precision.

    Returns ``(nodes, weights)`` with nodes ascending.
    """
    if m < 1:
        raise ValueError(f"support size m must be >= 1, got {m}")
    mom = np.asarray(moments, dtype=float)
    if mom.size < 2 * m - 1:
        raise ValueError(f"need at least {2 * m - 1} moments for an {m}-point rule, got {mom.size}")
    mu = np.concatenate(([1.0], mom[: 2 * m - 1]))
    alpha, beta = _moment_recurrence(mu)
    if m == 1:
        return np.array([alpha[0]]), np.array([1.0])
    off = np.sqrt(beta[1:])
    nodes, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    weights = beta[0] * vecs[0, :] ** 2
    order = np.argsort(nodes)
    return nodes[order], weights[order]


def transition_decay(gamma: float) -> np.ndarray:
    """Two-point stochastic matrix that damps two-time correlations by exp(-gamma).

    Diagonal entries (1 + exp(-gamma))/2, off-diagonal (1 - exp(-gamma))/2.
    Composes as a semigroup: T(g1) @ T(g2) = T(g1 + g2).
    """
    if gamma < 0.0:
        raise ValueError(f"decay exponent must be nonnegative, got {gamma}")
    stay = 0.5 * (1.0 + np.exp(-gamma))
    flip = 0.5 * (1.0 - np.exp(-gamma))
    return np.array([[stay, flip], [flip, stay]])


class _BlockModel:
    """Shared behaviour of block-structured device models.

    Subclasses provide ``weights`` (initial environment distribution),
    ``gate_labels``, ``sys_ptms`` (label -> (m, 4, 4) stack of per-point
    system transfer matrices) and ``transitions`` (label -> (m, m) column
    stochastic matrix, or None for identity) and ``rates`` (label -> (m,)
    depolarizing rates).  ``sys_ptms`` come from :func:`depolarized_gates`,
    so they preserve the trace by construction; ``_validate_blocks`` checks
    the weights, the stack shapes and the transitions.  :mod:`corrtomo.device`
    takes the means of frozen models (all transitions None) and of context
    models in closed form from ``rates`` and folds the blocks of models with
    stochastic transitions.
    ``_block_cache`` starts empty; :meth:`gate_block` keeps the blocks there
    by label and :mod:`corrtomo.device` its closed-form tables.
    """

    @property
    def m(self) -> int:
        return int(np.asarray(self.weights).size)

    @property
    def dim(self) -> int:
        return 4 * self.m

    @property
    def identity_transitions(self) -> bool:
        return all(t is None for t in self.transitions.values())

    def rho_vec(self) -> np.ndarray:
        """Block vector of |0><0| with the model's environment distribution."""
        v = np.zeros(self.dim)
        v[0::4] = self.weights
        v[3::4] = self.weights
        return v

    def dual_vec(self) -> np.ndarray:
        """Block dual vector of the |0><0| projector summed over the environment."""
        q = np.zeros(self.dim)
        q[0::4] = 0.5
        q[3::4] = 0.5
        return q

    def gate_block(self, label: str) -> np.ndarray:
        """Full (4m x 4m) block matrix of the gate, transitions included."""
        cache = self._block_cache
        if label not in cache:
            if label not in self.sys_ptms:
                raise KeyError(f"unknown gate label {label!r}")
            trans = self.transitions.get(label)
            trans = np.eye(self.m) if trans is None else np.asarray(trans, dtype=float)
            rows, cols = np.nonzero(trans)  # blocks of zero transition stay +0.0
            block = np.zeros((self.m, 4, self.m, 4))
            block[rows, :, cols, :] = trans[rows, cols, None, None] * self.sys_ptms[label][cols]
            block = block.reshape(self.dim, self.dim)
            block.setflags(write=False)
            cache[label] = block
        return cache[label]

    def _validate_blocks(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -WEIGHT_TOL):
            raise ValueError("environment weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"environment weights must sum to 1, got {w.sum()!r}")
        for label in self.gate_labels:
            sys = self.sys_ptms[label]
            if sys.shape != (self.m, 4, 4):
                raise ValueError(f"gate {label!r}: expected {(self.m, 4, 4)} stack, got {sys.shape}")
            trans = self.transitions.get(label)
            if trans is not None:
                trans = np.asarray(trans, dtype=float)
                if trans.shape != (self.m, self.m):
                    raise ValueError(f"gate {label!r}: transition matrix shape {trans.shape} != {(self.m, self.m)}")
                col_sums = trans.sum(axis=0)
                if np.max(np.abs(col_sums - 1.0)) > WEIGHT_TOL or np.any(trans < -WEIGHT_TOL):
                    raise ValueError(f"gate {label!r}: transition matrix is not column stochastic")


@dataclass(frozen=True)
class LowFreqModel(_BlockModel):
    """Device with gate errors driven by a slowly drifting classical variable.

    ``support`` holds the variable values, ``weights`` their stationary
    probabilities.  ``rates[label][i]`` is the depolarizing rate of the gate
    at support point i; the per-point system transfer matrices
    ``sys_ptms[label]`` (depolarizing noise after the ideal gate) are built
    from them.  ``transitions[label]`` redistributes the environment with
    each application (None = frozen variable).  The gate labels are the keys
    of ``rates``.
    """

    support: np.ndarray
    weights: np.ndarray
    rates: Mapping[str, np.ndarray]
    transitions: Mapping[str, np.ndarray | None]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", np.asarray(self.support, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "rates", {g: np.asarray(v, dtype=float) for g, v in self.rates.items()})
        object.__setattr__(self, "sys_ptms", {g: depolarized_gates(g, v) for g, v in self.rates.items()})
        object.__setattr__(self, "_block_cache", {})
        if self.support.shape != self.weights.shape:
            raise ValueError("support and weights must have the same length")
        self._validate_blocks()

    @property
    def gate_labels(self) -> tuple[str, ...]:
        return tuple(self.rates)


def _drift_model(
    support: np.ndarray, weights: np.ndarray, eta: float, transitions: Mapping | None = None
) -> LowFreqModel:
    """Model whose gates H and S depolarize at ``gate_error_rate(lam, eta)`` at support point lam.

    Transitions default to None (a frozen variable) for every gate.
    """
    rates = {label: gate_error_rate(support, eta) for label in DEFAULT_GATE_LABELS}
    return LowFreqModel(support, weights, rates, dict.fromkeys(rates) if transitions is None else transitions)


def build_low_freq_model(sigma: float, eta: float, m: int) -> LowFreqModel:
    """Moment-matched m-point model of Gaussian low-frequency depolarizing noise.

    The discretization is carried out on the variable ``x = exp(-lambda^2)``,
    whose moments under lambda ~ N(0, sigma^2) are known in closed form, so
    the support reproduces E[x^k] for k = 1 .. 2m-1.  Gate errors are
    depolarizing with rate ``eta * (1 - x_i)`` at support point i; the
    variable is frozen within a circuit (identity transitions).
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    moments = [gaussian_x_moments(sigma, k) for k in range(1, 2 * m)]
    x_nodes, weights = discretize_from_moments(moments, m)
    x_nodes = np.clip(x_nodes, 1e-300, 1.0)
    return _drift_model(np.sqrt(-np.log(x_nodes)), weights, eta)


def frozen_model(weights: Sequence[float] | np.ndarray, rates: Mapping[str, Sequence[float]]) -> LowFreqModel:
    """Frozen model of these weights and per-gate rates, as a likelihood fit exports it.

    The support is the labels 1..m.
    """
    return LowFreqModel(
        support=np.arange(1, np.size(weights) + 1), weights=weights, rates=rates, transitions=dict.fromkeys(rates)
    )


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method in theta, x = cos(theta), on the nonnegative half of the
    nodes; the rule is symmetric.  Node k starts from Tricomi's guess
    (1 - (n - 1) / (8 n^3)) cos(phi_k), phi_k = pi (k - 1/4) / (n + 1/2), and
    Newton moves theta - phi_k, so that x = sin(pi/2 - theta) stays accurate
    near the middle.  P_n(cos theta) and dP_n/dtheta need no loop over the
    degree (Hale and Townsend, SIAM J. Sci. Comput. 35, A652, 2013):

    * where n sin(theta) >= ``GL_EDGE``, ``GL_TERMS`` terms of Stieltjes'
      expansion C_n sum_m h_m cos(alpha_m) / (2 sin theta)^(m+1/2),
      alpha_m = (n + m + 1/2) theta - (m + 1/2) pi/2;
    * elsewhere, the exact sum P_n(cos theta) = sum_j g_j g_(n-j) cos((n - 2j) theta),
      g_j = C(2j, j) / 4^j.

    The weights are 2 / (dP_n/dtheta)^2 at the converged nodes.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    k = np.arange(1, (n + 1) // 2 + 1)
    phi = np.pi * (4 * k - 1) / (4 * n + 2)
    psi = np.pi * (n + 1 - 2 * k) / (2 * n + 1)  # pi/2 - phi
    offset = psi - np.arcsin((1.0 - (n - 1) / (8.0 * n**3)) * np.sin(psi))
    edge = n * np.cos(psi) < GL_EDGE
    # the exact sum, folded onto j <= n/2 since its terms are symmetric in j <-> n - j
    g = np.cumprod(np.concatenate([[1.0], 1.0 - 0.5 / np.arange(1, n + 1)]))
    freq = n - 2 * np.arange(n // 2 + 1)
    coef = np.where(freq > 0, 2.0, 1.0) * (g * g[::-1])[: n // 2 + 1]
    # (n - 2j) phi_k = pi r / (4n + 2), r = (n - 2j)(4k - 1) reduced mod 8n + 4 in integers to |r| <= 4n + 2
    r = np.outer(4 * k[edge] - 1, freq) % (8 * n + 4)
    base = np.pi * np.where(r > 4 * n + 2, r - (8 * n + 4), r) / (4 * n + 2)
    # Stieltjes' expansion; C_n = (4/pi) prod_j j / (j + 1/2), summed in logs by math.fsum to keep it to a rounding
    m = np.arange(GL_TERMS)
    h = np.cumprod(np.concatenate([[1.0], (m[1:] - 0.5) ** 2 / (m[1:] * (n + m[1:] + 0.5))]))
    c_n = 4.0 / np.pi * math.exp(-math.fsum(np.log1p(0.5 / np.arange(1, n + 1))))
    # e^(i alpha_0) = e^(i pi (k - 1/2)) e^(i (n + 1/2) offset), since (n + 1/2) phi_k = pi (k - 1/4)
    phase = c_n * np.where(k % 2 == 1, 1j, -1j)[~edge]

    def evaluate(offset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p, slope = np.empty_like(offset), np.empty_like(offset)
        angles = base + np.outer(offset[edge], freq)
        p[edge], slope[edge] = np.cos(angles) @ coef, -np.sin(angles) @ (coef * freq)
        t = (phi + offset)[~edge]
        cot = 1.0 / np.tan(t)
        z = 0.5 - 0.5j * cot  # e^(i (theta - pi/2)) / (2 sin theta)
        q, zdq = np.zeros_like(z), np.zeros_like(z)  # sum_m h_m z^m and sum_m m h_m z^m, by Horner's rule
        for j in reversed(range(GL_TERMS)):
            q, zdq = q * z + h[j], zdq * z + j * h[j]
        amp = phase * np.exp(1j * (n + 0.5) * offset[~edge]) / np.sqrt(2.0 * np.sin(t))
        p[~edge] = (amp * q).real
        slope[~edge] = (amp * ((1j * (n + 0.5) - 0.5 * cot) * q + (1j - cot) * zdq)).real
        if n % 2:
            p[-1] = 0.0  # keeps the middle node's offset at 0: P_n at the rounded phi_k is noise, not 0
        return p, slope

    for _ in range(100):
        p, slope = evaluate(offset)
        step = p / slope
        offset = offset - step
        if np.max(np.abs(step)) <= 2.0 * EPS:
            break
    _, slope = evaluate(offset)
    x = np.sin(psi - offset)
    weights = 2.0 / slope**2
    # mirror onto the negative half; "+ 0.0" turns the middle node of an odd rule from -0.0 into 0.0
    nodes = np.concatenate([-x, x[::-1][n % 2 :]]) + 0.0
    return nodes, np.concatenate([weights, weights[::-1][n % 2 :]])


def dense_low_freq_model(sigma: float, eta: float, n_points: int = 2001, cutoff: float = 12.0) -> LowFreqModel:
    """High-resolution quadrature reference for the continuous noise model.

    Gauss-Legendre nodes on [-cutoff * sigma, cutoff * sigma] weighted by the
    Gaussian density.  At the default resolution the survival probabilities
    of circuits up to a few hundred gates are accurate to well below 1e-10,
    which makes this the independent reference against closed-form results
    and against coarse moment-matched models.
    """
    if sigma <= 0.0 or cutoff <= 0.0:
        raise ValueError(f"sigma and cutoff must be positive, got sigma={sigma}, cutoff={cutoff}")
    t, gw = gauss_legendre(n_points)
    half_width = cutoff * sigma
    lambdas = t * half_width
    density = np.exp(-(lambdas**2) / (2.0 * sigma * sigma)) / np.sqrt(2.0 * np.pi * sigma * sigma)
    weights = gw * half_width * density
    return _drift_model(lambdas, weights / weights.sum(), eta)


def constant_depolarizing_model(epsilon: float) -> LowFreqModel:
    """One-point model: gates H and S carry the same depolarizing rate."""
    return frozen_model([1.0], dict.fromkeys(DEFAULT_GATE_LABELS, [epsilon]))


def second_order_model(sigma: float, eta: float = 0.0, gate_gammas: Mapping[str, float] | None = None) -> LowFreqModel:
    """Two-point model matching the mean and two-time covariance of the drift.

    Support {-sigma, +sigma} with equal weights reproduces a centred variable
    of variance sigma^2; a per-gate decay exponent turns the covariance into
    ``sigma^2 exp(-sum gamma)`` over the gates in between, realised by
    ``transition_decay``.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not (gate_gammas is None or isinstance(gate_gammas, Mapping)):
        raise TypeError(f"gate_gammas must map gate labels to decay exponents, got {type(gate_gammas).__name__}")
    unknown = sorted(set(gate_gammas or {}) - set(DEFAULT_GATE_LABELS))
    if unknown:
        raise ValueError(f"gate_gammas names labels outside the gate set {list(DEFAULT_GATE_LABELS)}: {unknown}")
    transitions: dict[str, np.ndarray | None] = {}
    for label in DEFAULT_GATE_LABELS:
        gamma = 0.0 if gate_gammas is None else float(gate_gammas.get(label, 0.0))
        transitions[label] = None if gamma == 0.0 else transition_decay(gamma)
    return _drift_model(np.array([-sigma, sigma]), np.array([0.5, 0.5]), eta, transitions)


@dataclass(frozen=True)
class ContextModel(_BlockModel):
    """Device whose gate error depends on the preceding gate.

    The environment is a register over ``gate_labels``; after gate ``chi`` it
    deterministically holds ``chi``.  ``rates[chi][lam]`` is the depolarizing
    rate of gate ``chi`` after gate ``lam``, kept as ``rates[chi]``, an (m,)
    array over the register in label order; that array is accepted too.
    ``initial`` is the register distribution before the first gate (uniform
    by default).
    """

    gate_labels: tuple[str, ...]
    rates: Mapping[str, Mapping[str, float] | Sequence[float]]
    initial: np.ndarray | None = None

    def __post_init__(self) -> None:
        labels = tuple(self.gate_labels)
        twice = [g for i, g in enumerate(labels) if g in labels[:i]]
        if twice:
            raise ValueError(f"gate labels must be distinct, got {twice[0]!r} more than once in {list(labels)}")
        object.__setattr__(self, "gate_labels", labels)
        init = np.full(len(labels), 1.0 / len(labels)) if self.initial is None else self.initial
        object.__setattr__(self, "initial", np.asarray(init, dtype=float))
        given = {g: r if isinstance(r, Mapping) else dict(zip(labels, r, strict=True)) for g, r in self.rates.items()}
        for chi, lam in product(labels, labels):
            rate = given.get(chi, {}).get(lam)
            if rate is None or not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate of gate {chi!r} after {lam!r} must be in [0, 1], got {rate!r}")
        rates = {chi: np.array([given[chi][lam] for lam in labels], dtype=float) for chi in labels}
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "sys_ptms", {chi: depolarized_gates(chi, r) for chi, r in rates.items()})
        moves = np.eye(len(labels))[:, :, None] * np.ones(len(labels))  # gate j sets every register value to j
        object.__setattr__(self, "transitions", dict(zip(labels, moves)))
        object.__setattr__(self, "_block_cache", {})
        self._validate_blocks()

    @property
    def weights(self) -> np.ndarray:
        return self.initial
