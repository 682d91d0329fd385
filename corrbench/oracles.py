"""Reference results computed apart from corrtomo.

Nothing in this module imports the package.  It holds the closed forms and
the small simulators that the benchmark checks the experiments' result files
against; ``test_oracles.py`` checks them against each other.

Conventions follow the package documentation: gates H and S with
S = diag(1, -i), |0> preparation and |0> readout, and depolarizing noise of
rate ``eta * (1 - x)`` at a frozen drift value with ``x = exp(-lambda^2)``.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

UNITARIES = {
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "S": np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex),
}
PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


# --------------------------------------------------------------------------
# Gaussian low-frequency drift
# --------------------------------------------------------------------------


def x_moment(sigma: float, k: int) -> float:
    """E[x^k] for x = exp(-lambda^2), lambda ~ N(0, sigma^2)."""
    return (1.0 + 2.0 * k * sigma * sigma) ** -0.5


def gaussian_survival(n_gates: int, sigma: float, eta: float) -> float:
    """Survival of an identity circuit of N gates under Gaussian drift.

    1/2 (1 + sum_k C(N, k) (1 - eta)^(N - k) eta^k (1 + 2 k sigma^2)^(-1/2)),
    the binomial expansion of E[(1 - eta (1 - x))^N].
    """
    total = sum(
        math.comb(n_gates, k) * (1.0 - eta) ** (n_gates - k) * eta**k * x_moment(sigma, k)
        for k in range(n_gates + 1)
    )
    return 0.5 * (1.0 + total)


def two_point_rule(sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the two-point rule matching E[x^k], k = 0..3.

    The nodes are the roots of the monic quadratic x^2 + a x + b orthogonal
    to 1 and x; the weights then follow from the first two moments.
    """
    mu = [x_moment(sigma, k) for k in range(4)]
    a, b = np.linalg.solve([[mu[1], mu[0]], [mu[2], mu[1]]], [-mu[2], -mu[3]])
    disc = math.sqrt(a * a - 4.0 * b)
    nodes = np.array([(-a - disc) / 2.0, (-a + disc) / 2.0])
    w1 = (mu[1] - nodes[0]) / (nodes[1] - nodes[0])
    return nodes, np.array([1.0 - w1, w1])


def drift_grid(sigma: float, n_quad: int = 600) -> tuple[np.ndarray, np.ndarray]:
    """Values of x on a Gauss-Legendre grid over lambda in [0, 12 sigma], with normalized weights.

    The integrands exp(-k lambda^2) are smooth on the half line, and by
    symmetry it carries the whole Gaussian; the tail beyond 12 sigma is
    below exp(-72).
    """
    t, w = np.polynomial.legendre.leggauss(n_quad)
    lam = 6.0 * sigma * (t + 1.0)
    w = w * np.exp(-0.5 * (lam / sigma) ** 2)
    return np.exp(-(lam**2)), w / w.sum()


def gauss_rule(sigma: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule of the distribution of x by the Stieltjes procedure.

    The recurrence coefficients are computed from inner products over the
    discretized distribution (``drift_grid``), never from raw moments.
    """
    x, w = drift_grid(sigma)
    alpha = np.zeros(m)
    beta = np.zeros(m)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    norm_prev = 1.0
    for k in range(m):
        norm = float(w @ (p * p))
        alpha[k] = float(w @ (x * p * p)) / norm
        beta[k] = norm / norm_prev if k > 0 else 1.0
        p_next = (x - alpha[k]) * p - (beta[k] if k > 0 else 0.0) * p_prev
        p_prev, p, norm_prev = p, p_next, norm
    jacobi = np.diag(alpha) + np.diag(np.sqrt(beta[1:]), 1) + np.diag(np.sqrt(beta[1:]), -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    return nodes, vecs[0, :] ** 2


# --------------------------------------------------------------------------
# Ideal gates
# --------------------------------------------------------------------------


def unitary_of(gates: Sequence[str]) -> np.ndarray:
    """Ideal unitary of a gate sequence; ``gates[0]`` acts first."""
    u = np.eye(2, dtype=complex)
    for label in gates:
        u = UNITARIES[label] @ u
    return u


def pauli_rotation(label: str) -> np.ndarray:
    """3x3 action of an ideal gate on the (X, Y, Z) Bloch components."""
    u = UNITARIES[label]
    return np.array(
        [[0.5 * np.trace(a @ u @ b @ u.conj().T).real for b in PAULIS] for a in PAULIS]
    )


def ideal_seven_gates() -> dict[str, np.ndarray]:
    """Ideal gates on the 7-dim space (identity profile, then X, Y, Z per drift point)."""
    out = {}
    for label in UNITARIES:
        mat = np.zeros((7, 7))
        mat[0, 0] = 1.0
        mat[1:4, 1:4] = pauli_rotation(label)
        mat[4:7, 4:7] = pauli_rotation(label)
        out[label] = mat
    return out


# --------------------------------------------------------------------------
# Plain density-matrix simulation with a classical environment
# --------------------------------------------------------------------------


def simulate(
    gates: Sequence[str],
    env_weights: Mapping[Hashable, float],
    rate: Callable[[str, Hashable], float],
    next_env: Callable[[str, Hashable], Hashable],
) -> float:
    """|0> probability after the gates, by 2x2 density matrices per environment value.

    Gate ``g`` at environment value ``e`` applies its unitary, then
    depolarizes with rate ``rate(g, e)``; the environment becomes
    ``next_env(g, e)``.
    """
    rhos = {e: w * np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex) for e, w in env_weights.items()}
    for g in gates:
        u = UNITARIES[g]
        new: dict = {}
        for e, rho in rhos.items():
            out = u @ rho @ u.conj().T
            eps = rate(g, e)
            out = (1.0 - eps) * out + eps * np.trace(out) * np.eye(2) / 2.0
            key = next_env(g, e)
            new[key] = new[key] + out if key in new else out
        rhos = new
    return float(sum(rho[0, 0].real for rho in rhos.values()))


def simulate_frozen(gates: Sequence[str], nodes: np.ndarray, weights: np.ndarray, eta: float) -> float:
    """Low-frequency drift frozen over the circuit, on an explicit rule in x."""
    return simulate(
        gates,
        dict(enumerate(weights)),
        lambda g, e: eta * (1.0 - nodes[e]),
        lambda g, e: e,
    )


def simulate_context(
    gates: Sequence[str], rates: Mapping[str, Mapping[str, float]], initial: Mapping[str, float]
) -> float:
    """Context noise: the rate of a gate depends on the previous gate (``rates[gate][previous]``)."""
    return simulate(gates, initial, lambda g, e: rates[g][e], lambda g, e: g)


def context_identity_survival(
    gates: Sequence[str], rates: Mapping[str, Mapping[str, float]], initial: Mapping[str, float]
) -> float:
    """1/2 sum_r p_r (1 + prod_i (1 - eps(g_i | g_{i-1}))) with g_0 = r, for identity circuits."""
    total = 0.0
    for r, p in initial.items():
        prod, prev = 1.0, r
        for g in gates:
            prod *= 1.0 - rates[g][prev]
            prev = g
        total += p * (1.0 + prod)
    return 0.5 * total


# --------------------------------------------------------------------------
# Random identity-equivalent circuits
# --------------------------------------------------------------------------


def _clifford_key(u: np.ndarray) -> tuple:
    flat = u.ravel()
    pivot = flat[np.argmax(np.abs(flat) > 1e-6)]
    v = flat * (abs(pivot) / pivot)
    return tuple(np.round(np.concatenate([v.real, v.imag]), 8))


def clifford_table(labels: Sequence[str] = ("H", "S")) -> tuple[np.ndarray, np.ndarray]:
    """Left-multiplication table of the group generated by the gates, modulo phase.

    Returns ``(table, fixes_zero)``: ``table[c, j]`` is the element reached by
    applying gate ``labels[j]`` after element ``c`` (element 0 is the
    identity), and ``fixes_zero[c]`` marks the elements that map |0> to |0>
    up to a phase.
    """
    elements = [np.eye(2, dtype=complex)]
    index = {_clifford_key(elements[0]): 0}
    table: list[list[int]] = []
    c = 0
    while c < len(elements):
        row = []
        for label in labels:
            u = UNITARIES[label] @ elements[c]
            key = _clifford_key(u)
            if key not in index:
                index[key] = len(elements)
                elements.append(u)
            row.append(index[key])
        table.append(row)
        c += 1
    fixes_zero = np.array([abs(abs(u[0, 0]) - 1.0) < 1e-9 for u in elements])
    return np.array(table), fixes_zero


def context_survival_moments(
    max_gates: int,
    rates: Mapping[str, Mapping[str, float]],
    initial: Mapping[str, float],
    labels: Sequence[str] = ("H", "S"),
) -> list[tuple[float, float]]:
    """(E[F], E[F^2]) over uniformly random identity-equivalent circuits of each length.

    F is the context-noise survival of one circuit.  Writing it as
    1/2 (1 + c(g_1) Q) with c(g) = sum_r p_r (1 - eps(g | r)) and Q the
    product over later gates, both moments follow from a dynamic program
    over (group element, last gate) that accumulates the probability mass,
    c Q and c^2 Q^2 of all uniformly drawn prefixes.  Entry N of the result
    is for circuits of N gates.
    """
    table, fixes_zero = clifford_table(labels)
    n_el, n_lab = table.shape[0], len(labels)
    out = [(1.0, 1.0)]
    mass = np.zeros((n_el, n_lab))
    first = np.zeros((n_el, n_lab))
    second = np.zeros((n_el, n_lab))
    for j, g in enumerate(labels):
        c = sum(p * (1.0 - rates[g][r]) for r, p in initial.items())
        el = table[0, j]
        mass[el, j] += 0.5
        first[el, j] += 0.5 * c
        second[el, j] += 0.5 * c * c
    for n in range(1, max_gates + 1):
        if n > 1:
            new_mass, new_first, new_second = (np.zeros_like(mass) for _ in range(3))
            for el in range(n_el):
                for k, prev in enumerate(labels):
                    if mass[el, k] == 0.0:
                        continue
                    for j, g in enumerate(labels):
                        f = 1.0 - rates[g][prev]
                        target = table[el, j]
                        new_mass[target, j] += 0.5 * mass[el, k]
                        new_first[target, j] += 0.5 * f * first[el, k]
                        new_second[target, j] += 0.5 * f * f * second[el, k]
            mass, first, second = new_mass, new_first, new_second
        kept = mass[fixes_zero].sum()
        cq = first[fixes_zero].sum() / kept
        c2q2 = second[fixes_zero].sum() / kept
        out.append((0.5 * (1.0 + cq), 0.25 * (1.0 + 2.0 * cq + c2q2)))
    return out


# --------------------------------------------------------------------------
# Bounds and likelihood
# --------------------------------------------------------------------------


def sequence_bound(n_q: float, n_rho: float, n_o: float, epsilon: float, n: int) -> float:
    """n_q n_rho ((n_o + eps)^N - n_o^N): compression error bound of an N-gate sequence."""
    return n_q * n_rho * ((n_o + epsilon) ** n - n_o**n)


def d7_trial_sequences(seed: int, labels: Sequence[str] = ("H", "S")) -> list[tuple[str, ...]]:
    """The documented "d7" trial set: every sequence of length 0..5, then four
    distinct seeded picks per length 6..20 (little-endian digit codes)."""
    seqs: list[tuple[str, ...]] = [()]
    frontier: list[tuple[str, ...]] = [()]
    for _ in range(5):
        frontier = [s + (g,) for s in frontier for g in labels]
        seqs.extend(frontier)
    gen = np.random.default_rng(seed)
    base = len(labels)
    for n in range(6, 21):
        for code in sorted(int(c) for c in gen.choice(base**n, size=4, replace=False)):
            seqs.append(tuple(labels[(code // base**i) % base] for i in range(n)))
    return seqs


class TrialRecords:
    """The circuits of a trial-set tomography run, in a form that is cheap to predict.

    Every circuit is (preparation sequence i, optional gate, reversed
    sequence k).  Stores the ideal Bloch z of each output, from 2x2 unitary
    folds, and the per-gate counts.
    """

    def __init__(self, sequences: Sequence[tuple[str, ...]], labels: Sequence[str] = ("H", "S")) -> None:
        self.labels = tuple(labels)
        prep = np.array([unitary_of(s)[:, 0] for s in sequences])  # (n, 2)
        meas = np.array([unitary_of(tuple(reversed(s))) for s in sequences])  # (n, 2, 2)
        middles = [np.eye(2, dtype=complex)] + [UNITARIES[g] for g in self.labels]
        seq_counts = np.array([[s.count(g) for g in self.labels] for s in sequences], dtype=float)
        z_parts, count_parts = [], []
        for j, mid in enumerate(middles):
            psi = np.einsum("kab,bc,ic->kia", meas, mid, prep)  # (meas k, prep i, 2)
            z_parts.append((np.abs(psi[..., 0]) ** 2 - np.abs(psi[..., 1]) ** 2).ravel())
            gate = np.zeros(len(self.labels))
            if j > 0:
                gate[j - 1] = 1.0
            counts = seq_counts[:, None, :] + seq_counts[None, :, :] + gate
            count_parts.append(counts.reshape(-1, len(self.labels)))
        self.z = np.concatenate(z_parts)
        self.counts = np.concatenate(count_parts)

    def __len__(self) -> int:
        return self.z.size

    def predict(self, weights: np.ndarray, eps: Mapping[str, np.ndarray]) -> np.ndarray:
        """Means of depolarizing-after-unitary noise with per-gate rates at each frozen point.

        Depolarizing noise commutes with unitaries, so the output is the
        ideal one with its Bloch vector shrunk by prod_G (1 - eps_G)^(n_G).
        """
        rates = np.stack([np.asarray(eps[g], dtype=float) for g in self.labels])  # (gates, points)
        damping = np.exp(self.counts @ np.log1p(-rates))  # (records, points)
        return 0.5 * (1.0 + self.z * (damping @ np.asarray(weights, dtype=float)))


def negative_log_likelihood(predicted: np.ndarray, means: np.ndarray, sigma_floor: float) -> float:
    """sum (predicted - mean)^2 / sigma^2 for exact records, whose variance is the floor."""
    return float(np.sum((predicted - means) ** 2) / sigma_floor**2)
