"""Truncation and inversion error bounds, checked empirically.

If the span of the preparation fiducials is only approximately invariant
under the gates, replacing every gate ``O`` by its compression ``P O P``
changes any measured sequence by at most

    N_Q N_rho [ (N_O + eps)^N - N_O^N ],

where ``eps`` bounds the invariance defect ``|| P O P - O P ||`` and
``N_Q, N_rho, N_O`` bound the fiducial and gate norms.  The linear-inversion
variant adds a Gram mismatch ``eps_g``:

    N_Q N_rho [ (1 + eps_g)^(N-1) (N_O + eps_O)^N - N_O^N ].

Both right-hand sides are evaluated here, and ``empirical_bound_check``
verifies the first against direct simulation over seeded random sequences,
folding all of them together one gate position at a time; when the
compression is built from the fiducials themselves the Gram mismatch
vanishes identically, which ``gram_gauge_defect`` measures.

Norms come in two flavours.  The trace-induced norm treats state vectors by
the trace norm of the operator they represent and observables by the
spectral norm, which makes every trace-preserving positive gate a
contraction (``N_O = 1``); it is evaluated exactly on states/duals and, for
gate matrices, by a deterministic search over the extreme points of the unit
ball: a sphere grid whose best points are refined together by a vectorized
compass search.  The Frobenius norm is offered for comparison and reduces to
Euclidean/spectral norms of the coefficient arrays.

Dimension-counting helpers: a qubit with a stationary m-point environment
explores ``3 m + 1`` directions; matching moments up to order ``l`` needs
``ceil((l+1)/2)`` points for one variable and ``C(n + l, l)`` cubature
points for ``n`` variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, floor, isfinite

import numpy as np

from .device import fold_gates
from .tomography import FiducialSet, fiducial_frames

__all__ = [
    "Projection",
    "BoundCheckReport",
    "projection_from_vectors",
    "invariance_defect",
    "operation_norm",
    "dual_norm",
    "ket_norm",
    "sequence_bound",
    "lim_bound",
    "empirical_bound_check",
    "gram_gauge_defect",
    "effective_dimension",
    "min_support",
    "cubature_count",
]

IDEMPOTENCE_TOL = 1e-12
NORM_KINDS = ("trace", "frobenius")


@dataclass(frozen=True)
class Projection:
    """Orthogonal projection with an explicit orthonormal spanning set."""

    basis: np.ndarray  # dim x k, orthonormal columns
    matrix: np.ndarray  # dim x dim, symmetric idempotent

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=float)
        p = np.asarray(self.matrix, dtype=float)
        if np.max(np.abs(p - p.T)) > IDEMPOTENCE_TOL:
            raise ValueError("projection matrix is not symmetric")
        if np.max(np.abs(p @ p - p)) > IDEMPOTENCE_TOL:
            raise ValueError("projection matrix is not idempotent")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "matrix", p)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def projection_from_vectors(vectors: np.ndarray) -> Projection:
    """Orthogonal projection onto the span of the given column vectors, at numerical rank (relative tolerance 1e-12)."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    basis = u[:, : np.count_nonzero(s > 1e-12 * (s[0] if s.size else 1.0))]
    return Projection(basis=basis, matrix=basis @ basis.T)


# ---------------------------------------------------------------------------
# Norms on the block coefficient space (m qubit blocks of 4 components).
# ---------------------------------------------------------------------------


def _split_blocks(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = vec.reshape(-1, 4)
    return v[:, 0], np.linalg.norm(v[:, 1:], axis=1)


def ket_norm(vec: np.ndarray, norm_kind: str = "trace") -> float:
    """Norm of a state-side vector (trace norm or Frobenius of the operator)."""
    vec = np.asarray(vec, dtype=float)
    if norm_kind == "trace":
        c0, cv = _split_blocks(vec)
        return float(np.sum(np.maximum(np.abs(c0), cv)))
    if norm_kind == "frobenius":
        return float(np.linalg.norm(vec) / np.sqrt(2.0))
    raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {norm_kind!r}")


def dual_norm(vec: np.ndarray, norm_kind: str = "trace") -> float:
    """Norm of an observable-side vector (spectral norm or Frobenius)."""
    vec = np.asarray(vec, dtype=float)
    if norm_kind == "trace":
        a0, av = _split_blocks(vec)
        return float(np.max(np.abs(a0) + av))
    if norm_kind == "frobenius":
        return float(np.linalg.norm(vec) * np.sqrt(2.0))
    raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {norm_kind!r}")


def _bloch(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)


def _fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform directions on the unit sphere, (n, 3)."""
    i = np.arange(n) + 0.5
    return _bloch(np.arccos(1.0 - 2.0 * i / n), np.pi * (1.0 + np.sqrt(5.0)) * i)


def _pure_state_norms(cols: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Output trace norms, (..., k), of pure inputs concentrated at one environment value:
    ``cols`` (..., 4m, 4) are the operation's columns there, ``dirs`` (..., k, 3) the inputs' Bloch vectors."""
    out = cols[..., :1] + cols[..., 1:] @ dirs.swapaxes(-1, -2)
    out = out.reshape(*out.shape[:-2], -1, 4, out.shape[-1])
    return np.sum(np.maximum(np.abs(out[..., 0, :]), np.sqrt(np.sum(out[..., 1:, :] ** 2, axis=-2))), axis=-2)


# Compass stencil on (theta, phi): the four axis steps and the four diagonals.
_COMPASS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)
N_GRID = 2048  # sphere points per environment value
REFINE_FIRST_STEP = 0.05  # radians; the 2048-point grid spacing is about 0.08
REFINE_LAST_STEP = 1e-11


def _trace_norms(mats: np.ndarray) -> np.ndarray:
    """Trace-induced norms of a (K, 4m, 4m) stack, searched together as in ``operation_norm``.
    Each start runs on its own, so a norm has the bits of its matrix's search alone."""
    k, m = len(mats), mats.shape[-1] // 4
    if mats.shape[1:] != (4 * m, 4 * m):
        raise ValueError(f"operation must act on stacked qubit blocks, got shape {mats.shape[1:]}")
    cols = mats.reshape(k, 4 * m, m, 4).transpose(0, 2, 1, 3)  # (matrix, lam, row, component)
    dirs = _fibonacci_sphere(N_GRID)
    grid = _pure_state_norms(cols, np.broadcast_to(dirs, (k, m, N_GRID, 3)))
    top = np.argsort(grid, axis=2)[..., -4:]
    best = np.take_along_axis(grid, top, axis=2).ravel()
    start = dirs[top.ravel()]
    cols = cols.reshape(k * m, 4 * m, 4)[np.arange(k * m).repeat(4)]  # the column block of each start
    theta = np.arccos(np.clip(start[:, 2], -1.0, 1.0))
    phi = np.arctan2(start[:, 1], start[:, 0])
    step = np.full(best.size, REFINE_FIRST_STEP)
    while (live := np.flatnonzero(step >= REFINE_LAST_STEP)).size:
        t = theta[live, None] + step[live, None] * _COMPASS[:, 0]
        p = phi[live, None] + step[live, None] * _COMPASS[:, 1]
        vals = _pure_state_norms(cols[live], _bloch(t, p))
        rows, j = np.arange(live.size), vals.argmax(axis=1)
        up = vals[rows, j] > best[live]
        theta[live] = np.where(up, t[rows, j], theta[live])
        phi[live] = np.where(up, p[rows, j], phi[live])
        best[live] = np.where(up, vals[rows, j], best[live])
        step[live] = np.where(up, step[live], 0.5 * step[live])
    return best.reshape(k, -1).max(axis=1)


def operation_norm(matrix: np.ndarray, norm_kind: str = "trace") -> float:
    """Induced norm of an operation on the block space.

    Frobenius: the spectral norm of the coefficient matrix.  Trace: maximum
    output trace norm over the extreme points of the unit ball (pure states
    concentrated at one environment value).  The four best points of a
    deterministic sphere grid per environment value are refined together by
    a compass search on their Bloch angles: one batched product per
    iteration evaluates every running start's eight neighbours; a start
    moves to an improving neighbour or halves its step, and stops once its
    step is below ``REFINE_LAST_STEP``.  Accurate to ~1e-9 relative.
    """
    mat = np.asarray(matrix, dtype=float)
    if norm_kind == "frobenius":
        return float(np.linalg.norm(mat, 2))
    if norm_kind != "trace":
        raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {norm_kind!r}")
    return float(_trace_norms(mat[None])[0])


def invariance_defect(projection: Projection, transfer_matrix: np.ndarray, norm_kind: str = "trace") -> float:
    """How far the subspace is from being closed under the operation.

    The norm of ``P O P - O P``: zero iff the subspace is exactly invariant.
    """
    p = projection.matrix
    mat = np.asarray(transfer_matrix, dtype=float)
    if mat.shape != p.shape:
        raise ValueError(f"operation shape {mat.shape} does not match projection shape {p.shape}")
    delta = p @ mat @ p - mat @ p
    return operation_norm(delta, norm_kind)


def sequence_bound(n_q: float, n_rho: float, n_o: float, epsilon: float, n: int) -> float:
    """Worst-case entrywise effect of compressing every gate of an N-step sequence."""
    if min(n_q, n_rho, n_o, epsilon) < 0.0 or n < 0:
        raise ValueError("all bound arguments must be nonnegative")
    return float(n_q * n_rho * ((n_o + epsilon) ** n - n_o**n))


def lim_bound(n_q: float, n_rho: float, n_o: float, eps_g: float, eps_o: float, n: int) -> float:
    """Worst-case entrywise error of the inverted-Gram data product for N gates.

    With the projective construction the Gram mismatch term vanishes
    (``eps_g = 0``) and the expression collapses to ``sequence_bound``.
    """
    if min(n_q, n_rho, n_o, eps_g, eps_o) < 0.0 or n < 0:
        raise ValueError("all bound arguments must be nonnegative")
    lead = (1.0 + eps_g) ** max(n - 1, 0)
    return float(n_q * n_rho * (lead * (n_o + eps_o) ** n - n_o**n))


def gram_gauge_defect(model, fiducials: FiducialSet) -> float:
    """Gram mismatch of the projective compression: || M_in g^-1 M_out P - P ||.

    Identically zero (up to roundoff) whenever the compression subspace is
    the span of the fiducials themselves, which is the corollary that lets
    ``lim_bound`` be used with ``eps_g = 0``.
    """
    m_out, m_in = fiducial_frames(model, fiducials)
    proj = projection_from_vectors(m_in)
    g = m_out @ m_in
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            f"Gram matrix is numerically singular (condition number {cond:.3e}); "
            "the fiducials do not independently span their subspace"
        )
    expr = m_in @ np.linalg.solve(g, m_out @ proj.matrix) - proj.matrix
    return float(np.linalg.norm(expr, 2))


@dataclass
class BoundCheckReport:
    """Per-sequence comparison of measured truncation error against the bound."""

    lhs: np.ndarray
    rhs: np.ndarray
    ratios: np.ndarray
    epsilon: float
    n_q: float
    n_rho: float
    n_o: float
    norm_kind: str
    violations: list[int] = field(default_factory=list)
    sequences: list[tuple[str, ...]] = field(default_factory=list)

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max()) if self.ratios.size else 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        ordered = np.sort(self.ratios).tolist()
        return {
            "norm_kind": self.norm_kind,
            "epsilon": self.epsilon,
            "n_q": self.n_q,
            "n_rho": self.n_rho,
            "n_o": self.n_o,
            "max_ratio": _finite_or_none(self.max_ratio),
            "violations": self.violations,
            "lhs": self.lhs.tolist(),
            "rhs": self.rhs.tolist(),
            "ratio_percentiles": {
                str(q): _finite_or_none(_percentile(ordered, q)) if ordered else 0.0 for q in (50, 90, 99, 100)
            },
        }


def _finite_or_none(value: float) -> float | None:
    """``value``, or None (JSON ``null``) where it is NaN or infinite, which strict JSON cannot hold."""
    return value if isfinite(value) else None


def _percentile(ordered: list[float], q: float) -> float:
    """``np.percentile`` of sorted values at ``q``, bit for bit, without the ``numpy.ma`` import it costs.

    NumPy's linear rule: at virtual index ``(n - 1) q / 100``, between its
    neighbours ``a`` and ``b`` at fraction ``t``, ``a + (b - a) t``, or
    ``b - (b - a) (1 - t)`` when ``t >= 0.5``.  At or past the last index both
    neighbours are the last value, at fraction ``index + 1``.  An ``inf``
    neighbour gives NaN wherever NumPy's ``inf - inf`` does.
    """
    index = (len(ordered) - 1) * (q / 100)
    low = floor(index) if index < len(ordered) - 1 else -1
    a, b = ordered[low], ordered[low + 1 if low >= 0 else -1]
    t = index - low
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def empirical_bound_check(
    model,
    fiducials: FiducialSet,
    n_sequences: int = 1000,
    max_len: int = 20,
    seed: int | None = 0,
    norm_kind: str = "trace",
) -> BoundCheckReport:
    """Verify the compression bound on seeded random gate sequences.

    The compression subspace is the span of the preparation fiducials (the
    setting in which the bound applies); ``eps`` and the norm constants are
    measured from the model and fiducials, never assumed.  For each random
    sequence the measured matrix of the full chain is compared entrywise with
    the chain compressed after every gate, and the max-norm difference is
    checked against ``sequence_bound``.  Any violation is reported with the
    offending sequence.

    ``seed`` draws all lengths, then a row of ``max_len`` gates per sequence cut to its length, so
    a seed's sequences depend on ``n_sequences`` and ``max_len``.  One fold of the gates ``O`` gives the
    full chains and one of the compressed gates ``P O`` from ``P M_in`` the compressed ones, and the
    gates' and defects' norms come from one search.
    """
    if n_sequences < 0 or max_len < 1:
        raise ValueError(f"need n_sequences >= 0 and max_len >= 1, got {n_sequences} and {max_len}")
    m_out, m_in = fiducial_frames(model, fiducials)
    proj = projection_from_vectors(m_in)
    labels = tuple(model.gate_labels)
    blocks = np.stack([model.gate_block(l) for l in labels])
    p = proj.matrix
    mats = np.concatenate([p @ blocks @ p - blocks @ p, blocks])  # the invariance defects, then the gates
    norms = _trace_norms(mats) if norm_kind == "trace" else np.array([operation_norm(mat, norm_kind) for mat in mats])
    eps, n_o = (float(part.max()) for part in np.split(norms, 2))
    n_q = max(dual_norm(row, norm_kind) for row in m_out)
    n_rho = max(ket_norm(col, norm_kind) for col in m_in.T)
    gen = np.random.default_rng(seed)
    lengths = gen.integers(1, max_len + 1, size=n_sequences)
    gate_idx = gen.integers(0, len(labels), size=(n_sequences, max_len))
    gate_idx[np.arange(max_len) >= lengths[:, None]] = len(labels)  # padded past each length
    seqs = [tuple(map(labels.__getitem__, row[:n])) for row, n in zip(gate_idx.tolist(), lengths.tolist())]
    bound_by_len = np.array([sequence_bound(n_q, n_rho, n_o, eps, n) for n in range(max_len + 1)])
    rhs = bound_by_len[lengths]
    full = fold_gates(blocks, gate_idx, m_in)
    compressed = fold_gates(p @ blocks, gate_idx, p @ m_in)  # P O(chi_N) ... P O(chi_1) P M_in
    lhs = np.max(np.abs(m_out @ (full - compressed)), axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lhs <= 1e-12, 0.0, np.where(rhs > 0.0, lhs / rhs, np.inf))  # 0 within the slack: roundoff
    violations = np.flatnonzero(lhs > rhs * (1.0 + 1e-9) + 1e-12).tolist()
    return BoundCheckReport(
        lhs=lhs,
        rhs=rhs,
        ratios=ratios,
        epsilon=eps,
        n_q=n_q,
        n_rho=n_rho,
        n_o=n_o,
        norm_kind=norm_kind,
        violations=violations,
        sequences=seqs,
    )


def effective_dimension(d_s: int, m: int) -> int:
    """Reachable vector-space dimension of a d_s-level system with a stationary m-point environment."""
    if d_s < 2 or m < 1:
        raise ValueError("need d_s >= 2 and m >= 1")
    return (d_s * d_s - 1) * m + 1


def min_support(l_t: int) -> int:
    """Smallest support size reproducing moments up to order l_t of one variable."""
    if l_t < 0:
        raise ValueError("moment order must be nonnegative")
    return (l_t + 2) // 2


def cubature_count(n_lambda: int, l_t: int) -> int:
    """Gaussian cubature point count for n_lambda variables up to order l_t."""
    if n_lambda < 1 or l_t < 0:
        raise ValueError("need n_lambda >= 1 and l_t >= 0")
    return comb(n_lambda + l_t, l_t)
