"""Exact self-consistent tomography on the reachable operator subspace.

The device is probed only through its own gates: preparation fiducials are
gate sequences applied to the initial state, measurement fiducials are gate
sequences appended before readout.  With ``d`` fiducials per side one
measures the Gram matrix ``g[k, i] = <Q_k | rho_i>`` and, per gate ``chi``,
the matrix ``O~(chi)[k, i] = <Q_k| O(chi) |rho_i>``.

When the fiducials span the full reachable subspace (dimension ``d_V``) the
data reproduce every circuit outcome through the factorization

    M_out O(chi_N) ... O(chi_1) M_in  =  O~(chi_N) g^-1 ... g^-1 O~(chi_1),

which ``verify_factorization`` checks against direct simulation.  Both
sides, the fiducial frames and the predictions of a reconstructed model are
folded for many sequences at once by :func:`corrtomo.device.fold_gates`; the
data side folds through ``A_G = O~(G) g^-1``.  A concrete error model (state
vector, readout vector, one matrix per gate) follows from an arbitrary
invertible gauge choice ``M_in_hat``; all gauges predict identical outcomes
and are related by similarity transformations.

Reconstructed gate matrices act on the reachable subspace only and are not
constrained to be completely positive; no physicality projection is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .device import _gate_matrix, fold_gates

__all__ = [
    "FiducialSet",
    "TomographyData",
    "ErrorModel",
    "FactorizationReport",
    "ProtocolFailure",
    "select_fiducials",
    "pivot_columns",
    "fiducial_frames",
    "collect_data",
    "verify_factorization",
    "gauge_reconstruct",
    "gauge_transform",
    "predict",
]

COND_LIMIT = 1e8


class ProtocolFailure(RuntimeError):
    """Tomography data cannot be inverted (fiducials do not span the subspace)."""


GateSeq = tuple[str, ...]


@dataclass(frozen=True)
class FiducialSet:
    """Preparation and measurement gate sequences, one state/observable each.

    ``prep_sequences[i]`` prepares state i by running its gates on the initial
    state.  ``meas_sequences[k]`` realises observable k by appending its gates
    (in the stored order) after the main circuit and then reading out.  Both
    lists start with the empty sequence, i.e. the bare initial state and bare
    readout.
    """

    prep_sequences: tuple[GateSeq, ...]
    meas_sequences: tuple[GateSeq, ...]

    def __post_init__(self) -> None:
        prep = tuple(tuple(s) for s in self.prep_sequences)
        meas = tuple(tuple(s) for s in self.meas_sequences)
        if not prep or not meas:
            raise ValueError("fiducial sets must be nonempty")
        if prep[0] != () or meas[0] != ():
            raise ValueError("the first preparation and measurement fiducials must be the empty sequence")
        if len(prep) != len(meas):
            raise ValueError("need equally many preparation and measurement fiducials")
        object.__setattr__(self, "prep_sequences", prep)
        object.__setattr__(self, "meas_sequences", meas)

    @property
    def d(self) -> int:
        return len(self.prep_sequences)


@dataclass
class TomographyData:
    """Measured Gram matrix and per-gate matrices with provenance metadata."""

    gram: np.ndarray
    gate_mats: dict[str, np.ndarray]
    fiducials: FiducialSet
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        d = self.fiducials.d
        self.gram = np.asarray(self.gram, dtype=float)
        if self.gram.shape != (d, d):
            raise ValueError(f"Gram matrix shape {self.gram.shape} does not match fiducial count {d}")
        self.gate_mats = {k: np.asarray(v, dtype=float) for k, v in self.gate_mats.items()}

    def to_json(self) -> dict:
        return {
            "gram": self.gram.tolist(),
            "gate_mats": {k: v.tolist() for k, v in self.gate_mats.items()},
            "prep_sequences": [list(s) for s in self.fiducials.prep_sequences],
            "meas_sequences": [list(s) for s in self.fiducials.meas_sequences],
            "provenance": dict(self.provenance),
        }


@dataclass
class ErrorModel:
    """Gauge-fixed reconstruction: state vector, readout vector, one matrix per gate."""

    state: np.ndarray
    dual: np.ndarray
    gates: dict[str, np.ndarray]
    gauge: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.state = np.asarray(self.state, dtype=float).reshape(-1)
        self.dual = np.asarray(self.dual, dtype=float).reshape(-1)
        d = self.state.size
        if self.dual.size != d:
            raise ValueError("state and dual vectors must have the same length")
        self.gates = {k: np.asarray(v, dtype=float) for k, v in self.gates.items()}
        for label, mat in self.gates.items():
            if mat.shape != (d, d):
                raise ValueError(f"gate {label!r} has shape {mat.shape}, expected {(d, d)}")

    @property
    def d(self) -> int:
        return self.state.size

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "state": self.state.tolist(),
            "dual": self.dual.tolist(),
            "gates": {k: v.tolist() for k, v in self.gates.items()},
            "gauge": {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in self.gauge.items()},
        }

    @classmethod
    def from_json(cls, blob: Mapping) -> "ErrorModel":
        return cls(
            state=np.asarray(blob["state"], dtype=float),
            dual=np.asarray(blob["dual"], dtype=float),
            gates={k: np.asarray(v, dtype=float) for k, v in blob["gates"].items()},
            gauge=dict(blob.get("gauge", {})),
        )


def fiducial_frames(model, fiducials: FiducialSet) -> tuple[np.ndarray, np.ndarray]:
    """Exact fiducial vectors on the model's block space.

    Returns ``(M_out, M_in)``: the d x dim matrix of effective observables
    (rows) and the dim x d matrix of prepared states (columns).
    """
    labels = tuple(model.gate_labels)
    blocks = np.stack([model.gate_block(g) for g in labels])
    m_in = fold_gates(blocks, _gate_matrix(fiducials.prep_sequences, labels), model.rho_vec()).T.copy()
    m_out = fold_gates(blocks, _gate_matrix(fiducials.meas_sequences, labels), model.dual_vec(), right=True)
    return m_out, m_in


def pivot_columns(columns: np.ndarray, k: int) -> list[int]:
    """Column 0, then k - 1 more columns, each of largest residual norm.

    The residual of a column is what remains after projecting out the columns
    picked before it (modified Gram-Schmidt).  Exact ties go to the lowest
    index, and a column is never picked twice, even once all residuals vanish.
    """
    residual = np.array(columns, dtype=float)
    if not 1 <= k <= residual.shape[1]:
        raise ValueError(f"cannot pick {k} of {residual.shape[1]} columns")
    picks = [0]
    while len(picks) < k:
        norm = np.linalg.norm(residual[:, picks[-1]])
        if norm > 0.0:
            q = residual[:, picks[-1]] / norm
            residual -= np.outer(q, q @ residual)
        norms = np.einsum("ij,ij->j", residual, residual)
        norms[picks] = -1.0
        picks.append(int(np.argmax(norms)))
    return picks


def select_fiducials(model, pool: Sequence[GateSeq], d: int) -> FiducialSet:
    """Choose d preparation and d measurement fiducials that span the data space.

    The empty sequence is always kept first; the remaining picks maximise
    linear independence by greedy column pivoting (Businger-Golub) on the
    exact fiducial vectors of the pool: each pick is the candidate with the
    largest norm after projecting out the picks before it, the lowest pool
    index among exact ties.  Measurement candidates are the reversed pool
    sequences (a preparation sequence, read backwards, realises the matching
    Heisenberg-evolved observable).
    """
    pool = [tuple(s) for s in pool]
    if () in pool:
        pool.remove(())
    prep_pool = [()] + pool
    meas_pool = [()] + [tuple(reversed(s)) for s in pool]
    probe = FiducialSet(tuple(prep_pool), tuple(meas_pool))
    m_out, m_in = fiducial_frames(model, probe)

    prep_idx = pivot_columns(m_in, d)
    meas_idx = pivot_columns(m_out.T, d)
    return FiducialSet(
        tuple(prep_pool[i] for i in prep_idx),
        tuple(meas_pool[k] for k in meas_idx),
    )


def collect_data(
    model,
    fiducials: FiducialSet,
    gate_set: Sequence[str] | None = None,
    shots: int | None = None,
    seed: int | None = None,
) -> TomographyData:
    """Measure the Gram matrix and one matrix per gate on the device model.

    Every entry is the outcome of one circuit: preparation fiducial, an
    optional single gate, then the measurement fiducial.  Exact means by
    default; with ``shots`` each entry is binomially sampled with a seeded
    generator (entries are probabilities of reading |0>).
    """
    labels = tuple(gate_set) if gate_set is not None else tuple(model.gate_labels)
    m_out, m_in = fiducial_frames(model, fiducials)
    gram = m_out @ m_in
    gate_mats = {label: m_out @ model.gate_block(label) @ m_in for label in labels}
    provenance: dict = {"shots": shots, "seed": seed, "gate_set": list(labels)}
    if shots is not None:
        gen = np.random.default_rng(seed)
        gram = gen.binomial(shots, np.clip(gram, 0.0, 1.0)) / shots
        gate_mats = {k: gen.binomial(shots, np.clip(v, 0.0, 1.0)) / shots for k, v in gate_mats.items()}
    return TomographyData(gram=gram, gate_mats=gate_mats, fiducials=fiducials, provenance=provenance)


def _inv_with_cond(mat: np.ndarray, what: str, cond_limit: float = COND_LIMIT) -> tuple[np.ndarray, float]:
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > cond_limit:
        raise ProtocolFailure(f"{what} is numerically singular (condition number {cond:.3e})")
    return np.linalg.inv(mat), cond


@dataclass
class FactorizationReport:
    """Residuals of the data-only reconstruction against direct simulation."""

    max_residual: float
    residuals: np.ndarray
    cond_gram: float
    sequences: list[GateSeq]


def verify_factorization(
    data: TomographyData,
    model,
    sequences: Iterable[Sequence[str]],
) -> FactorizationReport:
    """Check that g and the per-gate matrices reproduce arbitrary sequences.

    For each test sequence the left side ``M_out O(chi_N) ... O(chi_1) M_in``
    is measured directly from the simulator and compared entrywise against
    the folded data product ``O~(chi_N) g^-1 ... g^-1 O~(chi_1)``.  Returns
    the per-sequence max-norm residuals; the identity is exact when the
    fiducials span the reachable subspace.
    """
    g_inv, cond = _inv_with_cond(data.gram, "Gram matrix")
    m_out, m_in = fiducial_frames(model, data.fiducials)
    seq_list: list[GateSeq] = [tuple(s) for s in sequences]
    labels = tuple(data.gate_mats)
    # a trailing pad column gives every row a first entry; an empty sequence's is the pad, started at g
    gates = np.pad(_gate_matrix(seq_list, labels), ((0, 0), (0, 1)), constant_values=len(labels))
    lhs = m_out @ fold_gates(np.stack([model.gate_block(g) for g in labels]), gates, m_in)
    tilde = np.stack([data.gate_mats[g] for g in labels])
    first = np.concatenate([tilde, data.gram[None]])[gates[:, 0]]
    rhs = fold_gates(tilde @ g_inv, gates[:, 1:], first)
    residuals_arr = np.max(np.abs(lhs - rhs), axis=(1, 2))
    return FactorizationReport(
        max_residual=float(residuals_arr.max()) if residuals_arr.size else 0.0,
        residuals=residuals_arr,
        cond_gram=cond,
        sequences=seq_list,
    )


def gauge_reconstruct(
    data: TomographyData,
    m_hat_in: np.ndarray | None = None,
    cond_limit: float = COND_LIMIT,
) -> ErrorModel:
    """Build an error model from tomography data in a chosen gauge.

    ``M_out_hat = g @ M_in_hat^-1``; the state is the first column of
    ``M_in_hat``, the readout the first row of ``M_out_hat``, and each gate
    ``M_out_hat^-1 O~(chi) M_in_hat^-1``.  The default gauge is the identity,
    where the readout row is the first row of g itself.
    """
    d = data.fiducials.d
    if m_hat_in is None:
        m_hat_in = np.eye(d)
    m_hat_in = np.asarray(m_hat_in, dtype=float)
    if m_hat_in.shape != (d, d):
        raise ValueError(f"gauge matrix must be {d} x {d}, got {m_hat_in.shape}")
    m_in_inv, cond_in = _inv_with_cond(m_hat_in, "gauge matrix", cond_limit)
    _, cond_g = _inv_with_cond(data.gram, "Gram matrix", cond_limit)
    m_hat_out = data.gram @ m_in_inv
    m_out_inv = m_hat_in @ np.linalg.inv(data.gram)
    gates = {label: m_out_inv @ tilde @ m_in_inv for label, tilde in data.gate_mats.items()}
    return ErrorModel(
        state=m_hat_in[:, 0],
        dual=m_hat_out[0, :],
        gates=gates,
        gauge={"m_hat_in": m_hat_in, "cond_m_hat_in": cond_in, "cond_gram": cond_g},
    )


def gauge_transform(error_model: ErrorModel, similarity: np.ndarray) -> ErrorModel:
    """Re-gauge an error model: state -> S state, dual -> dual S^-1, gates -> S gate S^-1."""
    s = np.asarray(similarity, dtype=float)
    d = error_model.d
    if s.shape != (d, d):
        raise ValueError(f"similarity must be {d} x {d}, got {s.shape}")
    s_inv, cond = _inv_with_cond(s, "similarity transformation", cond_limit=1e14)
    return ErrorModel(
        state=s @ error_model.state,
        dual=error_model.dual @ s_inv,
        gates={k: s @ v @ s_inv for k, v in error_model.gates.items()},
        gauge={**error_model.gauge, "similarity_cond": cond},
    )


def predict(error_model: ErrorModel, circuit: Sequence[str]) -> float:
    """Outcome the error model assigns to a circuit."""
    labels = tuple(error_model.gates)
    return float(_predictions(error_model, _gate_matrix([circuit], labels), labels)[0])


def _predictions(error_model: ErrorModel, gates: np.ndarray, labels: tuple[str, ...]) -> np.ndarray:
    """Outcomes the error model assigns to every row of a gate-index matrix over ``labels``."""
    mats = np.reshape([error_model.gates[g] for g in labels], (len(labels), error_model.d, error_model.d))
    return (error_model.dual @ fold_gates(mats, gates, error_model.state[:, None]))[:, 0]
