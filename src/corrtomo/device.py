"""Gate-sequence execution on block noise models.

The "device" is a model from :mod:`corrtomo.noise`.  A circuit is a tuple
(or any sequence) of gate labels, the first applied first, acting on
``|0><0|`` with the model's environment attached; the measured quantity is
the probability of reading ``|0>`` at the end.  State preparation and
measurement are error free.

Exact mode returns the weighted average over the environment; sampled mode
draws a binomial with a seeded generator.  Depolarizing noise commutes with
H and S, so when the environment is frozen within a circuit (low-frequency
drift) or holds the last gate (context noise), a circuit's mean has one
closed form, ``(1 + z sum_r w_r exp(sum_j F_j T[j, r])) / 2``.  Here ``z``
is the Bloch z value of the ideal output, ``w`` the environment weights,
``F_j`` the count of feature ``j`` among the circuit's gates and ``T`` holds
``log(1 - eps)`` by feature and environment value.  A frozen model's
feature is the gate's label.  A context model's is ``chi n + lam`` for gate
``chi`` after gate ``lam`` (its rate in any register value) and ``n^2 + g``
for the first gate ``g`` (its rate in each register value).  The likelihood
fit of :mod:`corrtomo.mle` uses the frozen features.  Models with stochastic
transitions fold the block matrices.

:func:`exact_means` evaluates many circuits at once over a padded gate-index
matrix, by the closed form or one :func:`fold_gates` call, the fold that
every batched sequence evaluation in the package uses, always from the
left: at each gate position, one product per label over the rows that hold
it, never a copy of a gate per row.  :func:`run_circuit` walks one circuit
gate by gate through the signed-axis table into the same closed-form
evaluator, and takes models with transitions to :func:`exact_means`; the
survival curve takes each exact mean from it, as the benchmark's tracer
counts it, and draws a length's shots in one call.  The evaluator takes
each circuit as its own one-row product, never a matrix product over the
batch, so a circuit's mean has the same bits alone or in any batch; it
takes ``exp`` only of exponents not below ``UNDERFLOW`` and leaves the
others exactly 0, as ``exp`` rounds them.
What does not depend on the circuit is computed once per model and kept on
it: the gate blocks, and for the closed form the signed-axis table of each
gate, the table ``T`` and :func:`run_circuit`'s memo of means by (signed-axis
state, feature counts), so a repeated key costs a lookup, not an evaluation.

The survival experiment draws uniformly random gate sequences and keeps only
those whose ideal action returns ``|0>`` up to a global phase, so the ideal
survival probability is one and any decay is attributable to noise.  The
ideal action is computed in integers: H and S permute the six signed Bloch
axes, so a lookup table per gate folds a whole batch of draws at once, one
gate position at a time, and the check is exact.  The batched draws read the
random stream exactly as one draw per sequence would, so the accepted
circuits and the generator's final state do not depend on the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .noise import ContextModel
from .ptm import GATE_UNITARIES, ideal_qubit_ptms

__all__ = [
    "MeasurementRecord",
    "RejectionSamplingError",
    "run_circuit",
    "exact_means",
    "fold_gates",
    "random_identity_sequences",
    "survival_curve",
    "analytic_survival",
    "returns_to_zero",
]

MEAN_SLACK = 1e-9
RATE_CLAMP = 1e-12
#: Exponents below this have an ``exp`` that rounds to exactly 0: it is below ln(2^-1075) ~ -745.13.
UNDERFLOW = -746.0


@dataclass(frozen=True)
class MeasurementRecord:
    """One circuit with its measured mean and variance.

    ``shots is None`` marks an exact record (variance zero).  Sampled records
    carry the smoothed binomial variance estimate, which is strictly positive.
    """

    circuit: tuple[str, ...]
    mean: float
    variance: float
    shots: int | None = None

    def __post_init__(self) -> None:
        if self.shots is None:
            if self.variance != 0.0:
                raise ValueError("exact records must have zero variance")
        elif self.variance <= 0.0:
            raise ValueError("sampled records must have positive variance")


class RejectionSamplingError(RuntimeError):
    """Raised when too few identity-equivalent sequences are found."""

    def __init__(self, message: str, accepted: int, tried: int) -> None:
        super().__init__(message)
        self.accepted = accepted
        self.tried = tried


def _gate_matrix(sequences: Sequence[Sequence[str]], labels: tuple[str, ...]) -> np.ndarray:
    """Int8 matrix of gate indices into ``labels``, padded with ``len(labels)``; KeyError for other gates."""
    index = {g: j for j, g in enumerate(labels)}
    lengths = np.fromiter(map(len, sequences), dtype=np.intp, count=len(sequences))
    try:
        flat = np.fromiter(map(index.__getitem__, chain.from_iterable(sequences)), dtype=np.int8, count=lengths.sum())
    except KeyError as err:
        raise KeyError(f"unknown gate label {err.args[0]!r}") from None
    gates = np.full((len(sequences), lengths.max(initial=0)), len(labels), dtype=np.int8)
    gates[np.arange(gates.shape[1]) < lengths[:, None]] = flat  # row-major fill
    return gates


def fold_gates(mats: Sequence[np.ndarray], gates: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``mats[g_last] ... mats[g_first] @ start`` for every row ``g`` of a gate-index matrix.

    ``mats`` is any sequence of one ``n x n`` matrix per label.  At each position, each label's matrix
    multiplies the rows that hold it, with no copy per row; the pad ``len(mats)`` matches no label, may
    stand anywhere and leaves the value bit for bit.  ``start`` is one ``n x c`` matrix shared by all
    rows, or a stack of one per row; the result stacks one ``n x c`` matrix per row.  A row-vector fold
    ``q @ B_last ... B_first`` is this fold of the transposes ``B.T`` (views) over the reversed rows.
    """
    value = np.broadcast_to(np.asarray(start, dtype=float), (len(gates), *np.shape(start)[-2:])).copy()
    for column in gates.T:
        for label, mat in enumerate(mats):
            rows = np.flatnonzero(column == label)
            value[rows] = mat @ value[rows]
    return value


def _ideal_features(gates: np.ndarray, labels: tuple[str, ...], context: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless output's Bloch z (exactly -1, 0 or 1) and the closed form's feature counts of every row.

    The features are the labels, or with ``context`` the pairs ``chi n + lam`` and then the first gates
    ``n^2 + g``, over rows whose pads all stand at the end.
    """
    z_ideal = _AXES[_fold_signed_axes(_signed_axis_table(labels), gates), 2]
    n = len(labels)
    index = gates.astype(np.int16)  # holds n^2 + n for the up to 127 labels of an int8 gate matrix
    if context:
        index[:, 1:] = n * index[:, 1:] + gates[:, :-1]
        index[:, :1] += n * n
        index[gates == n] = n * n + n
    counts = np.zeros((len(gates), n * n + n if context else n), dtype=np.intp)  # no labels: no columns
    for j, column in enumerate(counts.T):
        column[:] = np.count_nonzero(index == j, axis=1)
    return z_ideal, counts


def exact_means(model, circuits: Sequence[Sequence[str]]) -> np.ndarray:
    """Exact readout probability of every circuit on the model."""
    labels = tuple(model.gate_labels)
    gates = _gate_matrix(circuits, labels)
    if model.identity_transitions or isinstance(model, ContextModel):
        z_ideal, counts = _ideal_features(gates, labels, context=not model.identity_transitions)
        means = _closed_form_means(model.weights, _closed_form_tables(model)[1], z_ideal, counts)
    else:
        blocks = [model.gate_block(g) for g in labels]
        means = (model.dual_vec() @ fold_gates(blocks, gates, model.rho_vec()[:, None]))[:, 0]
    if not np.all((-MEAN_SLACK <= means) & (means <= 1.0 + MEAN_SLACK)):
        raise ValueError(f"model produced means {means.min():.17g} .. {means.max():.17g}, not all in [0, 1]")
    return means


def _log_damping(rates: np.ndarray) -> np.ndarray:
    """log(1 - eps) of every rate, with eps clipped to [0, 1 - RATE_CLAMP]."""
    return np.log1p(-np.clip(rates, 0.0, 1.0 - RATE_CLAMP))


def _damping(rates: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """prod_G (1 - eps_G(lam))^n_G for every record (row) and value (column).

    ``rates`` is (n_gates, m), or a stack of them, which stacks the result.
    """
    return np.exp(counts @ _log_damping(rates))


def _closed_form_means(weights: np.ndarray, table: np.ndarray, z_ideal, counts) -> np.ndarray:
    """``(1 + z sum_r w_r exp(sum_j F_j T[j, r])) / 2`` for feature counts ``F``, one row or a stack of them.

    Every row is its own one-row product, whose bits do not depend on the rows beside it, as a matrix product's do.
    ``exp`` skips exponents below ``UNDERFLOW``, leaving the exact 0 it would give them; a NaN is not below it.
    """
    exponents = np.asarray(counts, dtype=float)[..., None, :] @ table
    damped = np.exp(exponents, out=np.zeros_like(exponents), where=~(exponents < UNDERFLOW))
    return 0.5 * (1.0 + z_ideal * (damped @ weights)[..., 0])


def _closed_form_tables(model) -> tuple[dict[str, list[int]], np.ndarray, dict[tuple, float]]:
    """A model's signed-axis table rows by label, closed-form table ``T`` by feature and :func:`run_circuit`'s memo."""
    cache = model._block_cache
    if _TABLES_KEY not in cache:
        labels = tuple(model.gate_labels)
        table = _log_damping(np.stack([model.rates[g] for g in labels]))
        if not model.identity_transitions:  # the pairs in any register value, then the first gates
            table = np.vstack([np.repeat(table.reshape(-1, 1), model.m, axis=1), table])
        cache[_TABLES_KEY] = dict(zip(labels, _signed_axis_table(labels).tolist())), table, {}
    return cache[_TABLES_KEY]


def run_circuit(
    model,
    circuit: Sequence[str],
    shots: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> MeasurementRecord:
    """Execute one circuit; exact mean or a binomial sample of it.

    The initial state is |0><0| with the model's environment distribution and
    the readout is the |0> probability.  With ``shots`` given, the mean is
    ``Binomial(shots, p) / shots`` drawn from ``rng`` (a Generator or a seed)
    and the variance is the smoothed estimate ptilde (1 - ptilde) / shots
    with ptilde = (k + 1) / (shots + 2).
    """
    circuit = tuple(circuit)
    frozen = model.identity_transitions
    if frozen or isinstance(model, ContextModel):  # the closed form, from the signed-axis walk
        rows, table, memo = _closed_form_tables(model)
        state = _PLUS_Z
        try:
            for label in circuit:
                state = rows[label][state]
        except KeyError as err:
            raise KeyError(f"unknown gate label {err.args[0]!r}") from None
        if frozen:
            counts = [circuit.count(g) for g in rows]
        else:
            n = len(rows)
            index = list(map(dict(zip(rows, range(n))).__getitem__, circuit))
            counts = [0] * (n * n + n)
            for chi, lam in zip(index[1:], index):
                counts[n * chi + lam] += 1
            if index:
                counts[n * n + index[0]] = 1
        key = state, tuple(counts)
        if key not in memo:
            memo[key] = float(_closed_form_means(model.weights, table, _AXES[state, 2], counts))
        mean = memo[key]
    else:
        mean = float(exact_means(model, [circuit])[0])
    if not -MEAN_SLACK <= mean <= 1.0 + MEAN_SLACK:
        raise ValueError(f"model produced mean {mean!r} outside [0, 1]; the model is inconsistent")
    if shots is None:
        return MeasurementRecord(circuit=circuit, mean=mean, variance=0.0, shots=None)
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    k = int(np.random.default_rng(rng).binomial(shots, min(max(mean, 0.0), 1.0)))  # a Generator passes unaltered
    smoothed = (k + 1.0) / (shots + 2.0)
    return MeasurementRecord(circuit=circuit, mean=k / shots, variance=smoothed * (1.0 - smoothed) / shots, shots=shots)


#: The six signed Bloch axes; state ``s`` of the integer fold is ``_AXES[s]``.
_AXES = np.vstack([np.eye(3), -np.eye(3)])

#: Fold state of ``|0>``, the +z axis.
_PLUS_Z = 2

#: Key of :func:`_closed_form_tables` in a model's ``_block_cache``; gate labels are strings.
_TABLES_KEY = ("closed form",)

#: Most gate indices drawn in one rejection-sampling batch (8 MiB of int64).
_MAX_BATCH_GATES = 1 << 20


@lru_cache(maxsize=8)
def _signed_axis_table(gate_labels: tuple[str, ...]) -> np.ndarray:
    """``table[j, s]``: the state after gate ``gate_labels[j]`` acts on state ``s``.

    Exact, because H and S permute the signed axes.  The last row is the
    identity, used to pad short circuits.  Cached and read-only: building it
    costs more than sampling a few short sequences.
    """
    ideal = ideal_qubit_ptms()
    images = [_AXES @ ideal[g][1:, 1:].T @ _AXES.T for g in gate_labels] + [_AXES @ _AXES.T]
    table = np.argmax(images, axis=2).astype(np.int8)
    table.flags.writeable = False
    return table


def _fold_signed_axes(table: np.ndarray, gates: np.ndarray, start=_PLUS_Z) -> np.ndarray:
    """Final signed-axis state of every row of a gate-index matrix, started at ``start`` (+z).

    ``start`` is one state, or a column ``(s, 1)`` of them that gives every row's image of each,
    ``(s, rows)``.  One ``take`` per gate position from the flat table at ``6 * gate + state``,
    over a transposed copy of the matrix in the smallest type that holds them.
    """
    dtype = np.min_scalar_type(table.size - 1)
    flat = table.ravel().astype(dtype)
    offsets = gates.T.astype(dtype, order="C")
    offsets *= table.shape[1]
    state = np.full(np.shape(start)[:-1] + gates.shape[:1], start, dtype=dtype)
    for column in offsets:
        state = flat.take(column + state)
    return state


def returns_to_zero(gates: Sequence[str]) -> bool:
    """True when the ideal action maps |0> back to |0> up to a global phase."""
    labels = tuple(GATE_UNITARIES)
    return bool(_fold_signed_axes(_signed_axis_table(labels), _gate_matrix([gates], labels))[0] == _PLUS_Z)


def random_identity_sequences(
    n_gates: int,
    count: int,
    seed: int | np.random.Generator | np.random.SeedSequence | None = None,
    gate_labels: Sequence[str] = ("H", "S"),
    max_tries_per_circuit: int = 1000,
) -> list[tuple[str, ...]]:
    """Uniformly random length-``n_gates`` sequences whose ideal action fixes |0>.

    Rejection sampling with a deterministic generator: gates are drawn
    uniformly and a sequence is kept iff the noiseless circuit returns |0>
    up to phase.  Sequences are drawn a batch at a time as one
    ``(k, n_gates)`` index matrix and accepted through the integer
    signed-axis fold.  The result and the generator's final state are those
    of drawing one ``gen.integers(size=n_gates)`` per sequence: the batch
    holding the last acceptance needed is drawn again from its saved state,
    only up to that row.  Raises RejectionSamplingError with acceptance
    statistics if the cap of ``count * max_tries_per_circuit`` draws is
    exhausted.
    """
    if n_gates < 0:
        raise ValueError(f"n_gates must be nonnegative, got {n_gates}")
    if max_tries_per_circuit < 1:
        raise ValueError(f"max_tries_per_circuit must be >= 1, got {max_tries_per_circuit}")
    gen = np.random.default_rng(seed)
    labels = tuple(gate_labels)
    if n_gates == 0:
        return [()] * count
    table = _signed_axis_table(labels)
    accepted: list[tuple[str, ...]] = []
    tried = 0
    cap = count * max_tries_per_circuit
    while len(accepted) < count:
        if tried >= cap:
            raise RejectionSamplingError(
                f"accepted {len(accepted)}/{count} sequences of length {n_gates} "
                f"after {tried} draws (acceptance rate {len(accepted) / tried:.4f})",
                accepted=len(accepted),
                tried=tried,
            )
        needed = count - len(accepted)
        batch = min(max(8 * needed, 64), max(_MAX_BATCH_GATES // n_gates, 1), cap - tried)
        saved = gen.bit_generator.state
        draws = gen.integers(0, len(labels), size=(batch, n_gates))
        hits = np.flatnonzero(_fold_signed_axes(table, draws) == _PLUS_Z)[:needed]
        if hits.size == needed:
            # rewind so the generator stops right after the last sequence kept
            batch = int(hits[-1]) + 1
            gen.bit_generator.state = saved
            draws = gen.integers(0, len(labels), size=(batch, n_gates))
        tried += batch
        accepted.extend(map(tuple, np.array(labels, dtype=object)[draws[hits]].tolist()))
    return accepted


def survival_curve(
    model,
    n_gates_list: Sequence[int],
    circuits_per_point: int = 200,
    shots: int | None = None,
    seed: int | None = 0,
) -> list[dict]:
    """Mean |0> probability of random identity-equivalent circuits per length.

    Returns one row per entry of ``n_gates_list`` with keys ``n_gates``,
    ``mean``, ``stderr``, ``circuits``, ``shots``, ``seed``.  Circuits are
    drawn from per-length seeds spawned off ``seed``.  With ``shots``, circuit
    ``i``'s count is the ``i``-th value of one binomial draw per length, from a
    generator seeded by a second seed spawned off the same per-length seed.
    """
    if len(n_gates_list) == 0:
        raise ValueError("n_gates_list must be nonempty")
    if circuits_per_point <= 0:
        raise ValueError("circuits_per_point must be positive")
    if shots is not None and shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    root = np.random.SeedSequence(seed)
    per_point = root.spawn(len(n_gates_list))
    rows: list[dict] = []
    for n_gates, seq in zip(n_gates_list, per_point):
        draw_seed, shot_seed = seq.spawn(2)
        circuits = random_identity_sequences(
            int(n_gates), circuits_per_point, seed=np.random.default_rng(draw_seed)
        )
        arr = np.array([run_circuit(model, c).mean for c in circuits])
        if shots is not None:
            arr = np.random.default_rng(shot_seed).binomial(shots, np.clip(arr, 0.0, 1.0)) / shots
        rows.append(
            {
                "n_gates": int(n_gates),
                "mean": float(arr.mean()),
                "stderr": float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0,
                "circuits": int(arr.size),
                "shots": shots,
                "seed": seed,
            }
        )
    return rows


def analytic_survival(n_gates: int, sigma: float) -> float:
    """Closed-form survival for maximal noise strength (eta = 1).

    Each gate at frozen drift value lambda multiplies the traceless part by
    exp(-lambda^2); averaging the resulting (1 + exp(-N lambda^2)) / 2 over
    the Gaussian gives (1 + (1 + 2 N sigma^2)^(-1/2)) / 2.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n_gates < 0:
        raise ValueError(f"n_gates must be nonnegative, got {n_gates}")
    return 0.5 * (1.0 + (1.0 + 2.0 * n_gates * sigma * sigma) ** -0.5)
