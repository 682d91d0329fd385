"""Circuit execution, random identity sequences, survival curves."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import corrtomo as ct
from conftest import block_loop_mean, frozen_fold_mean, ideal_output_state, loop_fold, sequences_up_to
from corrtomo.device import (
    _AXES,
    _PLUS_Z,
    RATE_CLAMP,
    UNDERFLOW,
    MeasurementRecord,
    RejectionSamplingError,
    _closed_form_tables,
    _fold_signed_axes,
    _gate_matrix,
    _ideal_features,
    _signed_axis_table,
    exact_means,
    fold_gates,
    returns_to_zero,
)
from corrtomo.experiments import build_model


def sequential_identity_sequences(n_gates, count, gen, gate_labels=("H", "S"), max_tries_per_circuit=1000):
    """Reference sampler: one draw per sequence, kept by the state-vector fold.

    Returns the accepted gate tuples and the number of draws; stops early,
    like the cap of the sampler under test, after count * max_tries draws.
    """
    accepted, tried = [], 0
    while len(accepted) < count and tried < count * max_tries_per_circuit:
        gates = tuple(gate_labels[i] for i in gen.integers(0, len(gate_labels), size=n_gates))
        tried += 1
        if abs(ideal_output_state(gates)[0]) >= 1.0 - 1e-9:
            accepted.append(gates)
    return accepted, tried


def assert_memo_holds(model, circuits, means):
    """run_circuit's memo on the model holds one mean per distinct (signed-axis state, feature counts) key of
    the circuits, and some key recurs in another gate order."""
    labels = tuple(model.gate_labels)
    gates = _gate_matrix(circuits, labels)
    states = _fold_signed_axes(_signed_axis_table(labels), gates).tolist()
    counts = _ideal_features(gates, labels, context=not model.identity_transitions)[1].tolist()
    keys = [(s, tuple(c)) for s, c in zip(states, counts)]
    assert _closed_form_tables(model)[2] == dict(zip(keys, means))
    first = {}
    assert any(first.setdefault(k, c) != c for k, c in zip(keys, circuits))


#: gate labels whose length-1 acceptance is 1/16, so that batches run short
RARE_S = ("H",) * 15 + ("S",)


class TestRunCircuit:
    def test_empty_circuit(self, device_m5):
        assert ct.run_circuit(device_m5, ()).mean == pytest.approx(1.0, abs=1e-12)

    def test_double_hadamard_noiseless(self, noiseless):
        assert ct.run_circuit(noiseless, ("H", "H")).mean == pytest.approx(1.0, abs=1e-12)

    def test_full_strength_matches_closed_form_within_cubature_order(self):
        model = ct.build_low_freq_model(1.0, 1.0, 5)
        for n in range(10):
            circuit = ct.random_identity_sequences(n, 1, seed=n)[0]
            got = ct.run_circuit(model, circuit).mean
            assert got == pytest.approx(ct.analytic_survival(n, 1.0), abs=1e-12)

    def test_full_strength_matches_closed_form_on_dense_grid(self):
        dense = ct.dense_low_freq_model(1.0, 1.0)
        for n in (15, 40, 100):
            circuit = ct.random_identity_sequences(n, 1, seed=n)[0]
            got = ct.run_circuit(dense, circuit).mean
            assert got == pytest.approx(ct.analytic_survival(n, 1.0), abs=1e-9)

    def test_unknown_gate(self, device_m5):
        with pytest.raises(KeyError):
            ct.run_circuit(device_m5, ("H", "T"))

    def test_sampled_records_have_positive_variance(self, device_m5):
        rec = ct.run_circuit(device_m5, ("H", "H"), shots=200, rng=1)
        assert rec.shots == 200
        assert rec.variance > 0.0
        assert 0.0 <= rec.mean <= 1.0

    def test_sampling_is_seed_deterministic(self, device_m5):
        a = ct.run_circuit(device_m5, ("H", "S", "S", "H"), shots=100, rng=42)
        b = ct.run_circuit(device_m5, ("H", "S", "S", "H"), shots=100, rng=42)
        assert a.mean == b.mean

    def test_exact_record_invariants(self):
        with pytest.raises(ValueError):
            MeasurementRecord((), 1.0, 0.1, None)
        with pytest.raises(ValueError):
            MeasurementRecord((), 1.0, 0.0, 100)


FROZEN_MODELS = {
    "low_freq-m5": lambda: ct.build_low_freq_model(1.0, 0.02, 5),
    # 1,320 of each gate's 2,001 rates are exactly 1.0, so the rate clamp is exercised
    "dense-eta1": lambda: ct.dense_low_freq_model(1.0, 1.0),
    "constant": lambda: ct.constant_depolarizing_model(0.03),
    "second_order": lambda: ct.second_order_model(0.5, 0.1),
    # the builders give H and S the same rates; this model tells the gate counts apart
    "per_gate_rates": lambda: ct.LowFreqModel(
        support=[-1.0, 0.0, 1.0], weights=[0.25, 0.5, 0.25],
        rates={"H": [0.01, 0.0, 0.05], "S": [0.002, 0.03, 0.2]}, transitions={"H": None, "S": None},
    ),
}


class TestFrozenClosedForm:
    """Closed-form means of frozen models against the einsum fold of the per-point gate stacks."""

    @pytest.mark.parametrize("kind", sorted(FROZEN_MODELS))
    def test_matches_einsum_fold(self, kind):
        model = FROZEN_MODELS[kind]()
        assert model.identity_transitions
        gen = np.random.default_rng(11)
        circuits = [()]
        circuits += [c for n in (1, 2, 7, 40, 100) for c in ct.random_identity_sequences(n, 3, seed=gen)]
        circuits += [tuple(gen.choice(["H", "S"], size=n)) for n in (1, 2, 3, 10, 33, 100) for _ in range(3)]
        assert any(not returns_to_zero(c) for c in circuits)
        for gates in circuits:
            assert ct.run_circuit(model, gates).mean == pytest.approx(frozen_fold_mean(model, gates), abs=1e-13)

    def test_exponents_that_underflow_give_the_bits_of_plain_exp(self):
        model = ct.dense_low_freq_model(1.0, 1.0)
        assert model.m == 2001
        circuits = [c for n in range(0, 1001, 50) for c in ct.random_identity_sequences(n, 2, seed=n)]
        labels = tuple(model.gate_labels)
        table = np.log1p(-np.clip(np.stack([model.rates[g] for g in labels]), 0.0, 1.0 - RATE_CLAMP))
        exponents = np.array([[c.count(g) for g in labels] for c in circuits], dtype=float)[:, None, :] @ table
        damped = np.exp(exponents)
        # normal results, results too small for a normal double, and results that round to 0
        assert np.any(damped >= np.finfo(float).tiny)
        assert np.any((0.0 < damped) & (damped < np.finfo(float).tiny))
        assert np.any((damped == 0.0) & (exponents < UNDERFLOW))
        assert np.any((damped == 0.0) & (exponents >= UNDERFLOW))
        want = (0.5 * (1.0 + (damped @ model.weights)[:, 0])).tolist()
        assert exact_means(model, circuits).tolist() == want
        assert [ct.run_circuit(model, c).mean for c in circuits] == want

    def test_nan_rate_is_not_masked_to_zero(self):
        model = ct.build_low_freq_model(1.0, 0.02, 5)
        model.rates["H"][2] = np.nan  # build_low_freq_model checks its rates; the closed form reads them when first run
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ct.run_circuit(model, ("H", "H"))
        with pytest.raises(ValueError, match=r"not all in \[0, 1\]"):
            exact_means(model, [("H", "H")])

    def test_dense_eta1_clamps_saturated_rates(self):
        dense = ct.dense_low_freq_model(1.0, 1.0)
        assert sum(int(np.sum(rates == 1.0)) for rates in dense.rates.values()) == 2 * 1320


@st.composite
def fold_cases(draw):
    """Gate stacks of 1-3 gates of size 1-8, as an array or a list, a gate-index matrix over some of
    them with pads anywhere, a start and a side."""
    n_labels, n, k, width, c = (draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 8), (0, 5), (0, 6), (1, 3)))
    entries = st.floats(-2.0, 2.0, allow_nan=False)  # includes -0.0, which a pad must keep
    mats = draw(arrays(float, (n_labels, n, n), elements=entries))
    held = draw(st.lists(st.integers(0, n_labels), min_size=1, unique=True))  # n_labels is the pad
    gates = draw(arrays(np.int8, (k, width), elements=st.sampled_from(held)))
    right = draw(st.booleans())
    shape = draw(st.sampled_from([(n,), (c, n) if right else (n, c), (k, c, n) if right else (k, n, c)]))
    return draw(st.sampled_from([mats, list(mats)])), gates, draw(arrays(float, shape, elements=entries)), right


class TestFoldGates:
    @given(fold_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sequence_loop_bit_for_bit(self, case):
        mats, gates, start, right = case
        got = fold_gates(mats, gates, start, right=right)
        want = loop_fold(mats, gates, start, right=right)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_pads_keep_negative_zero(self):
        mats = np.eye(2)[None]
        got = fold_gates(mats, np.array([[1, 0, 1], [1, 1, 1]]), np.array([-0.0, 1.0]))
        assert np.signbit(got[:, 0]).tolist() == [False, True]


CONTEXT = {
    "kind": "context",
    "labels": ["H", "S"],
    "rates": {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}},
    "initial": [0.5, 0.5],
}


def context_model(rates, initial):
    return ct.ContextModel(gate_labels=("H", "S"), rates=rates, initial=np.array(initial))


EXACT_MEANS_MODELS = {
    "low_freq": lambda: ct.build_low_freq_model(1.0, 0.02, 5),
    "constant": lambda: ct.constant_depolarizing_model(0.03),
    "second_order": lambda: ct.second_order_model(1.0, 0.1, gate_gammas={"H": 0.3, "S": 1.0}),
    "context": lambda: build_model(CONTEXT),
    "dense": lambda: ct.dense_low_freq_model(1.0, 1.0, n_points=301),
}


class TestExactMeans:
    @pytest.mark.parametrize("kind", sorted(EXACT_MEANS_MODELS))
    def test_every_short_circuit(self, kind):
        model = EXACT_MEANS_MODELS[kind]()
        circuits = sequences_up_to(6)
        got = exact_means(model, circuits)
        if model.identity_transitions:
            want = [frozen_fold_mean(model, c) for c in circuits]
            assert np.max(np.abs(got - want)) <= 1e-14
        elif isinstance(model, ct.ContextModel):  # the closed form, against the block fold
            want = [block_loop_mean(model, c) for c in circuits]
            assert np.max(np.abs(got - want)) <= 1e-14
        else:
            assert got.tolist() == [block_loop_mean(model, c) for c in circuits]
        assert [ct.run_circuit(model, c).mean for c in circuits] == got.tolist()

    @pytest.mark.parametrize("kind", ["low_freq", "constant", "dense", "dense-eta1", "context"])
    def test_same_bits_alone_or_in_a_batch(self, kind):
        # the survival circuits of lengths 0-100, one at a time as survival_curve runs them, and in either order
        model = {**EXACT_MEANS_MODELS, **FROZEN_MODELS}[kind]()
        circuits = [c for n in range(0, 101, 10) for c in ct.random_identity_sequences(n, 200, seed=n)]
        # reversed identity circuits: a frozen model's key again, in another gate order
        circuits += [c[::-1] for c in circuits[::20]]
        got = exact_means(model, circuits).tolist()
        assert [ct.run_circuit(model, c).mean for c in circuits] == got
        assert exact_means(model, circuits[::-1]).tolist() == got[::-1]
        assert_memo_holds(model, circuits, got)

    def test_unknown_label(self, device_m5):
        with pytest.raises(KeyError, match="unknown gate label 'T'"):
            exact_means(device_m5, [("H",), ("S", "T")])

    @pytest.mark.parametrize("kind", ["per_gate_rates", "context"])
    def test_each_model_keeps_its_own_tables(self, kind):
        # two models of one closed form that differ only in their rates, run alternately
        def make(scale):
            if kind == "context":
                rates = {chi: {lam: scale * r for lam, r in row.items()} for chi, row in CONTEXT["rates"].items()}
                return context_model(rates, [0.3, 0.7])
            model = FROZEN_MODELS[kind]()
            return dataclasses.replace(model, rates={g: scale * r for g, r in model.rates.items()})

        a, b = make(1.0), make(0.5)
        circuits = [c for n in (1, 3, 20) for c in ct.random_identity_sequences(n, 3, seed=n)]
        # SHHSS and its reverse share a context key; HSSH and SSHH share counts but end in other states
        circuits += [tuple("SHHSS"), tuple("HSSH"), tuple("SSHH")]
        circuits += [c[::-1] for c in circuits]
        # references from fresh models, whose tables no run_circuit call has built
        want = [exact_means(make(scale), circuits).tolist() for scale in (1.0, 0.5)]
        assert all(x != y for x, y in zip(*want))
        for i, gates in enumerate(circuits):
            assert [ct.run_circuit(model, gates).mean for model in (a, b)] == [want[0][i], want[1][i]]
        assert [exact_means(model, circuits).tolist() for model in (a, b)] == want
        # each model's memo holds its own means only
        assert _closed_form_tables(a)[2] is not _closed_form_tables(b)[2]
        for model, means in zip((a, b), want):
            assert_memo_holds(model, circuits, means)


class TestContextClosedForm:
    """Closed-form means of context models against the block fold, and run_circuit against exact_means."""

    @pytest.mark.parametrize("initial", [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    def test_random_circuits_up_to_100_gates(self, initial):
        model = context_model(CONTEXT["rates"], initial)
        gen = np.random.default_rng(5)
        circuits = [c for n in (1, 2, 10, 37, 64, 100) for c in ct.random_identity_sequences(n, 5, seed=gen)]
        circuits += [tuple(gen.choice(["H", "S"], size=n)) for n in (1, 3, 20, 99, 100) for _ in range(3)]
        got = exact_means(model, circuits)
        assert np.max(np.abs(got - [block_loop_mean(model, c) for c in circuits])) <= 2e-14
        # one row at a time, as survival_curve runs them, and in batches of other sizes
        assert [ct.run_circuit(model, c).mean for c in circuits] == got.tolist()
        assert exact_means(model, circuits[::-1]).tolist() == got.tolist()[::-1]
        assert exact_means(model, circuits[:7]).tolist() == got.tolist()[:7]

    def test_saturated_rate_stays_within_the_clamp(self):
        model = context_model({"H": {"H": 1.0, "S": 0.3}, "S": {"H": 0.0, "S": 1.0}}, [0.5, 0.5])
        circuits = sequences_up_to(6)
        got = exact_means(model, circuits)
        want = [block_loop_mean(model, c) for c in circuits]
        assert np.max(np.abs(got - want)) <= RATE_CLAMP
        assert [ct.run_circuit(model, c).mean for c in circuits] == got.tolist()

    def test_unknown_label(self):
        model = build_model(CONTEXT)
        with pytest.raises(KeyError, match="unknown gate label 'T'"):
            ct.run_circuit(model, ("H", "T"))
        with pytest.raises(KeyError, match="unknown gate label 'T'"):
            exact_means(model, [("H",), ("S", "T")])


class TestIdentitySequences:
    def test_zero_length(self):
        circuits = ct.random_identity_sequences(0, 3, seed=0)
        assert all(len(c) == 0 for c in circuits)

    def test_length_one_acceptance(self):
        # the phase gate fixes |0> up to phase, the Hadamard does not
        assert returns_to_zero(("S",))
        assert not returns_to_zero(("H",))
        circuits = ct.random_identity_sequences(1, 20, seed=7)
        assert all(c == ("S",) for c in circuits)

    def test_length_two_accepted_set(self):
        # enumerate all four candidates against the state-vector oracle
        accepted = {g for g in [("H", "H"), ("H", "S"), ("S", "H"), ("S", "S")] if returns_to_zero(g)}
        assert accepted == {("H", "H"), ("S", "S")}
        circuits = ct.random_identity_sequences(2, 50, seed=3)
        assert set(circuits) <= accepted

    def test_global_phase_is_ignored(self):
        # S S S S = diag(1, -1)^2 = identity up to phase at every step on |0>
        psi = ideal_output_state(("S", "S", "S"))
        assert abs(abs(psi[0]) - 1.0) < 1e-12

    def test_deterministic_by_seed(self):
        a = ct.random_identity_sequences(8, 10, seed=5)
        b = ct.random_identity_sequences(8, 10, seed=5)
        assert a == b

    def test_rejection_cap_reported(self):
        with pytest.raises(RejectionSamplingError) as err:
            ct.random_identity_sequences(1, 5, seed=0, gate_labels=("H",), max_tries_per_circuit=20)
        assert err.value.tried == 100
        assert err.value.accepted == 0

    @pytest.mark.parametrize("max_tries", [0, -1])
    def test_rejects_nonpositive_try_cap(self, max_tries):
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="max_tries_per_circuit"):
            ct.random_identity_sequences(3, 2, seed=gen, max_tries_per_circuit=max_tries)
        assert gen.bit_generator.state == state  # rejected before drawing

    def test_pinned_sequences(self):
        # recorded from the one-draw-per-sequence sampler
        got = ct.random_identity_sequences(10, 5, seed=0)
        assert ["".join(g) for g in got] == [
            "SSSHHHHHHS", "SSSSSSSSSS", "HSSHHSSHSS", "HSHHSSHHSH", "HSSHHSSHSS"
        ]
        got = ct.random_identity_sequences(25, 2, seed=2)
        assert ["".join(g) for g in got] == ["SSHHSSSHHHSHHSSSHSSSHHSSS", "SSSHHSHSHHSSSSHSSHHHSHHHS"]

    @pytest.mark.parametrize("n_gates", [0, 1, 2, 3, 5, 10, 37, 100])
    @pytest.mark.parametrize("count", [1, 5, 200])
    def test_matches_sequential_reference(self, n_gates, count):
        gen, ref_gen = np.random.default_rng(n_gates + count), np.random.default_rng(n_gates + count)
        got = ct.random_identity_sequences(n_gates, count, seed=gen)
        want, _ = sequential_identity_sequences(n_gates, count, ref_gen)
        assert got == want
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_short_batches_match_sequential_reference(self):
        # acceptance 1/16: the first batch runs short and a second one is drawn
        gen, ref_gen = np.random.default_rng(3), np.random.default_rng(3)
        got = ct.random_identity_sequences(1, 40, seed=gen, gate_labels=RARE_S)
        want, tried = sequential_identity_sequences(1, 40, ref_gen, gate_labels=RARE_S)
        assert tried > 8 * 40
        assert got == want
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_memory_capped_batches_match_sequential_reference(self, monkeypatch):
        # batches of at most 3 rows: many short batches, same circuits and stream
        monkeypatch.setattr("corrtomo.device._MAX_BATCH_GATES", 30)
        gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
        got = ct.random_identity_sequences(10, 25, seed=gen)
        want, _ = sequential_identity_sequences(10, 25, ref_gen)
        assert got == want
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_shared_generator_stream(self):
        # a caller interleaving its own draws with the sampler's sees one stream
        gen, ref_gen = np.random.default_rng(77), np.random.default_rng(77)
        for _ in range(30):
            n = int(gen.integers(1, 40))
            assert n == int(ref_gen.integers(1, 40))
            got = ct.random_identity_sequences(n, 3, seed=gen)
            want, _ = sequential_identity_sequences(n, 3, ref_gen)
            assert got == want
            assert gen.binomial(300, 0.7) == ref_gen.binomial(300, 0.7)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize(
        "n_gates, count, labels, batch_gates",
        [(10, 200, ("H", "S"), None), (1, 40, RARE_S, None), (10, 25, ("H", "S"), 30), (50, 300, ("S", "H"), None)],
        ids=["HS", "rare-S", "memory-capped", "SH-long"],
    )
    def test_label_tuples_match_per_row_map(self, monkeypatch, n_gates, count, labels, batch_gates):
        # the accepted rows of every folded batch, converted one row at a time by the former per-row map
        folds = []

        def recording_fold(table, gates):
            states = _fold_signed_axes(table, gates)
            folds.append((gates.copy(), states))
            return states

        monkeypatch.setattr("corrtomo.device._fold_signed_axes", recording_fold)
        if batch_gates is not None:
            monkeypatch.setattr("corrtomo.device._MAX_BATCH_GATES", batch_gates)
        gen, ref_gen = np.random.default_rng(n_gates), np.random.default_rng(n_gates)
        got = ct.random_identity_sequences(n_gates, count, seed=gen, gate_labels=labels)
        rows = itertools.chain.from_iterable(gates[states == _PLUS_Z].tolist() for gates, states in folds)
        want = [tuple(map(labels.__getitem__, row)) for row in itertools.islice(rows, count)]
        assert got == want
        assert all(a is b for c, w in zip(got, want) for a, b in zip(c, w))
        sequential_identity_sequences(n_gates, count, ref_gen, gate_labels=labels)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize(
        "n_gates, count, labels, max_tries",
        [(1, 5, ("H",), 20), (1, 10, RARE_S, 12), (6, 30, ("H", "S"), 2)],
        ids=["starved", "partly-filled-two-batches", "partly-filled-one-batch"],
    )
    def test_cap_counts_match_sequential_reference(self, n_gates, count, labels, max_tries):
        with pytest.raises(RejectionSamplingError) as err:
            ct.random_identity_sequences(
                n_gates, count, seed=5, gate_labels=labels, max_tries_per_circuit=max_tries
            )
        want, tried = sequential_identity_sequences(
            n_gates, count, np.random.default_rng(5), gate_labels=labels, max_tries_per_circuit=max_tries
        )
        assert len(want) < count
        assert (err.value.accepted, err.value.tried) == (len(want), tried)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("labels", [("H", "S"), ("S",), RARE_S], ids=["HS", "S", "rare-S"])
    def test_signed_axis_fold_matches_per_row_loop(self, labels, dtype):
        table = _signed_axis_table(labels)
        gen = np.random.default_rng(3)
        for shape in [(200, 30), (5, 0), (0, 4)]:
            gates = gen.integers(0, len(labels) + 1, size=shape).astype(dtype)  # the pad len(labels) anywhere
            want = []
            for row in gates.tolist():
                state = _PLUS_Z
                for g in row:
                    state = int(table[g, state])
                want.append(state)
            assert _fold_signed_axes(table, gates).tolist() == want

    def test_signed_axis_table_against_state_vectors(self):
        # every H/S sequence of length <= 8: the fold lands on the Bloch vector of the
        # state-vector simulation, and returns_to_zero agrees with it
        labels = ("H", "S")
        table = _signed_axis_table(labels)
        for n in range(9):
            seqs = list(itertools.product(range(2), repeat=n))
            states = _fold_signed_axes(table, np.array(seqs, dtype=np.intp).reshape(len(seqs), n))
            for seq, state in zip(seqs, states):
                gates = tuple(labels[i] for i in seq)
                a, b = ideal_output_state(gates)
                bloch = [2 * (np.conj(a) * b).real, 2 * (np.conj(a) * b).imag, abs(a) ** 2 - abs(b) ** 2]
                np.testing.assert_allclose(_AXES[state], bloch, atol=1e-12)
                assert returns_to_zero(gates) == (abs(a) >= 1.0 - 1e-9)


class TestSurvivalCurve:
    def test_noise_free_stays_at_one(self, noiseless):
        rows = ct.survival_curve(noiseless, [0, 3, 7], circuits_per_point=5, seed=0)
        assert all(row["mean"] == pytest.approx(1.0, abs=1e-12) for row in rows)

    @pytest.mark.parametrize("eps", [0.01, 0.5])
    def test_constant_depolarizing_closed_form(self, eps):
        model = ct.constant_depolarizing_model(eps)
        rows = ct.survival_curve(model, [0, 1, 5, 20, 100], circuits_per_point=3, seed=1)
        for row in rows:
            want = 0.5 * (1.0 + (1.0 - eps) ** row["n_gates"])
            assert row["mean"] == pytest.approx(want, abs=1e-12)

    def test_monotone_decay(self, device_m5):
        rows = ct.survival_curve(device_m5, list(range(0, 60, 6)), circuits_per_point=4, seed=2)
        means = [row["mean"] for row in rows]
        assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))

    def test_correlated_decay_is_log_convex(self):
        # log(2F - 1) strictly convex for the drifting model, exactly linear
        # for the constant-rate model
        dense = ct.dense_low_freq_model(1.0, 1.0, 501)
        ns = np.arange(0, 30, 3)
        f = np.array([ct.run_circuit(dense, ct.random_identity_sequences(int(n), 1, seed=int(n))[0]).mean for n in ns])
        logs = np.log(2 * f - 1)
        second = np.diff(logs, 2)
        assert np.all(second > 1e-6)
        const = ct.constant_depolarizing_model(0.05)
        f1 = np.array([ct.run_circuit(const, ct.random_identity_sequences(int(n), 1, seed=int(n))[0]).mean for n in ns])
        second1 = np.diff(np.log(2 * f1 - 1), 2)
        assert np.max(np.abs(second1)) < 1e-12

    def test_sampled_means_near_exact(self, device_m5):
        rows_exact = ct.survival_curve(device_m5, [10, 30], circuits_per_point=30, seed=9)
        rows_samp = ct.survival_curve(device_m5, [10, 30], circuits_per_point=30, shots=400, seed=9)
        for re_, rs in zip(rows_exact, rows_samp):
            shot_err = np.sqrt(0.25 / 400 / 30)
            assert abs(re_["mean"] - rs["mean"]) < 5 * (rs["stderr"] + shot_err)

    def test_sampled_records_within_five_sigma(self, device_m5):
        # seeded statistical check: at least 99% of sampled records sit within
        # five estimated standard errors of the exact mean
        gen = np.random.default_rng(77)
        hits = 0
        total = 200
        for i in range(total):
            n = int(gen.integers(1, 40))
            circuit = ct.random_identity_sequences(n, 1, seed=gen)[0]
            exact = ct.run_circuit(device_m5, circuit).mean
            rec = ct.run_circuit(device_m5, circuit, shots=300, rng=gen)
            if abs(rec.mean - exact) <= 5.0 * np.sqrt(rec.variance):
                hits += 1
        assert hits / total >= 0.99

    @pytest.mark.parametrize(
        "kind,want",
        [
            ("context", [(0, 1.0, 0.0), (7, 0.94624, 0.004281074631444769),
                         (30, 0.7950000000000002, 0.005891802214376626)]),
            ("low_freq", [(0, 1.0, 0.0), (7, 0.9727599999999998, 0.001118451310220224),
                          (30, 0.8958800000000002, 0.0015003555134256248)]),
            ("dense", [(0, 1.0, 0.0), (7, 0.6287999999999999, 0.003003886371574889),
                       (30, 0.5623600000000001, 0.0034471630848181946)]),
        ],
    )
    def test_pinned_sampled_rows(self, kind, want):
        # re-recorded when a length's shots moved from one spawned generator per circuit to one binomial
        # draw from one generator per length; the stream moved on purpose, from (mean, stderr) at N=7 and
        # N=30 of context (0.9462800000000001, 0.004053196269612411), (0.7927199999999999,
        # 0.005634276055241404); low_freq (0.97088, 0.0011652181483882474), (0.89744, 0.001878013134494362);
        # dense (0.63124, 0.003414810878120976), (0.56372, 0.0037002342268204176). It must not drift again.
        rows = ct.survival_curve(EXACT_MEANS_MODELS[kind](), [0, 7, 30], circuits_per_point=25, shots=1000, seed=11)
        assert [(r["n_gates"], r["mean"], r["stderr"]) for r in rows] == want

    @pytest.mark.parametrize("kind", sorted(EXACT_MEANS_MODELS))
    def test_sampled_rows_match_run_circuit_loop(self, kind):
        # circuit i's count is the i-th draw of its length's shot generator, as run_circuit in a loop draws it
        model, lengths, seed = EXACT_MEANS_MODELS[kind](), [0, 1, 7, 30, 100], 12
        rows = ct.survival_curve(model, lengths, circuits_per_point=40, shots=1000, seed=seed)
        for n, seq, row in zip(lengths, np.random.SeedSequence(seed).spawn(len(lengths)), rows):
            draw_seed, shot_seed = seq.spawn(2)
            circuits = ct.random_identity_sequences(n, 40, seed=np.random.default_rng(draw_seed))
            gen = np.random.default_rng(shot_seed)
            arr = np.array([ct.run_circuit(model, c, shots=1000, rng=gen).mean for c in circuits])
            assert (row["mean"], row["stderr"]) == (float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size)))

    @pytest.mark.parametrize("shots", [0, -3])
    def test_rejects_nonpositive_shots(self, device_m5, monkeypatch, shots):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew circuits before checking shots")

        monkeypatch.setattr("corrtomo.device.random_identity_sequences", no_draws)
        with pytest.raises(ValueError, match=f"shots must be positive, got {shots}"):
            ct.survival_curve(device_m5, [0, 7], circuits_per_point=5, shots=shots)

    def test_pinned_exact_dense_rows(self):
        # re-recorded when gauss_legendre stopped using the three-term recurrence: the N=7 mean moved from
        # 0.6290994448735807 to 0.6290994448735805 (its 50-digit value is 0.62909944487358056...) and its
        # stderr from 1.1e-17 to 0.0; the closed form's bits must not drift
        rows = ct.survival_curve(EXACT_MEANS_MODELS["dense"](), [0, 7, 30], circuits_per_point=25, seed=11)
        want = [(0, 1.0, 0.0), (7, 0.6290994448735805, 0.0), (30, 0.5640184401018562, 0.0)]
        assert [(r["n_gates"], r["mean"], r["stderr"]) for r in rows] == want

    def test_pinned_exact_context_rows(self):
        # re-recorded when frozen and context means moved to one evaluator, whose sum over a circuit's
        # features rounds in another order: the N=30 stderr moved from 0.004968605143912605 to
        # 0.00496860514391261; the means kept their bits
        rows = ct.survival_curve(EXACT_MEANS_MODELS["context"](), [0, 7, 30], circuits_per_point=25, seed=11)
        want = [(0, 1.0, 0.0), (7, 0.9450362188060112, 0.004235085939441202),
                (30, 0.7917840419645829, 0.00496860514391261)]
        assert [(r["n_gates"], r["mean"], r["stderr"]) for r in rows] == want

    def test_empty_grid_rejected(self, device_m5):
        with pytest.raises(ValueError):
            ct.survival_curve(device_m5, [], circuits_per_point=5)


class TestAnalyticSurvival:
    def test_zero_gates(self):
        assert ct.analytic_survival(0, 1.0) == 1.0

    def test_four_gates_unit_sigma(self):
        assert ct.analytic_survival(4, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_long_sequence_limit(self):
        assert ct.analytic_survival(10**9, 2.0) == pytest.approx(0.5, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ct.analytic_survival(-1, 1.0)
        with pytest.raises(ValueError):
            ct.analytic_survival(5, 0.0)
