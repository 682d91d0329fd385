"""Maximum-likelihood reconstruction: predictions, likelihood, fitting."""

import dataclasses
import warnings

import numpy as np
import pytest

import corrtomo as ct
import corrtomo.mle as mle
from corrtomo.device import MeasurementRecord, _damping, _gate_matrix
from corrtomo.mle import (
    RecordSet,
    induced_error_model,
    negative_log_likelihood,
    records_from_tomography,
)
from corrtomo.noise import frozen_model
from corrtomo.ptm import ideal_qubit_ptms
from corrtomo.tomography import FiducialSet, TomographyData, _predictions, predict
from conftest import model_predict


def two_point_model(p1=0.6, eps_h=(0.003, 0.02), eps_s=(0.004, 0.015)):
    return frozen_model([p1, 1.0 - p1], {"H": eps_h, "S": eps_s})


def random_circuits(count, max_len, seed):
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(gen.integers(1, max_len + 1))
        out.append(tuple(np.where(gen.integers(0, 2, size=n) == 0, "H", "S")))
    return out


def exact_records(pm, circuits):
    return [MeasurementRecord(tuple(c), model_predict(pm, c), 0.0, None) for c in circuits]


class TestModelPredict:
    def test_error_free_identity_circuit(self):
        pm = frozen_model([1.0], {"H": [0.0], "S": [0.0]})
        assert model_predict(pm, ("H", "H", "S", "S", "S", "S")) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps,n", [(0.01, 8), (0.3, 5)])
    def test_single_point_closed_form(self, eps, n):
        pm = frozen_model([1.0], {"H": [eps], "S": [eps]})
        circuit = ct.random_identity_sequences(n, 1, seed=n)[0]
        assert model_predict(pm, circuit) == pytest.approx(0.5 * (1 + (1 - eps) ** n), abs=1e-12)

    def test_two_point_reported_parameters_blockwise(self):
        # weighted sum of two single-point survival curves, length-20 circuit
        p, e1, e2 = 0.5606, 2.485e-3, 1.606e-2
        pm = frozen_model([p, 1 - p], {"H": [e1, e2], "S": [e1, e2]})
        circuit = ct.random_identity_sequences(20, 1, seed=1)[0]
        want = p * 0.5 * (1 + (1 - e1) ** 20) + (1 - p) * 0.5 * (1 + (1 - e2) ** 20)
        assert model_predict(pm, circuit) == pytest.approx(want, abs=1e-12)

    def test_label_permutation_symmetry(self):
        pm = two_point_model()
        flipped = frozen_model(pm.weights[::-1], {g: v[::-1] for g, v in pm.rates.items()})
        for c in random_circuits(10, 15, seed=2):
            assert model_predict(pm, c) == pytest.approx(model_predict(flipped, c), abs=1e-14)

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            frozen_model([0.7], {"H": [0.1]})
        with pytest.raises(ValueError):
            frozen_model([0.5, 0.5], {"H": [0.1, 1.2], "S": [0.1, 0.2]})


class TestNegativeLogLikelihood:
    def test_zero_at_generating_parameters(self):
        pm = two_point_model()
        records = exact_records(pm, random_circuits(50, 20, seed=3))
        assert negative_log_likelihood(pm, records) <= 1e-16

    def test_unit_residual(self):
        pm = frozen_model([1.0], {"H": [0.0], "S": [0.0]})
        circuit = ("H", "H")
        off = model_predict(pm, circuit) - 1e-3
        record = MeasurementRecord(tuple(circuit), off, 0.0, None)
        assert negative_log_likelihood(pm, [record], sigma_floor=1e-3) == pytest.approx(1.0, rel=1e-9)

    def test_scaling_of_variances(self):
        pm = two_point_model()
        records = [
            MeasurementRecord(tuple(c), model_predict(pm, c) + 0.01, 0.0, None)
            for c in random_circuits(20, 10, seed=4)
        ]
        base = negative_log_likelihood(pm, records, sigma_floor=1e-3)
        scaled = negative_log_likelihood(pm, records, sigma_floor=3e-3)
        assert scaled == pytest.approx(base / 9.0, rel=1e-12)

    def test_matches_per_circuit_evaluation(self):
        pm = two_point_model()
        circuits = random_circuits(30, 12, seed=5)
        gen = np.random.default_rng(6)
        records = [
            MeasurementRecord(tuple(c), model_predict(pm, c) + gen.normal(0, 1e-3), 0.0, None)
            for c in circuits
        ]
        direct = sum((model_predict(pm, r.circuit) - r.mean) ** 2 / 1e-6 for r in records)
        assert negative_log_likelihood(pm, records) == pytest.approx(direct, rel=1e-9)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            negative_log_likelihood(two_point_model(), [])

    def test_model_with_transitions_rejected(self):
        records = exact_records(two_point_model(), random_circuits(5, 5, seed=3))
        with pytest.raises(ValueError, match="frozen"):
            negative_log_likelihood(ct.second_order_model(1.0, 0.02, gate_gammas={"H": 0.1}), records)


def noisy_records(pm, circuits, seed, scale=1e-3):
    gen = np.random.default_rng(seed)
    records = []
    for c, shots in zip(circuits, gen.choice([0, 1000], size=len(circuits))):
        mean = model_predict(pm, c) + gen.normal(0.0, scale)
        if shots:  # a sampled record whose variance lies above the floor
            records.append(MeasurementRecord(tuple(c), mean, 4e-6, int(shots)))
        else:
            records.append(MeasurementRecord(tuple(c), mean, 0.0, None))
    return records


def per_record_features(records, gate_labels, sigma_floor):
    """Reference fold: the ideal 3x3 Bloch rotations applied gate by gate."""
    ideal = ideal_qubit_ptms()
    z_ideal, counts = [], np.zeros((len(records), len(gate_labels)))
    for i, rec in enumerate(records):
        v = np.array([0.0, 0.0, 1.0])
        for label in rec.circuit:
            counts[i, gate_labels.index(label)] += 1.0
            v = ideal[label][1:, 1:] @ v
        z_ideal.append(v[2])
    means = np.array([r.mean for r in records])
    variances = np.array([max(r.variance, sigma_floor**2) for r in records])
    return np.array(z_ideal), counts, means, variances


class TestKernels:
    def test_record_features_match_per_record_fold(self):
        circuits = [(), ("H",), ("S",)] + random_circuits(300, 30, seed=12)
        records = noisy_records(two_point_model(), circuits, seed=13)
        got = mle._record_features(RecordSet.from_records(records), ("H", "S"), 1e-3)
        want = per_record_features(records, ["H", "S"], 1e-3)
        assert set(got[0]) <= {-1.0, 0.0, 1.0}
        for a, b in zip(got, want):
            assert np.allclose(a, b, rtol=0.0, atol=1e-12)

    def test_record_features_reject_unknown_gate(self):
        records = [MeasurementRecord(("H", "T"), 0.5, 0.0, None)]
        with pytest.raises(KeyError, match="'T'"):
            mle._record_features(RecordSet.from_records(records), ("H", "S"), 1e-3)

    @staticmethod
    def kernel_case(l_size, rows, seed):
        records = noisy_records(two_point_model(), random_circuits(200, 25, seed=14), seed=15)
        stats = mle._SufficientStatistics(RecordSet.from_records(records), ("H", "S"), 1e-3)
        gen = np.random.default_rng(seed + l_size)
        weights, rates = gen.normal(0.0, 1.0, (rows, l_size - 1)), gen.normal(-4.6, 1.0, (rows, 2 * l_size))
        x = np.concatenate([weights, rates], axis=1)
        return stats, x

    @pytest.mark.parametrize("l_size", [1, 2, 3])
    def test_jacobian_matches_central_differences(self, l_size):
        stats, x = self.kernel_case(l_size, 3, 16)
        step = 1e-6
        jac = stats.jacobian(x, l_size)
        numeric = np.stack(
            [
                (stats.residuals(x + step * e, l_size) - stats.residuals(x - step * e, l_size)) / (2 * step)
                for e in np.eye(x.shape[1])
            ],
            axis=2,
        )
        assert jac.shape == numeric.shape == (3, len(stats.a), 3 * l_size - 1)
        for got, want in zip(jac, numeric):
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(got))

    @pytest.mark.parametrize("l_size", [1, 2, 3])
    def test_rows_match_the_single_row_closed_form(self, l_size):
        stats, x = self.kernel_case(l_size, 4, 26)
        residuals, jac = stats.residuals(x, l_size), stats.jacobian(x, l_size)
        p, rates = mle._unpack(x, l_size, 2)
        for i in range(len(x)):
            closed = stats.sqrt_a * (_damping(rates[i], stats.counts) @ p[i] - stats.target)
            np.testing.assert_allclose(residuals[i], closed, rtol=0.0, atol=1e-12 * np.max(np.abs(stats.sqrt_a)))
            objective = stats.spread + residuals[i] @ residuals[i]
            assert stats.objective(p[i], rates[i]) == pytest.approx(objective, rel=1e-9)
            # a row's bits do not depend on the rows evaluated with it
            assert stats.residuals(x[i : i + 1], l_size)[0].tobytes() == residuals[i].tobytes()
            assert np.array_equal(stats.jacobian(x[i : i + 1], l_size)[0], jac[i])

    def test_records_with_no_ideal_outcome_leave_no_groups(self):
        # H, S H and H S all end on the equator (z = 0), so every prediction is 1/2
        circuits = [("H",), ("S", "H"), ("H", "S")]
        records = [MeasurementRecord(c, mean, 0.0, None) for c, mean in zip(circuits, (0.51, 0.5, 0.5))]
        stats = mle._SufficientStatistics(RecordSet.from_records(records), ("H", "S"), 1e-3)
        assert stats.counts.shape == (0, 2) and stats.a.size == 0
        x = np.zeros((2, 5))
        assert stats.residuals(x, 2).shape == (2, 0) and stats.jacobian(x, 2).shape == (2, 0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l_size in (1, 2, 3):
                result = ct.fit(records, l_size, seed=0)
                assert result.nll == 100.00000000000018 and result.converged
        assert negative_log_likelihood(two_point_model(), records) == 100.00000000000018

    def test_count_vector_seen_only_at_zero_outcome_is_no_group(self):
        # (H,) has counts (1, 0) and z = 0; (S,) and (H, H) return to z = 1
        records = [
            MeasurementRecord(c, mean, 0.0, None)
            for c, mean in [(("H",), 0.52), (("S",), 0.97), (("H", "H"), 0.96), (("H", "H"), 0.94)]
        ]
        stats = mle._SufficientStatistics(RecordSet.from_records(records), ("H", "S"), 1e-3)
        assert stats.counts.tolist() == [[0.0, 1.0], [2.0, 0.0]]
        assert stats.a.tolist() == [0.25e6, 0.5e6]
        np.testing.assert_allclose(stats.target, [0.94, 0.9], rtol=1e-15)
        # (0.52 - 1/2)^2 and the two (H, H) records' scatter about their mean, over the floor's variance
        assert stats.spread == pytest.approx((0.02**2 + 2 * 0.01**2) / 1e-6, rel=1e-12)


class TestFit:
    def test_roundtrip_recovers_two_point_parameters(self):
        pm = two_point_model()
        records = exact_records(pm, random_circuits(400, 25, seed=7))
        result = ct.fit(records, 2, seed=0)
        assert result.converged
        assert np.max(np.abs(result.param_model.weights - pm.weights)) <= 1e-6
        for g in ("H", "S"):
            assert np.max(np.abs(result.param_model.rates[g] - pm.rates[g])) <= 1e-6

    def test_canonical_order_is_ascending_first_gate_rate(self, suite_fit_l2):
        eps_h = suite_fit_l2.param_model.rates["H"]
        assert eps_h[0] < eps_h[1]

    def test_single_point_fit_is_strictly_worse(self, suite_records, suite_fit_l2):
        res1 = ct.fit(suite_records, 1, seed=0, n_starts=6)
        assert res1.nll > suite_fit_l2.nll * 10

    def test_training_residuals_small_for_exact_data(self, suite_records, suite_fit_l2):
        gen = np.random.default_rng(8)
        rows = gen.integers(0, len(suite_records), size=150)
        predicted = _predictions(suite_fit_l2.error_model, suite_records.gates[rows], suite_records.labels)
        resid = predicted - suite_records.means[rows]
        assert np.sqrt(np.mean(np.square(resid))) <= 1e-3

    def test_induced_model_predicts_identically(self):
        pm = two_point_model(0.55, (0.002, 0.03), (0.006, 0.011))
        em = induced_error_model(pm)
        for c in random_circuits(20, 18, seed=9):
            assert predict(em, c) == pytest.approx(model_predict(pm, c), abs=1e-12)

    def test_induced_model_rejects_transitions(self):
        with pytest.raises(ValueError, match="frozen"):
            induced_error_model(ct.second_order_model(1.0, 0.02, gate_gammas={"S": 0.5}))

    def test_exported_model_predicts_like_the_error_model(self, suite_fit_l2):
        model = suite_fit_l2.param_model
        assert model.identity_transitions and model.gate_labels == ("H", "S")
        assert model.support.tolist() == [1.0, 2.0]
        circuits = [(), ("H",), ("S",)] + random_circuits(200, 40, seed=19)
        labels = ("H", "S")
        error_model_means = _predictions(suite_fit_l2.error_model, _gate_matrix(circuits, labels), labels)
        means = ct.exact_means(model, circuits)
        np.testing.assert_allclose(means, error_model_means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(means, [model_predict(model, c) for c in circuits], rtol=0, atol=1e-12)

    def test_report_payload(self, suite_fit_l2):
        report = suite_fit_l2.to_json()
        model = suite_fit_l2.param_model
        want = {"labels": [1, 2], "p": model.weights.tolist(), "eps": {g: model.rates[g].tolist() for g in "HS"}}
        assert report["param_model"] == want
        assert report["error_model"]["gauge"]["parametric"] == want

    def test_likelihood_of_the_exported_model_is_the_fit_objective(self, suite_records, suite_fit_l2):
        nll = negative_log_likelihood(suite_fit_l2.param_model, suite_records)
        assert nll == pytest.approx(suite_fit_l2.nll, rel=1e-12)

    def test_fit_deterministic(self):
        pm = two_point_model()
        records = exact_records(pm, random_circuits(100, 15, seed=10))
        a = ct.fit(records, 2, seed=1)
        b = ct.fit(records, 2, seed=1)
        assert a.nll == b.nll
        assert np.array_equal(a.param_model.weights, b.param_model.weights)

    def test_requires_records(self):
        with pytest.raises(ValueError):
            ct.fit([], 2)

    @pytest.mark.parametrize(
        "l_size,config",
        [
            (0, {}),
            (2, {"n_starts": 0}),
            (2, {"sigma_floor": 0.0}),
            (2, {"sigma_floor": -1e-3}),
        ],
    )
    def test_invalid_settings_rejected(self, l_size, config):
        records = exact_records(two_point_model(), random_circuits(20, 10, seed=17))
        with pytest.raises(ValueError):
            ct.fit(records, l_size, **config)

    def test_converged_is_the_winning_start_status(self, monkeypatch):
        real = mle.levenberg_marquardt
        calls = []

        def only_a_losing_start_succeeds(fun, jac, x0, *args, **kwargs):
            calls.append(x0)
            return [  # start 1, left at its random start, claims success and loses
                dataclasses.replace(result, x=np.array(x0[1]), converged=True)
                if i == 1
                else dataclasses.replace(result, converged=False)
                for i, result in enumerate(real(fun, jac, x0, *args, **kwargs))
            ]

        monkeypatch.setattr(mle, "levenberg_marquardt", only_a_losing_start_succeeds)
        records = exact_records(two_point_model(), random_circuits(100, 15, seed=18))
        result = ct.fit(records, 2, seed=0, n_starts=3)
        assert len(calls) == 1 and calls[0].shape == (3, 5)
        assert result.diagnostics["winner"] != 1
        assert result.converged is False

    def test_three_point_fit_of_five_point_device(self, suite_records):
        # model mismatch on the d7 seed-0 records; 7.2e-8 is what the
        # simplex multi-start with a least-squares polish reached
        result = ct.fit(suite_records, 3, seed=0)
        assert result.nll <= 7.2e-8
        assert len(result.diagnostics["start_objectives"]) == 16


class TestRecordsFromTomography:
    def test_counts_and_anchors(self, device_m2):
        from corrtomo.linear_inversion import collect_trial_data, trial_sequences

        trial = trial_sequences("d4")
        data = collect_trial_data(device_m2, trial)
        records = records_from_tomography(data)
        assert len(records) == 16 * (1 + 2)
        assert np.all(records.gates[0] == len(records.labels))  # the empty circuit
        assert records.means[0] == pytest.approx(data.gram[0, 0], abs=1e-15)
        assert np.all(records.variances == 0.0) and np.all(records.shots == 0)


def reference_records(data):
    """Per-entry oracle: one MeasurementRecord per Gram and gate-matrix entry."""
    shots = data.shots
    fids = data.fiducials
    records = []

    def add(mean, gates):
        mean = float(mean)
        if shots is None:
            records.append(MeasurementRecord(tuple(gates), mean, 0.0, None))
        else:
            smoothed = (mean * shots + 1.0) / (shots + 2.0)
            records.append(MeasurementRecord(tuple(gates), mean, smoothed * (1.0 - smoothed) / shots, shots))

    for k, meas in enumerate(fids.meas_sequences):
        for i, prep in enumerate(fids.prep_sequences):
            add(data.gram[k, i], prep + meas)
            for label, mat in data.gate_mats.items():
                add(mat[k, i], prep + (label,) + meas)
    return records


@pytest.fixture(scope="module", params=[None, 1000], ids=["exact", "shots"])
def d7_records(request, device_m5, trial_d7):
    """Columnar records of d7 data on the 5-point device, with the oracle's list."""
    from corrtomo.linear_inversion import collect_trial_data

    data = collect_trial_data(device_m5, trial_d7, shots=request.param, seed=0)
    return records_from_tomography(data), reference_records(data)


class TestRecordSet:
    def test_records_match_the_per_entry_loop(self, d7_records):
        columnar, oracle = d7_records
        want = RecordSet.from_records(oracle)
        assert isinstance(columnar, RecordSet)
        assert len(columnar) == len(want) == 45387
        assert columnar.labels == want.labels
        for name in ("means", "variances", "shots"):
            got, ref = getattr(columnar, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        # records_from_tomography pads between preparation, middle gate and measurement; from_records at the end
        pad = len(columnar.labels)
        packed = np.take_along_axis(columnar.gates, np.argsort(columnar.gates == pad, axis=1, kind="stable"), axis=1)
        width = want.gates.shape[1]
        assert np.all(packed[:, width:] == pad)
        assert np.array_equal(packed[:, :width], want.gates)

    def test_features_are_byte_identical_to_the_record_list(self, d7_records):
        columnar, oracle = d7_records
        got = mle._record_features(columnar, ("H", "S"), 1e-3)
        want = mle._record_features(RecordSet.from_records(oracle), ("H", "S"), 1e-3)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_groups_match_unique_rows(self, d7_records):
        # the groups are the distinct count vectors among records with z = +-1
        columnar, _ = d7_records
        z_ideal, counts, means, variances = mle._record_features(columnar, ("H", "S"), 1e-3)
        moving = z_ideal != 0.0
        rows, inverse = np.unique(counts[moving], axis=0, return_inverse=True)
        inv_var = 1.0 / variances[moving]
        y = z_ideal[moving] * (2.0 * means[moving] - 1.0)
        stats = mle._SufficientStatistics(columnar, ("H", "S"), 1e-3)
        assert np.array_equal(stats.counts, rows)
        assert 0 < len(rows) < len(np.unique(np.column_stack([counts, z_ideal]), axis=0))
        weight = np.bincount(inverse, weights=inv_var)
        assert np.array_equal(stats.a, 0.25 * weight)
        assert np.array_equal(stats.target, np.bincount(inverse, weights=y * inv_var) / weight)

    def test_objective_matches_the_per_record_sum(self, d7_records):
        columnar, _ = d7_records
        z_ideal, counts, means, variances = mle._record_features(columnar, ("H", "S"), 1e-3)
        stats = mle._SufficientStatistics(columnar, ("H", "S"), 1e-3)
        gen = np.random.default_rng(27)
        for l_size in (1, 2, 3):
            p = gen.dirichlet(np.ones(l_size))
            rates = np.exp(gen.normal(-4.6, 1.0, (2, l_size)))
            predictions = 0.5 * (1.0 + z_ideal * (np.exp(counts @ np.log1p(-rates)) @ p))
            want = np.sum((predictions - means) ** 2 / variances)
            assert stats.objective(p, rates) == pytest.approx(want, rel=1e-12)
            x = np.concatenate([np.log(p[1:] / p[0]), np.log(rates / (1.0 - rates)).ravel()])[None, :]
            residuals = stats.residuals(x, l_size)[0]
            assert stats.spread + residuals @ residuals == pytest.approx(want, rel=1e-12)

    def test_fit_matches_the_record_list(self, d7_records):
        columnar, oracle = d7_records
        assert ct.fit(columnar, 2, seed=0).to_json() == ct.fit(oracle, 2, seed=0).to_json()

    def test_other_gate_labels_are_remapped(self, suite_records):
        hs = mle._record_features(suite_records, ("H", "S"), 1e-3)
        sh = mle._record_features(suite_records, ("S", "H"), 1e-3)
        assert np.array_equal(sh[0], hs[0]) and np.array_equal(sh[1], hs[1][:, ::-1])
        only_h = RecordSet.from_records(exact_records(two_point_model(), [("H",), ("H", "H", "H"), ()]))
        assert only_h.labels == ("H",)
        z_ideal, counts, _, _ = mle._record_features(only_h, ("H", "S"), 1e-3)
        assert counts.tolist() == [[1, 0], [3, 0], [0, 0]]
        assert z_ideal.tolist() == [0.0, 0.0, 1.0]

    def test_label_outside_the_gate_set_rejected(self, suite_records):
        pm = frozen_model([1.0], {"H": [0.01]})
        with pytest.raises(KeyError, match="'S'"):
            negative_log_likelihood(pm, suite_records)

    def test_fiducial_outside_the_data_gate_set_rejected(self):
        fids = FiducialSet(((), ("S",)), ((), ("S",)))
        data = TomographyData(np.eye(2), {"H": np.eye(2)}, fids)
        with pytest.raises(KeyError, match="'S'"):
            records_from_tomography(data)

    def test_variance_contract_checked_for_every_record(self):
        gates = np.zeros((2, 1), dtype=np.int8)
        with pytest.raises(ValueError, match="exact"):
            RecordSet(("H",), gates, np.array([0.5, 0.5]), np.array([0.0, 1e-4]), np.array([0, 0]))
        with pytest.raises(ValueError, match="sampled"):
            RecordSet(("H",), gates, np.array([0.5, 0.5]), np.array([1e-4, 0.0]), np.array([100, 100]))
