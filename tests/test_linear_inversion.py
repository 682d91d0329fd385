"""SVD-truncated linear inversion: trial sets, spectra, reconstruction, gauge fit."""

import hashlib

import numpy as np
import pytest

import corrtomo as ct
import corrtomo.linear_inversion as li
from corrtomo.linear_inversion import (
    collect_trial_data,
    gauge_fit_to_ideal,
    lim_reconstruct,
    singular_spectrum,
    svd_truncate,
    trial_sequences,
)
from corrtomo.device import _gate_matrix, fold_gates
from corrtomo.experiments import build_model
from corrtomo.mle import induced_error_model
from corrtomo.noise import depolarized_gates, frozen_model
from corrtomo.ptm import reduced_frame
from corrtomo.tomography import FiducialSet, predict
from conftest import block_diag, loop_row_fold, sequences_up_to

CONTEXT = {
    "kind": "context",
    "labels": ["H", "S"],
    "rates": {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}},
    "initial": [0.5, 0.5],
}


class TestTrialSequences:
    def test_d4_is_the_standard_quartet(self):
        spec = trial_sequences("d4")
        assert spec.prep_sequences == ((), ("H",), ("H", "S"), ("H", "S", "H"))
        assert spec.meas_sequences == ((), ("H",), ("S", "H"), ("H", "S", "H"))
        assert spec.d == 4

    def test_d7_counts(self):
        spec = trial_sequences("d7")
        assert spec.d == 123
        hist = {}
        for s in spec.prep_sequences:
            hist[len(s)] = hist.get(len(s), 0) + 1
        assert hist[0] == 1
        for n in range(1, 6):
            assert hist[n] == 2**n
        for n in range(6, 21):
            assert hist[n] == 4

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (0, "f6a56c5e6c3a772d472bed0b0b17bd02df1c7d754bef1975d83e7addd58999b5"),
            (li.DEFAULT_SELECTION_SEED, "aff49a4a16ad9dbe0d472d0ed5a520a39896c3cc399bc6df3bb9d8a2069116bb"),
        ],
    )
    def test_d7_set_is_unchanged(self, seed, digest):
        # every sequence up to length 5, the last gate varying fastest, then the seeded picks
        spec = trial_sequences("d7", seed=seed)
        assert list(spec.prep_sequences[:63]) == sequences_up_to(5)
        text = ",".join("".join(s) for s in spec.prep_sequences)
        assert hashlib.sha256(text.encode()).hexdigest() == digest  # recorded from the recursive enumeration

    def test_d7_deterministic_and_seed_dependent(self):
        a = trial_sequences("d7", seed=1)
        b = trial_sequences("d7", seed=1)
        c = trial_sequences("d7", seed=2)
        assert a == b
        assert a.prep_sequences != c.prep_sequences

    def test_first_sequence_must_be_empty(self):
        with pytest.raises(ValueError, match="empty"):
            FiducialSet(prep_sequences=(("H",),), meas_sequences=(("H",),))

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            trial_sequences("d9")


class TestSvdTruncate:
    def test_noiseless_d4_has_four_strong_values(self, noiseless):
        data = collect_trial_data(noiseless, trial_sequences("d4"))
        trunc = svd_truncate(data.gram, data.gate_mats, 4)
        assert np.all(trunc.singular_values > 0.1)

    def test_correlated_device_is_approximately_rank_seven(self, truncation_d7):
        s = truncation_d7.singular_values
        assert np.all(s[7:] <= 1e-3 * s[0])
        assert s[6] > 1e-4 * s[0]

    def test_d1_keeps_the_top_value(self, trial_data_m5):
        trunc = svd_truncate(trial_data_m5.gram, trial_data_m5.gate_mats, 1)
        assert trunc.g_trunc.shape == (1, 1)
        assert trunc.g_trunc[0, 0] == pytest.approx(trunc.singular_values[0])

    def test_svd_convention(self, trial_data_m5):
        trunc = svd_truncate(trial_data_m5.gram, trial_data_m5.gate_mats, 7)
        lam = trunc.u @ trial_data_m5.gram @ trunc.v
        assert np.allclose(lam, np.diag(trunc.singular_values), atol=1e-10)

    def test_over_truncation_warns_with_spectrum(self, noiseless):
        data = collect_trial_data(noiseless, trial_sequences("d7"))
        with pytest.warns(RuntimeWarning, match="numerical rank"):
            svd_truncate(data.gram, data.gate_mats, 7)

    def test_bad_dimension_rejected(self, trial_data_m5):
        with pytest.raises(ValueError):
            svd_truncate(trial_data_m5.gram, trial_data_m5.gate_mats, 0)
        with pytest.raises(ValueError):
            svd_truncate(trial_data_m5.gram, trial_data_m5.gate_mats, 124)


class TestSpectrum:
    def test_noiseless_rank_four(self, noiseless):
        data = collect_trial_data(noiseless, trial_sequences("d7"))
        s = singular_spectrum(data.gram)
        assert np.all(s[:4] > 1e-2)
        assert np.all(s[4:] <= 1e-10 * s[0])

    def test_two_point_model_at_most_seven(self, device_m2):
        data = collect_trial_data(device_m2, trial_sequences("d7"))
        s = singular_spectrum(data.gram)
        assert np.all(s[7:] <= 1e-10 * s[0])

    def test_zero_matrix(self):
        assert np.allclose(singular_spectrum(np.zeros((5, 5))), 0.0)


class TestLimReconstruct:
    def test_identity_gauge_gives_diagonal_frame(self, truncation_d7):
        model = lim_reconstruct(truncation_d7)
        assert model.d == 7
        # state expression cross-check is part of construction; redo it here
        state_a = truncation_d7.v[0, :7]
        state_b = np.diag(1.0 / np.diag(truncation_d7.g_trunc)) @ (
            truncation_d7.u @ truncation_d7.g_col0
        )[:7]
        assert np.allclose(state_a, state_b, atol=1e-10)
        assert np.allclose(model.state, state_a, atol=1e-12)

    def test_noiseless_d4_recovers_ideal_spectrum(self, noiseless):
        data = collect_trial_data(noiseless, trial_sequences("d4"))
        trunc = svd_truncate(data.gram, data.gate_mats, 4)
        model = lim_reconstruct(trunc)
        ideal = ct.ideal_qubit_ptms()
        for label in ("H", "S"):
            got = np.sort_complex(np.linalg.eigvals(model.gates[label]))
            want = np.sort_complex(np.linalg.eigvals(ideal[label]))
            assert np.allclose(got, want, atol=1e-8)

    def test_full_rank_truncation_reproduces_trial_data(self, device_m2):
        trial = trial_sequences("d7")
        data = collect_trial_data(device_m2, trial)
        trunc = svd_truncate(data.gram, data.gate_mats, 7)
        model = lim_reconstruct(trunc)
        gen = np.random.default_rng(0)
        ks = gen.integers(0, 123, size=40)
        is_ = gen.integers(0, 123, size=40)
        for k, i in zip(ks, is_):
            circuit = trial.prep_sequences[i] + trial.meas_sequences[k]
            assert predict(model, circuit) == pytest.approx(data.gram[k, i], abs=1e-8)

    def test_truncation_quality_is_monotone(self, device_m5, truncation_d7, truncation_d4):
        em7 = lim_reconstruct(truncation_d7)
        em4 = lim_reconstruct(truncation_d4)
        errs = {4: [], 7: []}
        for i, n in enumerate(range(0, 101, 20)):
            for c in ct.random_identity_sequences(n, 5, seed=50 + i):
                actual = ct.run_circuit(device_m5, c).mean
                errs[7].append(predict(em7, c) - actual)
                errs[4].append(predict(em4, c) - actual)
        rms7 = np.sqrt(np.mean(np.square(errs[7])))
        rms4 = np.sqrt(np.mean(np.square(errs[4])))
        assert rms7 <= rms4

    def test_singular_truncated_gram_rejected(self):
        g = np.zeros((3, 3))
        trunc = svd_truncate(g, {}, 2)
        with pytest.raises(np.linalg.LinAlgError):
            lim_reconstruct(trunc)


@pytest.fixture(scope="module")
def d7_at_seed(device_m5):
    """Truncation and trial set of the m = 5 device for a d7 trial seed, built once per seed."""
    cache = {}

    def build(seed):
        if seed not in cache:
            trial = trial_sequences("d7", seed=seed)
            data = collect_trial_data(device_m5, trial)
            cache[seed] = (svd_truncate(data.gram, data.gate_mats, 7), trial)
        return cache[seed]

    return build


@pytest.fixture
def lm_calls(monkeypatch):
    """(residual, Jacobian, start, result) of every levenberg_marquardt call in linear_inversion.

    The gauge fit passes one start; residual and Jacobian are recorded as
    functions of that one point.
    """
    calls = []
    real = li.levenberg_marquardt

    def spy(model, x0, *args, **kwargs):
        results = real(model, x0, *args, **kwargs)
        (x_start,), (result,) = x0, results
        calls.append((lambda x: model(x[None])[0][0], lambda x: model(x[None])[1]([0])[0], np.array(x_start), result))
        return results

    monkeypatch.setattr(li, "levenberg_marquardt", spy)
    return calls


class TestGaugeFit:
    def test_d7_reference_duals_match_the_hand_built_frame_bit_for_bit(self, trial_d7):
        # the reduced-frame reference as it was written out before the two-point export took its place
        frame = reduced_frame(np.array([0.5, 0.5]))
        labels = ("H", "S")
        ptms = [frame.T @ block_diag(depolarized_gates(g, li.REFERENCE_RATES)) @ frame for g in labels]
        q0 = np.array([0.5, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.5]) @ frame
        # q0 @ ptms[g_first] ... ptms[g_last] of every preparation sequence, as the transposes' fold
        want = fold_gates([p.T for p in ptms], _gate_matrix(trial_d7.prep_sequences, labels), q0[:, None])[..., 0]
        assert li._reference_trial_duals(trial_d7, 7, labels).tobytes() == want.tobytes()

    @pytest.mark.parametrize("preset,d", [("d4", 4), ("d7", 4), ("d7", 7)])
    def test_reference_duals_match_per_sequence_row_fold_bit_for_bit(self, preset, d):
        trial = trial_sequences(preset)
        if d == 4:
            ptms, q0 = ct.ideal_qubit_ptms(), np.array([0.5, 0.0, 0.0, 0.5])
        else:
            reference = induced_error_model(frozen_model([0.5, 0.5], dict.fromkeys(("H", "S"), li.REFERENCE_RATES)))
            ptms, q0 = reference.gates, reference.dual
        want = loop_row_fold(q0, ptms, trial.meas_sequences)
        assert li._reference_trial_duals(trial, d, ("H", "S")).tobytes() == want.tobytes()

    def test_jacobian_matches_central_differences(self, d7_at_seed, lm_calls):
        trunc, trial = d7_at_seed(0)
        gauge_fit_to_ideal(trunc, trial=trial)
        residual, jacobian, x0, _ = lm_calls[0]
        jac = jacobian(x0)
        h = 1e-6
        steps = h * np.eye(x0.size)
        fd = np.column_stack([(residual(x0 + e) - residual(x0 - e)) / (2 * h) for e in steps])
        assert np.max(np.abs(jac - fd)) <= 1e-8
        # the objective is invariant under M -> cM, so vec(M) spans a null direction
        assert np.max(np.abs(jac @ x0)) <= 1e-12 * np.max(np.abs(jac))

    def test_cli_default_trial_set_converges(self, d7_at_seed, lm_calls):
        trunc, trial = d7_at_seed(0)
        fit = gauge_fit_to_ideal(trunc, trial=trial)
        assert fit.converged
        assert fit.n_evaluations <= 200
        assert fit.n_evaluations == sum(result.nfev + result.njev for *_, result in lm_calls)
        assert fit.objective == pytest.approx(1.57516405e-3, rel=1e-8)

    @pytest.mark.parametrize("seed", [20, 23])
    def test_converges_within_400_evaluations(self, d7_at_seed, seed):
        # trial sets on which a trust-region LM scaled by its Jacobian columns stops at 400 evaluations
        trunc, trial = d7_at_seed(seed)
        fit = gauge_fit_to_ideal(trunc, trial=trial, max_nfev=400)
        assert fit.converged

    def test_full_rank_data_gates_leave_no_rank_floor(self, d7_at_seed, lm_calls):
        trunc, trial = d7_at_seed(0)
        fit = gauge_fit_to_ideal(trunc, trial=trial)
        assert fit.rank_floor == 0.0 and fit.converged and len(lm_calls) == 1

    def test_rank_floor_of_context_data_gates(self):
        # a context gate resets the register to itself, so each truncated d = 7 gate has rank 4
        device = build_model(CONTEXT)
        trial = trial_sequences("d7", seed=0)
        data = collect_trial_data(device, trial, seed=0)
        trunc = svd_truncate(data.gram, data.gate_mats, 7)
        with pytest.warns(RuntimeWarning, match=r"cannot reach its target: data gates of ranks \[4, 4\]"):
            fit = gauge_fit_to_ideal(trunc, trial=trial, max_nfev=60)
        assert not fit.converged
        # Eckart-Young: every singular value of the ideal gates is 1, and each gate drops 7 - 4 of them
        assert fit.rank_floor == pytest.approx(5.999999999999998, abs=1e-12)
        g_inv = np.diag(1.0 / np.diag(trunc.g_trunc))
        ranks = [np.linalg.matrix_rank(trunc.gate_mats_trunc[g] @ g_inv, tol=1e-9) for g in ("H", "S")]
        assert ranks == [4, 4]
        assert fit.objective >= fit.rank_floor

    def test_result_keeps_the_norm_of_the_start(self, d7_at_seed, lm_calls):
        trunc, trial = d7_at_seed(1)
        fit = gauge_fit_to_ideal(trunc, trial=trial)
        x0 = lm_calls[0][2]
        assert np.linalg.norm(fit.m_hat_out) == pytest.approx(np.linalg.norm(x0), rel=1e-12)

    def test_other_dimensions_have_no_reference_frame(self, device_m5, lm_calls):
        trial = trial_sequences("d4")
        data = collect_trial_data(device_m5, trial)
        trunc = svd_truncate(data.gram, data.gate_mats, 3)
        with pytest.raises(ValueError, match="no reference frame for d = 3"):
            gauge_fit_to_ideal(trunc, trial=trial)
        assert lm_calls == []

    def test_noiseless_is_a_zero_objective_fixed_point(self, noiseless):
        trial = trial_sequences("d4")
        data = collect_trial_data(noiseless, trial)
        trunc = svd_truncate(data.gram, data.gate_mats, 4)
        fit = gauge_fit_to_ideal(trunc, trial=trial)
        assert fit.objective <= 1e-10
        ideal = ct.ideal_qubit_ptms()
        assert sorted(fit.target) == ["H", "S"] and all(np.array_equal(fit.target[g], ideal[g]) for g in fit.target)
        assert np.allclose(fit.error_model.gates["H"], ideal["H"], atol=1e-8)
        assert np.allclose(fit.error_model.gates["S"], ideal["S"], atol=1e-8)

    def test_correlated_device_stays_near_ideal(self, truncation_d7, trial_d7):
        fit = gauge_fit_to_ideal(truncation_d7, trial=trial_d7)
        ideal = ct.ideal_seven_ptms()
        assert sorted(fit.target) == ["H", "S"] and all(np.array_equal(fit.target[g], ideal[g]) for g in fit.target)
        for label in ("H", "S"):
            assert np.max(np.abs(fit.error_model.gates[label] - ideal[label])) <= 0.05

    def test_deterministic(self, truncation_d7, trial_d7):
        a = gauge_fit_to_ideal(truncation_d7, trial=trial_d7)
        b = gauge_fit_to_ideal(truncation_d7, trial=trial_d7)
        assert a.objective == b.objective
        assert np.array_equal(a.m_hat_out, b.m_hat_out)

    def test_gauge_fit_never_changes_predictions(self, truncation_d7, trial_d7):
        fit = gauge_fit_to_ideal(truncation_d7, trial=trial_d7)
        plain = lim_reconstruct(truncation_d7)
        for i, n in enumerate((0, 10, 40, 90)):
            for c in ct.random_identity_sequences(n, 3, seed=70 + i):
                assert predict(fit.error_model, c) == pytest.approx(predict(plain, c), abs=1e-9)
