"""Exact self-consistent tomography: data collection, factorization, gauges."""

import numpy as np
import pytest
import scipy.linalg

import corrtomo as ct
from corrtomo.tomography import (
    FiducialSet,
    ProtocolFailure,
    fiducial_frames,
    gauge_reconstruct,
    gauge_transform,
    pivot_columns,
    predict,
    select_fiducials,
)
from conftest import loop_row_fold, sequences_up_to
from corrtomo.experiments import build_model

D4_FIDUCIALS = FiducialSet(
    prep_sequences=((), ("H",), ("H", "S"), ("H", "S", "H")),
    meas_sequences=((), ("H",), ("S", "H"), ("H", "S", "H")),
)


def random_sequences(count, max_len, seed, labels=("H", "S")):
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(gen.integers(1, max_len + 1))
        out.append(tuple(labels[i] for i in gen.integers(0, len(labels), size=n)))
    return out


class TestCollectData:
    def test_noiseless_gram_anchors(self, noiseless):
        data = ct.collect_data(noiseless, D4_FIDUCIALS)
        assert data.gram[0, 0] == pytest.approx(1.0, abs=1e-12)
        # measurement fiducial (H) realises X, preparation (H) gives |+>
        assert data.gram[1, 1] == pytest.approx(1.0, abs=1e-12)
        # readout is the |0> projector, so H|0> reads out at exactly one half
        assert data.gate_mats["H"][0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_entries_are_circuit_outcomes(self, device_m2):
        data = ct.collect_data(device_m2, D4_FIDUCIALS)
        for k, meas in enumerate(D4_FIDUCIALS.meas_sequences):
            for i, prep in enumerate(D4_FIDUCIALS.prep_sequences):
                direct = ct.run_circuit(device_m2, prep + meas).mean
                assert data.gram[k, i] == pytest.approx(direct, abs=1e-12)
                direct_h = ct.run_circuit(device_m2, prep + ("H",) + meas).mean
                assert data.gate_mats["H"][k, i] == pytest.approx(direct_h, abs=1e-12)

    def test_sampled_collection_is_seeded(self, device_m2):
        a = ct.collect_data(device_m2, D4_FIDUCIALS, shots=100, seed=5)
        b = ct.collect_data(device_m2, D4_FIDUCIALS, shots=100, seed=5)
        assert np.array_equal(a.gram, b.gram)
        assert a.shots == 100

    def test_fiducials_must_start_empty(self):
        with pytest.raises(ValueError, match="empty"):
            FiducialSet(((("H",),) + ((),)), (((),) + (("H",),)))


class TestFactorization:
    def test_exact_identity_on_spanning_fiducials(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(3), 7)
        data = ct.collect_data(device_m2, fids)
        report = ct.verify_factorization(data, device_m2, random_sequences(100, 20, seed=11))
        assert report.max_residual <= 1e-9
        assert report.cond_gram < 1e8

    def test_single_gate_sequence_is_exact_by_construction(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(3), 7)
        data = ct.collect_data(device_m2, fids)
        report = ct.verify_factorization(data, device_m2, [("H",), ("S",)])
        assert report.max_residual <= 1e-12

    def test_undersized_fiducials_break_the_identity(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(3), 4)
        data = ct.collect_data(device_m2, fids)
        report = ct.verify_factorization(data, device_m2, random_sequences(100, 20, seed=11))
        assert report.max_residual > 1e-6

    def test_singular_gram_reported(self, device_m2):
        fids = FiducialSet(
            prep_sequences=((), ("H",), ("H",), ("S",), ("H", "S"), ("S", "H"), ("H", "H")),
            meas_sequences=((), ("H",), ("H",), ("S",), ("H", "S"), ("S", "H"), ("H", "H")),
        )
        data = ct.collect_data(device_m2, fids)
        with pytest.raises(ProtocolFailure, match="singular"):
            ct.verify_factorization(data, device_m2, [("H",)])


FRAME_MODELS = {
    "frozen": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 5},
    "context": {"kind": "context", "labels": ["H", "S"], "rates": {"H": {"H": 0.002, "S": 0.04},
                                                                   "S": {"H": 0.03, "S": 0.001}}},
    "second_order": {"kind": "second_order", "sigma": 1.0, "eta": 0.1, "gate_gammas": {"H": 0.3, "S": 1.0}},
    "dense101": {"kind": "dense", "sigma": 1.0, "eta": 1.0, "n_points": 101},
}


class TestFiducialFrames:
    @pytest.mark.parametrize("kind", sorted(FRAME_MODELS))
    def test_m_out_matches_per_sequence_row_fold_bit_for_bit(self, kind, trial_d7):
        model = build_model(FRAME_MODELS[kind])
        blocks = {g: model.gate_block(g) for g in model.gate_labels}
        m_out, _ = fiducial_frames(model, trial_d7)
        want = loop_row_fold(model.dual_vec(), blocks, trial_d7.meas_sequences)
        assert m_out.shape == want.shape
        assert m_out.tobytes() == want.tobytes()


class TestGaugeReconstruct:
    def test_identity_gauge_formulas(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(3), 7)
        data = ct.collect_data(device_m2, fids)
        model = gauge_reconstruct(data)
        assert np.allclose(model.dual, data.gram[0, :], atol=1e-12)
        g_inv = np.linalg.inv(data.gram)
        assert np.allclose(model.gates["H"], g_inv @ data.gate_mats["H"], atol=1e-10)

    def test_true_gauge_recovers_ideal_gates(self, noiseless):
        data = ct.collect_data(noiseless, D4_FIDUCIALS)
        _, m_in = fiducial_frames(noiseless, D4_FIDUCIALS)
        model = gauge_reconstruct(data, m_hat_in=m_in)
        ideal = ct.ideal_qubit_ptms()
        assert np.allclose(model.gates["H"], ideal["H"], atol=1e-10)
        assert np.allclose(model.gates["S"], ideal["S"], atol=1e-10)

    def test_predictions_match_simulator(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(3), 7)
        data = ct.collect_data(device_m2, fids)
        model = gauge_reconstruct(data)
        for seq in random_sequences(100, 20, seed=23):
            assert predict(model, seq) == pytest.approx(ct.run_circuit(device_m2, seq).mean, abs=1e-9)

    def test_anchor_consistency(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(3), 7)
        data = ct.collect_data(device_m2, fids)
        model = gauge_reconstruct(data)
        for k, meas in enumerate(fids.meas_sequences):
            for i, prep in enumerate(fids.prep_sequences):
                assert predict(model, prep + meas) == pytest.approx(data.gram[k, i], abs=1e-9)
                assert predict(model, prep + ("S",) + meas) == pytest.approx(
                    data.gate_mats["S"][k, i], abs=1e-9
                )

    def test_ill_conditioned_gauge_rejected(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(3), 7)
        data = ct.collect_data(device_m2, fids)
        bad = np.diag([1.0, 1e-12, 1, 1, 1, 1, 1])
        with pytest.raises(ProtocolFailure):
            gauge_reconstruct(data, m_hat_in=bad)


@pytest.fixture(scope="module")
def model(device_m2):
    fids = select_fiducials(device_m2, sequences_up_to(3), 7)
    return gauge_reconstruct(ct.collect_data(device_m2, fids))


class TestGaugeTransform:
    def test_identity_is_noop(self, model):
        out = gauge_transform(model, np.eye(model.d))
        assert np.allclose(out.gates["H"], model.gates["H"], atol=1e-15)

    def test_scaling_cancels(self, model):
        out = gauge_transform(model, 2.0 * np.eye(model.d))
        for seq in random_sequences(10, 15, seed=2):
            assert predict(out, seq) == pytest.approx(predict(model, seq), abs=1e-12)

    def test_random_similarity_preserves_predictions(self, model, rng):
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(model.d, model.d)))
            s = q @ np.diag(rng.uniform(0.5, 2.0, size=model.d))
            cond = np.linalg.cond(s)
            out = gauge_transform(model, s)
            for seq in random_sequences(5, 12, seed=7):
                assert abs(predict(out, seq) - predict(model, seq)) <= 1e-10 * cond

    def test_singular_similarity_rejected(self, model):
        s = np.zeros((model.d, model.d))
        with pytest.raises((ProtocolFailure, np.linalg.LinAlgError)):
            gauge_transform(model, s)


class TestPredict:
    def test_empty_and_identity_circuits(self, noiseless):
        data = ct.collect_data(noiseless, D4_FIDUCIALS)
        model = gauge_reconstruct(data)
        assert predict(model, ()) == pytest.approx(1.0, abs=1e-10)
        assert predict(model, ("H", "H")) == pytest.approx(1.0, abs=1e-10)

    def test_unknown_gate(self, noiseless):
        model = gauge_reconstruct(ct.collect_data(noiseless, D4_FIDUCIALS))
        with pytest.raises(KeyError, match="unknown gate label 'T'"):
            predict(model, ("T",))


class TestRankLaw:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reachable_dimension(self, m):
        model = ct.build_low_freq_model(1.0, 0.5, m)
        fids = FiducialSet(
            prep_sequences=tuple(sequences_up_to(6)),
            meas_sequences=tuple(tuple(reversed(s)) for s in sequences_up_to(6)),
        )
        data = ct.collect_data(model, fids)
        s = np.linalg.svd(data.gram, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * s[0]))
        assert rank == ct.effective_dimension(2, m) == 3 * m + 1


def lapack_pivots(columns, k):
    """Oracle: column 0, then LAPACK's pivoted QR on the rest, orthogonalized against it."""
    q0 = columns[:, [0]] / np.linalg.norm(columns[:, 0])
    rest = columns[:, 1:] - q0 @ (q0.T @ columns[:, 1:])
    _, _, piv = scipy.linalg.qr(rest, pivoting=True, mode="economic")
    return [0] + [int(p) + 1 for p in piv[: k - 1]]


def residual_norms(columns, picks):
    """Norms of the columns after projecting out the picked ones (Householder QR)."""
    q, _ = np.linalg.qr(columns[:, picks])
    norms = np.linalg.norm(columns - q @ (q.T @ columns), axis=0)
    norms[picks] = 0.0
    return norms


POOL_MODELS = {
    "low_freq-2": lambda: ct.build_low_freq_model(1.0, 0.02, 2),
    "low_freq-5": lambda: ct.build_low_freq_model(1.0, 0.02, 5),
    "second_order": lambda: ct.second_order_model(1.0, 0.1, {"H": 0.1, "S": 0.2}),
}


class TestFiducialPivots:
    @pytest.mark.parametrize("name", sorted(POOL_MODELS))
    @pytest.mark.parametrize("max_len", [2, 3, 4])
    def test_greedy_picks_against_lapack(self, name, max_len):
        model = POOL_MODELS[name]()
        pool = sequences_up_to(max_len)
        m_out, m_in = fiducial_frames(model, FiducialSet(tuple(pool), tuple(tuple(reversed(s)) for s in pool)))
        untied = 0
        for columns in (m_in, m_out.T):
            k = min(model.dim, len(pool))
            picks, oracle = pivot_columns(columns, k), lapack_pivots(columns, k)
            assert picks[0] == 0 and len(set(picks)) == k
            scale = np.max(np.linalg.norm(columns, axis=0))
            same_so_far = True
            for step in range(1, k):
                norms = residual_norms(columns, picks[:step])
                top, second = np.sort(norms)[::-1][:2]
                if top <= 1e-8 * scale:  # numerically rank deficient from here on
                    break
                # every pick is a largest residual, up to rounding
                assert norms[picks[step]] >= (1.0 - 1e-9) * top
                if same_so_far and second < (1.0 - 1e-9) * top:
                    untied += 1
                    assert picks[step] == oracle[step]
                same_so_far = same_so_far and picks[step] == oracle[step]
        assert untied > 0

    def test_exact_ties_go_to_the_lowest_index(self):
        columns = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 2.0], [0.0, 0.0, 2.0, 0.0]])
        assert pivot_columns(columns, 3) == [0, 1, 2]
        assert pivot_columns(columns, 4) == [0, 1, 2, 3]  # a vanished residual is still picked once

    def test_rejects_more_picks_than_columns(self):
        with pytest.raises(ValueError):
            pivot_columns(np.eye(3), 4)
