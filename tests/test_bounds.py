"""Error bounds: norms, invariance defects, empirical checks, dimension counts."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corrtomo as ct
from corrtomo.bounds import (
    BoundCheckReport,
    Projection,
    _trace_norms,
    dual_norm,
    gram_gauge_defect,
    invariance_defect,
    ket_norm,
    operation_norm,
    projection_from_vectors,
)
from corrtomo.tomography import FiducialSet, fiducial_frames, select_fiducials
from conftest import loop_bound_check, nelder_mead_operation_norm, sequences_up_to


class TestProjection:
    def test_from_vectors(self, rng):
        vecs = rng.normal(size=(8, 3))
        proj = projection_from_vectors(vecs)
        assert proj.rank == 3
        assert np.allclose(proj.matrix @ vecs, vecs, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projection(basis=np.eye(4)[:, :2], matrix=0.5 * np.eye(4))
        with pytest.raises(ValueError, match="symmetric"):
            m = np.zeros((4, 4))
            m[0, 1] = 1.0
            Projection(basis=np.eye(4)[:, :1], matrix=m)


class TestNorms:
    def test_state_and_dual_norms_of_physical_vectors(self, device_m5):
        # physical states have unit trace norm, projector-type duals unit spectral norm
        assert ket_norm(device_m5.rho_vec(), "trace") == pytest.approx(1.0, abs=1e-12)
        assert dual_norm(device_m5.dual_vec(), "trace") == pytest.approx(1.0, abs=1e-12)

    def test_gates_are_trace_norm_contractions(self, device_m5):
        for label in ("H", "S"):
            assert operation_norm(device_m5.gate_block(label), "trace") == pytest.approx(1.0, abs=1e-9)

    def test_frobenius_norm_of_unitary_block(self, noiseless):
        assert operation_norm(noiseless.gate_block("H"), "frobenius") == pytest.approx(1.0, abs=1e-12)

    def test_scaling(self):
        mat = 2.0 * np.eye(8)
        assert operation_norm(mat, "trace") == pytest.approx(2.0, abs=1e-9)
        assert operation_norm(mat, "frobenius") == pytest.approx(2.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ket_norm(np.zeros(4), "nuclear")


def assert_matches_nelder_mead(mat):
    """Never below the Nelder-Mead oracle beyond roundoff, and at most 1e-9 above it."""
    got, want = operation_norm(mat, "trace"), nelder_mead_operation_norm(mat)
    assert want * (1.0 - 1e-12) <= got <= want * (1.0 + 1e-9)


class TestTraceNormSearch:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_blocks_match_nelder_mead(self, seed):
        m = 1 + seed % 5
        assert_matches_nelder_mead(np.random.default_rng([seed, 4 * m]).normal(size=(4 * m, 4 * m)))

    @pytest.mark.parametrize("d", [7, 3])
    def test_gates_and_defects_match_nelder_mead(self, device_m5, device_m2, d):
        for model in (device_m2, device_m5):
            _, m_in = fiducial_frames(model, select_fiducials(model, sequences_up_to(3), d))
            p = projection_from_vectors(m_in).matrix
            for label in ("H", "S"):
                gate = model.gate_block(label)
                assert_matches_nelder_mead(gate)
                assert_matches_nelder_mead(p @ gate @ p - gate @ p)


CONTEXT = ct.ContextModel(("H", "S"), {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}})


def defects_and_gates(model, d):
    """The stack a bound check searches: its invariance defects for a d-dim subspace, then its gates."""
    _, m_in = fiducial_frames(model, select_fiducials(model, sequences_up_to(3), d))
    p = projection_from_vectors(m_in).matrix
    gates = np.stack([model.gate_block(label) for label in model.gate_labels])
    defects = p @ gates @ p - gates @ p
    for defect, gate in zip(defects, gates):
        assert defect.tobytes() == (p @ gate @ p - gate @ p).tobytes()
    return np.concatenate([defects, gates])


class TestStackedSearch:
    """Every matrix's trace norm has the same bits whether it is searched alone or in a stack."""

    @pytest.mark.parametrize("d", [7, 3])
    def test_stack_matches_each_matrix_alone(self, device_m2, device_m5, d):
        for model in (device_m2, device_m5, CONTEXT):
            mats = defects_and_gates(model, d)
            alone = np.array([_trace_norms(mat[None])[0] for mat in mats])
            assert _trace_norms(mats).tobytes() == alone.tobytes()
            assert _trace_norms(mats[::-1]).tobytes() == alone[::-1].tobytes()
            assert np.array([operation_norm(mat) for mat in mats]).tobytes() == alone.tobytes()

    def test_stack_of_two_models_matches_each_alone(self, device_m2):
        mats = np.concatenate([defects_and_gates(device_m2, 7), defects_and_gates(CONTEXT, 3), 2.0 * np.eye(8)[None]])
        alone = np.array([operation_norm(mat) for mat in mats])
        assert _trace_norms(mats).tobytes() == alone.tobytes()

    def test_rejects_non_block_shapes(self):
        with pytest.raises(ValueError, match="stacked qubit blocks"):
            operation_norm(np.eye(6))


class TestInvarianceDefect:
    def test_identity_projection_has_zero_defect(self, device_m5):
        proj = projection_from_vectors(np.eye(device_m5.dim))
        assert invariance_defect(proj, device_m5.gate_block("H")) <= 1e-12

    def test_exactly_invariant_subspace(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(6), 7)
        from corrtomo.tomography import fiducial_frames

        _, m_in = fiducial_frames(device_m2, fids)
        proj = projection_from_vectors(m_in)
        for label in ("H", "S"):
            assert invariance_defect(proj, device_m2.gate_block(label)) <= 1e-12

    def test_dominant_subspace_has_small_defect(self, device_m5):
        fids = select_fiducials(device_m5, sequences_up_to(3), 7)
        from corrtomo.tomography import fiducial_frames

        _, m_in = fiducial_frames(device_m5, fids)
        proj = projection_from_vectors(m_in)
        eps = max(invariance_defect(proj, device_m5.gate_block(l)) for l in ("H", "S"))
        assert 0.0 < eps < 0.05

    def test_shape_mismatch(self, device_m5):
        proj = projection_from_vectors(np.eye(8))
        with pytest.raises(ValueError):
            invariance_defect(proj, device_m5.gate_block("H"))


class TestBoundFormulas:
    def test_zero_defect_zero_bound(self):
        assert ct.sequence_bound(1.0, 1.0, 1.0, 0.0, 25) == 0.0

    def test_reference_value(self):
        assert ct.sequence_bound(1, 1, 1, 0.01, 10) == pytest.approx(1.01**10 - 1.0, rel=1e-12)

    def test_first_order_regime(self):
        eps, n = 1e-8, 20
        assert ct.sequence_bound(2.0, 3.0, 1.0, eps, n) == pytest.approx(2.0 * 3.0 * n * eps, rel=1e-5)

    def test_lim_bound_collapses_without_gram_error(self):
        assert ct.lim_bound(1, 1, 1, 0.0, 0.01, 10) == ct.sequence_bound(1, 1, 1, 0.01, 10)
        assert ct.lim_bound(1, 1, 1, 0.0, 0.0, 10) == 0.0

    def test_lim_bound_first_order(self):
        eps_g, eps_o, n = 1e-9, 2e-9, 15
        want = (n - 1) * eps_g + n * eps_o
        assert ct.lim_bound(1, 1, 1, eps_g, eps_o, n) == pytest.approx(want, rel=1e-4)

    @given(
        eps=st.floats(0.0, 0.5),
        eps2=st.floats(0.0, 0.5),
        n=st.integers(1, 30),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotonicity(self, eps, eps2, n):
        lo, hi = sorted((eps, eps2))
        assert ct.sequence_bound(1, 1, 1, lo, n) <= ct.sequence_bound(1, 1, 1, hi, n)
        assert ct.lim_bound(1, 1, 1, lo, 0.01, n) <= ct.lim_bound(1, 1, 1, hi, 0.01, n)
        assert ct.sequence_bound(1, 1, 1, hi, n) <= ct.sequence_bound(1, 1, 1, hi, n + 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ct.sequence_bound(1, 1, 1, -0.1, 5)


NO_NUMPY_MA = """
import json, sys, tempfile
from pathlib import Path
import corrtomo.experiments as ex
cfg = {"experiment": "bounds", "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
       "params": {"subspace_dims": [3], "n_sequences": 4, "max_len": 4, "pool_max_len": 2}}
code = ex.run(cfg, out_dir=Path(tempfile.mkdtemp()) / "out")
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
"""


class TestEmpiricalCheck:
    def test_exactly_invariant_case(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(6), 7)
        report = ct.empirical_bound_check(device_m2, fids, n_sequences=200, max_len=20, seed=0)
        assert report.passed
        assert np.max(report.lhs) <= 1e-10

    def test_dominant_subspace(self, device_m5):
        fids = select_fiducials(device_m5, sequences_up_to(3), 7)
        report = ct.empirical_bound_check(device_m5, fids, n_sequences=200, max_len=20, seed=1)
        assert report.passed
        assert 0.0 < report.epsilon < 0.05
        assert report.max_ratio <= 1.0

    def test_adversarial_small_subspace(self, device_m5):
        fids = FiducialSet(
            prep_sequences=((), ("S", "H"), ("H", "S", "S")),
            meas_sequences=((), ("H", "S"), ("S", "S", "H")),
        )
        report = ct.empirical_bound_check(device_m5, fids, n_sequences=200, max_len=20, seed=2)
        assert report.passed
        assert report.epsilon > 0.1  # far from invariant, bound still valid

    def test_report_serializes(self, device_m2):
        fids = select_fiducials(device_m2, sequences_up_to(4), 7)
        report = ct.empirical_bound_check(device_m2, fids, n_sequences=20, max_len=8, seed=3)
        blob = report.to_json()
        assert set(blob) >= {"norm_kind", "epsilon", "max_ratio", "violations", "ratio_percentiles"}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1e300), st.just(0.0), st.just(np.inf)), max_size=300))
    @example([])
    @example([0.7])
    @example([np.inf])
    @example([0.5, np.inf])
    def test_ratio_percentiles_are_numpys_bit_for_bit(self, ratios):
        ratios = np.array(ratios, dtype=float)
        blob = BoundCheckReport(ratios, ratios, ratios, 0.0, 1.0, 1.0, 1.0, "trace").to_json()["ratio_percentiles"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an inf neighbour: inf - inf
            want = [np.percentile(ratios, q) if ratios.size else 0.0 for q in (50, 90, 99, 100)]
        assert list(blob) == ["50", "90", "99", "100"]
        # finite percentiles keep NumPy's bits; NaN and infinite ones are written as null
        assert [v is None for v in blob.values()] == [not np.isfinite(w) for w in want]
        finite = [(v, w) for v, w in zip(blob.values(), want) if v is not None]
        assert np.array([v for v, _ in finite]).tobytes() == np.array([w for _, w in finite]).tobytes()

    @pytest.mark.parametrize("ratios", [[1.0, np.inf], [np.inf], [0.5, np.inf, np.inf], [0.0, 0.25]])
    def test_report_is_strict_json(self, ratios):
        ratios = np.array(ratios)
        sides = np.ones_like(ratios)  # finite sides: a ratio is infinite where its bound is 0
        blob = BoundCheckReport(sides, sides, ratios, 0.0, 1.0, 1.0, 1.0, "trace").to_json()

        def reject(constant):
            raise ValueError(f"non-finite value {constant} in the report")

        back = json.loads(json.dumps(blob), parse_constant=reject)
        assert back["max_ratio"] == (None if np.isinf(ratios).any() else ratios.max())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = [np.percentile(ratios, q) for q in (50, 90, 99, 100)]
        assert list(back["ratio_percentiles"].values()) == [w if np.isfinite(w) else None for w in want]

    def test_bounds_run_never_imports_numpy_ma(self):
        # np.percentile imports it, through np.unique, at about 20 ms a process
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", NO_NUMPY_MA], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "numpy.ma": False}

    @pytest.mark.parametrize(
        "seed,n_sequences,max_len",
        [(0, 200, 20), (1, 0, 20), (2, 1, 20), (0, 50, 1), (1, 293, 20)],
    )
    def test_matches_per_sequence_loop(self, device_m5, seed, n_sequences, max_len):
        fids = select_fiducials(device_m5, sequences_up_to(3), 7)
        got = ct.empirical_bound_check(device_m5, fids, n_sequences=n_sequences, max_len=max_len, seed=seed)
        want = loop_bound_check(device_m5, fids, n_sequences, max_len, seed)
        assert got.sequences == want.sequences
        assert (got.epsilon, got.n_o, got.n_q, got.n_rho) == (want.epsilon, want.n_o, want.n_q, want.n_rho)
        assert np.max(np.abs(got.lhs - want.lhs), initial=0.0) <= 1e-15
        assert np.array_equal(got.rhs, want.rhs)
        assert got.violations == want.violations

    @pytest.mark.parametrize("norm_kind", ["trace", "frobenius"])
    def test_context_model_matches_per_sequence_loop(self, norm_kind):
        fids = select_fiducials(CONTEXT, sequences_up_to(3), 3)
        got = ct.empirical_bound_check(CONTEXT, fids, n_sequences=60, max_len=12, seed=4, norm_kind=norm_kind)
        want = loop_bound_check(CONTEXT, fids, 60, 12, 4, norm_kind)
        assert got.sequences == want.sequences
        assert (got.epsilon, got.n_o, got.n_q, got.n_rho) == (want.epsilon, want.n_o, want.n_q, want.n_rho)
        assert np.max(np.abs(got.lhs - want.lhs)) <= 1e-15
        assert np.array_equal(got.rhs, want.rhs)

    def test_draw_is_pinned(self, device_m2):
        # all lengths in one call, then a full row of max_len gates per sequence
        fids = select_fiducials(device_m2, sequences_up_to(3), 7)
        report = ct.empirical_bound_check(device_m2, fids, n_sequences=4, max_len=6, seed=5)
        assert report.sequences == [
            ("H", "S", "S", "H", "S"),
            ("H", "H", "S", "H", "H"),
            ("H",),
            ("S", "H", "H", "H", "H"),
        ]

    def test_adversarial_subspace_matches_per_sequence_loop(self, device_m5):
        fids = FiducialSet(
            prep_sequences=((), ("S", "H"), ("H", "S", "S")),
            meas_sequences=((), ("H", "S"), ("S", "S", "H")),
        )
        got = ct.empirical_bound_check(device_m5, fids, n_sequences=100, max_len=20, seed=2)
        want = loop_bound_check(device_m5, fids, 100, 20, 2)
        assert got.sequences == want.sequences
        assert np.max(np.abs(got.lhs - want.lhs)) <= 1e-15
        assert np.max(got.lhs) > 1e-3

    @pytest.mark.parametrize("bad", [{"n_sequences": -1}, {"max_len": 0}])
    def test_rejects_out_of_range_counts(self, device_m2, bad):
        fids = select_fiducials(device_m2, sequences_up_to(3), 3)
        with pytest.raises(ValueError):
            ct.empirical_bound_check(device_m2, fids, **{"n_sequences": 10, "max_len": 5, **bad})


class TestGramGaugeDefect:
    def test_projective_construction_annihilates_it(self, device_m2, device_m5):
        for model, d in ((device_m2, 7), (device_m5, 7), (device_m5, 3)):
            fids = select_fiducials(model, sequences_up_to(4), d)
            assert gram_gauge_defect(model, fids) <= 1e-9

    def test_singular_gram_rejected(self, device_m2):
        fids = FiducialSet(
            prep_sequences=((), ("H",), ("H",)),
            meas_sequences=((), ("H",), ("H",)),
        )
        with pytest.raises(np.linalg.LinAlgError):
            gram_gauge_defect(device_m2, fids)


class TestDimensionCounting:
    def test_effective_dimension(self):
        assert ct.effective_dimension(2, 1) == 4
        assert ct.effective_dimension(2, 2) == 7
        assert ct.effective_dimension(2, 5) == 16

    def test_min_support(self):
        assert ct.min_support(9) == 5
        assert ct.min_support(7) == 4
        assert ct.min_support(0) == 1

    def test_cubature_count(self):
        assert ct.cubature_count(1, 9) == 10
        assert ct.cubature_count(2, 2) == 6
        assert ct.cubature_count(3, 4) == 35

    def test_validation(self):
        with pytest.raises(ValueError):
            ct.effective_dimension(1, 1)
        with pytest.raises(ValueError):
            ct.min_support(-1)
        with pytest.raises(ValueError):
            ct.cubature_count(0, 3)
