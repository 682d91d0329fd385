"""Levenberg-Marquardt: closed-form answers, termination rules, counts, and the batch against one start alone."""

import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import corrtomo as ct
import corrtomo.mle as mle
from conftest import loop_lm
from corrtomo.linear_inversion import collect_trial_data
from corrtomo.lm import _dots, _norms, _solve, levenberg_marquardt
from corrtomo.mle import records_from_tomography


def linear_problem(seed, rows=30, cols=6):
    """A @ x - b with columns on scales 1 .. 1000, so the variable scaling matters."""
    gen = np.random.default_rng(seed)
    return gen.normal(size=(rows, cols)) * np.logspace(0, 3, cols), gen.normal(size=rows)


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def tanh_problem(seed=4):
    a, b = linear_problem(seed)
    return (lambda x: np.tanh(a @ x) - 0.5 * np.tanh(b)), (lambda x: (1.0 - np.tanh(a @ x) ** 2)[:, None] * a)


def cliff(x):
    """45 - tanh(x_0), with x_1 unused.  From (1, 10) the first step lands at x_0 = 106, where tanh rounds
    to 1 and the Jacobian is 1e-92 of the first one: its normal matrix is 1.7e-183 and 0 on the diagonal."""
    return np.array([45.0 - np.tanh(x[0]), 0.0])


def cliff_jacobian(x):
    return np.array([[-1.0 / np.cosh(x[0]) ** 2, 0.0], [0.0, 0.0]])


def huge_rosenbrock(x):
    """Rosenbrock's residuals times 1e150: large enough that mu overflows before a step's squared length
    underflows, small enough that their squares stay finite."""
    return 1e150 * rosenbrock(x)


def uphill_jacobian(x):
    """The Jacobian of ``huge_rosenbrock`` with its sign flipped: every step it proposes goes uphill."""
    return -1e150 * rosenbrock_jacobian(x)


def undefined_jacobian(x):
    """The Rosenbrock Jacobian, undefined (NaN) where ``x_0 < 0``."""
    return rosenbrock_jacobian(x) if x[0] >= 0.0 else np.full((2, 2), np.nan)


def stacked(one):
    """The batch form of a function of one point."""
    return lambda xs: np.stack([one(x) for x in xs])


def model_of(fun, jac):
    """The batch model of a residual and a Jacobian of one point: residuals of a stack, Jacobians at its rows."""
    return lambda xs: (stacked(fun)(xs), lambda rows: stacked(jac)(xs[rows]))


def solve(fun, jac, x0, *args):
    """One start through the batched LM."""
    (result,) = levenberg_marquardt(model_of(fun, jac), np.asarray(x0, dtype=float)[None], *args)
    return result


def assert_same_bits(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert got.residuals.tobytes() == want.residuals.tobytes()
    assert (got.nfev, got.njev, got.converged) == (want.nfev, want.njev, want.converged)


class TestClosedForms:
    @pytest.mark.parametrize("seed", range(6))
    def test_linear_least_squares(self, seed):
        a, b = linear_problem(seed)
        want, *_ = np.linalg.lstsq(a, b, rcond=None)
        result = solve(lambda x: a @ x - b, lambda x: a, np.zeros(6), 1e-15, 600)
        assert result.converged
        np.testing.assert_allclose(result.x, want, rtol=1e-10, atol=0)
        assert np.array_equal(result.residuals, a @ result.x - b)

    def test_rank_deficient_linear_problem_reaches_the_least_residual(self):
        a, b = linear_problem(3)
        a = np.column_stack([a, a[:, 0] + a[:, 1]])  # a null direction
        want, *_ = np.linalg.lstsq(a, b, rcond=None)
        result = solve(lambda x: a @ x - b, lambda x: a, np.zeros(7), 1e-15, 700)
        assert result.converged
        assert result.residuals @ result.residuals == pytest.approx(np.sum((a @ want - b) ** 2), rel=1e-12)

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [3.0, -2.0]])
    def test_rosenbrock_minimum(self, x0):
        result = solve(rosenbrock, rosenbrock_jacobian, x0, 1e-15, 200)
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=0, atol=1e-12)
        scipy_result = least_squares(rosenbrock, x0, jac=rosenbrock_jacobian, method="lm")
        np.testing.assert_allclose(result.x, scipy_result.x, rtol=0, atol=1e-8)


class TestTermination:
    def test_zero_residual_start_stops_at_once(self):
        result = solve(rosenbrock, rosenbrock_jacobian, [1.0, 1.0], 1e-15, 200)
        assert result.converged and (result.nfev, result.njev) == (1, 1)
        assert result.n_evaluations == 2

    def test_budget_ends_unconverged_at_the_last_accepted_point(self):
        result = solve(rosenbrock, rosenbrock_jacobian, [-1.2, 1.0], 1e-15, 4)
        assert not result.converged
        assert result.nfev == 4
        assert np.array_equal(result.residuals, rosenbrock(result.x))

    def test_counts_every_evaluation(self):
        rows = {"fun": 0, "jac": 0}

        def model(xs):
            rows["fun"] += len(xs)

            def jacobian_at(picked):
                rows["jac"] += len(xs[picked])
                return stacked(rosenbrock_jacobian)(xs[picked])

            return stacked(rosenbrock)(xs), jacobian_at

        results = levenberg_marquardt(model, np.array([[-1.2, 1.0], [1.0, 1.0], [3.0, -2.0]]), 1e-15, 200)
        assert rows == {"fun": sum(r.nfev for r in results), "jac": sum(r.njev for r in results)}

    def test_model_sees_only_the_running_starts(self):
        seen = []

        def model(xs):
            seen.append(len(xs))
            return model_of(rosenbrock, rosenbrock_jacobian)(xs)

        starts = np.array([[1.0, 1.0], [-1.2, 1.0]])
        results = levenberg_marquardt(model, starts, 1e-15, 200)
        # the zero-residual start leaves after its first Jacobian
        assert seen == [2] + [1] * (results[1].nfev - 1)

    def test_jacobians_come_from_the_last_model_call(self):
        calls = []

        def model(xs):
            asked = []
            calls.append(asked)

            def jacobian_at(rows):
                assert asked is calls[-1]  # no model call since the one that made this function
                asked.append(len(xs[rows]))
                return stacked(rosenbrock_jacobian)(xs[rows])

            return stacked(rosenbrock)(xs), jacobian_at

        results = levenberg_marquardt(model, np.array([[-1.2, 1.0], [3.0, -2.0], [0.5, 0.5]]), 1e-15, 200)
        # at most one Jacobian call per model call, the first at every start
        assert all(len(asked) <= 1 for asked in calls) and calls[0] == [3]
        assert sum(map(sum, calls)) == sum(r.njev for r in results)

    def test_damping_overflow_ends_unconverged_without_a_warning(self):
        # every step goes uphill, and with tol 0 no step is short enough, so mu grows until it would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve(huge_rosenbrock, uphill_jacobian, [-1.2, 1.0], 0.0, 10**6)
        assert not result.converged and result.njev == 1
        assert np.array_equal(result.x, [-1.2, 1.0]) and 2 < result.nfev < 100

    def test_step_that_is_not_finite_never_reaches_the_model(self):
        seen = []

        def model(xs):
            seen.append(xs.copy())
            return model_of(rosenbrock, undefined_jacobian)(xs)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = levenberg_marquardt(model, np.array([[-1.2, 1.0], [3.0, -2.0]]), 1e-15, 200)
        assert all(np.isfinite(xs).all() for xs in seen)
        assert not results[0].converged and (results[0].nfev, results[0].njev) == (1, 1)
        assert results[1].converged and np.allclose(results[1].x, [1.0, 1.0], rtol=0, atol=1e-12)

    def test_repeats_bit_for_bit(self):
        f, j = tanh_problem()
        first = solve(f, j, np.full(6, 0.01), 1e-15, 600)
        second = solve(f, j, np.full(6, 0.01), 1e-15, 600)
        assert_same_bits(first, second)


def oracle_cases():
    """(name, fun, jac, starts, tol, max_nfev) over every way a fit can stop."""
    f, j = tanh_problem()
    gen = np.random.default_rng(5)
    rosenbrock_starts = [[-1.2, 1.0], [1.0, 1.0], [3.0, -2.0], [0.5, 0.5]]
    cases = [
        ("rosenbrock", rosenbrock, rosenbrock_jacobian, rosenbrock_starts, 1e-15, 200),
        ("rosenbrock budget", rosenbrock, rosenbrock_jacobian, rosenbrock_starts, 1e-15, 4),
        ("uphill", huge_rosenbrock, uphill_jacobian, rosenbrock_starts, 0.0, 10**6),
        ("undefined", rosenbrock, undefined_jacobian, rosenbrock_starts, 1e-15, 200),
        ("tanh", f, j, [np.full(6, 0.01), np.zeros(6), *gen.normal(0.0, 0.01, (3, 6))], 1e-15, 600),
        ("tanh loose", f, j, [np.full(6, 0.01), *gen.normal(0.0, 0.01, (2, 6))], 1e-6, 600),
    ]
    for seed in range(3):
        a, b = linear_problem(seed)
        cases.append((f"linear {seed}", lambda x, a=a, b=b: a @ x - b, lambda x, a=a: a, [np.zeros(6)], 1e-15, 600))
    a, b = linear_problem(3)
    a = np.column_stack([a, a[:, 0] + a[:, 1]])
    cases.append(("rank deficient", lambda x: a @ x - b, lambda x: a, [np.zeros(7), np.ones(7)], 1e-15, 700))
    return cases


class TestAgainstOneStartAlone:
    @pytest.mark.parametrize("case", oracle_cases(), ids=lambda case: case[0])
    def test_batch_matches_the_loop_bit_for_bit(self, case):
        _, fun, jac, starts, tol, budget = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = levenberg_marquardt(model_of(fun, jac), np.array(starts, dtype=float), tol, budget)
            for start, got in zip(starts, results):
                assert_same_bits(got, loop_lm(fun, jac, start, tol, budget))

    def test_cases_hit_every_stopping_test(self):
        stops = []
        for _, fun, jac, starts, tol, budget in oracle_cases():
            for start in starts:
                loop_lm(fun, jac, start, tol, budget, stops=stops)
        want = {"zero residual", "gradient", "step not finite", "step", "budget", "damping overflow"}
        assert set(stops) == want

    @pytest.mark.parametrize("l_size", [1, 2, 3])
    @pytest.mark.parametrize("device", ["m5", "m2"])
    def test_likelihood_starts_match_the_loop_bit_for_bit(self, monkeypatch, d7_records, device, l_size):
        calls = []
        real = mle.levenberg_marquardt

        def spy(model, x0, tol, max_nfev):
            calls.append((model, x0, tol, max_nfev, real(model, x0, tol, max_nfev)))
            return calls[-1][-1]

        monkeypatch.setattr(mle, "levenberg_marquardt", spy)
        ct.fit(d7_records[device], l_size, n_starts=4, seed=0)
        ((model, starts, tol, max_nfev, results),) = calls
        for x0, got in zip(starts, results):
            want = loop_lm(lambda x: model(x[None])[0][0], lambda x: model(x[None])[1]([0])[0], x0, tol, max_nfev)
            assert_same_bits(got, want)

    @settings(max_examples=8, deadline=None)
    @given(order=st.permutations(range(5)), size=st.integers(1, 5))
    def test_any_subset_and_order_of_starts_gives_each_start_its_own_bits(self, order, size):
        picked = order[:size]
        results = levenberg_marquardt(tanh_model(), TANH_STARTS[picked], 1e-15, 600)
        for i, got in zip(picked, results):
            assert_same_bits(got, tanh_alone(i))


TANH_STARTS = np.vstack([np.full(6, 0.01), np.zeros(6), np.random.default_rng(6).normal(0.0, 0.02, (3, 6))])


def tanh_model():
    return model_of(*tanh_problem())


@functools.cache
def tanh_alone(i):
    return levenberg_marquardt(tanh_model(), TANH_STARTS[i : i + 1], 1e-15, 600)[0]


@pytest.fixture(scope="module")
def d7_records(suite_records, device_m2, trial_d7):
    return {"m5": suite_records, "m2": records_from_tomography(collect_trial_data(device_m2, trial_d7))}


class TestDampingOverflow:
    """Where the Jacobian has collapsed, steps in its lost directions are long, and no warning escapes."""

    def test_batch_matches_the_loop_bit_for_bit_on_the_cliff(self):
        x0 = np.array([1.0, 10.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = levenberg_marquardt(model_of(cliff, cliff_jacobian), x0[None], 1e-10, 200)[0]
            want = loop_lm(cliff, cliff_jacobian, x0, 1e-10, 200)
        assert_same_bits(got, want)
        assert got.x[0] > 100.0 and got.converged and got.residuals[0] == 44.0  # tanh rounds to 1 there

    def test_one_variable_cliff_matches_the_loop_without_a_warning(self):
        def one(x):
            return cliff(x)[:1]

        def one_jacobian(x):
            return cliff_jacobian(x)[:1, :1]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = levenberg_marquardt(model_of(one, one_jacobian), np.array([[1.0]]), 1e-10, 200)[0]
            want = loop_lm(one, one_jacobian, np.array([1.0]), 1e-10, 200)
        assert_same_bits(got, want)
        assert got.x[0] > 100.0

    # round 3 of the mle workload at seed 13002, a fit whose trust-region damping sum once overflowed
    OVERFLOWING_FIT = """
from corrtomo.experiments import build_model
from corrtomo.linear_inversion import collect_trial_data, trial_sequences
from corrtomo.mle import fit, records_from_tomography
device = build_model({"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 5})
data = collect_trial_data(device, trial_sequences("d7", seed=1370274892), seed=1370274892)
print(fit(records_from_tomography(data), 2, seed=1370274892).diagnostics["n_evaluations"])
"""

    def test_fit_whose_damping_overflows_runs_under_warnings_as_errors(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        command = [sys.executable, "-W", "error::RuntimeWarning", "-c", self.OVERFLOWING_FIT]
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "" and int(proc.stdout) > 0


class TestStackedProducts:
    """The per-start scalars come from stacked products whose rows are bit for bit the 1-D products."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 16), n=st.integers(1, 500))
    def test_rows_are_the_one_row_products(self, seed, k, n):
        gen = np.random.default_rng(seed)
        a, b = (gen.normal(size=(k, n)) * 10.0 ** gen.uniform(-8.0, 8.0, (k, n)) for _ in range(2))
        norms, dots = _norms(a), _dots(a, b)
        for i in range(k):
            assert norms[i] == math.sqrt(a[i] @ a[i])
            assert dots[i] == a[i] @ b[i]

    def test_solves_are_the_one_system_solves(self):
        gen = np.random.default_rng(7)
        j = gen.normal(size=(6, 9, 4)) * 10.0 ** gen.uniform(-8.0, 8.0, (6, 1, 4))
        a = j.swapaxes(1, 2) @ j + np.eye(4) * gen.uniform(1e-6, 1.0, (6, 1, 1))
        b = gen.normal(size=(6, 4))
        got = _solve(a, b)
        for i in range(6):
            assert got[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes()

    def test_singular_system_gets_a_nan_step_and_leaves_the_others_alone(self):
        a = np.array([np.eye(2), np.ones((2, 2)), [[2.0, 1.0], [1.0, 3.0]]])
        b = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, -1.0]])
        got = _solve(a, b)
        assert np.isnan(got[1]).all()
        assert got[0].tobytes() == b[0].tobytes()
        assert got[2].tobytes() == np.linalg.solve(a[2], b[2]).tobytes()
