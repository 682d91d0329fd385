"""Levenberg-Marquardt: closed-form answers, termination rules, counts, and the batch against one start alone."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import corrtomo as ct
import corrtomo.mle as mle
from conftest import _loop_damping, loop_lm
from corrtomo.linear_inversion import collect_trial_data
from corrtomo.lm import _damping, levenberg_marquardt
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
    """45 - tanh(x_0), with x_1 unused.  From (1, 10) one Gauss-Newton step lands at x_0 = 106, where
    the Jacobian is 1e-92 of the first one: the scaled normal matrix has eigenvalues 1.7e-183 and 0."""
    return np.array([45.0 - np.tanh(x[0]), 0.0])


def cliff_jacobian(x):
    return np.array([[-1.0 / np.cosh(x[0]) ** 2, 0.0], [0.0, 0.0]])


def stacked(one):
    """The batch form of a function of one point."""
    return lambda xs: np.stack([one(x) for x in xs])


def solve(fun, jac, x0, *args):
    """One start through the batched LM."""
    (result,) = levenberg_marquardt(stacked(fun), stacked(jac), np.asarray(x0, dtype=float)[None], *args)
    return result


def assert_same_bits(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert got.residuals.tobytes() == want.residuals.tobytes()
    assert (got.nfev, got.njev, got.converged) == (want.nfev, want.njev, want.converged)


class TestClosedForms:
    @pytest.mark.parametrize("jac_scale", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear_least_squares(self, seed, jac_scale):
        a, b = linear_problem(seed)
        want, *_ = np.linalg.lstsq(a, b, rcond=None)
        result = solve(lambda x: a @ x - b, lambda x: a, np.zeros(6), 1e-15, 600, jac_scale)
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

    @pytest.mark.parametrize("jac_scale", [True, False])
    def test_rosenbrock_minimum(self, jac_scale):
        result = solve(rosenbrock, rosenbrock_jacobian, [-1.2, 1.0], 1e-15, 200, jac_scale)
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=0, atol=1e-12)
        scipy_result = least_squares(rosenbrock, [-1.2, 1.0], jac=rosenbrock_jacobian, method="lm")
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

        def fun(xs):
            rows["fun"] += len(xs)
            return stacked(rosenbrock)(xs)

        def jac(xs):
            rows["jac"] += len(xs)
            return stacked(rosenbrock_jacobian)(xs)

        results = levenberg_marquardt(fun, jac, np.array([[-1.2, 1.0], [1.0, 1.0], [3.0, -2.0]]), 1e-15, 200)
        assert rows == {"fun": sum(r.nfev for r in results), "jac": sum(r.njev for r in results)}

    def test_functions_see_only_the_running_starts(self):
        seen = []

        def fun(xs):
            seen.append(len(xs))
            return stacked(rosenbrock)(xs)

        starts = np.array([[1.0, 1.0], [-1.2, 1.0]])
        results = levenberg_marquardt(fun, stacked(rosenbrock_jacobian), starts, 1e-15, 200)
        # the zero-residual start leaves after its first Jacobian
        assert seen == [2] + [1] * (results[1].nfev - 1)

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
    @pytest.mark.parametrize("jac_scale", [True, False])
    def test_batch_matches_the_loop_bit_for_bit(self, jac_scale):
        stops = []
        for _, fun, jac, starts, tol, budget in oracle_cases():
            x0 = np.array(starts, dtype=float)
            results = levenberg_marquardt(stacked(fun), stacked(jac), x0, tol, budget, jac_scale)
            for start, got in zip(starts, results):
                assert_same_bits(got, loop_lm(fun, jac, start, tol, budget, jac_scale, stops=stops))
        # every termination test is covered
        assert set(stops) == {"zero residual", "gradient", "reduction", "step bound", "budget"}

    @pytest.mark.parametrize("l_size", [1, 2, 3])
    @pytest.mark.parametrize("device", ["m5", "m2"])
    def test_likelihood_starts_match_the_loop_bit_for_bit(self, monkeypatch, d7_records, device, l_size):
        calls = []
        real = mle.levenberg_marquardt

        def spy(fun, jac, x0, tol, max_nfev):
            calls.append((fun, jac, x0, tol, max_nfev, real(fun, jac, x0, tol, max_nfev)))
            return calls[-1][-1]

        monkeypatch.setattr(mle, "levenberg_marquardt", spy)
        ct.fit(d7_records[device], l_size, n_starts=4, seed=0)
        ((fun, jac, starts, tol, max_nfev, results),) = calls
        for x0, got in zip(starts, results):
            want = loop_lm(lambda x: fun(x[None])[0], lambda x: jac(x[None])[0], x0, tol, max_nfev)
            assert_same_bits(got, want)

    @settings(max_examples=8, deadline=None)
    @given(order=st.permutations(range(5)), size=st.integers(1, 5), jac_scale=st.booleans())
    def test_any_subset_and_order_of_starts_gives_each_start_its_own_bits(self, order, size, jac_scale):
        picked = order[:size]
        results = levenberg_marquardt(*tanh_batch(), TANH_STARTS[picked], 1e-15, 600, jac_scale)
        for i, got in zip(picked, results):
            assert_same_bits(got, tanh_alone(i, jac_scale))


TANH_STARTS = np.vstack([np.full(6, 0.01), np.zeros(6), np.random.default_rng(6).normal(0.0, 0.02, (3, 6))])


def tanh_batch():
    f, j = tanh_problem()
    return stacked(f), stacked(j)


@functools.cache
def tanh_alone(i, jac_scale):
    return levenberg_marquardt(*tanh_batch(), TANH_STARTS[i : i + 1], 1e-15, 600, jac_scale)[0]


@pytest.fixture(scope="module")
def d7_records(suite_records, device_m2, trial_d7):
    return {"m5": suite_records, "m2": records_from_tomography(collect_trial_data(device_m2, trial_d7))}


class TestDampingOverflow:
    """Where the Jacobian has collapsed, the damping iteration's sum ``w @ (w / (lam + par))`` overflows."""

    # the scaled normal matrix's eigenvalues, the scaled gradient and the step bound after the cliff's first step
    LAM = np.array([1.7106829559930521e-183, 0.0])
    G = np.array([-1.819857742463006e-90, 0.0])
    DELTA = 22.11920292202212

    def test_damping_is_finite_without_a_warning(self):
        shifted = self.LAM + self.LAM[0]  # the first damping tried is |g| / |g / lam| = lam[0]
        with np.errstate(over="ignore"):
            w = self.G / shifted
            assert np.isinf(w @ (w / shifted))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            par, w = _damping(self.LAM, self.G, self.DELTA, 0.0)
        assert np.isfinite(par) and np.all(np.isfinite(w))
        assert abs(np.linalg.norm(w) - self.DELTA) <= 0.1 * self.DELTA
        want_par, want_w = _loop_damping(self.LAM, self.G, self.DELTA, 0.0)
        assert par == want_par and w.tobytes() == want_w.tobytes()

    def test_batch_matches_the_loop_bit_for_bit_on_the_cliff(self):
        x0 = np.array([1.0, 10.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = levenberg_marquardt(stacked(cliff), stacked(cliff_jacobian), x0[None], 1e-10, 200)[0]
            want = loop_lm(cliff, cliff_jacobian, x0, 1e-10, 200)
        assert_same_bits(got, want)
        assert got.x[0] > 100.0 and got.nfev == 3

    def test_first_lower_bound_is_finite_without_a_warning(self):
        # full rank, so the first lower bound parl is formed from w @ (w / lam), which overflows
        lam, g = np.array([1e-200]), np.array([1e-90])
        with np.errstate(over="ignore"):
            w = g / lam
            assert np.isinf(w @ (w / lam))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            par, w = _damping(lam, g, 1.0, 0.0)
        assert par > 0.0 and abs(np.linalg.norm(w) - 1.0) <= 0.1
        want_par, want_w = _loop_damping(lam, g, 1.0, 0.0)
        assert par == want_par and w.tobytes() == want_w.tobytes()

    def test_one_variable_cliff_matches_the_loop_without_a_warning(self):
        def one(x):
            return cliff(x)[:1]

        def one_jacobian(x):
            return cliff_jacobian(x)[:1, :1]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = levenberg_marquardt(stacked(one), stacked(one_jacobian), np.array([[1.0]]), 1e-10, 200)[0]
            want = loop_lm(one, one_jacobian, np.array([1.0]), 1e-10, 200)
        assert_same_bits(got, want)
        assert got.x[0] > 100.0
