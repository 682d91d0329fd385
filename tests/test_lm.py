"""Levenberg-Marquardt: closed-form answers, termination rules and counts."""

import numpy as np
import pytest
from scipy.optimize import least_squares

from corrtomo.lm import levenberg_marquardt


def linear_problem(seed, rows=30, cols=6):
    """A @ x - b with columns on scales 1 .. 1000, so the variable scaling matters."""
    gen = np.random.default_rng(seed)
    return gen.normal(size=(rows, cols)) * np.logspace(0, 3, cols), gen.normal(size=rows)


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


class TestClosedForms:
    @pytest.mark.parametrize("jac_scale", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear_least_squares(self, seed, jac_scale):
        a, b = linear_problem(seed)
        want, *_ = np.linalg.lstsq(a, b, rcond=None)
        result = levenberg_marquardt(lambda x: a @ x - b, lambda x: a, np.zeros(6), 1e-15, 600, jac_scale)
        assert result.converged
        np.testing.assert_allclose(result.x, want, rtol=1e-10, atol=0)
        assert np.array_equal(result.residuals, a @ result.x - b)

    def test_rank_deficient_linear_problem_reaches_the_least_residual(self):
        a, b = linear_problem(3)
        a = np.column_stack([a, a[:, 0] + a[:, 1]])  # a null direction
        want, *_ = np.linalg.lstsq(a, b, rcond=None)
        result = levenberg_marquardt(lambda x: a @ x - b, lambda x: a, np.zeros(7), 1e-15, 700)
        assert result.converged
        assert result.residuals @ result.residuals == pytest.approx(np.sum((a @ want - b) ** 2), rel=1e-12)

    @pytest.mark.parametrize("jac_scale", [True, False])
    def test_rosenbrock_minimum(self, jac_scale):
        result = levenberg_marquardt(rosenbrock, rosenbrock_jacobian, np.array([-1.2, 1.0]), 1e-15, 200, jac_scale)
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=0, atol=1e-12)
        scipy_result = least_squares(rosenbrock, [-1.2, 1.0], jac=rosenbrock_jacobian, method="lm")
        np.testing.assert_allclose(result.x, scipy_result.x, rtol=0, atol=1e-8)


class TestTermination:
    def test_zero_residual_start_stops_at_once(self):
        result = levenberg_marquardt(rosenbrock, rosenbrock_jacobian, np.array([1.0, 1.0]), 1e-15, 200)
        assert result.converged and (result.nfev, result.njev) == (1, 1)
        assert result.n_evaluations == 2

    def test_budget_ends_unconverged_at_the_last_accepted_point(self):
        result = levenberg_marquardt(rosenbrock, rosenbrock_jacobian, np.array([-1.2, 1.0]), 1e-15, 4)
        assert not result.converged
        assert result.nfev == 4
        assert np.array_equal(result.residuals, rosenbrock(result.x))

    def test_counts_every_evaluation(self):
        calls = {"fun": 0, "jac": 0}

        def fun(x):
            calls["fun"] += 1
            return rosenbrock(x)

        def jac(x):
            calls["jac"] += 1
            return rosenbrock_jacobian(x)

        result = levenberg_marquardt(fun, jac, np.array([-1.2, 1.0]), 1e-15, 200)
        assert (result.nfev, result.njev) == (calls["fun"], calls["jac"])

    def test_repeats_bit_for_bit(self):
        a, b = linear_problem(4)
        f = lambda x: np.tanh(a @ x) - 0.5 * np.tanh(b)  # noqa: E731
        j = lambda x: (1.0 - np.tanh(a @ x) ** 2)[:, None] * a  # noqa: E731
        first = levenberg_marquardt(f, j, np.full(6, 0.01), 1e-15, 600)
        second = levenberg_marquardt(f, j, np.full(6, 0.01), 1e-15, 600)
        assert first.x.tobytes() == second.x.tobytes()
        assert (first.nfev, first.njev) == (second.nfev, second.njev)
