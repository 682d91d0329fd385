"""Noise model construction: quadrature, channels, transitions, context."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_legendre

import corrtomo as ct
import corrtomo.noise as noise
from conftest import PAULIS, pauli_transfer
from corrtomo.noise import (
    LowFreqModel,
    MomentSequenceError,
    build_low_freq_model,
    constant_depolarizing_model,
    depolarized_gates,
    depolarizing_channel,
    discretize_from_moments,
    gate_error_rate,
    gauss_legendre,
    gaussian_x_moments,
    second_order_model,
    transition_decay,
)
from corrtomo.ptm import GATE_UNITARIES, ideal_qubit_ptms


def kraus_depolarizing_oracle(eps, u=np.eye(2)):
    """Independent channel construction: conjugation by ``u``, then the average
    of the four Pauli conjugations."""

    def channel(mat):
        mat = u @ mat @ u.conj().T
        return (1 - eps) * mat + eps / 4.0 * sum(p @ mat @ p.conj().T for p in PAULIS)

    return pauli_transfer(channel)


def gaussian_moment_oracle(sigma, k):
    """Adaptive integration of exp(-k lam^2) against the Gaussian density."""
    val, err = quad(
        lambda lam: np.exp(-k * lam * lam)
        * np.exp(-lam * lam / (2 * sigma**2))
        / np.sqrt(2 * np.pi * sigma**2),
        -np.inf,
        np.inf,
    )
    assert err < 1e-8  # conservative estimate; the value itself is far tighter
    return val


class TestDepolarizing:
    def test_zero_rate_is_identity(self):
        assert np.allclose(depolarizing_channel(0.0), np.eye(4), atol=1e-15)

    def test_full_rate_against_kraus_oracle(self):
        assert np.allclose(depolarizing_channel(1.0), kraus_depolarizing_oracle(1.0), atol=1e-14)
        assert np.allclose(depolarizing_channel(1.0), np.diag([1.0, 0, 0, 0]), atol=1e-14)

    def test_half_rate_linearity(self):
        assert np.allclose(depolarizing_channel(0.5), kraus_depolarizing_oracle(0.5), atol=1e-14)
        assert np.allclose(depolarizing_channel(0.5), np.diag([1.0, 0.5, 0.5, 0.5]), atol=1e-15)

    def test_depolarized_gates_against_kraus_oracle(self):
        rates = [0.0, 0.013, 0.5, 1.0]
        for label, u in GATE_UNITARIES.items():
            stack = depolarized_gates(label, rates)
            assert stack.shape == (len(rates), 4, 4)
            for eps, mat in zip(rates, stack):
                assert np.allclose(mat, kraus_depolarizing_oracle(eps, u), atol=1e-14)

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            depolarizing_channel(eps)

    def test_depolarized_gates_are_the_per_rate_products_bit_for_bit(self):
        rates = [0.0, 1.0, 0.5, 0.013, 1e-300, 1.0 - 2**-53]
        for label, ideal in ideal_qubit_ptms().items():
            want = np.stack([depolarizing_channel(eps) @ ideal for eps in rates])
            assert depolarized_gates(label, rates).tobytes() == want.tobytes()
            assert depolarized_gates(label, np.array(rates)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_depolarized_gates_name_the_first_rate_out_of_range(self, bad):
        with pytest.raises(ValueError) as want:
            depolarizing_channel(bad)
        with pytest.raises(ValueError) as got:
            depolarized_gates("H", [0.5, bad, 2.0])
        assert str(got.value) == str(want.value)


class TestGateErrorRate:
    def test_optimal_at_zero(self):
        assert gate_error_rate("H", 0.0, 0.7) == 0.0

    def test_saturation(self):
        assert gate_error_rate("S", 50.0, 0.02) == pytest.approx(0.02, rel=1e-12)

    def test_unit_strength_value(self):
        assert gate_error_rate("H", 1.0, 1.0) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-14)

    def test_same_curve_for_both_gates(self):
        assert gate_error_rate("H", 0.37, 0.5) == gate_error_rate("S", 0.37, 0.5)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            gate_error_rate("H", 0.0, 1.5)

    def test_array_is_the_per_point_rates_bit_for_bit(self):
        # rates 0 (at +-0), eta (saturated) and eta / 2 (at lam^2 = ln 2) among the dense nodes
        support = ct.dense_low_freq_model(1.0, 1.0, 301).support
        lam = np.concatenate([support, [0.0, -0.0, np.sqrt(np.log(2.0)), 1e-200, 50.0]])
        for eta in (0.0, 0.02, 0.5, 1.0):
            want = np.array([gate_error_rate("H", v, eta) for v in lam])
            assert gate_error_rate("H", lam, eta).tobytes() == want.tobytes()
        model = ct.dense_low_freq_model(1.0, 1.0, 301)
        for label in model.gate_labels:
            want = np.array([gate_error_rate(label, v, 1.0) for v in model.support])
            assert model.rates[label].tobytes() == want.tobytes()

    @pytest.mark.parametrize("eta", [-0.1, 1.5, float("nan")])
    def test_array_rejects_bad_eta_like_a_point(self, eta):
        with pytest.raises(ValueError) as want:
            gate_error_rate("H", 0.0, eta)
        with pytest.raises(ValueError) as got:
            gate_error_rate("H", np.array([0.0, 1.0]), eta)
        assert str(got.value) == str(want.value)


class TestGaussianMoments:
    def test_zeroth(self):
        assert gaussian_x_moments(1.3, 0) == 1.0

    @pytest.mark.parametrize("sigma,k", [(1.0, 1), (1.0, 4), (0.5, 3), (2.0, 9)])
    def test_against_quadrature_oracle(self, sigma, k):
        assert gaussian_x_moments(sigma, k) == pytest.approx(gaussian_moment_oracle(sigma, k), abs=1e-10)

    def test_known_values(self):
        assert gaussian_x_moments(1.0, 1) == pytest.approx(3 ** -0.5, abs=1e-15)
        assert gaussian_x_moments(1.0, 4) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            gaussian_x_moments(1.0, -1)


class TestDiscretization:
    def test_single_point_matches_mean(self):
        nodes, weights = discretize_from_moments([0.37], 1)
        assert np.allclose(nodes, [0.37]) and np.allclose(weights, [1.0])

    def test_uniform_two_point_against_gauss_legendre(self):
        # moments of uniform on [0, 1]; the two-point rule is Gauss-Legendre
        moments = [1.0 / (k + 1) for k in range(1, 4)]
        nodes, weights = discretize_from_moments(moments, 2)
        assert np.allclose(nodes, [0.5 - 1 / (2 * np.sqrt(3)), 0.5 + 1 / (2 * np.sqrt(3))], atol=1e-14)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_scipy_tridiagonal_eigensolver(self, m):
        moments = [gaussian_x_moments(1.0, k) for k in range(1, 2 * m)]
        nodes, weights = discretize_from_moments(moments, m)
        alpha, beta = noise._moment_recurrence(np.array([1.0, *moments]))
        if m == 1:
            want_nodes, want_weights = alpha, np.array([1.0])
        else:
            want_nodes, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
            want_weights = beta[0] * vecs[0, :] ** 2
        np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-14)
        np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_five_point_reproduces_nine_moments(self, sigma):
        moments = [gaussian_x_moments(sigma, k) for k in range(1, 10)]
        nodes, weights = discretize_from_moments(moments, 5)
        for k in range(1, 10):
            assert np.sum(weights * nodes**k) == pytest.approx(moments[k - 1], abs=1e-10)

    def test_weights_forms_distribution(self):
        moments = [gaussian_x_moments(1.0, k) for k in range(1, 10)]
        _, weights = discretize_from_moments(moments, 5)
        assert np.all(weights >= 0.0)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_moments_report_failing_minor(self):
        # second moment below the squared mean: no distribution exists
        with pytest.raises(MomentSequenceError) as err:
            discretize_from_moments([0.9, 0.5, 0.4], 2)
        assert err.value.failing_minor == 2

    def test_requires_enough_moments(self):
        with pytest.raises(ValueError, match="moments"):
            discretize_from_moments([0.5, 0.3], 3)

    @staticmethod
    def roundtrip(weights, nodes):
        """Whether the moments determine the distribution, and a check that the m-point rule recovers it.

        The moments mu_k = sum w x^k (k < 2m, x in [0, 1]) each carry at most
        2m roundings, so any rule is only held to the first-order error
        ``2m eps ||J^-1||_inf``, with J the Jacobian of (mu_0 .. mu_{2m-1}) in
        the nodes and weights.  The moments determine a distribution in
        floating point only while their Hankel matrix stays positive definite
        under those roundings, that is while cond(H) < 1 / (2 m^2 eps).
        """
        eps = np.finfo(float).eps
        w = np.asarray(weights) / np.sum(weights)
        x = np.asarray(nodes)
        m = x.size
        k = np.arange(2 * m)[:, None]
        mu = np.sum(w * x**k, axis=1)
        determined = np.linalg.cond(mu[np.add.outer(np.arange(m), np.arange(m))]) < 1.0 / (2 * m * m * eps)

        def check():
            jacobian = np.hstack([w * k * x ** np.maximum(k - 1, 0), x**k])
            tol = 2 * m * eps * np.linalg.norm(np.linalg.inv(jacobian), np.inf)
            got_x, got_w = discretize_from_moments([float(np.sum(w * x**j)) for j in range(1, 2 * m)], m)
            order = np.argsort(x)
            np.testing.assert_allclose(got_x, x[order], rtol=0, atol=tol)
            np.testing.assert_allclose(got_w, w[order], rtol=0, atol=tol)

        return determined, check

    @given(
        weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
        nodes=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_from_random_discrete_distributions(self, weights, nodes):
        determined, check = self.roundtrip(weights, nodes)
        assume(determined)
        check()

    def test_roundtrip_with_nodes_four_thousandths_apart(self):
        # once drawn by the test above: the weights come back only to 2.2e-6,
        # inside the conditioning bound of 1.4e-4
        determined, check = self.roundtrip([1.0, 0.5, 1.0], [0.828125, 0.82421875, 0.75])
        assert determined
        check()


class TestLowFreqModel:
    def test_one_point_collapse(self):
        model = build_low_freq_model(1.0, 0.4, 1)
        eps = 0.4 * (1.0 - gaussian_x_moments(1.0, 1))
        want = depolarizing_channel(eps) @ ideal_qubit_ptms()["H"]
        assert np.allclose(model.sys_ptms["H"][0], want, atol=1e-12)

    def test_zero_strength_gates_are_unitary(self):
        model = build_low_freq_model(1.0, 0.0, 3)
        for label in ("H", "S"):
            for mat in model.sys_ptms[label]:
                assert np.allclose(mat @ mat.T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_moment_fidelity(self, m):
        model = build_low_freq_model(1.0, 0.02, m)
        x = np.exp(-model.support**2)
        for k in range(1, 2 * m):
            assert np.sum(model.weights * x**k) == pytest.approx(gaussian_x_moments(1.0, k), abs=1e-10)

    def test_trace_preservation(self):
        model = build_low_freq_model(0.7, 0.3, 4)
        for label in model.gate_labels:
            stack = model.sys_ptms[label]
            assert np.max(np.abs(stack[:, 0, :] - [1, 0, 0, 0])) < 1e-12

    def test_weights_distribution(self):
        for model in (build_low_freq_model(2.0, 0.1, 5), ct.dense_low_freq_model(1.0, 1.0, 501)):
            assert np.all(model.weights >= 0)
            assert np.sum(model.weights) == pytest.approx(1.0, abs=1e-12)

    def test_json_roundtrip_fields(self):
        model = build_low_freq_model(1.0, 0.02, 2)
        blob = model.to_json()
        assert blob["m"] == 2 and blob["sigma"] == 1.0 and blob["eta"] == 0.02
        eps_h = [gate_error_rate("H", lam, 0.02) for lam in model.support]
        assert blob["gates"]["H"] == eps_h

    def test_json_gates_are_the_rates_built_with(self):
        rates = {"H": [0.0, 0.25, 1.0], "S": [0.5, 1e-9, 0.125]}
        model = LowFreqModel(
            sigma=1.0, eta=1.0, support=[-1.0, 0.0, 1.0], weights=[0.25, 0.5, 0.25], gate_labels=("H", "S"),
            rates=rates, transitions={"H": None, "S": None},
        )
        assert model.to_json()["gates"] == rates
        for label, eps in rates.items():
            np.testing.assert_array_equal(model.sys_ptms[label], depolarized_gates(label, eps))

    def test_seventh_versus_ninth_moment_support(self):
        # dropping the discretization from five to four points (ninth- to
        # seventh-order moments) barely moves the survival curve; the dense
        # reference bounds both
        dense = ct.dense_low_freq_model(1.0, 0.02, 1001)
        m4 = build_low_freq_model(1.0, 0.02, 4)
        m5 = build_low_freq_model(1.0, 0.02, 5)
        worst45 = worst5 = 0.0
        for n in range(0, 21, 2):
            circuit = ct.random_identity_sequences(n, 1, seed=500 + n)[0]
            f4 = ct.run_circuit(m4, circuit).mean
            f5 = ct.run_circuit(m5, circuit).mean
            fd = ct.run_circuit(dense, circuit).mean
            worst45 = max(worst45, abs(f4 - f5))
            worst5 = max(worst5, abs(f5 - fd))
        assert worst45 < 1e-3  # the two supports agree to well below the noise scale
        assert worst5 < 1e-6


class TestTransitionDecay:
    def test_zero_is_identity(self):
        assert np.allclose(transition_decay(0.0), np.eye(2), atol=1e-15)

    def test_log_two(self):
        t = transition_decay(np.log(2.0))
        assert np.allclose(t, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    def test_infinite_limit(self):
        assert np.allclose(transition_decay(60.0), np.full((2, 2), 0.5), atol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            transition_decay(-0.1)

    @given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_semigroup(self, a, b):
        lhs = transition_decay(a) @ transition_decay(b)
        assert np.max(np.abs(lhs - transition_decay(a + b))) < 1e-12


class TestSecondOrder:
    def test_support_moments(self):
        model = second_order_model(0.8)
        mean = np.sum(model.weights * model.support)
        var = np.sum(model.weights * model.support**2)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert var == pytest.approx(0.64, abs=1e-15)

    def test_correlation_decay_through_transitions(self):
        sigma, gamma, k = 1.3, 0.4, 6
        model = second_order_model(sigma, gate_gammas={"H": gamma, "S": gamma})
        t = model.transitions["H"]
        corr = model.support @ np.linalg.matrix_power(t, k) @ (model.support * model.weights)
        assert corr == pytest.approx(sigma**2 * np.exp(-k * gamma), rel=1e-12)

    def test_zero_decay_constant_correlation(self):
        model = second_order_model(1.0)
        assert model.identity_transitions
        corr = np.sum(model.weights * model.support * model.support)
        assert corr == pytest.approx(1.0, abs=1e-15)


class TestContext:
    def rates_model(self, rates, initial=None):
        return ct.ContextModel(gate_labels=("H", "S"), rates=rates, initial=initial)

    def test_duplicate_label_rejected(self):
        rates = {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}}
        with pytest.raises(ValueError, match="'H' more than once"):
            ct.ContextModel(gate_labels=("H", "S", "H"), rates=rates)
        with pytest.raises(ValueError, match="'S' more than once"):
            ct.ContextModel(gate_labels=("S", "S"), rates=rates)

    def test_uniform_rates_equal_context_free(self):
        eps = 0.05
        ctx = self.rates_model({"H": {"H": eps, "S": eps}, "S": {"H": eps, "S": eps}})
        flat = constant_depolarizing_model(eps)
        for gates in [("H",), ("H", "S"), ("S", "S", "H"), ("H", "H", "S", "S")]:
            got = ct.run_circuit(ctx, gates).mean
            want = ct.run_circuit(flat, gates).mean
            assert got == pytest.approx(want, abs=1e-12)

    def test_last_operation_selects_the_rate(self):
        # Distinct rates per (gate, previous gate); start the register at H so
        # the first gate's rate is also pinned.  The survival of an
        # identity-equivalent circuit is the product of the traversed rates.
        rates = {"H": {"H": 0.01, "S": 0.02}, "S": {"H": 0.03, "S": 0.04}}
        ctx = self.rates_model(rates, initial=np.array([1.0, 0.0]))
        # circuit (H, S): first H after "H" -> 0.01, then S after H -> 0.03
        got_hs = ct.run_circuit(ctx, ("S", "S")).mean
        want_ss = 0.5 * (1.0 + (1 - rates["S"]["H"]) * (1 - rates["S"]["S"]))
        assert got_hs == pytest.approx(want_ss, abs=1e-12)
        got_hh = ct.run_circuit(ctx, ("H", "H")).mean
        want_hh = 0.5 * (1.0 + (1 - rates["H"]["H"]) * (1 - rates["H"]["H"]))
        assert got_hh == pytest.approx(want_hh, abs=1e-12)

    def test_environment_becomes_point_mass(self):
        ctx = self.rates_model({"H": {"H": 0.01, "S": 0.02}, "S": {"H": 0.03, "S": 0.04}})
        v = ctx.rho_vec()
        v = ctx.gate_block("S") @ v
        weights = v[0::4]
        assert np.allclose(weights, [0.0, 1.0], atol=1e-14)
        v = ctx.gate_block("H") @ v
        assert np.allclose(v[0::4], [1.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize(
        "rates,message",
        [
            ({"H": {"H": 0.01, "S": 0.02}, "S": {"H": 0.03}}, "rate of gate 'S' after 'S' must be in .* got None"),
            ({"H": {"H": 0.01, "S": 0.02}}, "rate of gate 'S' after 'H' must be in .* got None"),
            ({"H": {"H": 0.01, "S": 1.5}, "S": {"H": 0.03, "S": 0.04}}, r"gate 'H' after 'S' must be in \[0, 1\], got 1.5"),
            ({"H": {"H": 0.01, "S": 0.02}, "S": {"H": -0.1, "S": 0.04}}, r"gate 'S' after 'H' must be in \[0, 1\]"),
            ({"H": {"H": float("nan"), "S": 0.02}, "S": {"H": 0.03, "S": 0.04}}, "gate 'H' after 'H' .* got nan"),
        ],
        ids=["missing-pair", "missing-row", "above-one", "negative", "nan"],
    )
    def test_bad_rate_names_the_pair(self, rates, message):
        with pytest.raises(ValueError, match=message):
            self.rates_model(rates)

    def test_rates_kept_in_register_order_and_gates_from_them(self):
        rates = {"H": {"S": 0.02, "H": 0.01}, "S": {"H": 0.03, "S": 0.04}}
        ctx = self.rates_model(rates)
        for chi in ("H", "S"):
            want = np.array([rates[chi]["H"], rates[chi]["S"]])
            assert ctx.rates[chi].tobytes() == want.tobytes()
            assert ctx.sys_ptms[chi].tobytes() == depolarized_gates(chi, want).tobytes()
        assert ctx.to_json()["rates"] == {chi: {"H": rates[chi]["H"], "S": rates[chi]["S"]} for chi in ("H", "S")}

    def test_unknown_label_rejected(self):
        ctx = self.rates_model({"H": {"H": 0.0, "S": 0.0}, "S": {"H": 0.0, "S": 0.0}})
        with pytest.raises(KeyError, match="unknown gate label"):
            ctx.gate_block("T")
        with pytest.raises(ValueError, match="rate of gate 'H' after 'H' .* got None"):
            ct.ContextModel(gate_labels=("H", "S"), rates={})


    def test_rates_accepted_as_the_stored_arrays(self):
        nested = self.rates_model({"H": {"H": 0.01, "S": 0.02}, "S": {"H": 0.03, "S": 0.04}})
        flat = self.rates_model({"H": [0.01, 0.02], "S": np.array([0.03, 0.04])})
        assert flat.to_json() == nested.to_json()
        for chi in ("H", "S"):
            assert flat.sys_ptms[chi].tobytes() == nested.sys_ptms[chi].tobytes()
        with pytest.raises(ValueError):
            self.rates_model({"H": [0.01, 0.02, 0.03], "S": [0.03, 0.04]})
        with pytest.raises(ValueError, match="gate 'S' after 'H' must be in"):
            self.rates_model({"H": [0.01, 0.02], "S": [1.5, 0.04]})


def _assert_same_model(copy, model):
    assert type(copy) is type(model) and copy.to_json() == model.to_json()
    assert copy.weights.tobytes() == model.weights.tobytes()
    for label in model.gate_labels:
        assert copy.rates[label].tobytes() == model.rates[label].tobytes()
        assert copy.gate_block(label).tobytes() == model.gate_block(label).tobytes()
    circuits = ct.random_identity_sequences(12, 5, seed=4) + [("H", "S", "S")]
    assert ct.exact_means(copy, circuits).tobytes() == ct.exact_means(model, circuits).tobytes()


class TestReplace:
    """``dataclasses.replace`` rebuilds every model kind from the fields it stores."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ct.build_low_freq_model(1.0, 0.02, 3),
            lambda: ct.second_order_model(1.0, 0.05, gate_gammas={"H": 0.2}),
            lambda: ct.frozen_model([0.3, 0.7], {"H": [0.01, 0.02], "S": [0.0, 0.5]}),
            lambda: ct.ContextModel(("H", "S"), {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}}),
        ],
        ids=["moment-matched", "second-order", "frozen", "context"],
    )
    def test_round_trip(self, make):
        model = make()
        _assert_same_model(dataclasses.replace(model), model)

    def test_round_trip_of_the_fitted_model(self, suite_fit_l2):
        model = suite_fit_l2.param_model
        _assert_same_model(dataclasses.replace(model), model)
        changed = dataclasses.replace(model, weights=model.weights[::-1])
        assert changed.weights.tolist() == model.weights[::-1].tolist()

    def test_context_replace_with_new_rates(self):
        model = ct.ContextModel(("H", "S"), {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}})
        changed = dataclasses.replace(model, rates={**model.rates, "S": np.array([0.1, 0.2])})
        assert changed.to_json()["rates"]["S"] == {"H": 0.1, "S": 0.2}
        assert changed.rates["H"].tobytes() == model.rates["H"].tobytes()


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 301, 2001])
    def test_matches_scipy(self, n):
        nodes, weights = gauss_legendre(n)
        want_nodes, want_weights = roots_legendre(n)
        np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-15)
        # SciPy's weights lose accuracy toward the ends of large rules (6.6e-8
        # relative at the outermost node for n = 2001, against 50-digit mpmath,
        # where these are within 6.8e-11); on the middle half both agree to 1e-12
        np.testing.assert_allclose(weights, want_weights, rtol=1e-7)
        inner = slice(n // 4, n - n // 4)
        np.testing.assert_allclose(weights[inner], want_weights[inner], rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 301, 2001])
    def test_integrates_polynomials_of_degree_below_2n_exactly(self, n):
        nodes, weights = gauss_legendre(n)
        for k in sorted({0, 1, 2, 3, 4, 10, 2 * n - 2, 2 * n - 1} & set(range(2 * n))):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert weights @ nodes**k == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 4, 5, 2001])
    def test_symmetric_ascending_with_an_exact_middle_node(self, n):
        nodes, weights = gauss_legendre(n)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert np.count_nonzero(nodes == 0.0) == n % 2 and not np.any(np.signbit(nodes[n // 2 :]))

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
