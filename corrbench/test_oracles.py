"""Self-tests of the benchmark's oracles and checks.

Run from the root of a checkout (the repository's own test run does not
collect this directory)::

    python3 -m pytest -q corrbench

The oracles are tested against each other and against brute force; the
checks are tested on real experiment output, once as written and once with
a fault planted in it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np
import pytest

import checks
import oracles
import workloads

SIGMA = 1.0
RATES = workloads.CONTEXT["rates"]
INITIAL = dict(zip(workloads.CONTEXT["labels"], workloads.CONTEXT["initial"]))


def identity_circuits(n: int) -> list[tuple[str, ...]]:
    return [g for g in itertools.product("HS", repeat=n) if abs(abs(oracles.unitary_of(g)[0, 0]) - 1) < 1e-9]


def direct_survival(n: int, sigma: float, eta: float) -> float:
    """Survival by direct quadrature over the drift."""
    x, w = oracles.drift_grid(sigma)
    return 0.5 * (1.0 + float(w @ (1.0 - eta * (1.0 - x)) ** n))


@pytest.mark.parametrize("eta", [1.0, 0.3, 0.02])
def test_gaussian_survival_matches_direct_integration(eta):
    for n in (0, 1, 7, 50, 200):
        assert abs(oracles.gaussian_survival(n, SIGMA, eta) - direct_survival(n, SIGMA, eta)) < 1e-12


def test_gaussian_survival_at_maximal_noise():
    for n in range(0, 201, 10):
        for sigma in (0.5, 1.0, 2.0):
            closed = 0.5 * (1.0 + (1.0 + 2.0 * n * sigma * sigma) ** -0.5)
            assert abs(oracles.gaussian_survival(n, sigma, 1.0) - closed) < 1e-14


def test_five_point_rule_sits_near_the_gaussian_survival():
    nodes, weights = oracles.gauss_rule(SIGMA, 5)
    worst = max(
        abs(0.5 * (1.0 + weights @ (1.0 - 0.02 * (1.0 - nodes)) ** n) - oracles.gaussian_survival(n, SIGMA, 0.02))
        for n in range(201)
    )
    assert 1e-8 < worst < checks.MOMENT_TOL


@pytest.mark.parametrize("m", [2, 3, 5])
def test_gauss_rule_reproduces_the_moments(m):
    nodes, weights = oracles.gauss_rule(SIGMA, m)
    assert np.all((nodes > 0.0) & (nodes < 1.0)) and abs(weights.sum() - 1.0) < 1e-14
    for k in range(2 * m):
        assert abs(weights @ nodes**k - oracles.x_moment(SIGMA, k)) < 1e-13


def test_two_point_rule_is_solved_from_three_moments():
    nodes, weights = oracles.two_point_rule(SIGMA)
    for k in range(4):
        assert abs(weights @ nodes**k - oracles.x_moment(SIGMA, k)) < 1e-14
    g_nodes, g_weights = oracles.gauss_rule(SIGMA, 2)
    assert np.allclose(nodes, g_nodes, atol=1e-13) and np.allclose(weights, g_weights, atol=1e-13)


def test_frozen_simulation_matches_the_closed_form_on_identity_circuits():
    nodes, weights = oracles.two_point_rule(SIGMA)
    for n in (1, 3, 8):
        for gates in identity_circuits(n)[:6]:
            expected = 0.5 * (1.0 + weights @ (1.0 - 0.3 * (1.0 - nodes)) ** n)
            assert abs(oracles.simulate_frozen(gates, nodes, weights, 0.3) - expected) < 1e-14


def test_context_survival_matches_density_matrix_simulation():
    for n in (1, 2, 5, 9):
        for gates in identity_circuits(n):
            formula = oracles.context_identity_survival(gates, RATES, INITIAL)
            assert abs(formula - oracles.simulate_context(gates, RATES, INITIAL)) < 1e-14


def test_context_survival_moments_match_enumeration():
    moments = oracles.context_survival_moments(12, RATES, INITIAL)
    assert moments[0] == (1.0, 1.0)
    for n in (1, 2, 3, 6, 12):
        values = np.array([oracles.context_identity_survival(g, RATES, INITIAL) for g in identity_circuits(n)])
        assert abs(values.mean() - moments[n][0]) < 1e-14
        assert abs((values**2).mean() - moments[n][1]) < 1e-14


def test_clifford_table():
    table, fixes_zero = oracles.clifford_table()
    assert table.shape == (24, 2) and fixes_zero.sum() == 4 and fixes_zero[0]
    assert all(sorted(table[:, j]) == list(range(24)) for j in range(2))  # each gate permutes the group


def test_ideal_seven_gates():
    gates = oracles.ideal_seven_gates()
    for mat in gates.values():
        assert np.allclose(mat @ mat.T, np.eye(7), atol=1e-14)
    # H exchanges X and Z and flips Y; S maps X to -Y and Y to X
    assert np.allclose(oracles.pauli_rotation("H"), [[0, 0, 1], [0, -1, 0], [1, 0, 0]], atol=1e-14)
    assert np.allclose(oracles.pauli_rotation("S"), [[0, 1, 0], [-1, 0, 0], [0, 0, 1]], atol=1e-14)


def test_sequence_bound_is_the_binomial_tail():
    n_q, n_rho, n_o, eps = 1.3, 0.7, 1.0, 0.05
    assert oracles.sequence_bound(n_q, n_rho, n_o, eps, 0) == 0.0
    for n in (1, 4, 20):
        tail = sum(math.comb(n, k) * n_o ** (n - k) * eps**k for k in range(1, n + 1))
        assert abs(oracles.sequence_bound(n_q, n_rho, n_o, eps, n) - n_q * n_rho * tail) < 1e-12


def test_trial_set_shape():
    seqs = oracles.d7_trial_sequences(5)
    assert len(seqs) == len(set(seqs)) == 123 and seqs[0] == ()
    assert [sum(len(s) == n for s in seqs) for n in range(21)] == [2**n for n in range(6)] + [4] * 15


def test_trial_record_predictions_match_density_matrix_simulation():
    seqs = oracles.d7_trial_sequences(2)
    records = oracles.TrialRecords(seqs)
    assert len(records) == 3 * len(seqs) ** 2
    nodes, weights = oracles.two_point_rule(SIGMA)
    rates = 0.02 * (1.0 - nodes)
    means = records.predict(weights, {"H": rates, "S": rates})
    n, middles = len(seqs), [(), ("H",), ("S",)]
    gen = np.random.default_rng(0)
    for index in gen.integers(0, len(records), size=40):
        j, rest = divmod(int(index), n * n)
        k, i = divmod(rest, n)
        gates = seqs[i] + middles[j] + tuple(reversed(seqs[k]))
        assert abs(means[index] - oracles.simulate_frozen(gates, nodes, weights, 0.02)) < 1e-13
    assert oracles.negative_log_likelihood(means, means, 1e-3) == 0.0


# --------------------------------------------------------------------------
# The checks catch planted faults
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiments():
    import corrtomo.experiments

    return corrtomo.experiments


def _run(experiments, op, tmp_path):
    out = tmp_path / op.label.replace("/", "_")
    assert experiments.run(op.config, out_dir=out) == 0
    return out


def _perturb_csv(path, column, delta):
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[-1][column] = repr(float(rows[-1][column]) + delta)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _small_survival(op: workloads.Op) -> workloads.Op:
    params = {**op.config["params"], "circuits_per_point": 20, "eval_circuits_per_point": 2}
    return workloads.Op(op.kind, op.label, {**op.config, "params": params}, op.circuits)


def test_survival_checks(experiments, tmp_path):
    for op in workloads.round_ops("survival-sampled", 3, 0):
        op = _small_survival(op)
        out = _run(experiments, op, tmp_path)
        assert checks.check_survival(op.config, out) == (True, [])
        _perturb_csv(out / "survival.csv", "mean", 0.05)
        assert checks.check_survival(op.config, out)[1]


def test_tomography_checks(experiments, tmp_path):
    ops = workloads.round_ops("tomography", 3, 0)
    for op in ops[:4]:
        out = _run(experiments, op, tmp_path)
        assert checks.CHECKS[op.kind](op.config, out) == (True, []), op.label
    lot = _run(experiments, ops[0], tmp_path)
    report = json.loads((lot / "factorization.json").read_text())
    model = json.loads((lot / "error_model.json").read_text())
    model["state"][1] += 1e-6
    (lot / "error_model.json").write_text(json.dumps(model))
    assert checks.check_exact_lot(ops[0].config, lot)[1]
    report["max_residual"] = report["residuals"][0] = 1e-8
    (lot / "factorization.json").write_text(json.dumps(report))
    assert checks.check_exact_lot(ops[0].config, lot)[1]
    bounds = tmp_path / ops[3].label.replace("/", "_")
    report = json.loads((bounds / "bounds_report.json").read_text())
    report["subspaces"]["3"]["lhs"][0] = report["subspaces"]["3"]["rhs"][0] * 1.01
    (bounds / "bounds_report.json").write_text(json.dumps(report))
    assert checks.check_bounds(ops[3].config, bounds)[1]


def test_mle_checks(experiments, tmp_path):
    op = workloads.round_ops("mle", 3, 0)[1]  # the well-specified two-point fit
    out = _run(experiments, op, tmp_path)
    assert checks.check_mle(op.config, out) == (True, [])
    report = json.loads((out / "fit_report.json").read_text())
    report["param_model"]["p"] = report["param_model"]["p"][::-1]
    (out / "fit_report.json").write_text(json.dumps(report))
    assert checks.check_mle(op.config, out)[1]


def test_tracing_leaves_result_files_unchanged(experiments, tmp_path):
    from tracing import Tracer

    op = _small_survival(workloads.round_ops("survival-sampled", 4, 0)[1])
    plain = _run(experiments, op, tmp_path / "plain")
    tracer = Tracer()
    with tracer.installed():
        traced = _run(experiments, op, tmp_path / "traced")
    assert tracer.layer_metrics()["device.circuits"] == op.config["params"]["circuits_per_point"] * 11 + 22
    names = sorted(p.name for p in plain.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in traced.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
    assert experiments.run.__name__ == "run"  # the wrappers are removed again


def test_reference_seconds_scale_each_experiment_by_its_own_kernel_passes():
    from calibration import REFERENCE_S, speed_factor
    from run import Outcome, Round

    op = workloads.round_ops("mle", 1, 0)[0]
    slow = Outcome(op, 2.0, None, [], speed_factor(2.0 * REFERENCE_S, 2.0 * REFERENCE_S))
    fast = Outcome(op, 1.0, None, [], speed_factor(0.5 * REFERENCE_S, 1.5 * REFERENCE_S))
    round_ = Round([slow, fast], 1.5 * REFERENCE_S)
    assert slow.factor == 0.5 and fast.factor == 1.0
    assert round_.wall == 3.0 and round_.ref_wall == 2.0 and round_.factor == 2.0 / 3.0
