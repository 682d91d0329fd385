"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertion itself.
"""

import time

import numpy as np
import pytest

import corrtomo as ct
from corrtomo.linear_inversion import (
    collect_trial_data,
    gauge_fit_to_ideal,
    lim_reconstruct,
    svd_truncate,
    trial_sequences,
)
from corrtomo.mle import records_from_tomography
from corrtomo.noise import frozen_model
from corrtomo.tomography import FiducialSet, gauge_reconstruct, gauge_transform, predict, select_fiducials
from conftest import model_predict, sequences_up_to


def verdict(num: int, label: str, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}  {label}: {detail}")
    assert passed, f"criterion {num:02d} {label}: {detail}"


def survival_circuits(n_list, per_point, seed):
    out = {}
    for i, n in enumerate(n_list):
        out[n] = ct.random_identity_sequences(int(n), per_point, seed=seed + i)
    return out


def test_01_analytic_survival_reproduction():
    t0 = time.perf_counter()
    dense = ct.dense_low_freq_model(1.0, 1.0)
    worst_dense = 0.0
    for n in range(101):
        circuit = ct.random_identity_sequences(n, 1, seed=1000 + n)[0]
        got = ct.run_circuit(dense, circuit).mean
        worst_dense = max(worst_dense, abs(got - ct.analytic_survival(n, 1.0)))
    cubature = ct.build_low_freq_model(1.0, 1.0, 5)
    worst_cub = 0.0
    for n in range(10):
        circuit = ct.random_identity_sequences(n, 1, seed=2000 + n)[0]
        got = ct.run_circuit(cubature, circuit).mean
        worst_cub = max(worst_cub, abs(got - ct.analytic_survival(n, 1.0)))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        "analytic survival",
        worst_dense <= 1e-6 and worst_cub <= 1e-12 and elapsed < 10.0,
        f"dense err {worst_dense:.2e} (tol 1e-6), cubature err {worst_cub:.2e} (tol 1e-12), {elapsed:.1f}s",
    )


def test_02_constant_depolarizing_survival():
    worst = 0.0
    for eps in (0.0, 0.01, 0.5):
        model = ct.constant_depolarizing_model(eps)
        for n in range(0, 101):
            circuit = ct.random_identity_sequences(n, 1, seed=3000 + n)[0]
            want = 0.5 * (1.0 + (1.0 - eps) ** n)
            worst = max(worst, abs(ct.run_circuit(model, circuit).mean - want))
    verdict(2, "constant-rate survival", worst <= 1e-12, f"max deviation {worst:.2e} (tol 1e-12)")


def test_03_exact_factorization(device_m2):
    t0 = time.perf_counter()
    fids = select_fiducials(device_m2, sequences_up_to(3), 7)
    data = ct.collect_data(device_m2, fids)
    gen = np.random.default_rng(42)
    sequences = [
        tuple(np.where(gen.integers(0, 2, size=int(gen.integers(1, 21))) == 0, "H", "S"))
        for _ in range(100)
    ]
    report = ct.verify_factorization(data, device_m2, sequences)
    elapsed = time.perf_counter() - t0
    verdict(
        3,
        "exact factorization",
        report.max_residual <= 1e-9 and elapsed < 30.0,
        f"max residual {report.max_residual:.2e} (tol 1e-9), cond(g) {report.cond_gram:.1e}, {elapsed:.1f}s",
    )


def test_04_gauge_invariance(device_m2, rng):
    fids = select_fiducials(device_m2, sequences_up_to(3), 7)
    model = gauge_reconstruct(ct.collect_data(device_m2, fids))
    circuits = [
        tuple(np.where(rng.integers(0, 2, size=int(rng.integers(1, 16))) == 0, "H", "S"))
        for _ in range(10)
    ]
    worst = 0.0
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        s = q @ np.diag(rng.uniform(0.5, 2.0, size=7))
        cond = np.linalg.cond(s)
        moved = gauge_transform(model, s)
        for c in circuits:
            dev = abs(predict(moved, c) - predict(model, c)) / (1e-10 * cond)
            worst = max(worst, dev)
    verdict(4, "gauge invariance", worst <= 1.0, f"max deviation {worst:.3f} in units of 1e-10 cond(S)")


def test_05_dimension_law():
    details = []
    ok = True
    for m in (1, 2, 3):
        model = ct.build_low_freq_model(1.0, 0.5, m)
        seqs = sequences_up_to(6)
        fids = FiducialSet(
            prep_sequences=tuple(seqs),
            meas_sequences=tuple(tuple(reversed(s)) for s in seqs),
        )
        s = np.linalg.svd(ct.collect_data(model, fids).gram, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * s[0]))
        ok = ok and rank == 3 * m + 1
        details.append(f"m={m}: rank {rank} (want {3 * m + 1})")
    verdict(5, "dimension law", ok, "; ".join(details))


def test_06_lim_superiority(device_m5, trial_data_m5, truncation_d7, truncation_d4):
    em7 = lim_reconstruct(truncation_d7)
    em4 = lim_reconstruct(truncation_d4)
    grid = list(range(0, 101, 5))
    circuits = survival_circuits(grid, 10, seed=5000)
    f_act, f7, f4 = [], [], []
    for n in grid:
        f_act.append(np.mean([ct.run_circuit(device_m5, c).mean for c in circuits[n]]))
        f7.append(np.mean([predict(em7, c) for c in circuits[n]]))
        f4.append(np.mean([predict(em4, c) for c in circuits[n]]))
    f_act, f7, f4 = np.asarray(f_act), np.asarray(f7), np.asarray(f4)
    err7 = np.max(np.abs(f7 - f_act))
    err4 = np.max(np.abs(f4 - f_act))
    log_act = np.log(2 * f_act - 1)
    log_4 = np.log(2 * f4 - 1)
    convex = np.all(np.diff(log_act, 2) > 0)
    # curvature comparison: quadratic fit over the grid
    coeff_act = np.polyfit(grid, log_act, 2)[0]
    coeff_4 = np.polyfit(grid, log_4, 2)[0]
    linear4 = abs(coeff_4) <= abs(coeff_act) / 10.0
    verdict(
        6,
        "truncated-inversion superiority",
        err7 * 5.0 <= err4 and convex and linear4,
        f"max err d7 {err7:.2e} vs d4 {err4:.2e} (ratio {err4 / err7:.0f}), "
        f"actual curvature {coeff_act:.2e}, d4 curvature {coeff_4:.2e}",
    )


def test_07_mle_parameter_recovery(suite_records):
    t0 = time.perf_counter()
    result = ct.fit(suite_records, 2, seed=0)
    pm = result.param_model
    p_ok = abs(pm.weights[0] - 0.5606) <= 0.1 * 0.5606
    e1_ok = abs(pm.rates["H"][0] - 2.485e-3) <= 0.1 * 2.485e-3
    e2_ok = abs(pm.rates["H"][1] - 1.606e-2) <= 0.1 * 1.606e-2
    # synthetic round trip at exact means
    true = frozen_model([0.6, 0.4], {"H": [0.003, 0.02], "S": [0.004, 0.015]})
    gen = np.random.default_rng(7)
    circuits = [
        tuple(np.where(gen.integers(0, 2, size=int(gen.integers(1, 26))) == 0, "H", "S"))
        for _ in range(400)
    ]
    records = [
        ct.MeasurementRecord(tuple(c), model_predict(true, c), 0.0, None) for c in circuits
    ]
    rt = ct.fit(records, 2, seed=0)
    rt_err = max(
        np.max(np.abs(rt.param_model.weights - true.weights)),
        max(np.max(np.abs(rt.param_model.rates[g] - true.rates[g])) for g in ("H", "S")),
    )
    elapsed = time.perf_counter() - t0
    verdict(
        7,
        "likelihood fit recovery",
        p_ok and e1_ok and e2_ok and rt_err <= 1e-6 and elapsed < 120.0,
        f"p1 {pm.weights[0]:.4f} (0.5606 +-10%), eps {pm.rates['H'][0]:.3e}/{pm.rates['H'][1]:.3e} "
        f"(2.485e-3/1.606e-2 +-10%), round-trip err {rt_err:.1e} (tol 1e-6), {elapsed:.0f}s",
    )


def test_08_ideal_seven_dimensional_gates():
    h_expected = np.array(
        [
            [1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0],
            [0, 0, -1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, -1, 0],
            [0, 0, 0, 0, 1, 0, 0],
        ],
        dtype=float,
    )
    s_expected = np.array(
        [
            [1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1],
        ],
        dtype=float,
    )
    ptms = ct.ideal_seven_ptms()
    dev = max(np.max(np.abs(ptms["H"] - h_expected)), np.max(np.abs(ptms["S"] - s_expected)))
    exact = np.array_equal(np.rint(ptms["H"]), h_expected) and np.array_equal(
        np.rint(ptms["S"]), s_expected
    )
    verdict(8, "ideal seven-dimensional gates", dev <= 1e-12 and exact, f"max entry deviation {dev:.1e}")


def test_09_bound_consistency(device_m2, device_m5):
    checks = [
        ("invariant 7-dim", device_m2, select_fiducials(device_m2, sequences_up_to(6), 7)),
        ("dominant 7-dim", device_m5, select_fiducials(device_m5, sequences_up_to(3), 7)),
        (
            "adversarial 3-dim",
            device_m5,
            FiducialSet(
                prep_sequences=((), ("S", "H"), ("H", "S", "S")),
                meas_sequences=((), ("H", "S"), ("S", "S", "H")),
            ),
        ),
    ]
    details = []
    ok = True
    for name, model, fids in checks:
        report = ct.empirical_bound_check(model, fids, n_sequences=1000, max_len=20, seed=13)
        ok = ok and report.passed
        details.append(f"{name}: eps {report.epsilon:.1e}, max ratio {report.max_ratio:.2e}")
    gammas = np.linspace(0.0, 3.0, 7)
    semi = max(
        float(np.max(np.abs(ct.transition_decay(a) @ ct.transition_decay(b) - ct.transition_decay(a + b))))
        for a in gammas
        for b in gammas
    )
    ok = ok and semi <= 1e-12
    details.append(f"semigroup dev {semi:.1e}")
    verdict(9, "bound consistency", ok, "; ".join(details))


def test_10_moment_matching():
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0):
        moments = [ct.gaussian_x_moments(sigma, k) for k in range(1, 10)]
        nodes, weights = ct.discretize_from_moments(moments, 5)
        for k in range(1, 10):
            worst = max(worst, abs(float(np.sum(weights * nodes**k)) - moments[k - 1]))
    verdict(10, "moment matching", worst <= 1e-10, f"max moment error {worst:.2e} (tol 1e-10)")
