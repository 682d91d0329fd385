"""Checks of the experiments' result files against the oracles.

Each ``check_<experiment>`` reads one result directory and returns
``(converged, problems)``: ``converged`` is False when the result reports an
optimizer that did not converge (the run then counts as failed), and
``problems`` lists every disagreement with an oracle.  The references are
recomputed from the config here; no check compares against stored output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

DENSE_TOL = 1e-6  # dense quadrature against the eta = 1 closed form
MOMENT_TOL = 1e-7  # 5-point moment-matched model against the Gaussian closed form (3.5e-8)
EXACT_TOL = 1e-10  # closed forms that the model family reproduces exactly
FACTORIZATION_TOL = 1e-9
PREDICTION_TOL = 1e-8  # gauge-reconstructed model against direct simulation
RECOVERY_TOL = 1e-6  # well-specified likelihood fit against the true parameters
SHOT_SIGMAS = 6.0


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    return json.loads(path.read_text())


def _point_rule(model: dict) -> tuple[np.ndarray, np.ndarray]:
    if model["m"] == 2:
        return oracles.two_point_rule(model["sigma"])
    return oracles.gauss_rule(model["sigma"], model["m"])


def identity_survival(model: dict, n_gates: int) -> tuple[float, float]:
    """(expected survival, tolerance) of one identity circuit of a drift model."""
    if model["kind"] == "dense":
        return oracles.gaussian_survival(n_gates, model["sigma"], model["eta"]), DENSE_TOL
    if model["m"] == 2:
        nodes, weights = oracles.two_point_rule(model["sigma"])
        damp = float(weights @ (1.0 - model["eta"] * (1.0 - nodes)) ** n_gates)
        return 0.5 * (1.0 + damp), EXACT_TOL
    return oracles.gaussian_survival(n_gates, model["sigma"], model["eta"]), MOMENT_TOL


def _context_args(model: dict) -> tuple[dict, dict]:
    return model["rates"], dict(zip(model["labels"], model["initial"]))


def _is_identity(gates) -> bool:
    return abs(abs(oracles.unitary_of(gates)[0, 0]) - 1.0) < 1e-9


def check_survival(cfg: dict, out: Path) -> tuple[bool, list[str]]:
    model, params, shots = cfg["model"], cfg["params"], cfg.get("shots")
    problems = []
    rows = _rows(out / "survival.csv")
    if [int(r["n_gates"]) for r in rows] != list(params["n_gates"]):
        problems.append("survival rows do not follow the configured lengths")
    if model["kind"] == "context":
        moments = oracles.context_survival_moments(max(params["n_gates"]), *_context_args(model))
    for row in rows:
        n, n_circ = int(row["n_gates"]), int(row["circuits"])
        mean = float(row["mean"])
        if n_circ != params["circuits_per_point"]:
            problems.append(f"N={n}: {n_circ} circuits, expected {params['circuits_per_point']}")
        if model["kind"] == "context":
            ef, ef2 = moments[n]
            circuit_var = max(ef2 - ef * ef, 0.0)
            tol = EXACT_TOL
        else:
            ef, tol = identity_survival(model, n)
            ef2, circuit_var = ef * ef, 0.0
        if shots:
            var = circuit_var + max(ef - ef2, 0.0) / shots
            tol += SHOT_SIGMAS * math.sqrt(var / n_circ)
        elif circuit_var:
            tol += SHOT_SIGMAS * math.sqrt(circuit_var / n_circ)
        if abs(mean - ef) > tol:
            problems.append(f"survival N={n}: mean {mean!r} vs oracle {ef!r} (tolerance {tol:.2e})")
    problems += _check_identity_records(model, _json(out / "records.json")["circuits"], params)
    return True, problems


def _check_identity_records(model: dict, records: list[dict], params: dict) -> list[str]:
    problems = []
    expected = len(params["eval_n_gates"]) * params["eval_circuits_per_point"]
    if len(records) != expected:
        problems.append(f"{len(records)} evaluation records, expected {expected}")
    for rec in records:
        gates = tuple(rec["gates"])
        if not _is_identity(gates):
            problems.append(f"evaluation circuit {''.join(gates)} is not identity-equivalent")
            continue
        if model["kind"] == "context":
            ref, tol = oracles.context_identity_survival(gates, *_context_args(model)), EXACT_TOL
        else:
            ref, tol = identity_survival(model, len(gates))
        if abs(rec["mean"] - ref) > tol:
            problems.append(f"record {''.join(gates)}: {rec['mean']!r} vs oracle {ref!r}")
    return problems


def _check_predictions(model: dict, out: Path, params: dict, predicted_tol: float | None) -> list[str]:
    problems = []
    rows = _rows(out / "predictions.csv")
    expected = len(params["eval_n_gates"]) * params["eval_circuits_per_point"]
    if len(rows) != expected:
        problems.append(f"{len(rows)} prediction rows, expected {expected}")
    for row in rows:
        gates = tuple(row["gates"])
        actual, predicted = float(row["actual"]), float(row["predicted"])
        ref, tol = identity_survival(model, len(gates))
        if not _is_identity(gates) or abs(actual - ref) > tol:
            problems.append(f"prediction row {row['gates']}: actual {actual!r} vs oracle {ref!r}")
        if abs(float(row["abs_error"]) - abs(predicted - actual)) > 1e-15:
            problems.append(f"prediction row {row['gates']}: abs_error is not |predicted - actual|")
        if predicted_tol is not None and abs(predicted - ref) > predicted_tol:
            problems.append(f"prediction row {row['gates']}: predicted {predicted!r} vs oracle {ref!r}")
    return problems


def _simulator(model: dict):
    if model["kind"] == "context":
        return lambda gates: oracles.simulate_context(gates, *_context_args(model))
    nodes, weights = _point_rule(model)
    return lambda gates: oracles.simulate_frozen(gates, nodes, weights, model["eta"])


def _predict(error_model: dict, gates) -> float:
    v = np.asarray(error_model["state"], dtype=float)
    for label in gates:
        v = np.asarray(error_model["gates"][label], dtype=float) @ v
    return float(np.asarray(error_model["dual"], dtype=float) @ v)


def check_exact_lot(cfg: dict, out: Path) -> tuple[bool, list[str]]:
    problems = []
    report = _json(out / "factorization.json")
    residuals = report["residuals"]
    if len(residuals) != cfg["params"]["n_check_sequences"] or report["max_residual"] != max(residuals):
        problems.append("factorization report is inconsistent with its residuals")
    if not report["max_residual"] <= FACTORIZATION_TOL:
        problems.append(f"factorization residual {report['max_residual']:.3e} > {FACTORIZATION_TOL}")
    error_model = _json(out / "error_model.json")
    truth = _simulator(cfg["model"])
    gen = np.random.default_rng(cfg["seed"])
    for _ in range(20):
        gates = tuple(gen.choice(["H", "S"], size=int(gen.integers(0, 21))))
        ref, got = truth(gates), _predict(error_model, gates)
        if abs(got - ref) > PREDICTION_TOL:
            problems.append(f"reconstructed model predicts {got!r} for {''.join(gates)}, simulation {ref!r}")
    return True, problems


def check_lim(cfg: dict, out: Path) -> tuple[bool, list[str]]:
    problems = []
    spectrum = [float(r["singular_value"]) for r in _rows(out / "spectrum.csv")]
    if len(spectrum) != 123 or any(a < b for a, b in zip(spectrum, spectrum[1:])) or min(spectrum) < 0.0:
        problems.append("singular spectrum is not 123 descending nonnegative values")
    problems += _check_predictions(cfg["model"], out, cfg["params"], None)
    converged = True
    if cfg["params"].get("gauge_fit", True):
        converged = bool(_json(out / "gauge_fit.json")["converged"])
    return converged, problems


def check_gauge_fit(result) -> tuple[bool, list[str]]:
    """Objective of a gauge fit to the ideal 7-dim gates, recomputed from its model."""
    if not result.converged:
        return False, []
    ideal = oracles.ideal_seven_gates()
    objective = sum(
        float(np.sum((np.asarray(result.error_model.gates[g]) - ideal[g]) ** 2)) for g in ideal
    )
    if abs(objective - result.objective) > 1e-6 * objective + 1e-12:
        return True, [f"gauge-fit objective {result.objective!r} vs recomputed {objective!r}"]
    return True, []


def check_bounds(cfg: dict, out: Path) -> tuple[bool, list[str]]:
    problems = []
    params = cfg["params"]
    subspaces = _json(out / "bounds_report.json")["subspaces"]
    if sorted(subspaces) != sorted({str(d) for d in params["subspace_dims"]}):
        problems.append(f"bounds report covers subspaces {sorted(subspaces)}")
    for dim, rep in subspaces.items():
        lhs, rhs = np.asarray(rep["lhs"]), np.asarray(rep["rhs"])
        if lhs.size != params["n_sequences"] or rhs.size != lhs.size:
            problems.append(f"subspace {dim}: {lhs.size} sequences, expected {params['n_sequences']}")
            continue
        candidates = np.array(
            [
                oracles.sequence_bound(rep["n_q"], rep["n_rho"], rep["n_o"], rep["epsilon"], n)
                for n in range(1, params["max_len"] + 1)
            ]
        )
        # the report stores the bound, not the sequence length; the recomputed
        # right-hand side is the candidate length whose bound it matches
        nearest = candidates[np.argmin(np.abs(rhs[:, None] - candidates[None, :]), axis=1)]
        if np.any(np.abs(nearest - rhs) > 1e-9 * np.abs(nearest) + 1e-300):
            problems.append(f"subspace {dim}: a reported bound matches no recomputed sequence bound")
        bad = int(np.sum(lhs > nearest * (1.0 + 1e-9) + 1e-12))
        if bad or rep["violations"]:
            problems.append(f"subspace {dim}: {bad} left-hand sides exceed the recomputed bound")
    return True, problems


def check_mle(cfg: dict, out: Path) -> tuple[bool, list[str]]:
    model, params = cfg["model"], cfg["params"]
    problems = []
    report = _json(out / "fit_report.json")
    diag = report["diagnostics"]
    records = oracles.TrialRecords(oracles.d7_trial_sequences(cfg["seed"]))
    if diag["n_records"] != len(records):
        problems.append(f"fit used {diag['n_records']} records, expected {len(records)}")
    floor = params["sigma_floor"]
    nodes, weights = _point_rule(model)
    true_rates = model["eta"] * (1.0 - nodes)
    means = records.predict(weights, {"H": true_rates, "S": true_rates})
    fitted = report["param_model"]
    nll = oracles.negative_log_likelihood(records.predict(fitted["p"], fitted["eps"]), means, floor)
    if abs(nll - report["nll"]) > 1e-6 * abs(nll) + 1e-9:
        problems.append(f"reported nll {report['nll']!r} vs recomputed {nll!r}")
    two_nodes, two_weights = oracles.two_point_rule(model["sigma"])
    two_rates = model["eta"] * (1.0 - two_nodes)
    nll_two = oracles.negative_log_likelihood(
        records.predict(two_weights, {"H": two_rates, "S": two_rates}), means, floor
    )
    if report["nll"] > nll_two * (1.0 + 1e-9) + 1e-9:
        problems.append(f"fit nll {report['nll']!r} exceeds the two-point rule's {nll_two!r}")
    well_specified = model["m"] == params["l_size"] == 2
    if well_specified:
        order = np.argsort(two_rates)  # fits list their points by ascending rate
        err = max(
            float(np.max(np.abs(np.asarray(fitted["p"]) - two_weights[order]))),
            *(float(np.max(np.abs(np.asarray(fitted["eps"][g]) - two_rates[order]))) for g in ("H", "S")),
        )
        if err > RECOVERY_TOL:
            problems.append(f"well-specified fit misses the two-point parameters by {err:.2e}")
    problems += _check_predictions(model, out, params, RECOVERY_TOL if well_specified else None)
    return bool(diag["converged"]), problems


CHECKS = {
    "survival": check_survival,
    "exact-lot": check_exact_lot,
    "lim": check_lim,
    "bounds": check_bounds,
    "mle": check_mle,
}
