"""Reproducible batch experiments driven by JSON configs.

``run`` executes one experiment per invocation and writes a manifest plus
result files into the output directory; ``compare`` tabulates two
reconstructed error models against stored ground-truth circuit means.  With
the same config and seed the result CSV/JSON files are byte identical
(the manifest carries the only timestamp).

Config schema (unknown keys are rejected)::

    {
      "experiment": "survival" | "exact-lot" | "lim" | "mle" | "bounds",
      "model":  {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 5}
              | {"kind": "dense", "sigma": ..., "eta": ..., "n_points": 2001}
              | {"kind": "constant", "epsilon": 0.01}
              | {"kind": "second_order", "sigma": ..., "eta": ..., "gate_gammas": {...}}
              | {"kind": "context", "labels": [...], "rates": {chi: {lam: eps}}, "initial": [...]},
      "seed": 0,            # optional, default 0
      "shots": null,        # optional, null = exact means
      "output_dir": "out",  # optional, else pass out_dir/--out
      "params": { ... experiment-specific ... }
    }

Exit codes: 0 success, 2 config validation error, 3 numerical failure
(singular Gram matrix, invalid moment sequence, optimizer breakdown).

Invoke from the shell as::

    python -m corrtomo.experiments run --config cfg.json --out outdir [--seed N]
    python -m corrtomo.experiments compare model_a.json model_b.json circuits.json [--out table.csv]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .bounds import NORM_KINDS, empirical_bound_check, gram_gauge_defect
from .device import (
    Circuit,
    RejectionSamplingError,
    _gate_matrix,
    exact_means,
    random_identity_sequences,
    run_circuit,
    survival_curve,
)
from .io import save_json, save_matrix_csv, save_rows_csv
from .linear_inversion import _all_sequences, gauge_fit_to_ideal, lim_reconstruct, svd_truncate, trial_sequences
from .mle import OptimizerConfig, fit, records_from_tomography
from .noise import (
    ContextModel,
    MomentSequenceError,
    build_low_freq_model,
    constant_depolarizing_model,
    dense_low_freq_model,
    depolarized_gates,
    second_order_model,
    transition_decay,
)
from .ptm import ideal_qubit_ptms, ideal_seven_ptms
from .tomography import (
    ErrorModel,
    ProtocolFailure,
    _predictions,
    collect_data,
    gauge_reconstruct,
    predict,
    select_fiducials,
    verify_factorization,
)
from .linear_inversion import collect_trial_data

__all__ = ["run", "compare", "build_model", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

EXPERIMENTS = ("survival", "exact-lot", "lim", "mle", "bounds")


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""


def _require_keys(section: Mapping, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def build_model(spec: Mapping):
    """Instantiate a noise model from its config section."""
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise ConfigError("model section must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "low_freq":
        _require_keys(spec, {"kind", "sigma", "eta", "m"}, {"sigma", "eta", "m"}, "model")
        return build_low_freq_model(float(spec["sigma"]), float(spec["eta"]), int(spec["m"]))
    if kind == "dense":
        _require_keys(spec, {"kind", "sigma", "eta", "n_points", "cutoff"}, {"sigma", "eta"}, "model")
        return dense_low_freq_model(
            float(spec["sigma"]),
            float(spec["eta"]),
            n_points=int(spec.get("n_points", 2001)),
            cutoff=float(spec.get("cutoff", 12.0)),
        )
    if kind == "constant":
        _require_keys(spec, {"kind", "epsilon"}, {"epsilon"}, "model")
        return constant_depolarizing_model(float(spec["epsilon"]))
    if kind == "second_order":
        _require_keys(spec, {"kind", "sigma", "eta", "gate_gammas"}, {"sigma"}, "model")
        return second_order_model(
            float(spec["sigma"]),
            eta=float(spec.get("eta", 0.0)),
            gate_gammas=spec.get("gate_gammas"),
        )
    if kind == "context":
        _require_keys(spec, {"kind", "labels", "rates", "initial"}, {"labels", "rates"}, "model")
        labels = tuple(spec["labels"])
        per_pair = {}
        for chi in labels:
            gates = depolarized_gates(chi, [float(spec["rates"][chi][lam]) for lam in labels])
            per_pair.update(((chi, lam), gate) for lam, gate in zip(labels, gates))
        initial = np.asarray(spec["initial"], dtype=float) if "initial" in spec else None
        return ContextModel(gate_labels=labels, per_pair=per_pair, initial=initial)
    raise ConfigError(f"unknown model kind {kind!r}")


def _load_config(config: str | Path | Mapping) -> dict:
    if isinstance(config, (str, Path)):
        try:
            config = json.loads(Path(config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(config, Mapping):
        raise ConfigError("config must be a JSON object")
    cfg = dict(config)
    _require_keys(
        cfg,
        {"experiment", "model", "seed", "shots", "output_dir", "params"},
        {"experiment", "model"},
        "config",
    )
    if cfg["experiment"] not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {cfg['experiment']!r}")
    cfg.setdefault("seed", 0)
    seed = cfg["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    shots = cfg.setdefault("shots", None)
    if shots is not None and (isinstance(shots, bool) or not isinstance(shots, int) or shots < 1):
        raise ConfigError(f"shots must be null or an integer >= 1, got {shots!r}")
    cfg.setdefault("params", {})
    if not isinstance(cfg["params"], Mapping):
        raise ConfigError("params must be an object")
    return cfg


# ---------------------------------------------------------------------------
# Experiment bodies.  Each returns {filename: writer} where the writer is a
# callable(path) producing the file, so nothing is written before the whole
# experiment has succeeded.
# ---------------------------------------------------------------------------


def _param(params: Mapping, key: str, convert, default=None):
    """``convert(params[key])``, or of ``default`` when the key is absent.

    A value that ``convert`` rejects is a ConfigError naming the key.
    """
    try:
        return convert(params.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {key}: {exc}") from exc


def _int_list(values) -> list[int]:
    return [int(v) for v in values]


def _lengths(params: Mapping, key: str, default: Sequence[int]) -> list[int]:
    """Circuit lengths under ``params[key]``, each checked to be nonnegative."""
    lengths = _param(params, key, _int_list, default)
    if any(n < 0 for n in lengths):
        raise ConfigError(f"params: {key} must hold lengths >= 0, got {lengths}")
    return lengths


def _count(params: Mapping, key: str, default: int, least: int) -> int:
    """The integer ``params[key]``, checked to be at least ``least``."""
    value = _param(params, key, int, default)
    if value < least:
        raise ConfigError(f"params: {key} must be >= {least}, got {value}")
    return value


def _fiducial_pool(params: Mapping) -> list[tuple[str, ...]]:
    """Every H/S sequence of at most ``params["pool_max_len"]`` gates (default 3)."""
    return [s for n in range(_count(params, "pool_max_len", 3, 0) + 1) for s in _all_sequences(n, ("H", "S"))]


def _check_dims(key: str, dims: Sequence[int], model, pool: Sequence) -> None:
    """Fiducial subspace dimensions must lie in 1 .. min(model dimension, pool size)."""
    largest = min(model.dim, len(pool))
    if any(not 1 <= d <= largest for d in dims):
        raise ConfigError(f"params: {key} must lie in 1 .. {largest} (model dimension, pool size), got {dims}")


def _eval_circuits(model, params: Mapping, seed: int) -> list[Circuit]:
    """Identity-equivalent evaluation circuits shared by lim/mle predictions."""
    grid = _lengths(params, "eval_n_gates", list(range(0, 101, 10)))
    per_point = _count(params, "eval_circuits_per_point", 10, 0)
    circuits: list[Circuit] = []
    root = np.random.SeedSequence(seed).spawn(len(grid))
    for n, seq in zip(grid, root):
        circuits.extend(random_identity_sequences(int(n), per_point, seed=np.random.default_rng(seq)))
    return circuits


def _predictions_writer(model, error_model: ErrorModel, params: Mapping, seed: int):
    """Writer of ``predictions.csv``: the model's and the error model's means on the evaluation circuits."""
    circuits = _eval_circuits(model, params, seed)
    labels = tuple(error_model.gates)
    actual = exact_means(model, circuits).tolist()
    predicted = _predictions(error_model, _gate_matrix(circuits, labels), labels).tolist()
    rows = [
        {"n_gates": len(c), "gates": "".join(c.gates), "actual": a, "predicted": p, "abs_error": abs(p - a)}
        for c, a, p in zip(circuits, actual, predicted)
    ]
    return lambda p: save_rows_csv(p, rows, ["n_gates", "gates", "actual", "predicted", "abs_error"])


def _survival_experiment(model, cfg: dict) -> dict:
    params = dict(cfg["params"])
    _require_keys(params, {"n_gates", "circuits_per_point", "eval_n_gates", "eval_circuits_per_point"},
                  {"n_gates"}, "params")
    n_gates = _lengths(params, "n_gates", [])
    if not n_gates:
        raise ConfigError("params: n_gates must not be empty")
    rows = survival_curve(
        model,
        n_gates,
        circuits_per_point=_count(params, "circuits_per_point", 200, 1),
        shots=cfg["shots"],
        seed=cfg["seed"],
    )
    circuits = _eval_circuits(model, params, cfg["seed"] + 1)
    records = [
        {"gates": list(c.gates), "mean": run_circuit(model, c).mean} for c in circuits
    ]
    return {
        "survival.csv": lambda p: save_rows_csv(
            p, rows, ["n_gates", "mean", "stderr", "circuits", "shots", "seed"]
        ),
        "records.json": lambda p: save_json(p, {"circuits": records}),
    }


def _exact_lot_experiment(model, cfg: dict) -> dict:
    params = dict(cfg["params"])
    _require_keys(
        params,
        {"d", "pool_max_len", "n_check_sequences", "check_max_len"},
        {"d"},
        "params",
    )
    d = _param(params, "d", int)
    pool = trial_sequences("custom", sequences=_fiducial_pool(params)).sequences
    _check_dims("d", [d], model, pool)
    n_seq = _count(params, "n_check_sequences", 100, 0)
    max_len = _count(params, "check_max_len", 20, 1)
    fiducials = select_fiducials(model, pool, d)
    data = collect_data(model, fiducials, shots=cfg["shots"], seed=cfg["seed"])
    gen = np.random.default_rng(cfg["seed"])
    labels = tuple(model.gate_labels)
    sequences = [
        tuple(labels[i] for i in gen.integers(0, len(labels), size=int(gen.integers(1, max_len + 1))))
        for _ in range(n_seq)
    ]
    report = verify_factorization(data, model, sequences)
    error_model = gauge_reconstruct(data)
    out = {
        "gram.csv": lambda p: save_matrix_csv(p, data.gram),
        "factorization.json": lambda p: save_json(
            p,
            {
                "max_residual": report.max_residual,
                "cond_gram": report.cond_gram,
                "n_sequences": n_seq,
                "residuals": report.residuals,
            },
        ),
        "error_model.json": lambda p: save_json(p, error_model.to_json()),
    }
    for label, mat in data.gate_mats.items():
        out[f"gate_{label}.csv"] = (lambda m: (lambda p: save_matrix_csv(p, m)))(mat)
    return out


def _trial(params: Mapping, seed: int):
    """The trial sequences of ``params["preset"]`` (default d7)."""
    try:
        return trial_sequences(str(params.get("preset", "d7")), seed=seed)
    except ValueError as exc:  # unknown preset, or custom without sequences
        raise ConfigError(f"params: preset: {exc}") from exc


def _lim_experiment(model, cfg: dict) -> dict:
    params = dict(cfg["params"])
    _require_keys(
        params,
        {"preset", "d", "gauge_fit", "eval_n_gates", "eval_circuits_per_point"},
        {"d"},
        "params",
    )
    trial = _trial(params, cfg["seed"])
    data = collect_trial_data(model, trial, shots=cfg["shots"], seed=cfg["seed"])
    d = _param(params, "d", int)
    try:
        trunc = svd_truncate(data.gram, data.gate_mats, d)
    except ValueError as exc:  # d outside 1 .. trial dimension
        raise ConfigError(f"params: d: {exc}") from exc
    out: dict = {
        "spectrum.csv": lambda p: save_rows_csv(
            p,
            [{"index": i, "singular_value": float(s)} for i, s in enumerate(trunc.singular_values)],
            ["index", "singular_value"],
        ),
    }
    if params.get("gauge_fit", True) and d in (4, 7):
        fit_res = gauge_fit_to_ideal(trunc, trial=trial)
        error_model = fit_res.error_model
        ideal = ideal_qubit_ptms() if d == 4 else ideal_seven_ptms(0.5)
        for label in sorted(error_model.gates):
            mat = error_model.gates[label]
            out[f"ptm_{label}.csv"] = (lambda m: (lambda p: save_matrix_csv(p, m)))(mat)
            out[f"ptm_diff_{label}.csv"] = (lambda m: (lambda p: save_matrix_csv(p, m)))(mat - ideal[label])
        out["gauge_fit.json"] = lambda p: save_json(
            p,
            {"objective": fit_res.objective, "n_evaluations": fit_res.n_evaluations,
             "converged": fit_res.converged},
        )
    else:
        error_model = lim_reconstruct(trunc)
    out["error_model.json"] = lambda p: save_json(p, error_model.to_json())
    out["predictions.csv"] = _predictions_writer(model, error_model, params, cfg["seed"] + 1)
    return out


def _mle_experiment(model, cfg: dict) -> dict:
    params = dict(cfg["params"])
    _require_keys(
        params,
        {"preset", "l_size", "sigma_floor", "n_starts", "eval_n_gates", "eval_circuits_per_point"},
        {"l_size"},
        "params",
    )
    trial = _trial(params, cfg["seed"])
    data = collect_trial_data(model, trial, shots=cfg["shots"], seed=cfg["seed"])
    records = records_from_tomography(data)
    opt = OptimizerConfig(
        sigma_floor=_param(params, "sigma_floor", float, 1e-3),
        n_starts=_param(params, "n_starts", int, 16),
    )
    l_size = _param(params, "l_size", int)
    try:
        result = fit(records, l_size, optimizer_config=opt, seed=cfg["seed"])
    except ValueError as exc:  # l_size, n_starts or sigma_floor out of range
        raise ConfigError(f"params: {exc}") from exc
    head = records[:200]
    residuals = (_predictions(result.error_model, head.gates, head.labels) - head.means).tolist()
    predictions = _predictions_writer(model, result.error_model, params, cfg["seed"] + 1)
    return {
        "fit_report.json": lambda p: save_json(
            p,
            {
                **result.to_json(),
                "residual_head": residuals,
            },
        ),
        "error_model.json": lambda p: save_json(p, result.error_model.to_json()),
        "predictions.csv": predictions,
    }


def _bounds_experiment(model, cfg: dict) -> dict:
    params = dict(cfg["params"])
    _require_keys(
        params,
        {"subspace_dims", "n_sequences", "max_len", "pool_max_len", "norm_kind", "gamma_grid"},
        set(),
        "params",
    )
    # An m-point environment reaches 3m + 1 directions (effective_dimension), but
    # at weak noise the default pool resolves all of them only up to m = 2.
    dims = _param(params, "subspace_dims", _int_list, [min(3 * model.m + 1, 7), 3])
    pool = _fiducial_pool(params)
    _check_dims("subspace_dims", dims, model, pool)
    n_seq = _count(params, "n_sequences", 1000, 0)
    max_len = _count(params, "max_len", 20, 1)
    norm_kind = params.get("norm_kind", "trace")
    if norm_kind not in NORM_KINDS:
        raise ConfigError(f"params: norm_kind must be one of {NORM_KINDS}, got {norm_kind!r}")
    gammas = _param(params, "gamma_grid", lambda v: [float(g) for g in v], [0.0, 0.1, 0.5, 1.0, 2.0])
    if not gammas or not all(g >= 0.0 for g in gammas):
        raise ConfigError(f"params: gamma_grid must be a nonempty list of decay exponents >= 0, got {gammas}")
    reports = {}
    for d in dims:
        fids = select_fiducials(model, pool, d)
        rep = empirical_bound_check(
            model, fids, n_sequences=n_seq, max_len=max_len, seed=cfg["seed"], norm_kind=norm_kind
        )
        reports[str(d)] = {**rep.to_json(), "gram_gauge_defect": gram_gauge_defect(model, fids)}
        if not rep.passed:
            raise ProtocolFailure(f"bound violated for subspace dimension {d}")
    semigroup = max(
        float(np.max(np.abs(transition_decay(a) @ transition_decay(b) - transition_decay(a + b))))
        for a in gammas
        for b in gammas
    )
    return {
        "bounds_report.json": lambda p: save_json(
            p, {"subspaces": reports, "semigroup_max_deviation": semigroup}
        )
    }


_BODIES = {
    "survival": _survival_experiment,
    "exact-lot": _exact_lot_experiment,
    "lim": _lim_experiment,
    "mle": _mle_experiment,
    "bounds": _bounds_experiment,
}


def run(
    config: str | Path | Mapping,
    out_dir: str | Path | None = None,
    seed: int | None = None,
) -> int:
    """Execute one configured experiment; returns the process exit code.

    ``out_dir`` and ``seed`` override the config values; the seed override
    is checked like the config's own.  On success the output directory
    contains ``manifest.json`` (resolved config, package version, seeds, file
    list) and the experiment's result files; on a validation error or a
    numerical failure nothing is written.  Files go to a staging directory
    next to the target, moved into place after the manifest: a failing writer
    leaves no partial output.
    """
    try:
        cfg = _load_config(config)
        if seed is not None:
            cfg = _load_config({**cfg, "seed": seed})
        target = out_dir if out_dir is not None else cfg.get("output_dir")
        if target is None:
            raise ConfigError("no output directory: set output_dir in the config or pass out_dir")
        try:
            model = build_model(cfg["model"])
        except (ConfigError, MomentSequenceError):
            raise
        except (ValueError, TypeError, KeyError) as exc:  # out-of-range, mistyped or missing values
            raise ConfigError(f"model: {exc!r}") from exc
        writers = _BODIES[cfg["experiment"]](model, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProtocolFailure, MomentSequenceError, RejectionSamplingError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.parent / f".{target.name}-{os.getpid()}-{os.urandom(4).hex()}"
    staging.mkdir()  # a unique sibling, with the mode the umask gives
    try:
        for name, writer in sorted(writers.items()):
            writer(staging / name)
        manifest = {
            "version": __version__,
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": {k: v for k, v in cfg.items() if k != "output_dir"},
            "files": sorted(writers),
        }
        save_json(staging / "manifest.json", manifest)
        if target.exists():
            for name in [*sorted(writers), "manifest.json"]:
                os.replace(staging / name, target / name)
            staging.rmdir()
        else:
            staging.rename(target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return EXIT_OK


def compare(
    model_report_a: str | Path | Mapping,
    model_report_b: str | Path | Mapping,
    circuits: str | Path | Sequence[Mapping],
    out_csv: str | Path | None = None,
) -> list[dict]:
    """Tabulate two reconstructed models against stored ground-truth means.

    ``circuits`` is a records payload (``{"circuits": [{"gates": [...],
    "mean": ...}]}``, as written by the survival experiment) or a plain list
    of such entries.  Returns one row per circuit with both predictions and
    absolute errors; optionally writes the table as CSV.
    """

    def load_model(source) -> ErrorModel:
        if isinstance(source, (str, Path)):
            source = json.loads(Path(source).read_text())
        if "error_model" in source:
            source = source["error_model"]
        return ErrorModel.from_json(source)

    model_a = load_model(model_report_a)
    model_b = load_model(model_report_b)
    if isinstance(circuits, (str, Path)):
        circuits = json.loads(Path(circuits).read_text())
    if isinstance(circuits, Mapping):
        circuits = circuits["circuits"]
    rows = []
    for entry in circuits:
        gates = tuple(entry["gates"])
        truth = float(entry["mean"])
        pred_a = predict(model_a, gates)
        pred_b = predict(model_b, gates)
        rows.append(
            {
                "n_gates": len(gates),
                "gates": "".join(gates),
                "truth": truth,
                "pred_a": pred_a,
                "pred_b": pred_b,
                "abs_error_a": abs(pred_a - truth),
                "abs_error_b": abs(pred_b - truth),
            }
        )
    if out_csv is not None:
        save_rows_csv(
            out_csv,
            rows,
            ["n_gates", "gates", "truth", "pred_a", "pred_b", "abs_error_a", "abs_error_b"],
        )
    return rows


def _main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="corrtomo.experiments", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a configured experiment")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")
    cmp_p = sub.add_parser("compare", help="compare two reconstructed models on stored circuits")
    cmp_p.add_argument("model_a")
    cmp_p.add_argument("model_b")
    cmp_p.add_argument("circuits")
    cmp_p.add_argument("--out", default=None, help="write the comparison table as CSV")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out, seed=args.seed)
    rows = compare(args.model_a, args.model_b, args.circuits, out_csv=args.out)
    worst_a = max((r["abs_error_a"] for r in rows), default=0.0)
    worst_b = max((r["abs_error_b"] for r in rows), default=0.0)
    print(f"{len(rows)} circuits: max |error| model_a = {worst_a:.3e}, model_b = {worst_b:.3e}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(_main())
