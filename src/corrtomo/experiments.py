"""Reproducible batch experiments driven by JSON configs.

``run`` executes one experiment per invocation and writes a manifest plus
result files into the output directory; ``compare`` tabulates two
reconstructed error models against stored ground-truth circuit means.  With
the same config and seed the result CSV/JSON files are byte identical
(the manifest carries the only timestamp).

A config is a JSON object::

    {"experiment": "survival", "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 5},
     "seed": 0, "shots": null, "output_dir": "out", "params": {"n_gates": [0, 10, 20]}}

Its keys are given by three tables below: ``CONFIG`` for the top level,
``MODELS`` for each model kind and ``EXPERIMENTS`` for each experiment's
``params``.  ``run`` checks the whole config against them before it builds
the model; unknown keys are rejected.

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
from itertools import product
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence, get_args, get_origin

import numpy as np

from . import __version__
from .bounds import NORM_KINDS, empirical_bound_check, gram_gauge_defect
from .device import (
    RejectionSamplingError,
    _gate_matrix,
    exact_means,
    random_identity_sequences,
    run_circuit,
    survival_curve,
)
from .io import save_json, save_matrix_csv, save_rows_csv
from .linear_inversion import gauge_fit_to_ideal, lim_reconstruct, svd_truncate, trial_sequences
from .mle import OptimizerConfig, fit, records_from_tomography
from .noise import (
    DEFAULT_GATE_LABELS,
    ContextModel,
    MomentSequenceError,
    build_low_freq_model,
    constant_depolarizing_model,
    dense_low_freq_model,
    second_order_model,
    transition_decay,
)
from .ptm import ideal_qubit_ptms
from .tomography import (
    ErrorModel,
    ProtocolFailure,
    _predictions,
    collect_data,
    gauge_reconstruct,
    predict,  # unused here, but corrbench/tracing.py counts prediction calls through experiments.predict
    select_fiducials,
    verify_factorization,
)
from .linear_inversion import collect_trial_data, ideal_seven_ptms

__all__ = ["run", "compare", "build_model", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""


REQUIRED = object()  # the default of a key that must be given


class Param(NamedTuple):
    """One config key.

    ``kind`` is ``int``, ``float``, ``bool``, ``str``, ``dict`` (an object
    checked elsewhere), ``list[...]`` or ``dict[str, ...]``.  An integer takes
    a JSON integer only; a float takes any JSON number and is passed on as a
    ``float``; a list must be nonempty.  ``least`` (inclusive) and ``above``
    (exclusive) bound every number of the value, and NaN meets neither;
    ``choices`` lists the allowed strings.  A key whose default is None also
    takes null.
    """

    kind: object
    default: object = REQUIRED
    least: float | None = None
    above: float | None = None
    choices: tuple = ()


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "a nonempty list", dict: "an object"}


def _value(value, kind, p: Param, name: str):
    """``value`` checked against ``kind`` and the limits of ``p``."""
    origin, args = get_origin(kind) or kind, get_args(kind)
    if origin is float and type(value) is int:
        value = float(value)
    if not (isinstance(value, Mapping) if origin is dict else type(value) is origin) or value == []:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[origin]}, got {value!r}")
    if origin is list:
        return [_value(v, args[0], p, f"{name}[{i}]") for i, v in enumerate(value)]
    if args:
        return {k: _value(v, args[1], p, f"{name}[{k!r}]") for k, v in value.items()}
    if p.choices and value not in p.choices:
        raise ConfigError(f"{name} must be one of {list(p.choices)}, got {value!r}")
    if p.least is not None and not value >= p.least:
        raise ConfigError(f"{name} must be >= {p.least}, got {value!r}")
    if p.above is not None and not value > p.above:
        raise ConfigError(f"{name} must be > {p.above}, got {value!r}")
    return value


def _checked(section: Mapping, table: Mapping[str, Param], where: str) -> dict:
    """Every key of ``table``: its checked value in ``section``, or its default."""
    unknown = set(section) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [key for key, p in table.items() if p.default is REQUIRED and key not in section]
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")
    prefix = "" if where == "config" else f"{where}: "
    return {
        key: None if p.default is None and section.get(key) is None
        else _value(section.get(key, p.default), p.kind, p, prefix + key)
        for key, p in table.items()
    }


def _context_model(labels: list[str], rates: dict, initial: list[float] | None = None) -> ContextModel:
    """Context model whose gate ``chi`` after gate ``lam`` depolarizes at ``rates[chi][lam]``.

    ``labels`` must hold every gate of the experiments' circuits, and
    ``rates`` may name no other label.
    """
    missing = [g for g in DEFAULT_GATE_LABELS if g not in labels]
    if missing:
        raise ConfigError(f"model: labels must hold every gate of the circuits {list(DEFAULT_GATE_LABELS)}, "
                          f"missing {missing}")
    outside = sorted((set(rates) | {lam for row in rates.values() for lam in row}) - set(labels))
    if outside:
        raise ConfigError(f"model: rates names labels outside labels {labels}: {outside}")
    return ContextModel(gate_labels=tuple(labels), rates=rates, initial=initial)


# Each model kind: its builder, called with the checked keys, and their table.
# An omitted optional key keeps the builder's own default.
MODELS = {
    "low_freq": (build_low_freq_model, {
        "sigma": Param(float, above=0.0), "eta": Param(float, least=0.0), "m": Param(int, least=1)}),
    "dense": (dense_low_freq_model, {
        "sigma": Param(float, above=0.0), "eta": Param(float, least=0.0),
        "n_points": Param(int, default=None, least=1), "cutoff": Param(float, default=None, above=0.0)}),
    "constant": (constant_depolarizing_model, {"epsilon": Param(float, least=0.0)}),
    "second_order": (second_order_model, {
        "sigma": Param(float, above=0.0), "eta": Param(float, default=None, least=0.0),
        "gate_gammas": Param(dict[str, float], default=None, least=0.0)}),
    "context": (_context_model, {
        "labels": Param(list[str]), "rates": Param(dict[str, dict[str, float]], least=0.0),
        "initial": Param(list[float], default=None, least=0.0)}),
}


def _model_section(spec) -> tuple:
    """The builder of ``spec["kind"]`` and its checked keyword arguments."""
    kind = spec.get("kind") if isinstance(spec, Mapping) else None
    if kind not in list(MODELS):
        raise ConfigError(f"model: kind must be one of {list(MODELS)}, got {kind!r}")
    builder, table = MODELS[kind]
    section = _checked({k: v for k, v in spec.items() if k != "kind"}, table, "model")
    return builder, {k: v for k, v in section.items() if v is not None}


def build_model(spec: Mapping):
    """Instantiate a noise model from its config section."""
    builder, kwargs = _model_section(spec)
    return builder(**kwargs)


def _load_config(config: str | Path | Mapping) -> Mapping:
    if isinstance(config, (str, Path)):
        try:
            config = json.loads(Path(config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(config, Mapping):
        raise ConfigError("config must be a JSON object")
    return config


def _output_dir(target: str | Path | None) -> Path:
    """``target``, checked to be a directory or a path where one can be made."""
    if target is None:
        raise ConfigError("no output directory: set output_dir in the config or pass out_dir")
    target = Path(target)
    existing = next(p for p in (target, *target.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output_dir: {str(existing)!r} is not a directory")
    return target


def _listed_files(target: Path) -> set[str]:
    """Files in ``target`` that its manifest lists by bare name; none without a readable manifest."""
    try:
        files = json.loads((target / "manifest.json").read_text())["files"]
        return {f for f in files if Path(f).name == f and (target / f).is_file()} if isinstance(files, list) else set()
    except (OSError, ValueError, LookupError, TypeError):  # TypeError: a listed name that is not a string
        return set()


# ---------------------------------------------------------------------------
# Experiment bodies.  Each reads its checked params and returns {filename:
# content}: a matrix for save_matrix_csv, a (rows, fieldnames) pair for
# save_rows_csv, or anything else for save_json.  ``run`` writes them.
# ---------------------------------------------------------------------------


def _fiducial_pool(pool_max_len: int) -> list[tuple[str, ...]]:
    """Every H/S sequence of at most ``pool_max_len`` gates."""
    return [s for n in range(pool_max_len + 1) for s in product(("H", "S"), repeat=n)]


def _check_dims(key: str, dims: Sequence[int], model, pool: Sequence) -> None:
    """Fiducial subspace dimensions must lie in 1 .. min(model dimension, pool size)."""
    largest = min(model.dim, len(pool))
    if any(not 1 <= d <= largest for d in dims):
        raise ConfigError(f"params: {key} must lie in 1 .. {largest} (model dimension, pool size), got {dims}")


def _eval_circuits(params: dict, seed: int) -> list[tuple[str, ...]]:
    """Identity-equivalent evaluation circuits shared by lim/mle predictions."""
    grid, per_point = params["eval_n_gates"], params["eval_circuits_per_point"]
    circuits: list[tuple[str, ...]] = []
    root = np.random.SeedSequence(seed).spawn(len(grid))
    for n, seq in zip(grid, root):
        circuits.extend(random_identity_sequences(n, per_point, seed=np.random.default_rng(seq)))
    return circuits


def _prediction_rows(model, error_model: ErrorModel, params: dict, seed: int) -> tuple[list[dict], list[str]]:
    """``predictions.csv``: the model's and the error model's means on the evaluation circuits."""
    circuits = _eval_circuits(params, seed)
    labels = tuple(error_model.gates)
    actual = exact_means(model, circuits).tolist()
    predicted = _predictions(error_model, _gate_matrix(circuits, labels), labels).tolist()
    rows = [
        {"n_gates": len(c), "gates": "".join(c), "actual": a, "predicted": p, "abs_error": abs(p - a)}
        for c, a, p in zip(circuits, actual, predicted)
    ]
    return rows, ["n_gates", "gates", "actual", "predicted", "abs_error"]


def _survival_experiment(model, cfg: dict, params: dict) -> dict:
    rows = survival_curve(
        model,
        params["n_gates"],
        circuits_per_point=params["circuits_per_point"],
        shots=cfg["shots"],
        seed=cfg["seed"],
    )
    circuits = _eval_circuits(params, cfg["seed"] + 1)
    records = [{"gates": list(c), "mean": run_circuit(model, c).mean} for c in circuits]
    return {
        "survival.csv": (rows, ["n_gates", "mean", "stderr", "circuits", "shots", "seed"]),
        "records.json": {"circuits": records},
    }


def _exact_lot_experiment(model, cfg: dict, params: dict) -> dict:
    d, n_seq, max_len = params["d"], params["n_check_sequences"], params["check_max_len"]
    pool = _fiducial_pool(params["pool_max_len"])
    _check_dims("d", [d], model, pool)
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
    return {
        "gram.csv": data.gram,
        "factorization.json": {
            "max_residual": report.max_residual,
            "cond_gram": report.cond_gram,
            "n_sequences": n_seq,
            "residuals": report.residuals,
        },
        "error_model.json": error_model.to_json(),
        **{f"gate_{label}.csv": mat for label, mat in data.gate_mats.items()},
    }


def _lim_experiment(model, cfg: dict, params: dict) -> dict:
    trial = trial_sequences(params["preset"], seed=cfg["seed"])
    d = params["d"]
    if d > trial.d_trial:
        raise ConfigError(f"params: d must be at most the {trial.d_trial} trial sequences, got {d}")
    data = collect_trial_data(model, trial, shots=cfg["shots"], seed=cfg["seed"])
    trunc = svd_truncate(data.gram, data.gate_mats, d)
    spectrum = [{"index": i, "singular_value": float(s)} for i, s in enumerate(trunc.singular_values)]
    out: dict = {"spectrum.csv": (spectrum, ["index", "singular_value"])}
    if params["gauge_fit"] and d in (4, 7):
        fit_res = gauge_fit_to_ideal(trunc, trial=trial)
        error_model = fit_res.error_model
        ideal = ideal_qubit_ptms() if d == 4 else ideal_seven_ptms()
        for label in sorted(error_model.gates):
            out[f"ptm_{label}.csv"] = error_model.gates[label]
            out[f"ptm_diff_{label}.csv"] = error_model.gates[label] - ideal[label]
        out["gauge_fit.json"] = {"objective": fit_res.objective, "n_evaluations": fit_res.n_evaluations,
                                 "converged": fit_res.converged}
    else:
        error_model = lim_reconstruct(trunc)
    out["error_model.json"] = error_model.to_json()
    out["predictions.csv"] = _prediction_rows(model, error_model, params, cfg["seed"] + 1)
    return out


def _mle_experiment(model, cfg: dict, params: dict) -> dict:
    trial = trial_sequences(params["preset"], seed=cfg["seed"])
    data = collect_trial_data(model, trial, shots=cfg["shots"], seed=cfg["seed"])
    records = records_from_tomography(data)
    opt = OptimizerConfig(sigma_floor=params["sigma_floor"], n_starts=params["n_starts"])
    result = fit(records, params["l_size"], optimizer_config=opt, seed=cfg["seed"])
    residuals = _predictions(result.error_model, records.gates[:200], records.labels) - records.means[:200]
    return {
        "fit_report.json": {**result.to_json(), "residual_head": residuals.tolist()},
        "error_model.json": result.error_model.to_json(),
        "predictions.csv": _prediction_rows(model, result.error_model, params, cfg["seed"] + 1),
    }


def _bounds_experiment(model, cfg: dict, params: dict) -> dict:
    # An m-point environment reaches 3m + 1 directions (effective_dimension), but
    # at weak noise the default pool resolves all of them only up to m = 2.
    dims = params["subspace_dims"] or [min(3 * model.m + 1, 7), 3]
    pool = _fiducial_pool(params["pool_max_len"])
    _check_dims("subspace_dims", dims, model, pool)
    gammas = params["gamma_grid"]
    reports = {}
    for d in dims:
        fids = select_fiducials(model, pool, d)
        rep = empirical_bound_check(
            model, fids, n_sequences=params["n_sequences"], max_len=params["max_len"], seed=cfg["seed"],
            norm_kind=params["norm_kind"],
        )
        reports[str(d)] = {**rep.to_json(), "gram_gauge_defect": gram_gauge_defect(model, fids)}
        if not rep.passed:
            raise ProtocolFailure(f"bound violated for subspace dimension {d}")
    semigroup = max(
        float(np.max(np.abs(transition_decay(a) @ transition_decay(b) - transition_decay(a + b))))
        for a in gammas
        for b in gammas
    )
    return {"bounds_report.json": {"subspaces": reports, "semigroup_max_deviation": semigroup}}


_EVAL = {
    "eval_n_gates": Param(list[int], default=list(range(0, 101, 10)), least=0),
    "eval_circuits_per_point": Param(int, default=10, least=0),
}
_TRIAL = {"preset": Param(str, default="d7", choices=("d4", "d7"))}
_POOL = {"pool_max_len": Param(int, default=3, least=0)}

# Each experiment: its body and the table of its params.
EXPERIMENTS = {
    "survival": (_survival_experiment, {
        "n_gates": Param(list[int], least=0), "circuits_per_point": Param(int, default=200, least=1), **_EVAL}),
    "exact-lot": (_exact_lot_experiment, {
        "d": Param(int, least=1), **_POOL, "n_check_sequences": Param(int, default=100, least=0),
        "check_max_len": Param(int, default=20, least=1)}),
    "lim": (_lim_experiment, {
        **_TRIAL, "d": Param(int, least=1), "gauge_fit": Param(bool, default=True), **_EVAL}),
    "mle": (_mle_experiment, {
        **_TRIAL, "l_size": Param(int, least=1), "sigma_floor": Param(float, default=1e-3, above=0.0),
        "n_starts": Param(int, default=16, least=1), **_EVAL}),
    "bounds": (_bounds_experiment, {
        # null: [min(3m + 1, 7), 3] for an m-point model
        "subspace_dims": Param(list[int], default=None, least=1), "n_sequences": Param(int, default=1000, least=0),
        "max_len": Param(int, default=20, least=1), **_POOL,
        "norm_kind": Param(str, default="trace", choices=NORM_KINDS),
        "gamma_grid": Param(list[float], default=[0.0, 0.1, 0.5, 1.0, 2.0], least=0.0)}),
}

CONFIG = {
    "experiment": Param(str, choices=tuple(EXPERIMENTS)),
    "model": Param(dict),  # checked against the table of its kind
    "seed": Param(int, default=0, least=0),
    "shots": Param(int, default=None, least=1),  # null: exact means
    "output_dir": Param(str, default=None),
    "params": Param(dict, default={}),  # checked against the experiment's table
}


def run(
    config: str | Path | Mapping,
    out_dir: str | Path | None = None,
    seed: int | None = None,
) -> int:
    """Execute one configured experiment; returns the process exit code.

    ``out_dir`` and ``seed`` override the config values.  The whole config,
    the output directory included, is checked against the tables before the
    model is built.  On success the output directory
    contains ``manifest.json`` (resolved config, package version, seeds, file
    list) and the experiment's result files; on a validation error or a
    numerical failure nothing is written.  The body returns each file's
    content, which one loop writes with ``save_matrix_csv`` (a matrix),
    ``save_rows_csv`` (a ``(rows, fieldnames)`` pair) or ``save_json`` into a
    staging directory next to the target, moved into place after the
    manifest: a failing writer leaves no partial output.  Reusing a
    directory deletes the files its old manifest lists that this run does
    not write, and touches no other file.
    """
    try:
        cfg = _load_config(config)
        cfg = _checked(cfg if seed is None else {**cfg, "seed": seed}, CONFIG, "config")
        body, table = EXPERIMENTS[cfg["experiment"]]
        params = _checked(cfg["params"], table, "params")
        _model_section(cfg["model"])  # checked here, before build_model runs
        target = _output_dir(out_dir if out_dir is not None else cfg["output_dir"])
        try:
            model = build_model(cfg["model"])
        except (ConfigError, MomentSequenceError):
            raise
        except (ValueError, TypeError, KeyError) as exc:  # values the builder rejects
            raise ConfigError(f"model: {exc!r}") from exc
        files = body(model, cfg, params)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProtocolFailure, MomentSequenceError, RejectionSamplingError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.parent / f".{target.name}-{os.getpid()}-{os.urandom(4).hex()}"
    staging.mkdir()  # a unique sibling, with the mode the umask gives
    try:
        for name, content in sorted(files.items()):
            if isinstance(content, np.ndarray):
                save_matrix_csv(staging / name, content)
            elif isinstance(content, tuple):
                save_rows_csv(staging / name, *content)
            else:
                save_json(staging / name, content)
        manifest = {
            "version": __version__,
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": {k: v for k, v in cfg.items() if k != "output_dir"},
            "files": sorted(files),
        }
        save_json(staging / "manifest.json", manifest)
        if target.exists():  # first delete the old run's files that this run does not write
            for name in sorted(_listed_files(target) - set(files)):
                (target / name).unlink()
            for name in [*sorted(files), "manifest.json"]:
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
    sequences = [tuple(entry["gates"]) for entry in circuits]
    truths = [float(entry["mean"]) for entry in circuits]
    pred_a, pred_b = (
        _predictions(m, _gate_matrix(sequences, tuple(m.gates)), tuple(m.gates)).tolist() for m in (model_a, model_b)
    )
    rows = [
        {
            "n_gates": len(gates),
            "gates": "".join(gates),
            "truth": truth,
            "pred_a": a,
            "pred_b": b,
            "abs_error_a": abs(a - truth),
            "abs_error_b": abs(b - truth),
        }
        for gates, truth, a, b in zip(sequences, truths, pred_a, pred_b)
    ]
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
    try:
        rows = compare(args.model_a, args.model_b, args.circuits, out_csv=args.out)
    except (OSError, ValueError, TypeError, LookupError, AttributeError) as exc:  # unreadable or malformed input
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    worst_a = max((r["abs_error_a"] for r in rows), default=0.0)
    worst_b = max((r["abs_error_b"] for r in rows), default=0.0)
    print(f"{len(rows)} circuits: max |error| model_a = {worst_a:.3e}, model_b = {worst_b:.3e}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(_main())
