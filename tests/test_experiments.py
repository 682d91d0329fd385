"""Batch runner: config validation, outputs, reproducibility, comparison."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrtomo.experiments as experiments
from conftest import sequences_up_to
from corrtomo.tomography import ErrorModel, predict
from corrtomo.experiments import (
    CONFIG,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXPERIMENTS,
    MODELS,
    REQUIRED,
    _main,
    build_model,
    compare,
    run,
)

SURVIVAL_CFG = {
    "experiment": "survival",
    "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
    "seed": 7,
    "params": {
        "n_gates": [0, 5, 10],
        "circuits_per_point": 6,
        "eval_n_gates": [0, 5],
        "eval_circuits_per_point": 3,
    },
}

EXACT_LOT_CFG = {
    "experiment": "exact-lot",
    "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
    "params": {"d": 7, "n_check_sequences": 3},
}
EXACT_LOT_FILES = ["error_model.json", "factorization.json", "gate_H.csv", "gate_S.csv", "gram.csv"]


class TestConfigValidation:
    def test_unknown_key_rejected_without_outputs(self, tmp_path):
        bad = dict(SURVIVAL_CFG, bogus=1)
        out = tmp_path / "out"
        assert run(bad, out_dir=out) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_experiment(self, tmp_path):
        cfg = dict(SURVIVAL_CFG, experiment="teleport")
        assert run(cfg, out_dir=tmp_path / "x") == EXIT_CONFIG

    def test_unknown_model_kind(self, tmp_path):
        cfg = dict(SURVIVAL_CFG, model={"kind": "unicorn"})
        assert run(cfg, out_dir=tmp_path / "x") == EXIT_CONFIG

    def test_unreadable_config_path(self, tmp_path):
        assert run(tmp_path / "missing.json", out_dir=tmp_path / "x") == EXIT_CONFIG

    def test_missing_output_dir(self):
        assert run(dict(SURVIVAL_CFG)) == EXIT_CONFIG

    @pytest.mark.parametrize("bad", [{"sigma_floor": 0}, {"l_size": 0}, {"n_starts": 0}])
    def test_mle_parameters_out_of_range(self, tmp_path, bad):
        params = {"l_size": 1, "preset": "d4", "n_starts": 1, "eval_n_gates": [0], "eval_circuits_per_point": 1}
        cfg = {
            "experiment": "mle",
            "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
            "params": {**params, **bad},
        }
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"shots": 0},
            {"params": dict(SURVIVAL_CFG["params"], n_gates=[-1, 10])},
            {"params": dict(SURVIVAL_CFG["params"], n_gates=[])},
            {"params": dict(SURVIVAL_CFG["params"], eval_n_gates=[0, -3])},
            {"params": dict(SURVIVAL_CFG["params"], circuits_per_point=0)},
            {"model": dict(SURVIVAL_CFG["model"], eta=2)},
            {"model": dict(SURVIVAL_CFG["model"], m="five")},
            {"model": dict(SURVIVAL_CFG["model"], sigma=-1)},
            {"model": dict(SURVIVAL_CFG["model"], sigma=0)},
            {"model": {"kind": "dense", "sigma": 0, "eta": 1}},
            {"model": {"kind": "dense", "sigma": 1, "eta": 1, "cutoff": 0}},
            {"model": {"kind": "context", "labels": ["H", "S"], "rates": {"H": {"H": 0.01}, "S": {"S": 0.0}}}},
            {
                "experiment": "lim",
                "params": {"preset": "d4", "d": 200, "eval_n_gates": [0], "eval_circuits_per_point": 1},
            },
            {"experiment": "bounds", "params": {"subspace_dims": [3], "max_len": 0}},
            {"experiment": "bounds", "params": {"subspace_dims": [3], "n_sequences": -3}},
            {"experiment": "bounds", "params": {"subspace_dims": [0]}},
            {"experiment": "bounds", "params": {"subspace_dims": [9]}},
            {"experiment": "bounds", "params": {"subspace_dims": [3], "pool_max_len": -1}},
            {"experiment": "bounds", "params": {"subspace_dims": [3], "gamma_grid": [0.5, -1]}},
            {"experiment": "bounds", "params": {"subspace_dims": [3], "gamma_grid": []}},
            {"experiment": "exact-lot", "params": {"d": 7, "check_max_len": 0}},
            {"experiment": "exact-lot", "params": {"d": 7, "n_check_sequences": -1}},
            {"experiment": "exact-lot", "params": {"d": 0}},
            {"experiment": "exact-lot", "params": {"d": 9}},
            {"params": dict(SURVIVAL_CFG["params"], eval_circuits_per_point=-1)},
            {"params": dict(SURVIVAL_CFG["params"], eval_n_gates=[])},
            {"experiment": "bounds", "params": {"subspace_dims": []}},
            {"model": {"kind": "context", "labels": [], "rates": {}}},
            {"experiment": "mle", "params": {"preset": "d4", "l_size": 1, "sigma_floor": float("nan")}},
            {"experiment": "bounds", "params": {"subspace_dims": [3], "gamma_grid": [float("nan")]}},
        ],
        ids=[
            "shots-zero", "negative-n_gates", "empty-n_gates", "negative-eval_n_gates", "no-circuits",
            "eta-above-one", "m-not-int", "sigma-negative", "sigma-zero",
            "dense-sigma-zero", "dense-cutoff-zero", "missing-context-rate",
            "lim-d-too-large", "bounds-max_len-zero", "bounds-negative-n_sequences",
            "bounds-dim-zero", "bounds-dim-above-model", "bounds-negative-pool_max_len",
            "bounds-negative-gamma", "bounds-empty-gamma_grid",
            "exact-lot-check_max_len-zero", "exact-lot-negative-n_check_sequences",
            "exact-lot-d-zero", "exact-lot-d-above-model", "negative-eval_circuits_per_point",
            "empty-eval_n_gates", "bounds-empty-subspace_dims", "context-no-labels",
            "mle-sigma_floor-nan", "bounds-nan-gamma",
        ],
    )
    def test_out_of_range_values_exit_2_without_traceback(self, tmp_path, capsys, bad):
        out = tmp_path / "out"
        assert run({**SURVIVAL_CFG, **bad}, out_dir=out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,bad",
        [
            ("circuits_per_point", {"params": dict(SURVIVAL_CFG["params"], circuits_per_point="many")}),
            ("preset", {"experiment": "lim", "params": {"preset": "d9", "d": 4}}),
            ("seed", {"seed": "x"}),
            ("threads", {"threads": "two"}),
            ("d", {"experiment": "exact-lot", "params": {"d": "seven"}}),
            ("norm_kind", {"experiment": "bounds", "params": {"norm_kind": "l1", "subspace_dims": [3]}}),
            ("gate_gammas", {"model": {"kind": "second_order", "sigma": 1, "eta": 0.1, "gate_gammas": "H"}}),
            ("gate_gammas", {"model": {"kind": "second_order", "sigma": 1, "eta": 0.1, "gate_gammas": ["H"]}}),
            ("n_gates", {"params": dict(SURVIVAL_CFG["params"], n_gates="0123")}),
            ("circuits_per_point", {"params": dict(SURVIVAL_CFG["params"], circuits_per_point=2.9)}),
            ("circuits_per_point", {"params": dict(SURVIVAL_CFG["params"], circuits_per_point=True)}),
            ("m", {"model": dict(SURVIVAL_CFG["model"], m=2.7)}),
            ("m", {"model": dict(SURVIVAL_CFG["model"], m=True)}),
            ("sigma", {"model": dict(SURVIVAL_CFG["model"], sigma="1")}),
            ("gauge_fit", {"experiment": "lim", "params": {"preset": "d4", "d": 4, "gauge_fit": "no"}}),
            ("subspace_dims", {"experiment": "bounds", "params": {"subspace_dims": "3"}}),
            ("d", {"experiment": "exact-lot", "params": {"d": 3.5}}),
            ("l_size", {"experiment": "mle", "params": {"preset": "d4", "l_size": "2"}}),
        ],
    )
    def test_mistyped_values_exit_2_naming_the_key(self, tmp_path, capfd, key, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SURVIVAL_CFG, **bad}))
        out = tmp_path / "out"
        assert _main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,model,named",
        [
            ("labels", {"kind": "context", "labels": ["H"], "rates": {"H": {"H": 0.01}}}, "['S']"),
            (
                "rates",
                {
                    "kind": "context",
                    "labels": ["H", "S"],
                    "rates": {"H": {"H": 0.01, "S": 0.0, "X": 1}, "S": {"H": 0.0, "S": 0.0}},
                },
                "['X']",
            ),
        ],
        ids=["labels-miss-S", "rates-name-X"],
    )
    def test_context_labels_and_rates_disagreeing_exit_2(self, tmp_path, capfd, key, model, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SURVIVAL_CFG, "model": model}))
        out = tmp_path / "out"
        assert _main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.startswith(f"config error: model: {key}") and err.count("\n") == 1
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rates,named",
        [
            ({"H": {"H": 0.01, "S": 0.0}, "S": {"H": 0.0}}, "gate 'S' after 'S' must be in [0, 1], got None"),
            ({"H": {"H": 0.01, "S": 1.5}, "S": {"H": 0.0, "S": 0.0}}, "gate 'H' after 'S' must be in [0, 1]"),
        ],
        ids=["missing-pair", "rate-above-one"],
    )
    def test_context_rate_error_exits_2_naming_the_pair(self, tmp_path, capfd, rates, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SURVIVAL_CFG, "model": {"kind": "context", "labels": ["H", "S"], "rates": rates}}))
        out = tmp_path / "out"
        assert _main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.startswith("config error: model:") and err.count("\n") == 1
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_context_duplicate_label_exits_2_naming_it(self, tmp_path, capfd):
        rates = {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}}
        cfg = tmp_path / "cfg.json"
        model = {"kind": "context", "labels": ["H", "S", "H"], "rates": rates}
        cfg.write_text(json.dumps({**SURVIVAL_CFG, "model": model}))
        out = tmp_path / "out"
        assert _main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.startswith("config error: model:") and err.count("\n") == 1
        assert "'H' more than once" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_gate_gamma_label_exits_2_naming_it(self, tmp_path, capfd):
        model = {"kind": "second_order", "sigma": 1, "eta": 0.1, "gate_gammas": {"H": 0.3, "T": 1}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SURVIVAL_CFG, "model": model}))
        out = tmp_path / "out"
        assert _main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "['T']" in err and "Traceback" not in err
        assert not out.exists()

    def test_invalid_moment_sequence_is_a_numerical_failure(self, tmp_path, capsys):
        # 40 moment-matched points exceed what double precision resolves
        cfg = dict(SURVIVAL_CFG, model={"kind": "low_freq", "sigma": 1, "eta": 0.02, "m": 40})
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "moment sequence" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, True, 2.5])
    def test_seed_override_is_checked_like_the_config_seed(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        assert run(SURVIVAL_CFG, out_dir=out, seed=seed) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: seed") and err.count("\n") == 1
        assert not out.exists()

    def test_params_unknown_key(self, tmp_path):
        cfg = dict(SURVIVAL_CFG, params=dict(SURVIVAL_CFG["params"], extra=1))
        assert run(cfg, out_dir=tmp_path / "x") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "cfg",
        [
            {"experiment": "mle", "model": SURVIVAL_CFG["model"], "params": {"l_size": 1, "sigma_floor": 0}},
            {"experiment": "lim", "model": SURVIVAL_CFG["model"], "params": {"d": "seven"}},
        ],
        ids=["mle-sigma_floor-zero", "lim-d-string"],
    )
    def test_rejected_config_exits_2_before_building_or_simulating(self, tmp_path, monkeypatch, cfg):
        calls = []
        monkeypatch.setattr(experiments, "build_model", lambda *args, **kwargs: calls.append("build_model"))
        monkeypatch.setattr(experiments, "collect_trial_data", lambda *args, **kwargs: calls.append("collect"))
        assert run(cfg, out_dir=tmp_path / "out") == EXIT_CONFIG
        assert calls == []

    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_output_dir_that_is_not_a_directory_exits_2(self, tmp_path, capfd, target):
        (tmp_path / "afile").write_text("kept")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SURVIVAL_CFG))
        assert _main(["run", "--config", str(cfg), "--out", str(tmp_path / target)]) == EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.startswith("config error: output_dir") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]
        assert (tmp_path / "afile").read_text() == "kept"


class TestModelBuilding:
    def test_all_kinds(self):
        build_model({"kind": "low_freq", "sigma": 1.0, "eta": 0.1, "m": 2})
        build_model({"kind": "dense", "sigma": 1.0, "eta": 1.0, "n_points": 101})
        build_model({"kind": "constant", "epsilon": 0.05})
        build_model({"kind": "second_order", "sigma": 0.5, "gate_gammas": {"H": 0.1}})
        build_model(
            {
                "kind": "context",
                "labels": ["H", "S"],
                "rates": {"H": {"H": 0.01, "S": 0.02}, "S": {"H": 0.0, "S": 0.03}},
            }
        )


class TestSurvivalRun:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run(SURVIVAL_CFG, out_dir=out) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"survival.csv", "records.json"}
        # every file in the directory is accounted for: no orphan writes
        on_disk = {p.name for p in out.iterdir()}
        assert on_disk == set(manifest["files"]) | {"manifest.json"}
        header = (out / "survival.csv").read_text().splitlines()[0]
        assert header == "n_gates,mean,stderr,circuits,shots,seed"

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(SURVIVAL_CFG, out_dir=a) == EXIT_OK
        assert run(SURVIVAL_CFG, out_dir=b) == EXIT_OK
        for name in ("survival.csv", "records.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(SURVIVAL_CFG, out_dir=a)
        run(SURVIVAL_CFG, out_dir=b, seed=8)
        assert (a / "survival.csv").read_bytes() != (b / "survival.csv").read_bytes()

    @pytest.mark.parametrize(
        "writer,cfg,files",
        [
            ("save_rows_csv", SURVIVAL_CFG, ["records.json", "survival.csv"]),
            ("save_json", EXACT_LOT_CFG, EXACT_LOT_FILES),
            ("save_matrix_csv", EXACT_LOT_CFG, EXACT_LOT_FILES),
        ],
        ids=["save_rows_csv", "save_json", "save_matrix_csv"],
    )
    def test_failing_writer_leaves_no_output(self, tmp_path, monkeypatch, writer, cfg, files):
        def full_disk(path, *args, **kwargs):
            Path(path).write_text("partial")
            raise OSError(28, "No space left on device")

        out = tmp_path / "results" / "out"
        with monkeypatch.context() as patch:
            patch.setattr(experiments, writer, full_disk)
            with pytest.raises(OSError, match="No space"):
                run(cfg, out_dir=out)
        assert list(out.parent.iterdir()) == []  # neither the target nor a staging directory
        assert run(cfg, out_dir=out) == EXIT_OK
        first = {name: (out / name).read_bytes() for name in files}
        (out / "notes.txt").write_text("kept")
        assert run(cfg, out_dir=out) == EXIT_OK  # into the existing directory
        assert {name: (out / name).read_bytes() for name in files} == first
        assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", "notes.txt", *files])

    @pytest.mark.parametrize("experiment", ["lim", "mle"])
    def test_no_evaluation_circuits_write_the_predictions_header(self, tmp_path, experiment):
        params = {"preset": "d4", "eval_n_gates": [0, 10], "eval_circuits_per_point": 0}
        params.update({"d": 4, "gauge_fit": False} if experiment == "lim" else {"l_size": 1, "n_starts": 1})
        cfg = {**SURVIVAL_CFG, "experiment": experiment, "params": params}
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == EXIT_OK
        assert (out / "predictions.csv").read_text().splitlines() == ["n_gates,gates,actual,predicted,abs_error"]

    def test_fiducial_pool_is_every_sequence_with_the_last_gate_fastest(self):
        assert ["".join(s) for s in experiments._fiducial_pool(3)] == [
            "", "H", "S", "HH", "HS", "SH", "SS", "HHH", "HHS", "HSH", "HSS", "SHH", "SHS", "SSH", "SSS"
        ]
        assert experiments._fiducial_pool(0) == [()]
        assert experiments._fiducial_pool(6) == sequences_up_to(6)

    def test_reused_directory_drops_the_old_runs_files_and_no_others(self, tmp_path):
        out = tmp_path / "out"
        assert run(SURVIVAL_CFG, out_dir=out) == EXIT_OK
        (out / "notes.txt").write_text("kept")
        (tmp_path / "outside.txt").write_text("kept")
        assert run(EXACT_LOT_CFG, out_dir=out) == EXIT_OK
        listed = json.loads((out / "manifest.json").read_text())["files"]
        assert "survival.csv" not in listed
        assert sorted(p.name for p in out.iterdir()) == sorted([*listed, "manifest.json", "notes.txt"])
        assert (tmp_path / "outside.txt").read_text() == "kept"

    @pytest.mark.parametrize(
        "files",
        [["../outside.txt", "notes.txt/..", "", ".."], "survival.csv", {"records.json": 1}, [3, None]],
        ids=["paths", "string", "mapping", "not-names"],
    )
    def test_reused_directory_with_a_strange_manifest_deletes_nothing(self, tmp_path, files):
        out = tmp_path / "out"
        assert run(SURVIVAL_CFG, out_dir=out) == EXIT_OK
        (tmp_path / "outside.txt").write_text("kept")
        for name in ("notes.txt", "s", "u"):
            (out / name).write_text("kept")
        manifest = json.loads((out / "manifest.json").read_text())
        (out / "manifest.json").write_text(json.dumps({**manifest, "files": files}))
        assert run({**SURVIVAL_CFG, "seed": 8}, out_dir=out) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "notes.txt", "records.json", "s", "survival.csv", "u"]
        assert (tmp_path / "outside.txt").read_text() == "kept"

    def test_output_directory_permissions_follow_the_umask(self, tmp_path):
        out = tmp_path / "out"
        assert run(SURVIVAL_CFG, out_dir=out) == EXIT_OK
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o777 & ~umask


class TestOtherExperiments:
    def test_exact_lot_run(self, tmp_path):
        cfg = {
            "experiment": "exact-lot",
            "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
            "seed": 0,
            "params": {"d": 7, "n_check_sequences": 10},
        }
        out = tmp_path / "exact"
        assert run(cfg, out_dir=out) == EXIT_OK
        report = json.loads((out / "factorization.json").read_text())
        assert report["max_residual"] <= 1e-9

    def test_exact_lot_numerical_failure(self, tmp_path):
        # a two-point device has dimension 8 but reaches only 3m + 1 = 7 directions
        cfg = {
            "experiment": "exact-lot",
            "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
            "seed": 0,
            "params": {"d": 8, "n_check_sequences": 5},
        }
        assert run(cfg, out_dir=tmp_path / "fail") == EXIT_NUMERICAL

    def test_lim_run(self, tmp_path):
        cfg = {
            "experiment": "lim",
            "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
            "seed": 0,
            "params": {"preset": "d4", "d": 4, "eval_n_gates": [0, 4], "eval_circuits_per_point": 2},
        }
        out = tmp_path / "lim"
        assert run(cfg, out_dir=out) == EXIT_OK
        names = set(json.loads((out / "manifest.json").read_text())["files"])
        assert {"spectrum.csv", "error_model.json", "predictions.csv", "ptm_diff_H.csv"} <= names

    def test_mle_run(self, tmp_path):
        cfg = {
            "experiment": "mle",
            "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
            "seed": 0,
            "params": {
                "l_size": 1,
                "preset": "d4",
                "n_starts": 3,
                "eval_n_gates": [0, 4],
                "eval_circuits_per_point": 2,
            },
        }
        out = tmp_path / "mle"
        assert run(cfg, out_dir=out) == EXIT_OK
        report = json.loads((out / "fit_report.json").read_text())
        assert "param_model" in report and "nll" in report

    @pytest.mark.parametrize(
        "model,largest",
        [
            ({"kind": "low_freq", "sigma": 1, "eta": 0.02, "m": 1}, 4),
            ({"kind": "low_freq", "sigma": 1, "eta": 0.02, "m": 2}, 7),
            ({"kind": "low_freq", "sigma": 1, "eta": 0.02, "m": 5}, 7),
            ({"kind": "constant", "epsilon": 0.01}, 4),
            (
                {
                    "kind": "context",
                    "labels": ["H", "S"],
                    "rates": {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}},
                    "initial": [0.5, 0.5],
                },
                7,
            ),
        ],
        ids=["low_freq-1", "low_freq-2", "low_freq-5", "constant", "context"],
    )
    def test_bounds_default_subspaces_run(self, tmp_path, model, largest):
        out = tmp_path / "bounds"
        assert run({"experiment": "bounds", "model": model}, out_dir=out) == EXIT_OK
        report = json.loads((out / "bounds_report.json").read_text())
        assert set(report["subspaces"]) == {str(largest), "3"}

    def test_bounds_run(self, tmp_path):
        cfg = {
            "experiment": "bounds",
            "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
            "seed": 0,
            "params": {"subspace_dims": [7, 3], "n_sequences": 30, "max_len": 8, "pool_max_len": 4},
        }
        out = tmp_path / "bounds"
        assert run(cfg, out_dir=out) == EXIT_OK
        report = json.loads((out / "bounds_report.json").read_text())
        assert report["semigroup_max_deviation"] <= 1e-12
        assert all(not rep["violations"] for rep in report["subspaces"].values())


class TestReproducibleFits:
    """Seeded fits write byte-identical result files when run twice in one process."""

    @staticmethod
    def assert_same_results(a: Path, b: Path) -> None:
        names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("l_size", [2, 3])
    def test_mle(self, tmp_path, l_size):
        cfg = {
            "experiment": "mle",
            "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
            "seed": 0,
            "shots": 1000,
            "params": {"l_size": l_size, "eval_n_gates": [0, 10], "eval_circuits_per_point": 2},
        }
        assert run(cfg, out_dir=tmp_path / "a") == EXIT_OK
        assert run(cfg, out_dir=tmp_path / "b") == EXIT_OK
        self.assert_same_results(tmp_path / "a", tmp_path / "b")

    def test_lim_with_the_gauge_fit(self, tmp_path):
        cfg = {"experiment": "lim", "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 5}, "params": {"d": 7}}
        assert run(cfg, out_dir=tmp_path / "a") == EXIT_OK
        assert run(cfg, out_dir=tmp_path / "b") == EXIT_OK
        assert json.loads((tmp_path / "a" / "gauge_fit.json").read_text())["converged"]
        self.assert_same_results(tmp_path / "a", tmp_path / "b")


IMPORT_GUARD = """
import json, sys, tempfile
from pathlib import Path
import corrtomo.experiments as ex
small = {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2}
evals = {"eval_n_gates": [0, 4], "eval_circuits_per_point": 2}
configs = [
    {"experiment": "survival", "model": small, "params": {"n_gates": [0, 4], "circuits_per_point": 2, **evals}},
    {"experiment": "survival", "model": {"kind": "dense", "sigma": 1.0, "eta": 1.0, "n_points": 31},
     "params": {"n_gates": [2], "circuits_per_point": 2, **evals}},
    {"experiment": "exact-lot", "model": small, "params": {"d": 7, "n_check_sequences": 4}},
    {"experiment": "lim", "model": small, "params": {"preset": "d4", "d": 4, **evals}},
    {"experiment": "mle", "model": small, "params": {"preset": "d4", "l_size": 1, "n_starts": 1, **evals}},
    {"experiment": "bounds", "model": small,
     "params": {"subspace_dims": [3], "n_sequences": 4, "max_len": 4, "pool_max_len": 2}},
]
out = Path(tempfile.mkdtemp())
codes = [ex.run(cfg, out_dir=out / str(i)) for i, cfg in enumerate(configs)]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_running_every_experiment_never_imports_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK] * 6, "scipy": []}


class TestCompare:
    def make_reports(self, tmp_path):
        lim_cfg = {
            "experiment": "lim",
            "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
            "seed": 0,
            "params": {"preset": "d7", "d": 7, "eval_n_gates": [0, 6], "eval_circuits_per_point": 2},
        }
        run(lim_cfg, out_dir=tmp_path / "m7")
        run(dict(lim_cfg, params=dict(lim_cfg["params"], d=4)), out_dir=tmp_path / "m4")
        run(SURVIVAL_CFG, out_dir=tmp_path / "truth")
        return tmp_path / "m7" / "error_model.json", tmp_path / "m4" / "error_model.json", tmp_path / "truth" / "records.json"

    def test_identical_models_have_zero_difference(self, tmp_path):
        a, _, circuits = self.make_reports(tmp_path)
        rows = compare(a, a, circuits)
        assert rows
        assert all(r["pred_a"] == r["pred_b"] for r in rows)

    def test_larger_model_dominates(self, tmp_path):
        a, b, circuits = self.make_reports(tmp_path)
        rows = compare(a, b, circuits, out_csv=tmp_path / "cmp.csv")
        assert max(r["abs_error_a"] for r in rows) <= max(r["abs_error_b"] for r in rows)
        assert (tmp_path / "cmp.csv").exists()

    def test_empty_circuit_list(self, tmp_path):
        a, b, _ = self.make_reports(tmp_path)
        assert compare(a, b, []) == []

    def test_one_prediction_call_per_model(self, tmp_path, monkeypatch):
        a, b, circuits = self.make_reports(tmp_path)
        calls = []
        batched = experiments._predictions
        monkeypatch.setattr(experiments, "_predictions", lambda *args: calls.append(args) or batched(*args))
        rows = compare(a, b, circuits)
        assert len(calls) == 2 and len(rows) == len(json.loads(circuits.read_text())["circuits"])
        models = [ErrorModel.from_json(json.loads(path.read_text())) for path in (a, b)]
        for row in rows:
            assert [row["pred_a"], row["pred_b"]] == [predict(model, tuple(row["gates"])) for model in models]

    def test_gate_mismatch_raises(self, tmp_path):
        a, b, _ = self.make_reports(tmp_path)
        with pytest.raises(KeyError):
            compare(a, b, [{"gates": ["T"], "mean": 1.0}])


class TestCommandLine:
    def test_run_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SURVIVAL_CFG))
        code = _main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "3"])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3

    def test_negative_seed_flag_exits_2(self, tmp_path, capfd):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SURVIVAL_CFG))
        out = tmp_path / "out"
        assert _main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SURVIVAL_CFG))
        _main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        lim_cfg = {
            "experiment": "lim",
            "model": {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
            "seed": 0,
            "params": {"preset": "d4", "d": 4, "eval_n_gates": [0], "eval_circuits_per_point": 1},
        }
        lim_path = tmp_path / "lim.json"
        lim_path.write_text(json.dumps(lim_cfg))
        _main(["run", "--config", str(lim_path), "--out", str(tmp_path / "lim")])
        code = _main(
            [
                "compare",
                str(tmp_path / "lim" / "error_model.json"),
                str(tmp_path / "lim" / "error_model.json"),
                str(tmp_path / "out" / "records.json"),
            ]
        )
        assert code == EXIT_OK
        assert "max |error|" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["model", "circuits"])
    @pytest.mark.parametrize(
        "content", [None, "{not json", '{"gates": 3}', "[1]"], ids=["missing", "not-json", "dict", "list"]
    )
    def test_compare_on_unreadable_or_malformed_input_exits_2(self, tmp_path, capfd, bad, content):
        model = {"state": [1.0, 0.0], "dual": [1.0, 0.0], "gates": {"H": np.eye(2).tolist(), "S": np.eye(2).tolist()}}
        files = {"model": tmp_path / "model.json", "circuits": tmp_path / "records.json"}
        files["model"].write_text(json.dumps(model))
        files["circuits"].write_text(json.dumps({"circuits": [{"gates": ["H", "S"], "mean": 1.0}]}))
        assert _main(["compare", str(files["model"]), str(files["model"]), str(files["circuits"])]) == EXIT_OK
        files[bad].unlink()
        if content is not None:
            files[bad].write_text(content)
        assert _main(["compare", str(files["model"]), str(files["model"]), str(files["circuits"])]) == EXIT_CONFIG
        err = capfd.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1


SMALL_MODELS = [
    {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2},
    {"kind": "dense", "sigma": 1.0, "eta": 1.0, "n_points": 31, "cutoff": 12.0},
    {"kind": "constant", "epsilon": 0.01},
    {"kind": "second_order", "sigma": 1.0, "eta": 0.1, "gate_gammas": {"H": 0.3}},
    {
        "kind": "context",
        "labels": ["H", "S"],
        "rates": {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}},
        "initial": [0.5, 0.5],
    },
]
# JSON values of the wrong type for a key of each kind (a list key takes no empty list)
WRONG_TYPE = {
    int: [True, 2.5, "3"],
    float: [True, False, "1"],
    bool: ["no", 0],
    str: [3, ["d4"]],
    list: ["0123", [None], []],
    dict: ["H", ["H"]],
}


def _origin(kind):
    return get_origin(kind) or kind


def tiny_value(kind, p):
    """A small valid value of a key: preset d4, short lists, numbers near their least."""
    if p.choices:
        return st.just("d4") if "d4" in p.choices else st.sampled_from(p.choices)
    if _origin(kind) is list:
        return st.lists(tiny_value(get_args(kind)[0], p), min_size=1, max_size=2)
    if kind is bool:
        return st.booleans()
    low = p.least if p.least is not None else p.above
    if kind is int:
        return st.integers(low, low + 2)
    return st.floats(low, low + 1, exclude_min=p.least is None)


def out_of_range(kind, p):
    """A value of the right type that breaks the key's least value, bound or choices."""
    if _origin(kind) is list:
        return [out_of_range(get_args(kind)[0], p)]
    if _origin(kind) is dict:
        return {"H": out_of_range(get_args(kind)[1], p)}
    if p.choices:
        return "bogus"
    return p.above if p.least is None else p.least - 1


@st.composite
def mutated_configs(draw):
    """A small valid config drawn from the tables, then exactly one mutation the tables reject."""
    experiment = draw(st.sampled_from(list(EXPERIMENTS)))
    params_table = EXPERIMENTS[experiment][1]
    model = dict(draw(st.sampled_from(SMALL_MODELS)))
    params = {key: draw(tiny_value(p.kind, p)) for key, p in params_table.items() if p.default is not None}
    cfg = {
        "experiment": experiment,
        "model": model,
        "seed": draw(st.integers(0, 3)),
        "shots": draw(st.none() | st.integers(1, 3)),
        "params": params,
    }
    sections = {"config": (cfg, CONFIG), "model": (model, MODELS[model["kind"]][1]), "params": (params, params_table)}
    targets = {
        "type": [(where, key) for where, (_, table) in sections.items() for key in table],
        "range": [
            (where, key)
            for where, (_, table) in sections.items()
            for key, p in table.items()
            if p.least is not None or p.above is not None or p.choices
        ],
        "unknown": [(where, "bogus") for where in sections],
        "missing": [
            (where, key) for where, (_, table) in sections.items() for key, p in table.items() if p.default is REQUIRED
        ],
    }
    mutation = draw(st.sampled_from(sorted(targets)))
    where, key = draw(st.sampled_from(targets[mutation]))
    section, table = sections[where]
    if mutation == "missing":
        del section[key]
    elif mutation == "unknown":
        section[key] = 1
    elif mutation == "type":
        section[key] = draw(st.sampled_from(WRONG_TYPE[_origin(table[key].kind)]))
    else:
        section[key] = out_of_range(table[key].kind, table[key])
    return cfg, mutation, key


class TestConfigTables:
    @settings(max_examples=200, deadline=None)
    @given(mutated=mutated_configs())
    def test_one_mutation_exits_2_with_one_line_and_no_output(self, mutated):
        cfg, mutation, key = mutated
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            code = run(cfg, out_dir=Path(tmp) / "out")
            left = list(Path(tmp).iterdir())
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        assert "Traceback" not in err.getvalue()
        assert code == EXIT_OK or left == []
        # every mutation breaks the tables, so the run stops at validation
        assert code == EXIT_CONFIG
        assert err.getvalue().startswith("config error:") and err.getvalue().count("\n") == 1
        assert key in err.getvalue()
        assert ("missing keys" in err.getvalue()) == (mutation == "missing")

    def test_small_models_give_every_model_key(self):
        assert {m["kind"]: set(m) - {"kind"} for m in SMALL_MODELS} == {k: set(t) for k, (_, t) in MODELS.items()}

    def test_readme_names_every_key(self):
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
        for name, table in [*((f"`{k}`", t) for k, (_, t) in EXPERIMENTS.items()),
                            *((f"`{k}`", t) for k, (_, t) in MODELS.items()), ("config", CONFIG)]:
            row = next(line for line in lines if line.startswith(f"| {name} |"))
            assert [key for key in table if f"`{key}`" not in row] == [], name
