"""Set-up of a benchmark process: import corrtomo from the checkout and warm it up.

Run as a script, this is the set-up probe that ``setup_s`` times: a fresh
interpreter that imports the package and runs one small experiment of each
kind, so that lazy first-call costs (the first LAPACK SVD, the first
optimizer call) are paid here and not inside a timed experiment.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".corrbench_runs"

SMALL = {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2}
SMALL_EVAL = {"eval_n_gates": [0, 4], "eval_circuits_per_point": 2}
WARM_UP_CONFIGS = [
    {"experiment": "survival", "model": SMALL,
     "params": {"n_gates": [0, 4], "circuits_per_point": 4, **SMALL_EVAL}},
    {"experiment": "survival", "model": {"kind": "dense", "sigma": 1.0, "eta": 1.0, "n_points": 301},
     "params": {"n_gates": [2], "circuits_per_point": 2, **SMALL_EVAL}},
    {"experiment": "exact-lot", "model": SMALL, "params": {"d": 7, "n_check_sequences": 4}},
    {"experiment": "lim", "model": SMALL, "params": {"preset": "d4", "d": 4, **SMALL_EVAL}},
    {"experiment": "mle", "model": SMALL, "params": {"preset": "d4", "l_size": 1, "n_starts": 1, **SMALL_EVAL}},
    {"experiment": "bounds", "model": SMALL,
     "params": {"subspace_dims": [3], "n_sequences": 4, "max_len": 4, "pool_max_len": 2}},
]


class SetupError(RuntimeError):
    """The package cannot be imported from this checkout, or its warm-up failed."""


def import_package():
    """Import corrtomo from the checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import corrtomo.experiments
    except ImportError as exc:
        raise SetupError(f"cannot import corrtomo from {src}: {exc}") from exc
    if Path(corrtomo.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"corrtomo was imported from {corrtomo.__file__}, not from {src}")
    return corrtomo.experiments


def warm_up(experiments) -> None:
    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="warmup-", dir=RUNS))
    try:
        for i, config in enumerate(WARM_UP_CONFIGS):
            if experiments.run(config, out_dir=scratch / str(i)) != 0:
                raise SetupError(f"warm-up experiment {config['experiment']} failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    try:
        warm_up(import_package())
    except SetupError as exc:
        print(f"corrbench set-up: {exc}", file=sys.stderr)
        raise SystemExit(2)
