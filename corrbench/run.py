#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of corrtomo's batch experiments.

Run from the root of a checkout::

    python3 corrbench/run.py --workload survival-dense --seed 1 --seconds 12 --trace 0
    python3 corrbench/run.py --workload all --seed 1 --seconds 12 --trace 0

One workload runs in one process as a closed loop: rounds of the same
experiments, one at a time through ``corrtomo.experiments.run``, until
``--seconds`` have passed; every result directory is checked against the
oracles in ``oracles.py``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  Times are in reference seconds (``calibration.py``).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from calibration import kernel_seconds, speed_factor
from tracing import Tracer
from warmup import RUNS, ROOT, SetupError, import_package, warm_up

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "circuits_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNT_METRICS = {
    "device.draws",
    "device.circuits",
    "tomography.predict_calls",
    "linear_inversion.gauge_fit_evals",
    "mle.fit_evals",
    "io.bytes",
}

warnings.filterwarnings("ignore", message="gauge optimization stopped")
warnings.filterwarnings("ignore", message="kept dimension")


def measure_setup() -> tuple[float, float]:
    """Median time of fresh processes that import the package and warm it up.

    Returns the median in reference seconds and the median as measured.
    """
    times, ref_times = [], []
    before = kernel_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("warmup.py"))],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()}")
        after = kernel_seconds()
        ref_times.append(times[-1] * speed_factor(before, after))
        before = after
    return statistics.median(ref_times), statistics.median(times)


def gauge_fit_seed0(experiments):
    """The ``lim`` gauge fit at the CLI default seed, with a bounded evaluation budget."""
    li = sys.modules["corrtomo.linear_inversion"]
    model = experiments.build_model(workloads.LOW_FREQ_5)
    trial = li.trial_sequences("d7", seed=0)
    data = li.collect_trial_data(model, trial, seed=0)
    trunc = li.svd_truncate(data.gram, data.gate_mats, 7)
    return li.gauge_fit_to_ideal(trunc, trial=trial, max_nfev=workloads.GAUGE_FIT_BUDGET)


@dataclass
class Outcome:
    op: workloads.Op
    seconds: float
    failure: str | None  # why the experiment counts as failed, None if it did not fail
    problems: list[str]  # disagreements with the oracles
    factor: float = 1.0  # measured seconds to reference seconds, from the kernel passes around it


def run_op(experiments, op: workloads.Op, out_dir: Path, tracer: Tracer | None) -> Outcome:
    """Run one experiment, timed, then check its outputs (untimed)."""
    if tracer is not None:
        tracer.op = f"{op.label}@{out_dir.name}"
    if op.config is None:
        start = time.perf_counter()
        result = gauge_fit_seed0(experiments)
        seconds = time.perf_counter() - start
        converged, problems = checks.check_gauge_fit(result)
    else:
        start = time.perf_counter()
        try:
            code = experiments.run(op.config, out_dir=out_dir)
        except Exception as exc:  # the CLI would exit 1 with this traceback
            return Outcome(op, time.perf_counter() - start, f"raised {exc!r}", [])
        seconds = time.perf_counter() - start
        if code != 0:
            return Outcome(op, seconds, f"exit code {code}", [])
        try:
            converged, problems = checks.CHECKS[op.kind](op.config, out_dir)
        except (OSError, LookupError, ValueError) as exc:
            converged, problems = True, [f"unreadable result files: {exc!r}"]
        shutil.rmtree(out_dir)
        if tracer is not None and op.kind == "mle":
            mle = sys.modules["corrtomo.mle"]
            fit, records = tracer.last.pop("mle.fit"), tracer.last.pop("mle.records")
            mle.negative_log_likelihood(fit.param_model, records, op.config["params"]["sigma_floor"])
    failure = None if converged else "not converged"
    if problems:
        failure = "check failed"
    return Outcome(op, seconds, failure, problems)


@dataclass
class Round:
    outcomes: list[Outcome]
    kernel_after: float  # time of the kernel pass after the round's last experiment
    tracer: Tracer | None = None

    @property
    def wall(self) -> float:
        """Measured seconds spent in the round's experiments."""
        return sum(o.seconds for o in self.outcomes)

    @property
    def ref_wall(self) -> float:
        """Reference seconds spent in the round's experiments."""
        return sum(o.seconds * o.factor for o in self.outcomes)

    @property
    def factor(self) -> float:
        """Measured seconds to reference seconds, for the round as a whole."""
        return self.ref_wall / self.wall

    @property
    def circuits(self) -> int:
        return sum(o.op.circuits for o in self.outcomes)


def run_round(experiments, ops, scratch: Path, tag: str, tracer: Tracer | None, before: float) -> Round:
    """Run one round with a kernel pass after each experiment; ``before`` is the pass right before it."""
    outcomes = []
    for i, op in enumerate(ops):
        outcome = run_op(experiments, op, scratch / f"{tag}-{i}", tracer)
        after = kernel_seconds()
        outcome.factor = speed_factor(before, after)
        outcomes.append(outcome)
        before = after
    return Round(outcomes, before, tracer)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    experiments = import_package()
    kernel_seconds()  # the first SVD pays LAPACK's lazy set-up; keep it out of every calibration
    setup_s, raw_setup_s = measure_setup()
    warm_up(experiments)
    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=RUNS))
    untraced: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    try:
        index = 0
        before = kernel_seconds()
        while index == 0 or time.perf_counter() - start < seconds:
            ops = workloads.round_ops(workload, seed, index)
            untraced.append(run_round(experiments, ops, scratch, f"r{index}", None, before))
            before = untraced[-1].kernel_after
            if trace:
                tracer = Tracer()
                with tracer.installed():
                    traced.append(run_round(experiments, ops, scratch, f"t{index}", tracer, before))
                before = traced[-1].kernel_after
            index += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcomes = [o for r in untraced + traced for o in r.outcomes]
    report_lines(workload, seed, untraced, outcomes)
    print(f"#   set-up {raw_setup_s:.4f} s and round {statistics.median(r.wall for r in untraced):.4f} s "
          f"as measured; host speed {statistics.median(r.factor for r in untraced):.3f}x the reference")
    ref_walls = [r.ref_wall for r in untraced]
    if trace:
        layers = [scaled(r.tracer.layer_metrics(), r.factor) for r in traced]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(r.ref_wall for r in traced) - statistics.median(ref_walls)
        write_trace(workload, seed, traced)
        units = {name: ("count" if name in COUNT_METRICS else "1" if name == "device.acceptance" else "s")
                 for name in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(ref_walls),
            "circuits_per_s": statistics.median(r.circuits / r.ref_wall for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "correct": not any(o.problems for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def scaled(layer_metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Layer times in reference seconds; counts and ratios unchanged."""
    return {name: value * factor if name.endswith("_s") else value for name, value in layer_metrics.items()}


def report_lines(workload: str, seed: int, untraced: list[Round], outcomes: list[Outcome]) -> None:
    failures = Counter((o.op.label, o.failure) for o in outcomes if o.failure)
    print(f"# {workload} seed {seed}: {len(untraced)} untraced rounds, "
          f"{len(outcomes)} experiments attempted, {sum(failures.values())} failed")
    by_label: dict[str, list[float]] = {}
    for o in (o for r in untraced for o in r.outcomes):
        by_label.setdefault(o.op.label, []).append(o.seconds * o.factor)
    for label, times in by_label.items():
        print(f"#   {label}: median {statistics.median(times):.4f} reference s over {len(times)} experiments")
    for (label, why), count in sorted(failures.items()):
        print(f"#   failed: {label} ({why}) x{count}")
    for o in outcomes:
        for problem in o.problems[:5]:
            print(f"#   check: {o.op.label}: {problem}")


def write_trace(workload: str, seed: int, traced: list[Round]) -> None:
    spans = []
    for round_index, tracer in enumerate(r.tracer for r in traced):
        t0 = tracer.spans[0][4] if tracer.spans else 0.0
        spans += [
            {"round": round_index, "id": sid, "parent": parent, "op": op, "name": name,
             "start": start - t0, "end": end - t0}
            for sid, parent, op, name, start, end in tracer.spans
        ]
    path = RUNS / f"trace-{workload}-s{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}) + "\n")
    print(f"# trace: {path.relative_to(ROOT)} ({len(spans)} spans)")


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process, one after the other."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
        res = results[workload]
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for name, metric in res["metrics"].items():
            print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"corrbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
