"""The benchmark's workloads: the experiments of one round, made from a seed.

Every round of a workload runs the same list of experiments, one at a time,
each with its own seed drawn from (workload seed, round index).  The package
receives only the generated configs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SURVIVAL_LENGTHS = list(range(0, 101, 10))
EVAL = {"eval_n_gates": list(range(0, 101, 10)), "eval_circuits_per_point": 10}
EVAL_CIRCUITS = len(EVAL["eval_n_gates"]) * EVAL["eval_circuits_per_point"]
SHOTS = 1000

DENSE = {"kind": "dense", "sigma": 1.0, "eta": 1.0}
LOW_FREQ_5 = {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 5}
LOW_FREQ_2 = {"kind": "low_freq", "sigma": 1.0, "eta": 0.02, "m": 2}
# a gate is clean after itself and noisy after the other gate
CONTEXT = {
    "kind": "context",
    "labels": ["H", "S"],
    "rates": {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}},
    "initial": [0.5, 0.5],
}

#: Evaluation budget of the gauge fit on the seed-0 trial set.  The full
#: ``lim`` run at the CLI default seed spends its whole 20,000-evaluation
#: budget (~100 s) and reports ``converged: false``; other trial sets converge
#: in 29-44 evaluations, so ten times that still separates a fit that
#: converges from one that stalls, at a cost that fits in a round.
GAUGE_FIT_BUDGET = 400


@dataclass(frozen=True)
class Op:
    """One experiment: a config for ``experiments.run``, or the seed-0 gauge fit (config None)."""

    kind: str
    label: str
    config: dict | None
    circuits: int  # survival and evaluation circuits the experiment executes


def _survival(model: dict, seed: int, shots: int | None, circuits_per_point: int) -> Op:
    params = {"n_gates": SURVIVAL_LENGTHS, "circuits_per_point": circuits_per_point, **EVAL}
    circuits = len(SURVIVAL_LENGTHS) * params["circuits_per_point"] + EVAL_CIRCUITS
    config = {"experiment": "survival", "model": model, "seed": seed, "shots": shots, "params": params}
    return Op("survival", f"survival/{model['kind']}", config, circuits)


def _experiment(kind: str, label: str, model: dict, seed: int, params: dict, circuits: int = 0) -> Op:
    return Op(kind, label, {"experiment": kind, "model": model, "seed": seed, "params": params}, circuits)


def round_ops(workload: str, seed: int, round_index: int) -> list[Op]:
    """The experiments of one round of a workload."""
    gen = np.random.default_rng([seed, round_index])
    s = [int(v) for v in gen.integers(1, 2**31 - 1, size=4)]
    if workload == "survival-dense":
        # 25 circuits per length (not the CLI's 200) keep one experiment near
        # 2 s, so that a run holds about ten and reports their median
        return [_survival(DENSE, s[0], None, 25)]
    if workload == "survival-sampled":
        return [_survival(LOW_FREQ_5, s[0], SHOTS, 200), _survival(CONTEXT, s[1], SHOTS, 200)]
    if workload == "tomography":
        lot = {"d": 7, "pool_max_len": 3, "n_check_sequences": 100, "check_max_len": 20}
        lim = {"d": 7, "gauge_fit": False, **EVAL}
        bounds = {"subspace_dims": [7, 3], "n_sequences": 1000, "max_len": 20}
        return [
            _experiment("exact-lot", "exact-lot/low_freq-2", LOW_FREQ_2, s[0], lot),
            _experiment("exact-lot", "exact-lot/context", CONTEXT, s[1], lot),
            _experiment("lim", "lim/low_freq-5", LOW_FREQ_5, s[2], lim, EVAL_CIRCUITS),
            _experiment("bounds", "bounds/low_freq-2", LOW_FREQ_2, s[3], bounds),
            Op("gauge-fit", "gauge-fit/seed-0", None, 0),
        ]
    if workload == "mle":
        params = {"l_size": 2, "sigma_floor": 1e-3, "n_starts": 16, **EVAL}
        return [
            _experiment("mle", "mle/low_freq-5", LOW_FREQ_5, s[0], params, EVAL_CIRCUITS),
            _experiment("mle", "mle/low_freq-2", LOW_FREQ_2, s[1], params, EVAL_CIRCUITS),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("survival-dense", "survival-sampled", "tomography", "mle")
