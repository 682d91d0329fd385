"""Shared fixtures; expensive device/tomography artifacts are session scoped."""

import numpy as np
import pytest

import corrtomo as ct
from corrtomo.linear_inversion import collect_trial_data, svd_truncate, trial_sequences
from corrtomo.mle import records_from_tomography


PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def pauli_transfer(channel) -> np.ndarray:
    """Independent oracle: entry (s, t) = Tr[s channel(t)] / 2 over the Paulis (I, X, Y, Z)."""
    return np.array([[np.trace(s @ channel(t)).real / 2.0 for t in PAULIS] for s in PAULIS])


def frozen_fold_mean(model, gates) -> float:
    """Independent oracle for frozen models: fold the (m, 4) state stack through each gate's (m, 4, 4) stack."""
    v = np.zeros((model.m, 4))
    v[:, 0] = model.weights
    v[:, 3] = model.weights
    for label in gates:
        v = np.einsum("mij,mj->mi", model.sys_ptms[label], v)
    return 0.5 * float(np.sum(v[:, 0] + v[:, 3]))


def sequences_up_to(max_len: int, labels=("H", "S")) -> list[tuple[str, ...]]:
    """All gate sequences with length 0 .. max_len, shortest first."""
    seqs = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (g,) for s in frontier for g in labels]
        seqs.extend(frontier)
    return seqs


@pytest.fixture(scope="session")
def device_m5():
    """Reference correlated-noise device: sigma=1, eta=0.02, 5-point support."""
    return ct.build_low_freq_model(1.0, 0.02, 5)


@pytest.fixture(scope="session")
def device_m2():
    return ct.build_low_freq_model(1.0, 0.02, 2)


@pytest.fixture(scope="session")
def noiseless():
    return ct.constant_depolarizing_model(0.0)


@pytest.fixture(scope="session")
def trial_d7():
    return trial_sequences("d7")


@pytest.fixture(scope="session")
def trial_data_m5(device_m5, trial_d7):
    return collect_trial_data(device_m5, trial_d7)


@pytest.fixture(scope="session")
def truncation_d7(trial_data_m5):
    return svd_truncate(trial_data_m5.gram, trial_data_m5.gate_mats, 7)


@pytest.fixture(scope="session")
def truncation_d4(trial_data_m5):
    return svd_truncate(trial_data_m5.gram, trial_data_m5.gate_mats, 4)


@pytest.fixture(scope="session")
def suite_records(trial_data_m5):
    return records_from_tomography(trial_data_m5)


@pytest.fixture(scope="session")
def suite_fit_l2(suite_records):
    return ct.fit(suite_records, 2, seed=0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
