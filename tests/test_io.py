"""Serialization round trips for matrices and structured payloads."""

import json

import numpy as np

import corrtomo as ct
from conftest import load_matrix_csv, pauli_transfer
from corrtomo.io import save_json, save_matrix_csv
from corrtomo.tomography import ErrorModel

PAULI_LABELS = ("I", "X", "Y", "Z")


def conjugation_ptm(label):
    u = ct.GATE_UNITARIES[label]
    return pauli_transfer(lambda mat: u @ mat @ u.conj().T)


def test_matrix_csv_roundtrip(tmp_path):
    tm = conjugation_ptm("H")
    path = save_matrix_csv(tmp_path / "h.csv", tm, PAULI_LABELS)
    mat, labels = load_matrix_csv(path)
    assert labels == ["I", "X", "Y", "Z"]
    assert np.array_equal(mat, tm)


def test_save_json_handles_numpy_types(tmp_path):
    payload = {"arr": np.arange(3), "val": np.float64(0.5), "nested": [np.int64(2)]}
    path = save_json(tmp_path / "x.json", payload)
    loaded = json.loads(path.read_text())
    assert loaded == {"arr": [0, 1, 2], "val": 0.5, "nested": [2]}


def test_error_model_json_roundtrip(device_m2):
    from conftest import sequences_up_to
    from corrtomo.tomography import gauge_reconstruct, predict, select_fiducials

    fids = select_fiducials(device_m2, sequences_up_to(3), 7)
    model = gauge_reconstruct(ct.collect_data(device_m2, fids))
    clone = ErrorModel.from_json(json.loads(json.dumps(model.to_json())))
    for gates in [("H",), ("S", "H", "S"), ("H", "H", "S")]:
        assert predict(clone, gates) == predict(model, gates)


def test_tomography_data_json(device_m2):
    from corrtomo.linear_inversion import collect_trial_data, trial_sequences

    data = collect_trial_data(device_m2, trial_sequences("d4"))
    blob = data.to_json()
    assert np.allclose(blob["gram"], data.gram)
    assert blob["prep_sequences"][0] == []
    assert set(blob["gate_mats"]) == {"H", "S"}
