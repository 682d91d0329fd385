#!/usr/bin/env python3
"""Truncated linear inversion: choosing the model dimension from the spectrum.

A 123-sequence trial set (every sequence up to length five plus seeded random
picks up to length twenty) over-probes the device.  The singular spectrum of
the trial Gram matrix then reveals how many dimensions the device actually
explores: four strong values (the bare qubit), three weaker ones (the drift
memory), and noise-floor leftovers.

Keeping seven dimensions reproduces the device far better than the
conventional four-dimensional truncation.  A final gauge optimization maps
the reconstruction onto the frame of the ideal gates, making the gate
matrices directly comparable entry by entry; the difference matrices land in
output/ as CSV.
"""

from pathlib import Path

import numpy as np

import corrtomo as ct
from corrtomo.io import save_matrix_csv
from corrtomo.linear_inversion import (
    collect_trial_data,
    gauge_fit_to_ideal,
    lim_reconstruct,
    svd_truncate,
    trial_sequences,
)
from corrtomo.tomography import predict

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

device = ct.build_low_freq_model(sigma=1.0, eta=0.02, m=5)
trial = trial_sequences("d7")
data = collect_trial_data(device, trial)

print("=== singular spectrum of the 123 x 123 trial Gram matrix ===")
spectrum = ct.singular_spectrum(data.gram)
for i, s in enumerate(spectrum[:10]):
    print(f"  s_{i:<2d} = {s:.3e}")
print(f"  ... everything beyond index 6 is below {spectrum[7] / spectrum[0]:.1e} of s_0")

print("\n=== reconstruction quality: d = 7 vs d = 4 ===")
trunc7 = svd_truncate(data.gram, data.gate_mats, 7)
trunc4 = svd_truncate(data.gram, data.gate_mats, 4)
em7, em4 = lim_reconstruct(trunc7), lim_reconstruct(trunc4)
print("   N    actual F     d=7 model    d=4 model")
for i, n in enumerate(range(0, 101, 20)):
    circuits = ct.random_identity_sequences(n, 20, seed=100 + i)
    actual = np.mean([ct.run_circuit(device, c).mean for c in circuits])
    f7 = np.mean([predict(em7, c) for c in circuits])
    f4 = np.mean([predict(em4, c) for c in circuits])
    print(f"  {n:3d}   {actual:.6f}    {f7:.6f}     {f4:.6f}")

print("\n=== gauge fit to the ideal gate frame ===")
fit = gauge_fit_to_ideal(trunc7, trial=trial)
print(f"  objective {fit.objective:.3e} after {fit.n_evaluations} evaluations")
ideal = ct.ideal_seven_ptms()
for label in ("H", "S"):
    diff = fit.error_model.gates[label] - ideal[label]
    print(f"  max |reconstructed {label} - ideal {label}| = {np.max(np.abs(diff)):.4f}")
    save_matrix_csv(OUT / f"ptm_{label}.csv", fit.error_model.gates[label])
    save_matrix_csv(OUT / f"ptm_diff_{label}.csv", diff)
print(f"  wrote gate and difference matrices to {OUT}")
