#!/usr/bin/env python3
"""Parametric likelihood fit of the drifting-noise device.

Instead of inverting matrices for every entry, assume the error family:
the drift takes L values with unknown weights, and each gate carries an
unknown depolarizing rate per value.  Fitting those few parameters to the
full set of tomography circuit means recovers a two-point model whose
predictions track the device closely, while the single-point fit (the
memoryless assumption) is orders of magnitude worse in likelihood.

Also demonstrates an exact round trip: data generated from a known two-point
model (a frozen ``LowFreqModel``, the type a fit exports) returns its
parameters to twelve digits.
"""

import numpy as np

import corrtomo as ct
from corrtomo.device import MeasurementRecord
from corrtomo.linear_inversion import collect_trial_data, trial_sequences
from corrtomo.mle import records_from_tomography
from corrtomo.tomography import predict

device = ct.build_low_freq_model(sigma=1.0, eta=0.02, m=5)
data = collect_trial_data(device, trial_sequences("d7"))
records = records_from_tomography(data)
longest = np.count_nonzero(records.gates < len(records.labels), axis=1).max()  # pads are len(labels)
print(f"fitting {len(records)} circuit means (lengths up to {longest})")

fit2 = ct.fit(records, l_size=2, seed=0)
fit1 = ct.fit(records, l_size=1, seed=0)
pm = fit2.param_model
print("\n=== two-point fit ===")
print(f"  weights        p = ({pm.weights[0]:.4f}, {pm.weights[1]:.4f})")
print(f"  Hadamard rates   = ({pm.rates['H'][0]:.4e}, {pm.rates['H'][1]:.4e})")
print(f"  phase rates      = ({pm.rates['S'][0]:.4e}, {pm.rates['S'][1]:.4e})")
print(f"  objective        = {fit2.nll:.4e}")
print(f"\n=== one-point fit (no memory) ===")
print(f"  rate             = {fit1.param_model.rates['H'][0]:.4e}")
print(f"  objective        = {fit1.nll:.4e}   ({fit1.nll / fit2.nll:.1e} x worse)")

print("\n=== prediction accuracy on fresh random identity circuits ===")
print("   N    actual F     two-point    one-point")
for i, n in enumerate((0, 20, 50, 100)):
    circuits = ct.random_identity_sequences(n, 20, seed=300 + i)
    actual = np.mean([ct.run_circuit(device, c).mean for c in circuits])
    f2 = np.mean([predict(fit2.error_model, c) for c in circuits])
    f1 = np.mean([predict(fit1.error_model, c) for c in circuits])
    print(f"  {n:3d}   {actual:.6f}    {f2:.6f}     {f1:.6f}")

print("\n=== exact parameter round trip ===")
truth = ct.frozen_model([0.6, 0.4], {"H": [0.003, 0.02], "S": [0.004, 0.015]})
gen = np.random.default_rng(5)
circuits = [
    tuple(np.where(gen.integers(0, 2, size=int(gen.integers(1, 26))) == 0, "H", "S"))
    for _ in range(400)
]
means = ct.exact_means(truth, circuits)
synthetic = [MeasurementRecord(tuple(c), float(mean), 0.0, None) for c, mean in zip(circuits, means)]
recovered = ct.fit(synthetic, l_size=2, seed=0).param_model
err = max(
    np.max(np.abs(recovered.weights - truth.weights)),
    max(np.max(np.abs(recovered.rates[g] - truth.rates[g])) for g in ("H", "S")),
)
print(f"  recovered p = {recovered.weights}, max parameter error {err:.1e}")
