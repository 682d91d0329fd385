#!/usr/bin/env python3
"""Context-dependent noise: the error of a gate depends on the previous gate.

The environment register simply remembers the last gate label; each gate
applies a depolarizing rate chosen by that label and then overwrites it.
Circuits composed of the same gates in different orders therefore see
different total error, which no memoryless model can reproduce.

The same batch runner drives these models too, and the transition structure
with a decaying drift correlation is shown at the end.
"""

import numpy as np

import corrtomo as ct

# Rates: a gate is clean after itself and noisy after the other gate.
RATES = {"H": {"H": 0.002, "S": 0.04}, "S": {"H": 0.03, "S": 0.001}}

model = ct.ContextModel(gate_labels=("H", "S"), rates=RATES, initial=np.array([1.0, 0.0]))

print("=== same gates, different order, different survival ===")
for gates in [("H", "H", "S", "S"), ("H", "S", "H", "S"), ("S", "S", "H", "H"), ("S", "H", "S", "H")]:
    mean = ct.run_circuit(model, gates).mean
    print(f"  {''.join(gates)}:  F = {mean:.6f}")

print("\n=== a memoryless model cannot tell those circuits apart ===")
flat = ct.constant_depolarizing_model(0.018)
for gates in [("H", "H", "S", "S"), ("S", "H", "S", "H")]:
    print(f"  {''.join(gates)}:  F = {ct.run_circuit(flat, gates).mean:.6f}")

print("\n=== the register always holds the last gate ===")
v = model.rho_vec()
for label in ("S", "S", "H"):
    v = model.gate_block(label) @ v
    print(f"  after {label}: register weights = {np.round(v[0::4], 12)}")

print("\n=== drift with decaying correlation (two-point transition) ===")
decayed = ct.second_order_model(sigma=1.0, eta=0.3, gate_gammas={"H": 0.2, "S": 0.1})
rows = ct.survival_curve(decayed, [0, 10, 20, 40], circuits_per_point=40, seed=2)
for row in rows:
    print(f"  N={row['n_gates']:3d}  F={row['mean']:.6f}")
t = decayed.transitions["H"]
print(f"  per-gate transition matrix for H:\n{t}")
print(f"  correlation after k gates decays as exp(-0.2 k): "
      f"{[round(float(decayed.support @ np.linalg.matrix_power(t, k) @ (decayed.support * decayed.weights)), 4) for k in range(4)]}")
