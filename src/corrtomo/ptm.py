"""Ideal gate transfer matrices and the reduced block frame.

A transfer matrix acts on real Pauli coefficient vectors: a state has
entries ``Tr(sigma rho)`` over (I, X, Y, Z), an observable ``Tr(Q sigma) / 2``
and an operation ``Tr[sigma O(tau)] / 2``, so the mean of an observable after
a gate sequence is a matrix product folded right to left.

Conventions fixed here once and relied on everywhere else:

* Pauli ordering (I, X, Y, Z) per environment point, environment index
  slowest, in the (4m)-dimensional block coefficient space;
* the phase gate S maps X -> -Y and Y -> X (i.e. ``diag(1, -i)``).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = ["GATE_UNITARIES", "ideal_qubit_ptms", "reduced_frame"]

#: The elementary gate set used throughout: Hadamard and phase (X -> -Y, Y -> X).
GATE_UNITARIES: Mapping[str, np.ndarray] = {
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
    "S": np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex),
}

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


_IDEAL_QUBIT_PTMS = {
    label: np.array([[np.trace(s @ (u @ t @ u.conj().T)) / 2.0 for t in _PAULIS] for s in _PAULIS]).real.copy()
    for label, u in GATE_UNITARIES.items()
}


def ideal_qubit_ptms() -> dict[str, np.ndarray]:
    """4x4 transfer matrices of the ideal H and S gates: ``Tr[s U t U^dag] / 2``.

    Fresh copies of a table built once at import, so callers may modify them.
    """
    return {label: ptm.copy() for label, ptm in _IDEAL_QUBIT_PTMS.items()}


def reduced_frame(weights: np.ndarray) -> np.ndarray:
    """Orthonormal frame (4m x (3m+1)) of the reachable block subspace.

    For a stationary environment distribution only one combination of the
    identity slots is ever populated.  Column 0 is the normalized identity
    profile of ``weights``; the remaining columns are the X, Y, Z slots of
    each environment point in order.
    """
    w = np.asarray(weights, dtype=float)
    m = w.size
    frame = np.zeros((4 * m, 3 * m + 1))
    frame[0::4, 0] = w / np.linalg.norm(w)
    col = 1
    for k in range(m):
        for p in range(1, 4):
            frame[4 * k + p, col] = 1.0
            col += 1
    return frame
