"""CSV/JSON serialization helpers shared by the experiment pipelines."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "save_matrix_csv",
    "save_json",
    "save_rows_csv",
]


def save_matrix_csv(path: str | Path, matrix: np.ndarray) -> Path:
    """One matrix per file, under a header row of column names c0, c1, ..."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(matrix.shape[1])])
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])
    return path


def save_json(path: str | Path, obj) -> Path:
    """Sorted, indented JSON; json hands each NumPy array or scalar it cannot encode to ``tolist``.

    NumPy's float64 is a float, which json writes with float.__repr__ itself.
    """
    path = Path(path)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True, default=lambda value: value.tolist()) + "\n")
    return path


def save_rows_csv(path: str | Path, rows: Sequence[Mapping], fieldnames: Sequence[str]) -> Path:
    """Write homogeneous dict rows; floats at full precision for reproducibility."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(fieldnames))
        for row in rows:
            out = []
            for name in fieldnames:
                v = row[name]
                if isinstance(v, float):
                    out.append(repr(v))
                elif v is None:
                    out.append("")
                else:
                    out.append(v)
            writer.writerow(out)
    return path
