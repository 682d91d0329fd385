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


def _plain(obj):
    # Scalars first, before the slow Mapping test; bool is an int.  NumPy's
    # float64 is a float, which json writes with float.__repr__, as its item.
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


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
    path = Path(path)
    path.write_text(json.dumps(_plain(obj), indent=1, sort_keys=True) + "\n")
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
