"""Deterministic text output helpers.

All numeric columns are written with 17 significant digits, '.' decimal
separator, and '\n' line endings so that reruns with identical inputs produce
byte-identical files.  Each writer takes its path first and writes into a
directory that must already exist.
"""

from __future__ import annotations

import json
import math

import numpy as np

CSV_SCHEMA = "# perispec-csv v1"


def fmt(value) -> str:
    """Format one cell: floats at 17 significant digits, ints/bools/strings as-is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_SCHEMA + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _clean(obj):
    """Make a structure JSON-safe: tuples to lists, numpy scalars to Python
    ones, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else format(v, "g")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_clean(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_text(path, text) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
