"""Input tables: component CSV files and raw time series with DFT extraction.

Two CSV schemas are accepted (header row required):

- components: ``unit,condition,re,im``
- time series: ``unit,condition,t_index,value`` preceded by metadata lines
  ``# sample_rate=<Hz>`` and ``# target_frequency=<Hz>``

Repetitions (several rows for one unit within a condition) are coherently
averaged when a dataset is built.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import ComplexObservation, ComplexSample, Design, GroupedDataset
from .exceptions import (
    FrequencyNotResolvable,
    MalformedInput,
    NonIntegerCycles,
)

COMPONENT_COLUMNS = ("unit", "condition", "re", "im")
TIMESERIES_COLUMNS = ("unit", "condition", "t_index", "value")


@dataclass(frozen=True)
class ComponentRow:
    unit: str
    condition: str
    re: float
    im: float


def _open_rows(path) -> tuple[list[str], list[list[str]], list[int], dict]:
    """Split a CSV file into metadata, header and rows with line numbers."""
    text = Path(path).read_text()
    metadata: dict[str, float] = {}
    lines = text.splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("#"):
            body_start = i + 1
            item = stripped.lstrip("#").strip()
            if "=" in item:
                key, _, value = item.partition("=")
                try:
                    metadata[key.strip()] = float(value.strip())
                except ValueError:
                    raise MalformedInput(
                        f"{path}: line {i + 1}: metadata value "
                        f"{value.strip()!r} is not a number"
                    ) from None
        elif stripped == "":
            body_start = i + 1
        else:
            break
    body = lines[body_start:]
    if not body or not body[0].strip():
        raise MalformedInput(f"{path}: no header row")
    reader = csv.reader(body)
    header = [h.strip() for h in next(reader)]
    rows = []
    numbers = []
    for offset, row in enumerate(reader, start=body_start + 2):
        if not row or all(not c.strip() for c in row):
            continue
        rows.append([c.strip() for c in row])
        numbers.append(offset)
    return header, rows, numbers, metadata


def _column_indices(path, header: Sequence[str], wanted: Sequence[str]) -> list[int]:
    indices = []
    for name in wanted:
        if name not in header:
            raise MalformedInput(
                f"{path}: line 1: missing column {name!r} "
                f"(have {', '.join(header)})"
            )
        indices.append(header.index(name))
    return indices


def _parse_float(path, lineno: int, name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise MalformedInput(
            f"{path}: line {lineno}: column {name!r} value {raw!r} "
            "is not a number"
        ) from None
    if not math.isfinite(value):
        raise MalformedInput(
            f"{path}: line {lineno}: column {name!r} must be finite"
        )
    return value


def read_components_csv(path) -> list[ComponentRow]:
    """Parse a components CSV into rows, preserving file order."""
    header, rows, numbers, _ = _open_rows(path)
    iu, ic, ire, iim = _column_indices(path, header, COMPONENT_COLUMNS)
    out = []
    for row, lineno in zip(rows, numbers):
        if len(row) < len(header):
            raise MalformedInput(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        out.append(
            ComponentRow(
                unit=row[iu],
                condition=row[ic],
                re=_parse_float(path, lineno, "re", row[ire]),
                im=_parse_float(path, lineno, "im", row[iim]),
            )
        )
    if not out:
        raise MalformedInput(f"{path}: no data rows")
    return out


def build_dataset(
    rows: Sequence[ComponentRow],
    design: Design,
    mu: complex = 0j,
) -> GroupedDataset:
    """Group component rows into a dataset, averaging repetitions per unit.

    Conditions and units keep their order of first appearance. When a unit
    contributes several rows to one condition they are collapsed to their
    coherent (complex) mean.
    """
    by_condition: dict[str, dict[str, list[complex]]] = {}
    for r in rows:
        units = by_condition.setdefault(r.condition, {})
        units.setdefault(r.unit, []).append(complex(r.re, r.im))
    samples = []
    for condition, units in by_condition.items():
        # the reduction coherent_mean runs; numpy's mean of one value is
        # that value added to 0, which only turns a -0.0 part into 0.0
        means = [
            values[0] + 0j if len(values) == 1 else np.asarray(values).mean()
            for values in units.values()
        ]
        samples.append(ComplexSample(
            np.asarray(means, dtype=np.complex128), condition, tuple(units)
        ))
    return GroupedDataset(tuple(samples), design, mu)


def extract_component(
    series: Sequence[float], sample_rate: float, target_frequency: float
) -> ComplexObservation:
    """Single-bin DFT coefficient at the target frequency.

    Normalized by 2/M with a cosine phase convention: a pure
    A cos(2 pi f t) sampled over whole cycles returns (A, 0), and
    A sin(2 pi f t) returns amplitude A at phase -pi/2. The series must
    span a whole number (>= 1) of cycles, with the target strictly between
    DC and the Nyquist frequency; no windowing is applied.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise MalformedInput("series must be one-dimensional with >= 2 samples")
    if not sample_rate > 0.0:
        raise FrequencyNotResolvable(f"sample rate must be > 0, got {sample_rate}")
    m = x.size
    if not 0.0 < target_frequency < sample_rate / 2.0:
        raise FrequencyNotResolvable(
            f"target {target_frequency} Hz not strictly between 0 and the "
            f"Nyquist frequency {sample_rate / 2.0} Hz"
        )
    cycles = target_frequency * m / sample_rate
    k = round(cycles)
    if abs(cycles - k) > 1e-9 * max(1.0, cycles):
        raise NonIntegerCycles(
            f"series of {m} samples at {sample_rate} Hz spans {cycles} cycles "
            f"of {target_frequency} Hz; a whole number is required"
        )
    if k == 0:
        raise FrequencyNotResolvable(
            f"series of {m} samples at {sample_rate} Hz spans {cycles} cycles "
            f"of {target_frequency} Hz, which rounds to the DC bin; at least "
            "one whole cycle is required"
        )
    t = np.arange(m)
    coeff = (2.0 / m) * complex((x * np.exp(-2j * math.pi * k * t / m)).sum())
    return ComplexObservation(coeff.real, coeff.imag)


def read_timeseries_csv(path) -> list[ComponentRow]:
    """Parse a time-series CSV and extract one component row per series.

    Rows are grouped by (unit, condition) in order of first appearance;
    each group must contain t_index values 0 .. M-1 exactly once.
    """
    header, rows, numbers, metadata = _open_rows(path)
    for key in ("sample_rate", "target_frequency"):
        if key not in metadata:
            raise MalformedInput(
                f"{path}: missing '# {key}=<Hz>' metadata line"
            )
    iu, ic, it, iv = _column_indices(path, header, TIMESERIES_COLUMNS)
    groups: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for row, lineno in zip(rows, numbers):
        if len(row) < len(header):
            raise MalformedInput(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        try:
            t_index = int(row[it])
        except ValueError:
            raise MalformedInput(
                f"{path}: line {lineno}: t_index {row[it]!r} is not an integer"
            ) from None
        value = _parse_float(path, lineno, "value", row[iv])
        groups.setdefault((row[iu], row[ic]), []).append((t_index, value))
    if not groups:
        raise MalformedInput(f"{path}: no data rows")
    out = []
    for (unit, condition), points in groups.items():
        points.sort(key=lambda p: p[0])
        indices = [p[0] for p in points]
        if indices != list(range(len(points))):
            raise MalformedInput(
                f"{path}: series for unit {unit!r}, condition {condition!r} "
                f"must cover t_index 0..{len(points) - 1} exactly once"
            )
        obs = extract_component(
            [p[1] for p in points],
            metadata["sample_rate"],
            metadata["target_frequency"],
        )
        out.append(ComponentRow(unit, condition, obs.re, obs.im))
    return out


def write_components_csv(rows: Sequence[ComponentRow]) -> str:
    """Serialize component rows back to the components schema."""
    lines = [",".join(COMPONENT_COLUMNS)]
    for r in rows:
        lines.append(f"{r.unit},{r.condition},{r.re!r},{r.im!r}")
    return "\n".join(lines) + "\n"
