"""Input tables: component CSV files and raw time series with DFT extraction.

This module is the one home of the CSV format: every table phasorstats
reads goes through ``_open_rows``, and every table it writes through
``write_csv`` (the ``csv`` module's minimal quoting), so its output reads
back, labels with commas or quotes included.

Two CSV schemas are read (header row required):

- components: ``unit,condition,re,im``
- time series: ``unit,condition,t_index,value`` preceded by metadata lines
  ``# sample_rate=<Hz>`` and ``# target_frequency=<Hz>``

Repetitions (several rows for one unit within a condition) are coherently
averaged when a dataset is built.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import checks
from .data import ComplexSample, Design, GroupedDataset, unit_mean
from .exceptions import (
    FrequencyNotResolvable,
    MalformedInput,
    NonIntegerCycles,
)

COMPONENT_COLUMNS = ("unit", "condition", "re", "im")
TIMESERIES_COLUMNS = ("unit", "condition", "t_index", "value")


class ComponentRow(NamedTuple):
    unit: str
    condition: str
    re: float
    im: float


def _open_rows(path, columns: Sequence[str]) -> tuple[dict, Iterator]:
    """The metadata and the data rows of a CSV file.

    Rows come lazily as (line number, cells of ``columns``), checked as they
    come: the columns exist, each row is as long as the header, and there
    is at least one row. DomainError unless ``path`` is a str or os.PathLike.
    """
    checks.path(path)
    metadata: dict[str, float] = {}
    # lines end at "\n", "\r\n" or "\r" and keep their ends untranslated,
    # as the csv module asks, so a quoted field may hold any of them;
    # "utf-8-sig" drops the byte-order mark of spreadsheet "CSV UTF-8" exports
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise MalformedInput(f"{path}: not UTF-8 text") from None
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

    def cells() -> Iterator[tuple[int, list[str]]]:
        for name in columns:
            if name not in header:
                raise MalformedInput(
                    f"{path}: line 1: missing column {name!r} "
                    f"(have {', '.join(header)})"
                )
        indices = [header.index(name) for name in columns]
        empty = True
        for row in reader:
            if not any(c.strip() for c in row):
                continue
            lineno = body_start + reader.line_num  # the row's last line
            if len(row) < len(header):
                raise MalformedInput(
                    f"{path}: line {lineno}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            empty = False
            yield lineno, [row[i].strip() for i in indices]
        if empty:
            raise MalformedInput(f"{path}: no data rows")

    return metadata, cells()


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
    _, rows = _open_rows(path, COMPONENT_COLUMNS)
    return [
        ComponentRow(unit, condition, _parse_float(path, lineno, "re", re),
                     _parse_float(path, lineno, "im", im))
        for lineno, (unit, condition, re, im) in rows
    ]


def build_dataset(
    rows: Sequence[ComponentRow],
    design: Design,
    mu: complex = 0j,
) -> GroupedDataset:
    """Group component rows into a dataset, averaging repetitions per unit.

    Conditions and units keep their order of first appearance. When a unit
    contributes several rows to one condition they are collapsed to their
    coherent (complex) mean, ``data.unit_mean``, the rule
    ``coherent_mean`` uses too.
    """
    by_condition: dict[str, dict[str, list[complex]]] = {}
    for unit, condition, re, im in rows:
        units = by_condition.setdefault(condition, {})
        units.setdefault(unit, []).append(complex(re, im))
    samples = [
        ComplexSample([unit_mean(v) for v in units.values()], condition, tuple(units))
        for condition, units in by_condition.items()
    ]
    return GroupedDataset(tuple(samples), design, mu)


def extract_component(
    series: Sequence[float], sample_rate: float, target_frequency: float
) -> complex:
    """Single-bin DFT coefficient at the target frequency, as a complex.

    Normalized by 2/M with a cosine phase convention: a pure
    A cos(2 pi f t) sampled over whole cycles returns A + 0j, and
    A sin(2 pi f t) returns amplitude A at phase -pi/2. The series must
    span a whole number (>= 1) of cycles, with the target strictly between
    DC and the Nyquist frequency; no windowing is applied. MalformedInput
    where the coefficient is not finite.
    """
    x = checks.floats("series", series, MalformedInput)
    if x.ndim != 1 or x.size < 2:
        raise MalformedInput("series must be one-dimensional with >= 2 samples")
    checks.real("sample rate", sample_rate, lambda v: v > 0.0, "> 0",
                FrequencyNotResolvable)
    m = x.size
    nyquist = sample_rate / 2.0
    checks.real("target frequency", target_frequency, lambda v: 0.0 < v < nyquist,
                f"strictly between 0 and the Nyquist frequency {nyquist} Hz",
                FrequencyNotResolvable)
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
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = (2.0 / m) * complex((x * np.exp(-2j * math.pi * k * t / m)).sum())
    if not cmath.isfinite(coeff):
        raise MalformedInput(f"the component must be finite, got {coeff!r}")
    return coeff


def read_timeseries_csv(path) -> list[ComponentRow]:
    """Parse a time-series CSV and extract one component row per series.

    Rows are grouped by (unit, condition) in order of first appearance;
    each group must contain t_index values 0 .. M-1 exactly once.
    """
    metadata, rows = _open_rows(path, TIMESERIES_COLUMNS)
    for key in ("sample_rate", "target_frequency"):
        if key not in metadata:
            raise MalformedInput(
                f"{path}: missing '# {key}=<Hz>' metadata line"
            )
    groups: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for lineno, (unit, condition, t_index, value) in rows:
        try:
            t = int(t_index)
        except ValueError:
            raise MalformedInput(
                f"{path}: line {lineno}: t_index {t_index!r} is not an integer"
            ) from None
        groups.setdefault((unit, condition), []).append(
            (t, _parse_float(path, lineno, "value", value)))
    out = []
    for (unit, condition), points in groups.items():
        points.sort(key=lambda p: p[0])
        indices = [p[0] for p in points]
        if indices != list(range(len(points))):
            raise MalformedInput(
                f"{path}: series for unit {unit!r}, condition {condition!r} "
                f"must cover t_index 0..{len(points) - 1} exactly once"
            )
        coeff = extract_component([p[1] for p in points], metadata["sample_rate"],
                                  metadata["target_frequency"])
        out.append(ComponentRow(unit, condition, coeff.real, coeff.imag))
    return out


def write_csv(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """A table as CSV text: minimal quoting, "\\n" line ends, floats by repr.

    A field is quoted only when it holds a comma, a quote or a "\n"; minimal
    quoting would leave a "\r" bare, so a row with one in a text cell has
    all its text cells quoted. A text cell that begins or ends with
    whitespace raises ``MalformedInput``: the reader strips every cell, so
    it would read back as another label.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quote_text = csv.writer(buf, lineterminator="\n",
                            quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(header)
    for i, row in enumerate(rows, start=1):
        row = tuple(row)
        text = [(name, cell) for name, cell in zip(header, row)
                if isinstance(cell, str)]
        for name, cell in text:
            if cell != cell.strip():
                raise MalformedInput(
                    f"row {i}: column {name!r} value {cell!r} has leading or "
                    "trailing whitespace and would not read back"
                )
        cr = any("\r" in cell for _, cell in text)
        (quote_text if cr else writer).writerow(row)
    return buf.getvalue()


def write_components_csv(rows: Sequence[ComponentRow]) -> str:
    """Serialize component rows back to the components schema."""
    return write_csv(COMPONENT_COLUMNS, rows)
