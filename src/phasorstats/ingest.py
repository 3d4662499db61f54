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
import itertools
import math
import numbers
import sys
from collections.abc import Sequence
from typing import Callable, Iterable, NamedTuple, Optional

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


class ComponentColumns(NamedTuple):
    """A components table as four columns of one length: row i is
    ``(unit[i], condition[i], re[i], im[i])``. The readers return lists;
    ``build_dataset`` and ``write_components_csv`` take any sequences.
    Rows convert as ``ComponentColumns(*map(list, zip(*rows)))``."""

    unit: Sequence[str]
    condition: Sequence[str]
    re: Sequence[float]
    im: Sequence[float]


def _checked(table) -> ComponentColumns:
    """``table`` as ``ComponentColumns``, where it is four columns of one
    length whose re and im cells are finite real numbers; else
    MalformedInput, naming the first bad cell's row (from 1)."""
    try:
        table = ComponentColumns(*table)
        lengths = set(map(len, table))
    except TypeError:
        lengths = set()
    if len(lengths) != 1:
        raise MalformedInput("a components table must be four columns (unit, "
                             "condition, re, im) of one length")
    # a sum of floats and ints is a float or an int, and finite only if every
    # term is; only where it is not is each cell looked at
    with np.errstate(over="ignore", invalid="ignore"):  # sums of numpy scalars
        for name, column in zip(COMPONENT_COLUMNS[2:], table[2:]):
            try:
                total = sum(column)
            except (TypeError, OverflowError):
                total = None
            if isinstance(total, (float, int)) and abs(total) <= sys.float_info.max:
                continue
            for i, x in enumerate(column, start=1):
                if not (isinstance(x, numbers.Real) and abs(x) <= sys.float_info.max):
                    raise MalformedInput(f"row {i}: column {name!r} value {x!r} "
                                         "is not a finite real number")
    return table


class _Body(NamedTuple):
    """The data rows of a CSV file, column by column."""

    metadata: dict[str, float]
    #: the cells of each column asked for, in that order: stripped, except in
    #: the number columns (``_NUMBERS``), whose parse strips the same space
    cells: list[Sequence[str]]
    #: the line number of each row (its last line), worked out on demand
    lines: Callable[[], list[int]]
    #: raised once the rows before the row it names have been parsed
    error: Optional[MalformedInput]


def _open_rows(path, columns: Sequence[str], data: Optional[bytes] = None,
               required: Sequence[str] = ()) -> _Body:
    """The metadata and the data rows of a CSV file, from one ``csv.reader``
    pass over its text (``data``, its bytes where already read).

    Checked, in this order: the ``required`` metadata keys are given, the
    header can be split and has the columns (an error names the header's
    line), each row is as long as the header, and there is at least one
    row; rows whose every cell is blank are skipped.
    A short row, or a row the csv module cannot split, is left in
    ``error``, so that an error of the rows before it comes first.
    DomainError unless ``path`` is a str or os.PathLike.
    """
    checks.path(path)
    metadata: dict[str, float] = {}
    # lines end at "\n", "\r\n" or "\r" and keep their ends untranslated,
    # as the csv module asks, so a quoted field may hold any of them;
    # "utf-8-sig" drops the byte-order mark of spreadsheet "CSV UTF-8" exports
    try:
        if data is None:
            with open(path, newline="", encoding="utf-8-sig") as f:
                lines = f.readlines()
        else:
            lines = io.StringIO(data.decode("utf-8-sig"), newline="").readlines()
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
    for key in required:
        if key not in metadata:
            raise MalformedInput(f"{path}: missing '# {key}=<Hz>' metadata line")
    reader = csv.reader(body)
    try:
        header = [h.strip() for h in next(reader)]
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise MalformedInput(
            f"{path}: line {body_start + reader.line_num}: {exc}") from None
    for name in columns:
        if name not in header:
            raise MalformedInput(
                f"{path}: line {body_start + reader.line_num}: missing column "
                f"{name!r} (have {', '.join(header)})"
            )
    indices = [header.index(name) for name in columns]
    rows: list[list[str]] = []
    error = None
    try:
        rows.extend(reader)  # keeps the rows before a row it cannot split
    except csv.Error as exc:  # a field over csv.field_size_limit()
        error = MalformedInput(
            f"{path}: line {body_start + reader.line_num}: {exc}")

    def numbers() -> list[int]:
        again = csv.reader(body)
        next(again)
        return [body_start + again.line_num
                for _ in itertools.islice(again, len(rows))]

    def select(rows) -> list[Sequence[str]]:
        by_column = list(zip(*rows)) or [()] * len(header)
        return [by_column[i] if name in _NUMBERS else list(map(str.strip, by_column[i]))
                for name, i in zip(columns, indices)]

    width = len(header)
    cells = select(rows) if rows and min(map(len, rows)) >= width else None
    # a blank row has a blank first cell (text, so stripped, in both
    # schemas), so where none has, every row is kept
    if cells is None or "" in cells[0]:
        lines_of = numbers()
        kept = []
        for i, row in enumerate(rows):
            if not any(c.strip() for c in row):
                continue
            if len(row) < width:
                error = MalformedInput(f"{path}: line {lines_of[i]}: expected "
                                       f"{width} fields, got {len(row)}")
                break
            kept.append(i)
        if not kept and error is None:
            raise MalformedInput(f"{path}: no data rows")
        cells = select([rows[i] for i in kept])
        return _Body(metadata, cells, lambda: [lines_of[i] for i in kept], error)
    return _Body(metadata, cells, numbers, error)


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


def _parse_int(path, lineno: int, name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise MalformedInput(
            f"{path}: line {lineno}: {name} {raw!r} is not an integer"
        ) from None


def _floats(cells: Sequence[str]) -> list[float]:
    values = list(map(float, cells))
    # a sum is finite only if every term is; where it is not, it may have
    # overflowed on finite terms
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ValueError
    return values


#: Each number column: its parse of a whole column (ValueError where any
#: cell fails) and its parse of one cell (MalformedInput naming the line).
_NUMBERS = {
    "re": (_floats, _parse_float),
    "im": (_floats, _parse_float),
    "value": (_floats, _parse_float),
    "t_index": (lambda cells: list(map(int, cells)), _parse_int),
}


def _read_columns(path, columns: Sequence[str], data: Optional[bytes] = None,
                  required: Sequence[str] = ()):
    """The metadata and the columns of a CSV file, those in ``_NUMBERS``
    parsed, the others stripped text.

    Each number column is parsed whole; only where one fails are the rows
    parsed one by one, in file order, so the error is the first that a
    row-by-row reader meets, with its line number.
    """
    body = _open_rows(path, columns, data, required)
    try:
        parsed = [_NUMBERS[name][0](cells) if name in _NUMBERS else cells
                  for name, cells in zip(columns, body.cells)]
    except ValueError:
        for lineno, row in zip(body.lines(), zip(*body.cells)):
            for name, raw in zip(columns, row):
                if name in _NUMBERS:
                    _NUMBERS[name][1](path, lineno, name, raw.strip())
        raise
    if body.error is not None:
        raise body.error
    return body.metadata, parsed


def read_components_csv(path, data: Optional[bytes] = None) -> ComponentColumns:
    """Parse a components CSV into ``ComponentColumns``, its rows in file
    order.

    The file is read as columns (``_read_columns``); ``data``, where given,
    is its content already read, and ``path`` then only names it in
    messages. MalformedInput names the line of the first bad row.
    """
    return ComponentColumns(*_read_columns(path, COMPONENT_COLUMNS, data)[1])


def build_dataset(
    table: ComponentColumns,
    design: Design,
    mu: complex = 0j,
) -> GroupedDataset:
    """Group a components table into a dataset, averaging repetitions per
    unit.

    Conditions and units keep their order of first appearance. When a unit
    contributes several rows to one condition they are collapsed to their
    coherent (complex) mean, ``data.unit_mean``, the rule
    ``coherent_mean`` uses too; it runs once for all the units that have
    the same number of rows. MalformedInput where ``table`` is not four
    columns of one length with finite real re and im.
    """
    unit, condition, re, im = _checked(table)
    n = len(unit)
    # each row's (condition, unit) group, named by the row where it first
    # appears: one hash a row, and the groups in order of first appearance
    head_of: dict[tuple[str, str], int] = {}
    group = np.fromiter(map(head_of.setdefault, zip(condition, unit),
                            itertools.count()), np.intp, n)
    heads = np.fromiter(head_of.values(), np.intp, len(head_of))
    # re + 1j * im would turn an imaginary -0.0 into 0.0
    values = np.empty(n, np.complex128)
    values.real, values.imag = np.fromiter(re, float, n), np.fromiter(im, float, n)
    # each group's rows, in file order, from one stable sort
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=n)[heads]
    starts = np.cumsum(counts) - counts
    means = np.empty(len(heads), np.complex128)
    for count in set(counts.tolist()):  # np.unique would import numpy.ma
        same = np.flatnonzero(counts == count)
        means[same] = unit_mean(values[order[starts[same, None] + np.arange(count)]])
    groups = list(head_of)
    by_condition: dict[str, list[int]] = {}
    for g, (c, _) in enumerate(groups):
        by_condition.setdefault(c, []).append(g)
    samples = [
        ComplexSample(means[gs], c, tuple(groups[g][1] for g in gs))
        for c, gs in by_condition.items()
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


def read_timeseries_csv(path) -> ComponentColumns:
    """Parse a time-series CSV and extract one component row per series.

    Rows are grouped by (unit, condition) in order of first appearance;
    each group must contain t_index values 0 .. M-1 exactly once.
    """
    metadata, (units, conditions, t_index, values) = _read_columns(
        path, TIMESERIES_COLUMNS, required=("sample_rate", "target_frequency"))
    groups: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for key, t, value in zip(zip(units, conditions), t_index, values):
        groups.setdefault(key, []).append((t, value))
    re, im = [], []
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
        re.append(coeff.real)
        im.append(coeff.imag)
    return ComponentColumns(*map(list, zip(*groups)), re, im)


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


def write_components_csv(table: ComponentColumns) -> str:
    """Serialize a components table back to the components schema;
    MalformedInput where ``build_dataset`` would refuse it."""
    return write_csv(COMPONENT_COLUMNS, zip(*_checked(table)))
