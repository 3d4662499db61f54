"""Data model for complex Fourier components grouped by experimental condition.

An observation is one Fourier coefficient, held as a complex number.
Samples hold their own read-only copy of their observations and leave the
caller's array as it was; all operations on them are pure functions, so
everything here is safe to share across concurrently running workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from . import checks, kernels
from .exceptions import (
    EmptyUnit,
    LabelMismatch,
    MalformedInput,
    TooFewObservations,
)


def _coerce_observations(observations) -> np.ndarray:
    """Observations as a new 1-d complex128 array, converted once.

    Accepts a complex array, an (N, 2) real array of (re, im) columns, or
    a sequence of complex (or real) numbers; MalformedInput for anything
    else, or for a non-finite value.
    """
    try:
        arr = np.array(observations, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(str(exc)) from None
    if arr.ndim == 2 and arr.shape[1] == 2:
        if np.any(arr.imag != 0.0):
            raise MalformedInput(
                "(N, 2) observation arrays must hold real (re, im) columns"
            )
        arr = arr[:, 0].real + 1j * arr[:, 1].real
    if arr.ndim != 1:
        raise MalformedInput("observations must be one-dimensional")
    if not np.isfinite(arr).all():
        raise MalformedInput("observations must be finite")
    return arr


def unit_mean(values):
    """The coherent mean of one unit's repetitions, or of each row of a 2-d
    array of units with as many repetitions each: one value plus 0j (the
    bits of numpy's mean of it), otherwise numpy's mean over the last axis,
    which reduces each row as it reduces the 1-d array of that row."""
    values = np.asarray(values)
    return values[..., 0] + 0j if values.shape[-1] == 1 else values.mean(axis=-1)


@dataclass(frozen=True, eq=False)
class ComplexSample:
    """Ordered observations of one condition, optionally labelled by unit.

    Parameters
    ----------
    observations :
        Complex values, or any form accepted by ``_coerce_observations``. The
        sample holds its own read-only copy and leaves the caller's as it was.
    condition_label :
        Name of the experimental condition.
    unit_labels :
        Optional subject / repetition identifiers, one per observation.
    """

    observations: np.ndarray
    condition_label: str = ""
    unit_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        arr = _coerce_observations(self.observations)
        arr.setflags(write=False)
        object.__setattr__(self, "observations", arr)
        if self.unit_labels is not None:
            labels = tuple(map(str, self.unit_labels))
            if len(labels) != arr.size:
                raise LabelMismatch(
                    f"{len(labels)} unit labels for {arr.size} observations"
                )
            object.__setattr__(self, "unit_labels", labels)

    @property
    def n(self) -> int:
        return int(self.observations.size)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.abs(self.observations)

    def mean(self) -> complex:
        if self.n == 0:
            raise TooFewObservations("cannot average an empty sample")
        return complex(self.observations.mean())

    def subset(self, indices: Sequence[int]) -> "ComplexSample":
        idx = list(indices)
        labels = None
        if self.unit_labels is not None:
            labels = tuple(self.unit_labels[i] for i in idx)
        return ComplexSample(self.observations[idx], self.condition_label, labels)


class Design(str, Enum):
    """Supported experimental designs."""

    ONE_SAMPLE = "one_sample"
    TWO_SAMPLE_INDEPENDENT = "two_sample_independent"
    PAIRED = "paired"
    ONEWAY_INDEPENDENT = "oneway_independent"
    ONEWAY_REPEATED = "oneway_repeated"


#: Designs whose samples must share unit labels (within-unit alignment).
UNIT_ALIGNED_DESIGNS = (Design.PAIRED, Design.ONEWAY_REPEATED)


def _check_alignable(
    samples: Sequence[ComplexSample], at: str = ""
) -> dict[tuple[str, ...], list[int]]:
    """The index of every sample, grouped by its unit order (``unit_labels``)
    in order of first appearance.

    LabelMismatch at the first sample without unit labels, with a label
    twice or with a label set other than the first sample's, its message
    prefixed by ``at`` formatted with that sample's index. Each distinct
    unit order is checked once: a repeat of one passes as it did before.
    """
    rows: dict[tuple[str, ...], list[int]] = {}
    reference = None
    for i, s in enumerate(samples):
        units = s.unit_labels
        index = rows.get(units)
        if index is None:
            if units is None:
                problem = "has no unit labels; within-unit designs require them"
            elif len(set(units)) != len(units):
                problem = "has duplicate unit labels"
            elif reference is None:
                problem, reference = "", set(units)
            elif set(units) != reference:
                problem = "does not share unit labels with the first condition"
            else:
                problem = ""
            if problem:
                raise LabelMismatch(
                    f"{at.format(i)}condition {s.condition_label!r} {problem}"
                )
            index = rows[units] = []
        index.append(i)
    return rows


@dataclass(frozen=True, eq=False)
class GroupedDataset:
    """Samples for one analysis, with the design and comparison point.

    MalformedInput for an unknown design or a number of samples that does
    not fit it; DomainError for samples that are not an iterable of
    ComplexSample or a mu that is not a finite complex number.
    """

    samples: tuple[ComplexSample, ...]
    design: Design
    mu: complex = 0j

    def __post_init__(self) -> None:
        samples = checks.instances("samples", self.samples, ComplexSample)
        object.__setattr__(self, "samples", tuple(samples))
        try:
            object.__setattr__(self, "design", Design(self.design))
        except ValueError as exc:
            raise MalformedInput(str(exc)) from None
        object.__setattr__(self, "mu", checks.as_complex("mu", self.mu))
        k = len(self.samples)
        design = self.design
        if design is Design.ONE_SAMPLE and k != 1:
            raise MalformedInput(f"one_sample design needs 1 sample, got {k}")
        if design in (Design.TWO_SAMPLE_INDEPENDENT, Design.PAIRED) and k != 2:
            raise MalformedInput(f"{design.value} design needs 2 samples, got {k}")
        if design in (Design.ONEWAY_INDEPENDENT, Design.ONEWAY_REPEATED) and k < 2:
            raise MalformedInput(f"{design.value} design needs >= 2 samples, got {k}")
        if design in UNIT_ALIGNED_DESIGNS:
            _check_alignable(self.samples)

    @property
    def k(self) -> int:
        return len(self.samples)

    @property
    def condition_labels(self) -> tuple[str, ...]:
        return tuple(s.condition_label for s in self.samples)


def align_units(
    samples: Sequence[ComplexSample],
    order: Optional[Sequence[str]] = None,
    at: str = "",
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Observations as a C-contiguous (k, N) matrix aligned by unit label,
    plus the labels of its columns.

    Rows follow sample order; columns follow ``order``, by default the first
    sample's unit order. The observations are stacked once (one
    concatenate), with one gather per distinct unit order: the rows in that
    order are gathered into column order, and none is needed for a sample
    already in it. Raises LabelMismatch unless every sample carries the
    same unique labels, its message prefixed by ``at`` formatted with the
    first offending sample's index; ``order``, if given, must list those
    labels.
    """
    rows = _check_alignable(samples, at)
    labels = samples[0].unit_labels if order is None else tuple(order)
    out = np.concatenate([s.observations for s in samples])
    out = out.reshape(len(samples), len(labels))
    for units, index in rows.items():
        if units != labels:
            position = {u: j for j, u in enumerate(units)}
            out[index] = out[np.ix_(index, [position[u] for u in labels])]
    return out, labels


@dataclass(frozen=True, eq=False)
class CovarianceSummary:
    """Bivariate mean, 2x2 covariance and its eigenstructure for one sample.

    ``condition_index`` is sqrt(lambda_max / lambda_min), the aspect ratio of
    the scatter (bounding) ellipse; it equals 1 for perfectly circular
    scatter and is infinite when the covariance is degenerate.
    """

    mean: tuple[float, float]
    cov: np.ndarray
    eigenvalues: tuple[float, float]
    eigenvectors: np.ndarray
    condition_index: float
    degenerate: bool

    @property
    def mean_complex(self) -> complex:
        return complex(self.mean[0], self.mean[1])


def covariance_summary(sample: ComplexSample) -> CovarianceSummary:
    """Sample mean and covariance (N-1 denominator) with eigenstructure.

    Parameters
    ----------
    sample :
        At least two observations.

    Returns
    -------
    CovarianceSummary
        Eigenvalues sorted descending; eigenvectors are the columns of
        ``eigenvectors``, orthonormal. ``degenerate`` is set when
        lambda_min <= 1e-12 * trace, tested in its determinant form
        det <= 1e-12 (1 - 1e-12) trace^2 (``kernels.degenerate``);
        consumers that need an invertible covariance should raise rather
        than proceed. The numbers are those of ``kernels.spectrum`` on a
        batch of one.
    """
    n = checks.instance("sample", sample, ComplexSample).n
    if n < 2:
        raise TooFewObservations(f"covariance needs >= 2 observations, got {n}")
    mean, (a, b, c), (lmax, lmin), ci, degenerate = kernels.spectrum(
        sample.observations
    )
    cov = np.array([[a, b], [b, c]])
    cov.setflags(write=False)
    vecs = kernels.eigvecs2(a, b, c, lmax)
    vecs.setflags(write=False)
    return CovarianceSummary(
        mean=(float(mean.real), float(mean.imag)),
        cov=cov,
        eigenvalues=(float(lmax), float(lmin)),
        eigenvectors=vecs,
        condition_index=float(ci),
        degenerate=bool(degenerate),
    )


def coherent_mean(
    samples_per_unit: Iterable[ComplexSample],
    condition: Optional[str] = None,
) -> ComplexSample:
    """Collapse repetitions to one complex (vector) mean per unit.

    Each input sample holds one unit's repetitions; its unit label (first
    entry of ``unit_labels``, if present) identifies the unit in the output.
    Averaging is coherent: phases are preserved, so repetitions with opposed
    phases cancel instead of adding as amplitudes would. Each mean is
    ``unit_mean``, the rule ``ingest.build_dataset`` uses too.
    """
    means = []
    labels = []
    cond = condition
    for i, s in enumerate(samples_per_unit):
        if s.n == 0:
            raise EmptyUnit(f"unit at position {i} has no observations")
        means.append(unit_mean(s.observations))
        labels.append(s.unit_labels[0] if s.unit_labels else str(i))
        if cond is None and s.condition_label:
            cond = s.condition_label
    if not means:
        raise EmptyUnit("no units supplied")
    return ComplexSample(means, cond or "", tuple(labels))
