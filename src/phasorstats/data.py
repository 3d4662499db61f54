"""Data model for complex Fourier components grouped by experimental condition.

An observation is one Fourier coefficient, held as a complex number.
Samples store observations as a read-only complex array; all operations on
them are pure functions, so everything here is safe to share across
concurrently running simulation workers.
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
    """Coerce observations to a 1-d complex128 array.

    Accepts a complex array, an (N, 2) real array of (re, im) columns, or
    a sequence of complex (or real) numbers; MalformedInput for anything
    else, or for a non-finite value.
    """
    arr = np.asarray(observations)
    pairs = arr.ndim == 2 and arr.shape[1] == 2
    if pairs and np.iscomplexobj(arr):
        if np.any(arr.imag != 0.0):
            raise MalformedInput(
                "(N, 2) observation arrays must hold real (re, im) columns"
            )
        arr = arr.real
    try:
        arr = np.asarray(arr, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(str(exc)) from None
    if pairs:
        arr = arr[:, 0].real + 1j * arr[:, 1].real
    if arr.ndim != 1:
        raise MalformedInput("observations must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr.real) & np.isfinite(arr.imag)):
        raise MalformedInput("observations must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class ComplexSample:
    """Ordered observations of one condition, optionally labelled by unit.

    Parameters
    ----------
    observations :
        Complex values, or any form accepted by ``_coerce_observations``.
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
            labels = tuple(str(u) for u in self.unit_labels)
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


def _check_alignable(samples: Sequence[ComplexSample]) -> None:
    reference = None
    for s in samples:
        if s.unit_labels is None:
            raise LabelMismatch(
                f"condition {s.condition_label!r} has no unit labels; "
                "within-unit designs require them"
            )
        if len(set(s.unit_labels)) != len(s.unit_labels):
            raise LabelMismatch(
                f"condition {s.condition_label!r} has duplicate unit labels"
            )
        if reference is None:
            reference = set(s.unit_labels)
        elif set(s.unit_labels) != reference:
            raise LabelMismatch(
                f"condition {s.condition_label!r} does not share unit labels "
                "with the first condition"
            )


@dataclass(frozen=True, eq=False)
class GroupedDataset:
    """Samples for one analysis, with the design and comparison point.

    MalformedInput for an unknown design or a number of samples that does
    not fit it; DomainError for a mu that is not a finite complex number.
    """

    samples: tuple[ComplexSample, ...]
    design: Design
    mu: complex = 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
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
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Observations as a (k, N) matrix aligned by unit label, plus the labels.

    Rows follow sample order; columns follow the first sample's unit order.
    Raises LabelMismatch unless every sample carries the same unique labels.
    """
    _check_alignable(samples)
    labels = samples[0].unit_labels
    out = np.empty((len(samples), len(labels)), dtype=np.complex128)
    for i, s in enumerate(samples):
        order = {u: j for j, u in enumerate(s.unit_labels)}
        out[i] = s.observations[[order[u] for u in labels]]
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
    n = sample.n
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
    phases cancel instead of adding as amplitudes would.
    """
    means = []
    labels = []
    cond = condition
    for i, s in enumerate(samples_per_unit):
        if s.n == 0:
            raise EmptyUnit(f"unit at position {i} has no observations")
        means.append(s.observations.mean())
        labels.append(s.unit_labels[0] if s.unit_labels else str(i))
        if cond is None and s.condition_label:
            cond = s.condition_label
    if not means:
        raise EmptyUnit("no units supplied")
    return ComplexSample(np.asarray(means), cond or "", tuple(labels))
