"""Mahalanobis-distance outlier screening and the pairwise effect size.

The distance of an observation from its sample mean, scaled by the
covariance in that direction, flags multivariate outliers; values above 3
are the bivariate analogue of points more than 3 standard deviations out.
Between two group means the same construction with a pooled covariance
gives a multivariate analogue of Cohen's d (Del Giudice, 2009).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checks, inference
from .data import ComplexSample, Design, GroupedDataset, UNIT_ALIGNED_DESIGNS
from .exceptions import DegenerateCovariance, TooFewObservations
from .records import Record

DEFAULT_THRESHOLD = 3.0


@dataclass(frozen=True)
class OutlierReport(Record):
    """Per-observation distances for one condition's sample."""

    condition: str
    distances: tuple[float, ...]
    flagged: tuple[int, ...]
    threshold: float


@dataclass(frozen=True)
class ConditionScreening(Record):
    """What screening flagged in one condition: indices into the sample as
    it was before screening and, where it has unit labels, their units."""

    condition: str
    n_before: int
    flagged_indices: tuple[int, ...]
    flagged_units: tuple[str, ...]


@dataclass(frozen=True)
class ScreeningReport(Record):
    """Outcome of screening a whole dataset.

    ``excluded_units`` is filled for unit-aligned designs (whole units are
    removed from every condition); independent designs remove flagged
    observations one by one and leave it empty.
    """

    threshold: float
    excluded_units: tuple[str, ...]
    per_condition: tuple[ConditionScreening, ...]

    @property
    def n_flagged(self) -> int:
        return sum(len(c.flagged_indices) for c in self.per_condition)


def mahalanobis_distances(
    sample: ComplexSample, threshold: float = DEFAULT_THRESHOLD
) -> OutlierReport:
    """Distance of each observation from the sample mean, as D (not D^2):
    ``kernels.mahalanobis`` on a batch of one, with the preconditions and
    errors of T^2 (``inference.MAHALANOBIS``)."""
    checks.real("threshold", threshold, lambda v: v > 0, "positive")
    X = inference._observations("sample", sample)
    inference.MAHALANOBIS.check([X.size])
    d = inference.MAHALANOBIS.run(X)[0]
    flagged = np.flatnonzero(d > threshold)
    return OutlierReport(sample.condition_label, tuple(d.tolist()),
                         tuple(flagged.tolist()), threshold)


def exclude_outliers(
    dataset: GroupedDataset, threshold: float = DEFAULT_THRESHOLD
) -> tuple[GroupedDataset, ScreeningReport]:
    """Single-pass outlier screening of every condition.

    Distances are computed once per condition with all points included
    (no re-screening of the reduced data), by ``inference.MAHALANOBIS``,
    the kernel of ``mahalanobis_distances``, and compared with the
    threshold, which is checked once. In unit-aligned designs any unit
    that contributes at least one flagged observation is removed from all
    conditions; otherwise flagged observations are dropped individually.
    Conditions too small (N < 3) or degenerate are left unscreened. A
    sample screening leaves whole is kept as it is, and so is the dataset
    where every sample is. A condition may be left empty: the report's
    ``n_before`` and flagged indices record it, and ``run_flowchart``
    refuses it by name.
    """
    checks.instance("dataset", dataset, GroupedDataset)
    checks.real("threshold", threshold, lambda v: v > 0, "positive")
    per_condition = []
    for s in dataset.samples:
        try:
            inference.MAHALANOBIS.check([s.n])
            d = inference.MAHALANOBIS.run(s.observations)[0]
            flagged = tuple(np.flatnonzero(d > threshold).tolist())
        except (TooFewObservations, DegenerateCovariance):
            flagged = ()
        units = tuple(s.unit_labels[i] for i in flagged) if s.unit_labels else ()
        per_condition.append(
            ConditionScreening(s.condition_label, s.n, flagged, units)
        )
    unit_level = dataset.design in UNIT_ALIGNED_DESIGNS or (
        dataset.design is Design.ONE_SAMPLE
        and dataset.samples[0].unit_labels is not None
    )
    if unit_level:
        excluded = {u for c in per_condition for u in c.flagged_units}
        keeps = [[i for i, u in enumerate(s.unit_labels) if u not in excluded]
                 for s in dataset.samples]
        # preserve input order of the first condition's labels
        excluded_units = tuple(
            u for u in dataset.samples[0].unit_labels if u in excluded
        )
    else:
        keeps = [[i for i in range(s.n) if i not in c.flagged_indices]
                 for s, c in zip(dataset.samples, per_condition)]
        excluded_units = ()
    new_samples = tuple(s if len(keep) == s.n else s.subset(keep)
                        for s, keep in zip(dataset.samples, keeps))
    screened = dataset if new_samples == dataset.samples else GroupedDataset(
        new_samples, dataset.design, dataset.mu)
    return screened, ScreeningReport(threshold, excluded_units, tuple(per_condition))


def pairwise_mahalanobis(a: ComplexSample, b: ComplexSample) -> float:
    """Distance between two group means in pooled-covariance units: a
    multivariate Cohen's d, ``kernels.pairwise_mahalanobis`` on a batch of
    one under ``inference.PAIRWISE``: DegenerateCovariance where that is
    ``bad`` (a difference across the degenerate axis of a degenerate pooled
    covariance), TooFewObservations below 3 observations in a group.
    """
    pair = (inference._observations("a", a), inference._observations("b", b))
    inference.PAIRWISE.check([x.size for x in pair])
    return float(inference.PAIRWISE.run(*pair)[0])
