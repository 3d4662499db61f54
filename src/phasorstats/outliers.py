"""Mahalanobis-distance outlier screening and the pairwise effect size.

The distance of an observation from its sample mean, scaled by the
covariance in that direction, flags multivariate outliers; values above 3
are the bivariate analogue of points more than 3 standard deviations out.
Between two group means the same construction with a pooled covariance
gives a multivariate analogue of Cohen's d (Del Giudice, 2009).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import ComplexSample, Design, GroupedDataset, UNIT_ALIGNED_DESIGNS
from .exceptions import DegenerateCovariance, DomainError, TooFewObservations

DEFAULT_THRESHOLD = 3.0


@dataclass(frozen=True)
class OutlierReport:
    """Per-observation distances for one condition's sample."""

    condition: str
    distances: tuple[float, ...]
    flagged: tuple[int, ...]
    threshold: float

    @property
    def flagged_count(self) -> int:
        return len(self.flagged)


@dataclass(frozen=True)
class ScreeningReport:
    """Outcome of screening a whole dataset.

    ``excluded_units`` is filled for unit-aligned designs (whole units are
    removed from every condition); independent designs remove flagged
    observations one by one and leave it empty.
    """

    per_condition: tuple[OutlierReport, ...]
    excluded_units: tuple[str, ...]
    threshold: float

    @property
    def n_flagged(self) -> int:
        return sum(r.flagged_count for r in self.per_condition)


def mahalanobis_distances(
    sample: ComplexSample, threshold: float = DEFAULT_THRESHOLD
) -> OutlierReport:
    """Distance of each observation from the sample mean, as D (not D^2).

    Raises DegenerateCovariance when the covariance cannot be inverted and
    TooFewObservations below N = 3.
    """
    if not threshold > 0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    if sample.n < 3:
        raise TooFewObservations(
            f"Mahalanobis distances need >= 3 observations, got {sample.n}"
        )
    m, a, b, c = kernels.covariance(sample.observations)
    if kernels.degenerate(a, b, c):
        raise DegenerateCovariance(
            f"covariance of condition {sample.condition_label!r} is degenerate"
        )
    z = sample.observations - m
    d = np.sqrt(np.maximum(kernels.quadform_inv(a, b, c, z.real, z.imag), 0.0))
    return OutlierReport(
        condition=sample.condition_label,
        distances=tuple(float(x) for x in d),
        flagged=tuple(int(i) for i in np.nonzero(d > threshold)[0]),
        threshold=threshold,
    )


def exclude_outliers(
    dataset: GroupedDataset, threshold: float = DEFAULT_THRESHOLD
) -> tuple[GroupedDataset, ScreeningReport]:
    """Single-pass outlier screening of every condition.

    Distances are computed once per condition with all points included
    (no re-screening of the reduced data). In unit-aligned designs any unit
    that contributes at least one flagged observation is removed from all
    conditions; otherwise flagged observations are dropped individually.
    Conditions too small (N < 3) or degenerate are left unscreened.
    """
    reports = []
    for s in dataset.samples:
        try:
            reports.append(mahalanobis_distances(s, threshold))
        except (TooFewObservations, DegenerateCovariance):
            reports.append(
                OutlierReport(s.condition_label, tuple(), tuple(), threshold)
            )
    unit_level = dataset.design in UNIT_ALIGNED_DESIGNS or (
        dataset.design is Design.ONE_SAMPLE
        and dataset.samples[0].unit_labels is not None
    )
    if unit_level:
        excluded: set[str] = set()
        for s, rep in zip(dataset.samples, reports):
            excluded.update(s.unit_labels[i] for i in rep.flagged)
        new_samples = []
        for s in dataset.samples:
            keep = [i for i, u in enumerate(s.unit_labels) if u not in excluded]
            new_samples.append(s.subset(keep))
        # preserve input order of the first condition's labels
        ordered = tuple(
            u for u in dataset.samples[0].unit_labels if u in excluded
        )
        report = ScreeningReport(tuple(reports), ordered, threshold)
    else:
        new_samples = []
        for s, rep in zip(dataset.samples, reports):
            keep = [i for i in range(s.n) if i not in rep.flagged]
            new_samples.append(s.subset(keep))
        report = ScreeningReport(tuple(reports), tuple(), threshold)
    if any(s.n == 0 for s in new_samples):
        warnings.warn("outlier screening removed every observation of a condition")
    screened = GroupedDataset(tuple(new_samples), dataset.design, dataset.mu)
    return screened, report


def pairwise_mahalanobis(a: ComplexSample, b: ComplexSample) -> float:
    """Distance between two group means in pooled-covariance units: a
    multivariate Cohen's d, ``kernels.pairwise_mahalanobis`` on a batch of
    one. Raises DegenerateCovariance where that is ``bad`` (a difference
    across the degenerate axis of a degenerate pooled covariance).
    """
    if a.n < 3 or b.n < 3:
        raise TooFewObservations(
            f"pairwise distance needs >= 3 observations per group, "
            f"got {a.n} and {b.n}"
        )
    d, bad = kernels.pairwise_mahalanobis(a.observations, b.observations)
    if bad:
        raise DegenerateCovariance(
            "mean difference has a component along the degenerate axis"
        )
    return float(d)
