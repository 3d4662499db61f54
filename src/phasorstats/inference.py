"""Hypothesis tests for bivariate complex Fourier components.

Implemented statistics:

- Hotelling's T^2 (Hotelling, 1931): multivariate T-test using the inverse
  covariance matrix; one-sample, two-sample and paired variants.
- T^2_circ (Victor & Mast, 1991): drops the covariance term under the
  assumption of uncorrelated, equal-variance components, gaining degrees of
  freedom; same variants.
- Condition-index test: compares sqrt(lambda_max / lambda_min) of a sample's
  covariance against its null distribution to decide whether the T^2_circ
  assumptions hold.
- ANOVA^2_circ: one-way extension of T^2_circ to k conditions (independent
  or repeated measures) with doubled degrees of freedom.
- One-way MANOVA via Pillai's trace, the fallback when the condition-index
  test rejects in multi-group designs.

All p-values are upper-tail; the statistics are nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .data import ComplexSample, align_units
from .distributions import ConditionIndexDistribution, f_sf
from .exceptions import (
    DegenerateCovariance,
    SingularWithinScatter,
    TooFewGroups,
    TooFewObservations,
    ZeroResidualVariance,
)
from .outliers import pairwise_mahalanobis
from .records import Record


@dataclass(frozen=True)
class TestResult(Record):
    """Outcome of one hypothesis test.

    ``df`` and ``f_value`` are None for tests that are not F-based (the
    condition-index test). For F-based tests, MANOVA's Pillai F included,
    p_value == f_sf(f_value, *df) exactly, so far-tail p-values do not round
    to 0. ``effect_size`` carries the pairwise Mahalanobis distance where
    both groups are available.
    """

    statistic_name: str
    statistic: float
    f_value: Optional[float]
    df: Optional[tuple[int, int]]
    p_value: float
    effect_size: Optional[float] = None
    n_per_group: tuple[int, ...] = ()


def _f_result(
    name: str,
    statistic: float,
    f_value: float,
    df: tuple[int, int],
    effect_size: Optional[float],
    n_per_group: tuple[int, ...],
) -> TestResult:
    p = f_sf(f_value, df[0], df[1])
    return TestResult(name, float(statistic), float(f_value), df, p,
                      effect_size, n_per_group)


# ---------------------------------------------------------------------------
# One-sample tests
# ---------------------------------------------------------------------------

def t2_one_sample(sample: ComplexSample, mu: complex = 0j) -> TestResult:
    """Hotelling's T^2 of one sample against the comparison point mu.

    T^2 = N (xbar - mu)' C^{-1} (xbar - mu); F = T^2 (N-2) / (2(N-1)) with
    (2, N-2) degrees of freedom.
    """
    n = sample.n
    if n < 3:
        raise TooFewObservations(f"T2 needs >= 3 observations, got {n}")
    t2, f, df, bad = kernels.t2_one_sample(sample.observations, complex(mu))
    if bad:
        raise DegenerateCovariance("sample covariance is degenerate")
    return _f_result("T2", t2, f, df, None, (n,))


def t2circ_one_sample(sample: ComplexSample, mu: complex = 0j) -> TestResult:
    """T^2_circ of one sample against mu, assuming circular scatter.

    T^2_circ = (N-1) |xbar - mu|^2 / sum |x_j - xbar|^2; under the null
    F = N * T^2_circ follows F(2, 2N-2). No covariance term: the real and
    imaginary parts are assumed uncorrelated with equal variance.
    """
    n = sample.n
    if n < 2:
        raise TooFewObservations(f"T2circ needs >= 2 observations, got {n}")
    t2c, f, df, bad = kernels.t2circ_one_sample(sample.observations, complex(mu))
    if bad:
        raise ZeroResidualVariance("all observations coincide")
    return _f_result("T2circ", t2c, f, df, None, (n,))


def ci_test(sample: ComplexSample) -> TestResult:
    """Condition-index test of the T^2_circ assumptions for one sample.

    The observed sqrt(lambda_max / lambda_min) is referred to its null
    distribution for the sample size (``modified`` variant); a significant
    result means the assumptions of uncorrelated, equal-variance components
    are violated and the covariance-aware tests should be used instead.
    """
    n = sample.n
    if n < 3:
        raise TooFewObservations(f"condition-index test needs >= 3, got {n}")
    ci, bad = kernels.condition_index(sample.observations)
    if bad:
        raise DegenerateCovariance("sample covariance is degenerate")
    p = ConditionIndexDistribution(n=n, variant="modified").sf(ci)
    return TestResult("CI_test", float(ci), None, None, p, None, (n,))


# ---------------------------------------------------------------------------
# Two-sample and paired tests
# ---------------------------------------------------------------------------

def _safe_pairwise_d(a: ComplexSample, b: ComplexSample) -> Optional[float]:
    try:
        return pairwise_mahalanobis(a, b)
    except (TooFewObservations, DegenerateCovariance):
        return None


def t2_two_sample(a: ComplexSample, b: ComplexSample) -> TestResult:
    """Two-sample Hotelling's T^2 with pooled covariance.

    df = (2, Na + Nb - 3); the pairwise Mahalanobis distance of the two
    means is attached as the effect size.
    """
    na, nb = a.n, b.n
    if na < 3 or nb < 3:
        raise TooFewObservations(
            f"two-sample T2 needs >= 3 per group, got {na} and {nb}"
        )
    t2, f, df, bad = kernels.t2_two_sample(a.observations, b.observations)
    if bad:
        raise DegenerateCovariance("pooled covariance is degenerate")
    return _f_result("T2", t2, f, df, _safe_pairwise_d(a, b), (na, nb))


def t2circ_two_sample(a: ComplexSample, b: ComplexSample) -> TestResult:
    """Two-sample T^2_circ with pooled residual power.

    The statistic scales the squared mean difference by the pooled residual
    sum from both groups with multiplier (Na + Nb - 2); the harmonic sample
    size Na Nb / (Na + Nb) converts it to F with (2, 2(Na + Nb - 2)) degrees
    of freedom. For two equal groups it coincides with the k = 2 one-way
    ANOVA^2_circ.
    """
    na, nb = a.n, b.n
    if na < 2 or nb < 2:
        raise TooFewObservations(
            f"two-sample T2circ needs >= 2 per group, got {na} and {nb}"
        )
    t2c, f, df, bad = kernels.t2circ_two_sample(a.observations, b.observations)
    if bad:
        raise ZeroResidualVariance("all observations coincide")
    return _f_result("T2circ", t2c, f, df, _safe_pairwise_d(a, b), (na, nb))


def _paired_differences(a: ComplexSample, b: ComplexSample) -> ComplexSample:
    (va, vb), labels = align_units((a, b))
    return ComplexSample(va - vb, f"{a.condition_label}-{b.condition_label}",
                         labels)


def t2_paired(a: ComplexSample, b: ComplexSample) -> TestResult:
    """Paired T^2: one-sample T^2 of the within-unit differences vs 0."""
    res = t2_one_sample(_paired_differences(a, b), 0j)
    return replace(res, effect_size=_safe_pairwise_d(a, b))


def t2circ_paired(a: ComplexSample, b: ComplexSample) -> TestResult:
    """Paired T^2_circ: one-sample T^2_circ of the differences vs 0."""
    res = t2circ_one_sample(_paired_differences(a, b), 0j)
    return replace(res, effect_size=_safe_pairwise_d(a, b))


# ---------------------------------------------------------------------------
# k-group tests
# ---------------------------------------------------------------------------

def _check_groups(groups: Sequence[ComplexSample], min_n: int, what: str) -> None:
    if len(groups) < 2:
        raise TooFewGroups(f"{what} needs >= 2 groups, got {len(groups)}")
    for g in groups:
        if g.n < min_n:
            raise TooFewObservations(
                f"{what} needs >= {min_n} observations per group, "
                f"got {g.n} in condition {g.condition_label!r}"
            )


def anova2circ_independent(groups: Sequence[ComplexSample]) -> TestResult:
    """One-way independent ANOVA^2_circ over k groups.

    Model mean square: sum_k N_k |xbar_k - xbar_grand|^2 over df_M = 2(k-1).
    Residual mean square: sum of squared vector distances of each point from
    its group mean over df_R = 2(sum N_k - k). F = MS_M / MS_R.
    """
    groups = list(groups)
    _check_groups(groups, 2, "ANOVA2circ")
    _, f, df, bad = kernels.anova2circ_independent(
        [g.observations for g in groups]
    )
    if bad:
        raise ZeroResidualVariance("residual variation is zero")
    return _f_result("ANOVA2circ", f, f, df, None, tuple(g.n for g in groups))


def anova2circ_repeated(groups: Sequence[ComplexSample]) -> TestResult:
    """Repeated-measures ANOVA^2_circ over k within-unit conditions.

    Per-unit complex means (subject effects) are removed before computing
    residuals: the residual term is the condition-by-unit interaction.
    df = (2(k-1), 2(N-1)(k-1)). For k = 2 this reduces exactly to the
    paired T^2_circ test.
    """
    groups = list(groups)
    _check_groups(groups, 2, "ANOVA2circ")
    matrix, _ = align_units(groups)
    k, n = matrix.shape
    if n < 2:
        raise TooFewObservations("repeated-measures ANOVA2circ needs >= 2 units")
    cond_means = matrix.mean(axis=1, keepdims=True)
    unit_means = matrix.mean(axis=0, keepdims=True)
    grand = matrix.mean()
    resid = matrix - cond_means - unit_means + grand
    ss_model = float(n * (np.abs(cond_means[:, 0] - grand) ** 2).sum())
    ss_resid = float((np.abs(resid) ** 2).sum())
    ss_total = float((np.abs(matrix - grand) ** 2).sum())
    df_m = 2 * (k - 1)
    df_r = 2 * (n - 1) * (k - 1)
    f, bad = kernels.f_ratio(ss_model, df_m, ss_resid, df_r, ss_total)
    if bad:
        raise ZeroResidualVariance("residual variation is zero")
    return _f_result("ANOVA2circ", f, f, (df_m, df_r), None,
                     tuple(g.n for g in groups))


def manova_oneway(groups: Sequence[ComplexSample]) -> TestResult:
    """One-way MANOVA on the two Fourier components, via Pillai's trace.

    Between- and within-group scatter matrices are formed on the (re, im)
    responses; Pillai's trace V = sum lambda / (1 + lambda) over the
    eigenvalues of W^{-1} B, converted to F with the standard approximation.
    For k = 2 the p-value equals the two-sample T^2 p-value.
    """
    groups = list(groups)
    _check_groups(groups, 2, "MANOVA")
    k = len(groups)
    total_n = sum(g.n for g in groups)
    if total_n <= k + 2:
        raise TooFewObservations(
            f"MANOVA needs total N > k + 2, got N={total_n}, k={k}"
        )
    trace, f, df, singular = kernels.manova_oneway(
        [g.observations for g in groups]
    )
    if singular:
        raise SingularWithinScatter("within-group scatter matrix is singular")
    return _f_result("MANOVA_pillai", trace, f, df, None,
                     tuple(g.n for g in groups))
