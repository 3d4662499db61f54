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

Each test's contract is declared once in this module, as a ``Contract``
(``T2``, ``T2_TWO_SAMPLE``, ``T2CIRC``, ``T2CIRC_TWO_SAMPLE``, ``CI_TEST``,
``ANOVA2CIRC``, ``ANOVA2CIRC_REPEATED``, ``MANOVA``): its batched kernel
from ``kernels``, its minimum observations per group, and the typed error
and message raised where the kernel marks a sample ``bad``. The scalar
tests below run it on a batch of one; ``simulate`` and ``clusters`` read
the same declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import checks, kernels
from .data import ComplexSample, align_units
from .distributions import ConditionIndexDistribution, f_sf
from .exceptions import (
    DegenerateCovariance,
    PhasorStatsError,
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


@dataclass(frozen=True)
class Contract:
    """One test's contract, declared once below for the scalar test, the
    Monte Carlo harness (``simulate``) and the cluster test (``clusters``):
    the batched kernel (``kernels``), the fewest observations per group it
    can test, and the error raised where the kernel marks a sample ``bad``.

    A ``k_group`` kernel takes its k >= 2 groups as one argument; the
    others take the sample, or the two samples, as arguments of their own.
    MANOVA also needs more than k + ``spare`` observations in all, and its
    results carry the name of its statistic, ``statistic_name``.
    """

    name: str
    kernel: Callable
    min_n: int
    error: type[PhasorStatsError]
    message: str
    k_group: bool = False
    spare: int = 0
    statistic_name: str = ""

    def check(self, sizes: Sequence[int]) -> None:
        """TooFewGroups or TooFewObservations unless groups of these sizes
        can be tested."""
        k, total = len(sizes), sum(sizes)
        if self.k_group and k < 2:
            raise TooFewGroups(f"{self.name} needs >= 2 groups, got {k}")
        if min(sizes) < self.min_n:
            raise TooFewObservations(f"{self.name} needs >= {self.min_n} "
                                     f"observations per group, got {min(sizes)}")
        if total <= k + self.spare:
            raise TooFewObservations(f"{self.name} needs total N > k + "
                                     f"{self.spare}, got N={total}, k={k}")

    def run(self, *args, at: str = ""):
        """The kernel on a batch; ``error`` where it marks a sample ``bad``,
        its message prefixed by ``at`` formatted with the flat index of the
        first such sample (the cluster test's ``"node {}: "``)."""
        result = self.kernel(*args)
        bad = np.flatnonzero(result[-1])
        if bad.size:
            raise self.error(at.format(bad[0]) + self.message)
        return result


T2 = Contract("T2", kernels.t2_one_sample, 3, DegenerateCovariance,
              "sample covariance is degenerate")
T2_TWO_SAMPLE = Contract("T2", kernels.t2_two_sample, 3, DegenerateCovariance,
                         "pooled covariance is degenerate")
T2CIRC = Contract("T2circ", kernels.t2circ_one_sample, 2, ZeroResidualVariance,
                  "all observations coincide")
T2CIRC_TWO_SAMPLE = replace(T2CIRC, kernel=kernels.t2circ_two_sample)
CI_TEST = Contract("CI_test", kernels.condition_index, 3, DegenerateCovariance,
                   "sample covariance is degenerate")
ANOVA2CIRC = Contract("ANOVA2circ", kernels.anova2circ_independent, 2,
                      ZeroResidualVariance, "residual variation is zero",
                      k_group=True)
ANOVA2CIRC_REPEATED = replace(ANOVA2CIRC, kernel=kernels.anova2circ_repeated)
MANOVA = Contract("MANOVA", kernels.manova_oneway, 2, SingularWithinScatter,
                  "within-group scatter matrix is singular", k_group=True,
                  spare=2, statistic_name="MANOVA_pillai")


def _f_result(contract: Contract, sizes: tuple[int, ...], *args,
              effect_size: Optional[float] = None) -> TestResult:
    """The F test ``contract`` on groups of these sizes, its kernel run on
    ``args``."""
    contract.check(sizes)
    statistic, f, df, _ = contract.run(*args)
    return TestResult(contract.statistic_name or contract.name,
                      float(statistic), float(f), df,
                      f_sf(f, df[0], df[1]), effect_size, sizes)


# ---------------------------------------------------------------------------
# One-sample tests
# ---------------------------------------------------------------------------

def t2_one_sample(sample: ComplexSample, mu: complex = 0j) -> TestResult:
    """Hotelling's T^2 of one sample against the comparison point mu.

    T^2 = N (xbar - mu)' C^{-1} (xbar - mu); F = T^2 (N-2) / (2(N-1)) with
    (2, N-2) degrees of freedom.
    """
    return _f_result(T2, (sample.n,), sample.observations, checks.as_complex(mu))


def t2circ_one_sample(sample: ComplexSample, mu: complex = 0j) -> TestResult:
    """T^2_circ of one sample against mu, assuming circular scatter.

    T^2_circ = (N-1) |xbar - mu|^2 / sum |x_j - xbar|^2; under the null
    F = N * T^2_circ follows F(2, 2N-2). No covariance term: the real and
    imaginary parts are assumed uncorrelated with equal variance.
    """
    return _f_result(T2CIRC, (sample.n,), sample.observations, checks.as_complex(mu))


def ci_test(sample: ComplexSample) -> TestResult:
    """Condition-index test of the T^2_circ assumptions for one sample.

    The observed sqrt(lambda_max / lambda_min) is referred to its null
    distribution for the sample size (``modified`` variant); a significant
    result means the assumptions of uncorrelated, equal-variance components
    are violated and the covariance-aware tests should be used instead.
    """
    n = sample.n
    CI_TEST.check((n,))
    ci, _ = CI_TEST.run(sample.observations)
    p = ConditionIndexDistribution(n=n, variant="modified").sf(ci)
    return TestResult(CI_TEST.name, float(ci), None, None, p, None, (n,))


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
    return _f_result(T2_TWO_SAMPLE, (a.n, b.n), a.observations, b.observations,
                     effect_size=_safe_pairwise_d(a, b))


def t2circ_two_sample(a: ComplexSample, b: ComplexSample) -> TestResult:
    """Two-sample T^2_circ with pooled residual power.

    The statistic scales the squared mean difference by the pooled residual
    sum from both groups with multiplier (Na + Nb - 2); the harmonic sample
    size Na Nb / (Na + Nb) converts it to F with (2, 2(Na + Nb - 2)) degrees
    of freedom. For two equal groups it coincides with the k = 2 one-way
    ANOVA^2_circ.
    """
    return _f_result(T2CIRC_TWO_SAMPLE, (a.n, b.n), a.observations,
                     b.observations, effect_size=_safe_pairwise_d(a, b))


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

def anova2circ_independent(groups: Sequence[ComplexSample]) -> TestResult:
    """One-way independent ANOVA^2_circ over k groups.

    Model mean square: sum_k N_k |xbar_k - xbar_grand|^2 over df_M = 2(k-1).
    Residual mean square: sum of squared vector distances of each point from
    its group mean over df_R = 2(sum N_k - k). F = MS_M / MS_R.
    """
    groups = list(groups)
    return _f_result(ANOVA2CIRC, tuple(g.n for g in groups),
                     [g.observations for g in groups])


def anova2circ_repeated(groups: Sequence[ComplexSample]) -> TestResult:
    """Repeated-measures ANOVA^2_circ over k within-unit conditions.

    Per-unit complex means (subject effects) are removed before computing
    residuals: the residual term is the condition-by-unit interaction.
    df = (2(k-1), 2(N-1)(k-1)). For k = 2 this reduces exactly to the
    paired T^2_circ test.
    """
    groups = list(groups)
    sizes = tuple(g.n for g in groups)
    ANOVA2CIRC_REPEATED.check(sizes)  # before align_units, which needs a group
    return _f_result(ANOVA2CIRC_REPEATED, sizes, align_units(groups)[0])


def manova_oneway(groups: Sequence[ComplexSample]) -> TestResult:
    """One-way MANOVA on the two Fourier components, via Pillai's trace.

    Between- and within-group scatter matrices are formed on the (re, im)
    responses; Pillai's trace V = sum lambda / (1 + lambda) over the
    eigenvalues of W^{-1} B, converted to F with the standard approximation.
    For k = 2 the p-value equals the two-sample T^2 p-value.
    """
    groups = list(groups)
    return _f_result(MANOVA, tuple(g.n for g in groups),
                     [g.observations for g in groups])
