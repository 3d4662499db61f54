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
from ``kernels``, its minimum observations per group, its error where the
kernel marks a sample ``bad``, its p-value rule and the one builder of
``TestResult`` records. The scalar tests below build theirs on a batch of
one, ``clusters`` builds its node records, and ``simulate`` takes p-values.
``ELLIPSE``, ``MAHALANOBIS`` (both T2's precondition on another kernel)
and ``PAIRWISE`` serve ``amplitude``, ``outliers`` and the effect sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Callable, Optional, Sequence

import numpy as np

from . import checks, kernels
from .data import ComplexSample, align_units
from .distributions import ConditionIndexDistribution, f_sf
from .exceptions import (
    DegenerateCovariance,
    MalformedInput,
    PhasorStatsError,
    SingularWithinScatter,
    TooFewGroups,
    TooFewObservations,
    ZeroResidualVariance,
)
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
    """The contract of one batched kernel (``kernels``), declared once
    below: the fewest observations per group it takes and the error raised
    where it marks a sample ``bad`` (``check``, ``run``). A test's contract
    adds the p-value rule (``p_values``) and the record builder
    (``results``) for the scalar test, ``simulate`` and ``clusters``.

    A ``k_group`` kernel takes its k >= 2 groups as one argument, a list
    or the stacked (..., k, n) array; the others take the sample, or the
    two samples, as arguments of their own.
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
        if result[-1].any():
            raise self.error(at.format(np.flatnonzero(result[-1])[0]) + self.message)
        return result

    def p_values(self, result, n: int):
        """The p-value of each sample of a kernel ``result``: the upper F
        tail f_sf(F, *df), or for ``CI_TEST`` the null tail of the condition
        index on samples of n observations (``modified`` variant)."""
        if self is CI_TEST:
            return ConditionIndexDistribution(n, "modified").sf(result[0])
        return f_sf(result[1], *result[2])

    def results(self, *args, pair=(), at: str = "") -> tuple[TestResult, ...]:
        """One TestResult per sample of ``args``, a batch of one or a 1-d
        batch, from ``check`` of the group sizes (the last axis of each
        group), ``run`` and ``p_values``. F and df are None for ``CI_TEST``;
        every effect size is None unless ``pair`` holds two batches to
        measure (``_effect_sizes``)."""
        groups = args[0] if self.k_group else args
        sizes = tuple(g.shape[-1] for g in groups if isinstance(g, np.ndarray))
        self.check(sizes)
        result = self.run(*args, at=at)
        f, df = ((), None) if self is CI_TEST else result[1:3]
        columns = (result[0], f, self.p_values(result, sizes[0]))
        effect = _effect_sizes(*pair) if pair else []
        # one row per sample: an empty column gives None in every row
        rows = zip_longest(*(np.array(c, ndmin=1).tolist() for c in columns), effect)
        name = self.statistic_name or self.name
        return tuple(TestResult(name, t, fv, df, p, e, sizes) for t, fv, p, e in rows)


T2 = Contract("T2", kernels.t2_one_sample, 3, DegenerateCovariance,
              "sample covariance is degenerate")
T2_TWO_SAMPLE = replace(T2, kernel=kernels.t2_two_sample,
                        message="pooled covariance is degenerate")
T2CIRC = Contract("T2circ", kernels.t2circ_one_sample, 2, ZeroResidualVariance,
                  "all observations coincide")
T2CIRC_TWO_SAMPLE = replace(T2CIRC, kernel=kernels.t2circ_two_sample)
CI_TEST = replace(T2, name="CI_test", kernel=kernels.condition_index)
ELLIPSE = replace(T2, name="ellipse", kernel=kernels.spectrum)
MAHALANOBIS = replace(T2, name="Mahalanobis distance", kernel=kernels.mahalanobis)
PAIRWISE = Contract("pairwise distance", kernels.pairwise_mahalanobis, 3,
                    DegenerateCovariance,
                    "mean difference has a component along the degenerate axis")
ANOVA2CIRC = Contract("ANOVA2circ", kernels.anova2circ_independent, 2,
                      ZeroResidualVariance, "residual variation is zero",
                      k_group=True)
ANOVA2CIRC_REPEATED = replace(ANOVA2CIRC, kernel=kernels.anova2circ_repeated)
MANOVA = Contract("MANOVA", kernels.manova_oneway, 2, SingularWithinScatter,
                  "within-group scatter matrix is singular", k_group=True,
                  spare=2, statistic_name="MANOVA_pillai")


def _effect_sizes(A: np.ndarray, B: np.ndarray) -> list[Optional[float]]:
    """The pairwise Mahalanobis distance of each pair of samples of A and B
    (``kernels.pairwise_mahalanobis``), None where the kernel marks the pair
    ``bad``; none at all (every effect size None) below ``PAIRWISE``'s
    minimum of observations in a group."""
    if min(A.shape[-1], B.shape[-1]) < PAIRWISE.min_n:
        return []
    d, bad = PAIRWISE.kernel(A, B)
    return np.where(bad, None, d).ravel().tolist()


def _observations(name: str, sample) -> np.ndarray:
    """The observations of the argument ``name``; DomainError naming it and
    its type unless it is a ComplexSample."""
    return checks.instance(name, sample, ComplexSample).observations


# ---------------------------------------------------------------------------
# One-sample tests
# ---------------------------------------------------------------------------

def t2_one_sample(sample: ComplexSample, mu: complex = 0j) -> TestResult:
    """Hotelling's T^2 of one sample against the comparison point mu.

    T^2 = N (xbar - mu)' C^{-1} (xbar - mu); F = T^2 (N-2) / (2(N-1)) with
    (2, N-2) degrees of freedom.
    """
    return T2.results(_observations("sample", sample),
                      checks.as_complex("mu", mu))[0]


def t2circ_one_sample(sample: ComplexSample, mu: complex = 0j) -> TestResult:
    """T^2_circ of one sample against mu, assuming circular scatter.

    T^2_circ = (N-1) |xbar - mu|^2 / sum |x_j - xbar|^2; under the null
    F = N * T^2_circ follows F(2, 2N-2). No covariance term: the real and
    imaginary parts are assumed uncorrelated with equal variance.
    """
    return T2CIRC.results(_observations("sample", sample),
                          checks.as_complex("mu", mu))[0]


def ci_test(sample: ComplexSample) -> TestResult:
    """Condition-index test of the T^2_circ assumptions for one sample.

    The observed sqrt(lambda_max / lambda_min) is referred to its null
    distribution for the sample size (``modified`` variant); a significant
    result means the assumptions of uncorrelated, equal-variance components
    are violated and the covariance-aware tests should be used instead.
    """
    return CI_TEST.results(_observations("sample", sample))[0]


# ---------------------------------------------------------------------------
# Two-sample and paired tests
# ---------------------------------------------------------------------------

def t2_two_sample(a: ComplexSample, b: ComplexSample) -> TestResult:
    """Two-sample Hotelling's T^2 with pooled covariance.

    df = (2, Na + Nb - 3); the pairwise Mahalanobis distance of the two
    means is attached as the effect size.
    """
    pair = (_observations("a", a), _observations("b", b))
    return T2_TWO_SAMPLE.results(*pair, pair=pair)[0]


def t2circ_two_sample(a: ComplexSample, b: ComplexSample) -> TestResult:
    """Two-sample T^2_circ with pooled residual power.

    The statistic scales the squared mean difference by the pooled residual
    sum from both groups with multiplier (Na + Nb - 2); the harmonic sample
    size Na Nb / (Na + Nb) converts it to F with (2, 2(Na + Nb - 2)) degrees
    of freedom. For two equal groups it coincides with the k = 2 one-way
    ANOVA^2_circ.
    """
    pair = (_observations("a", a), _observations("b", b))
    return T2CIRC_TWO_SAMPLE.results(*pair, pair=pair)[0]


def paired_results(contract: Contract, samples: Sequence[ComplexSample],
                   pairs: Sequence[tuple[int, int]]) -> tuple[TestResult, ...]:
    """The paired test of each pair (i, j) of indices into unit-aligned
    ``samples``, in one batch: the one-sample ``contract`` on the within-unit
    differences i - j vs 0, with the pairwise distance of i and j as its
    effect size.

    The samples are aligned once. Each pair's differences are in the unit
    order of its sample i, as a call on that pair alone takes them, so each
    result has the bits of that call. MalformedInput where a difference is
    not finite (it overflowed), as for any sample.
    """
    M, labels = align_units(samples)
    first, second = ([p[k] for p in pairs] for k in (0, 1))
    with np.errstate(over="ignore"):
        D = M[first] - M[second]
    position = None
    for row, i in enumerate(first):
        units = samples[i].unit_labels
        if units != labels:
            position = position or {u: c for c, u in enumerate(labels)}
            D[row] = D[row, [position[u] for u in units]]
    if not np.isfinite(D).all():
        raise MalformedInput("observations must be finite")
    A, B = (np.stack([samples[i].observations for i in side])
            for side in (first, second))
    return contract.results(D, 0j, pair=(A, B))


def _paired(contract: Contract, a: ComplexSample, b: ComplexSample) -> TestResult:
    """The one-sample ``contract`` on the within-unit differences vs 0, with
    the pairwise distance of a and b as its effect size."""
    pair = (checks.instance("a", a, ComplexSample),
            checks.instance("b", b, ComplexSample))
    return paired_results(contract, pair, [(0, 1)])[0]


def t2_paired(a: ComplexSample, b: ComplexSample) -> TestResult:
    """Paired T^2: one-sample T^2 of the within-unit differences vs 0."""
    return _paired(T2, a, b)


def t2circ_paired(a: ComplexSample, b: ComplexSample) -> TestResult:
    """Paired T^2_circ: one-sample T^2_circ of the differences vs 0."""
    return _paired(T2CIRC, a, b)


# ---------------------------------------------------------------------------
# k-group tests
# ---------------------------------------------------------------------------

def anova2circ_independent(groups: Sequence[ComplexSample]) -> TestResult:
    """One-way independent ANOVA^2_circ over k groups.

    Model mean square: sum_k N_k |xbar_k - xbar_grand|^2 over df_M = 2(k-1).
    Residual mean square: sum of squared vector distances of each point from
    its group mean over df_R = 2(sum N_k - k). F = MS_M / MS_R.
    """
    groups = checks.instances("groups", groups, ComplexSample)
    return ANOVA2CIRC.results([g.observations for g in groups])[0]


def anova2circ_repeated(groups: Sequence[ComplexSample]) -> TestResult:
    """Repeated-measures ANOVA^2_circ over k within-unit conditions.

    Per-unit complex means (subject effects) are removed before computing
    residuals: the residual term is the condition-by-unit interaction.
    df = (2(k-1), 2(N-1)(k-1)). For k = 2 this reduces exactly to the
    paired T^2_circ test.
    """
    groups = checks.instances("groups", groups, ComplexSample)
    ANOVA2CIRC_REPEATED.check([g.n for g in groups])  # align_units needs a group
    return ANOVA2CIRC_REPEATED.results(align_units(groups)[0])[0]


def manova_oneway(groups: Sequence[ComplexSample]) -> TestResult:
    """One-way MANOVA on the two Fourier components, via Pillai's trace.

    Between- and within-group scatter matrices are formed on the (re, im)
    responses; Pillai's trace V = sum lambda / (1 + lambda) over the
    eigenvalues of W^{-1} B, converted to F with the standard approximation.
    For k = 2 the p-value equals the two-sample T^2 p-value.
    """
    groups = checks.instances("groups", groups, ComplexSample)
    return MANOVA.results([g.observations for g in groups])[0]
