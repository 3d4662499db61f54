"""Full-analysis reports driven by the test-selection flowchart.

The decision structure: screen outliers, then test every condition's
scatter with the condition-index test. If no condition rejects, the
circular-variant statistics (T^2_circ / ANOVA^2_circ) are used; otherwise
the covariance-aware ones (T^2 / MANOVA). Significant multi-group results
are followed by pairwise post-hoc tests at a Bonferroni-adjusted level,
with pairwise Mahalanobis distances as effect sizes.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__, checks
from .amplitude import AmplitudeSummary, amp_ci_bootstrap, amp_errors_ellipse
from .data import (
    ComplexSample,
    Design,
    GroupedDataset,
    covariance_summary,
)
from .exceptions import DegenerateCovariance, MalformedInput, TooFewObservations
from .inference import (
    TestResult,
    anova2circ_independent,
    anova2circ_repeated,
    ci_test,
    manova_oneway,
    t2_one_sample,
    t2_paired,
    t2_two_sample,
    t2circ_one_sample,
    t2circ_paired,
    t2circ_two_sample,
)
from .outliers import DEFAULT_THRESHOLD, ScreeningReport, exclude_outliers
from .records import Record


@dataclass(frozen=True)
class ConditionSummary(Record):
    """Scatter summary and assumption test for one condition."""

    condition: str
    n: int
    mean_re: float
    mean_im: float
    amplitude: float
    phase: float
    covariance: tuple[tuple[float, float], tuple[float, float]]
    eigenvalues: tuple[float, float]
    condition_index: Optional[float]
    degenerate: bool
    ci_p_value: Optional[float]


@dataclass(frozen=True)
class PosthocResult(Record):
    pair: tuple[str, str]
    result: TestResult
    alpha_adjusted: float
    significant: bool


@dataclass(frozen=True)
class AmplitudeEntry(Record):
    condition: str
    ellipse: AmplitudeSummary
    bootstrap: AmplitudeSummary


@dataclass(frozen=True)
class Provenance(Record):
    input_sha256: str
    seed: int
    version: str


@dataclass(frozen=True)
class AnalysisReport(Record):
    """Everything one analysis produced, reproducible from its provenance."""

    design: str
    alpha: float
    mu: tuple[float, float]
    branch: str
    flowchart_leaf: str
    rationale: str
    conditions: tuple[ConditionSummary, ...]
    screening: Optional[ScreeningReport]
    primary: TestResult
    posthoc: tuple[PosthocResult, ...]
    n_comparisons: int
    amplitudes: tuple[AmplitudeEntry, ...]
    provenance: Provenance


def _summarize_condition(sample: ComplexSample) -> ConditionSummary:
    summary = covariance_summary(sample)
    try:
        ci_p = ci_test(sample).p_value
    except (TooFewObservations, DegenerateCovariance):
        ci_p = None
    amp = abs(summary.mean_complex)
    return ConditionSummary(
        condition=sample.condition_label,
        n=sample.n,
        mean_re=summary.mean[0],
        mean_im=summary.mean[1],
        amplitude=amp,
        phase=math.atan2(summary.mean[1], summary.mean[0]),
        covariance=tuple(tuple(float(x) for x in row) for row in summary.cov),
        eigenvalues=(float(summary.eigenvalues[0]), float(summary.eigenvalues[1])),
        condition_index=(
            None if summary.degenerate else float(summary.condition_index)
        ),
        degenerate=summary.degenerate,
        ci_p_value=ci_p,
    )


def _decide_branch(
    conditions: Sequence[ConditionSummary], alpha: float
) -> tuple[str, str]:
    """Branch plus rationale, a pure function of the CI p-values."""
    violated = [c.condition for c in conditions if c.degenerate]
    p_values = [c.ci_p_value for c in conditions if c.ci_p_value is not None]
    violated += [
        c.condition
        for c in conditions
        if c.ci_p_value is not None and c.ci_p_value < alpha
    ]
    untestable = [
        c.condition
        for c in conditions
        if c.ci_p_value is None and not c.degenerate
    ]
    if violated:
        rationale = (
            f"condition-index test rejects for condition(s) "
            f"{', '.join(sorted(set(violated)))} at alpha = {alpha:g}; "
            "covariance-aware branch"
        )
        return "classic", rationale
    detail = (
        f"min p = {min(p_values):.4g} >= alpha = {alpha:g}"
        if p_values
        else "no condition large enough to test"
    )
    rationale = (
        f"condition-index test non-significant for all conditions ({detail}); "
        "circular-variant branch"
    )
    if untestable and p_values:
        rationale += (
            f"; condition(s) {', '.join(untestable)} too small to test"
        )
    return "circ", rationale


#: Each flowchart leaf, keyed by (design, branch): its name and the call of
#: its test on the samples and mu. The two-group leaves also serve as the
#: post-hoc tests of the one-way designs, on the design of _PAIR_DESIGN.
_LEAVES = {
    (Design.ONE_SAMPLE, "circ"):
        ("one_sample_t2circ", lambda s, mu: t2circ_one_sample(s[0], mu)),
    (Design.ONE_SAMPLE, "classic"):
        ("one_sample_t2", lambda s, mu: t2_one_sample(s[0], mu)),
    (Design.TWO_SAMPLE_INDEPENDENT, "circ"):
        ("two_sample_t2circ", lambda s, mu: t2circ_two_sample(*s)),
    (Design.TWO_SAMPLE_INDEPENDENT, "classic"):
        ("two_sample_t2", lambda s, mu: t2_two_sample(*s)),
    (Design.PAIRED, "circ"): ("paired_t2circ", lambda s, mu: t2circ_paired(*s)),
    (Design.PAIRED, "classic"): ("paired_t2", lambda s, mu: t2_paired(*s)),
    (Design.ONEWAY_INDEPENDENT, "circ"):
        ("anova2circ_independent", lambda s, mu: anova2circ_independent(s)),
    (Design.ONEWAY_INDEPENDENT, "classic"):
        ("manova", lambda s, mu: manova_oneway(s)),
    (Design.ONEWAY_REPEATED, "circ"):
        ("anova2circ_repeated", lambda s, mu: anova2circ_repeated(s)),
    # no repeated-measures MANOVA variant here; the one-way Pillai test is
    # the documented fallback when assumptions are violated
    (Design.ONEWAY_REPEATED, "classic"):
        ("manova", lambda s, mu: manova_oneway(s)),
}

#: The design of each pair of conditions in a one-way post-hoc comparison.
_PAIR_DESIGN = {
    Design.ONEWAY_INDEPENDENT: Design.TWO_SAMPLE_INDEPENDENT,
    Design.ONEWAY_REPEATED: Design.PAIRED,
}


def _posthoc_tests(
    dataset: GroupedDataset,
    branch: str,
    alpha: float,
    baseline: Optional[str],
) -> tuple[tuple[PosthocResult, ...], int]:
    labels = dataset.condition_labels
    if baseline is not None:
        pairs = [(baseline, other) for other in labels if other != baseline]
    else:
        pairs = list(itertools.combinations(labels, 2))
    m = len(pairs)
    adjusted = alpha / m
    _, test = _LEAVES[(_PAIR_DESIGN[dataset.design], branch)]
    by_label = {s.condition_label: s for s in dataset.samples}
    results = []
    for a, b in pairs:
        res = test((by_label[a], by_label[b]), dataset.mu)
        results.append(
            PosthocResult(
                pair=(a, b),
                result=res,
                alpha_adjusted=adjusted,
                significant=res.p_value < adjusted,
            )
        )
    return tuple(results), m


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The bootstrap thread pool, made on first use, and the lock that makes it.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads, and
    # the lock in whatever state another thread left it
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _bootstrap_pool():
    """The process's bootstrap thread pool: made on first use, with one
    worker per available CPU, and kept between calls; a forked child makes
    its own."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # off the import path

            _pool = ThreadPoolExecutor(_available_cpus())
        return _pool


def run_flowchart(
    dataset: GroupedDataset,
    alpha: float = 0.05,
    seed: int = 0,
    baseline: Optional[str] = None,
    screen_outliers: bool = True,
    outlier_threshold: float = DEFAULT_THRESHOLD,
    input_sha256: str = "",
    bootstrap_reps: int = 10000,
) -> AnalysisReport:
    """Run the full decision flowchart on a dataset and assemble the report.

    Outliers are screened first (disable with ``screen_outliers=False``),
    the condition-index test picks the branch, the design picks the test,
    and significant multi-group results get Bonferroni-corrected pairwise
    post-hoc comparisons (restricted to ``baseline`` vs the rest when a
    baseline condition is given). alpha must be a real number in (0, 1)
    and seed a non-negative integer.
    """
    seed = checks.seed(seed)
    checks.probability("alpha", alpha)
    if baseline is not None and baseline not in dataset.condition_labels:
        raise MalformedInput(f"baseline {baseline!r} is not a condition")
    screening = None
    if screen_outliers:
        dataset, screening = exclude_outliers(dataset, outlier_threshold)
    conditions = tuple(_summarize_condition(s) for s in dataset.samples)
    branch, rationale = _decide_branch(conditions, alpha)
    leaf, primary_test = _LEAVES[(dataset.design, branch)]
    primary = primary_test(dataset.samples, dataset.mu)
    posthoc: tuple[PosthocResult, ...] = ()
    m = 0
    if dataset.design in _PAIR_DESIGN and primary.p_value < alpha:
        posthoc, m = _posthoc_tests(dataset, branch, alpha, baseline)
    # ci_test and amp_errors_ellipse both need N >= 3 and a non-degenerate
    # covariance, so the conditions with a CI p-value are exactly those with
    # an ellipse; the others get no entry and draw no bootstrap. Each
    # condition has its own [seed, i] stream, so the bootstraps run in the
    # process's thread pool (numpy releases the GIL) with the bits of a
    # serial run, and inline on one CPU or for one condition; the pool
    # outlives the call, so a later call in the same process starts and
    # joins no thread. A call still returns or raises only once each of its
    # bootstraps has finished or been cancelled, as when it joined a pool of
    # its own. The ellipses are pure-Python floats and run serially.
    tested = [(i, s) for i, (s, c) in enumerate(zip(dataset.samples, conditions))
              if c.ci_p_value is not None]

    def bootstrap(item):
        i, s = item
        return amp_ci_bootstrap(s, level=0.68, n_boot=bootstrap_reps,
                                seed=[seed, i])

    if len(tested) > 1 and _available_cpus() > 1:
        pool = _bootstrap_pool()
        futures = [pool.submit(bootstrap, item) for item in tested]
        try:
            bootstraps = [f.result() for f in futures]
        except BaseException:
            from concurrent.futures import wait

            for f in futures:
                f.cancel()
            wait(futures)
            raise
    else:
        bootstraps = [bootstrap(item) for item in tested]
    amplitudes = tuple(
        AmplitudeEntry(s.condition_label, amp_errors_ellipse(s, level=0.68), b)
        for (_, s), b in zip(tested, bootstraps)
    )
    return AnalysisReport(
        design=dataset.design.value,
        alpha=alpha,
        mu=(dataset.mu.real, dataset.mu.imag),
        branch=branch,
        flowchart_leaf=leaf,
        rationale=rationale,
        conditions=conditions,
        screening=screening,
        primary=primary,
        posthoc=posthoc,
        n_comparisons=m,
        amplitudes=amplitudes,
        provenance=Provenance(input_sha256, seed, __version__),
    )


def _result_text(r: TestResult) -> str:
    """One result as "T2 = t, F(df1, df2) = f, p = p, D = d"; F and D are
    left out when the result has none."""
    text = f"{r.statistic_name} = {r.statistic:.4g}"
    if r.f_value is not None and r.df is not None:
        text += f", F({r.df[0]}, {r.df[1]}) = {r.f_value:.4g}"
    text += f", p = {r.p_value:.4g}"
    if r.effect_size is not None:
        text += f", D = {r.effect_size:.4g}"
    return text


def format_text(report: AnalysisReport) -> str:
    """Human-readable rendering of a report."""
    lines = []
    lines.append(f"design: {report.design}   alpha: {report.alpha:g}")
    lines.append(
        f"provenance: sha256={report.provenance.input_sha256 or '-'} "
        f"seed={report.provenance.seed} version={report.provenance.version}"
    )
    if report.screening is not None:
        excluded = (
            ", ".join(report.screening.excluded_units)
            if report.screening.excluded_units
            else "none"
        )
        lines.append(
            f"outlier screening: threshold D > "
            f"{report.screening.threshold:g}; "
            f"{report.screening.n_flagged} flagged; "
            f"excluded units: {excluded}"
        )
    lines.append("conditions:")
    for c in report.conditions:
        ci = f"{c.condition_index:.3f}" if c.condition_index is not None else "inf"
        p = f"{c.ci_p_value:.3f}" if c.ci_p_value is not None else "n/a"
        lines.append(
            f"  {c.condition}: N={c.n} mean=({c.mean_re:.4g}, {c.mean_im:.4g}) "
            f"amplitude={c.amplitude:.4g} CI={ci} p={p}"
        )
    lines.append(f"decision: {report.rationale}")
    lines.append(f"selected test: {report.flowchart_leaf}")
    lines.append(f"result: {_result_text(report.primary)}")
    if report.posthoc:
        lines.append(
            f"post-hoc pairwise tests (Bonferroni: m = {report.n_comparisons}, "
            f"alpha = {report.posthoc[0].alpha_adjusted:.4g}):"
        )
        for ph in report.posthoc:
            marker = "*" if ph.significant else " "
            lines.append(
                f"  {marker} {ph.pair[0]} vs {ph.pair[1]}: "
                f"{_result_text(ph.result)}"
            )
    if report.amplitudes:
        lines.append("amplitude summaries (level 0.68):")
        for a in report.amplitudes:
            lines.append(
                f"  {a.condition}: |mean| = {a.ellipse.mean_amplitude:.4g}, "
                f"ellipse [{a.ellipse.error_low:.4g}, "
                f"{a.ellipse.error_high:.4g}], "
                f"bootstrap [{a.bootstrap.error_low:.4g}, "
                f"{a.bootstrap.error_high:.4g}]"
            )
    return "\n".join(lines) + "\n"
