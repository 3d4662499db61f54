"""Multivariate statistics for complex Fourier components of periodic data."""

__version__ = "0.1.0"

from .amplitude import AmplitudeSummary, amp_ci_bootstrap, amp_errors_ellipse
from .clusters import AdjacencyGraph, ClusterResult, cluster_correct
from .data import (
    ComplexObservation,
    ComplexSample,
    CovarianceSummary,
    Design,
    GroupedDataset,
    coherent_mean,
    covariance_summary,
)
from .distributions import ConditionIndexDistribution, f_critical, f_sf
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
from .ingest import (
    ComponentRow,
    build_dataset,
    extract_component,
    read_components_csv,
    read_timeseries_csv,
)
from .outliers import (
    OutlierReport,
    ScreeningReport,
    exclude_outliers,
    mahalanobis_distances,
    pairwise_mahalanobis,
)
from .report import AnalysisReport, run_flowchart
from .simulate import (
    RateTable,
    SimulationSpec,
    simulate_amplitude_skew,
    simulate_ci_distribution,
    simulate_grid,
    simulate_outlier_effect,
    simulate_rates,
)

__all__ = [
    "__version__",
    "AdjacencyGraph",
    "AmplitudeSummary",
    "AnalysisReport",
    "ClusterResult",
    "ComplexObservation",
    "ComplexSample",
    "ComponentRow",
    "ConditionIndexDistribution",
    "CovarianceSummary",
    "Design",
    "GroupedDataset",
    "OutlierReport",
    "RateTable",
    "ScreeningReport",
    "SimulationSpec",
    "TestResult",
    "amp_ci_bootstrap",
    "amp_errors_ellipse",
    "anova2circ_independent",
    "anova2circ_repeated",
    "build_dataset",
    "ci_test",
    "cluster_correct",
    "coherent_mean",
    "covariance_summary",
    "exclude_outliers",
    "extract_component",
    "f_critical",
    "f_sf",
    "mahalanobis_distances",
    "manova_oneway",
    "pairwise_mahalanobis",
    "read_components_csv",
    "read_timeseries_csv",
    "run_flowchart",
    "simulate_amplitude_skew",
    "simulate_ci_distribution",
    "simulate_grid",
    "simulate_outlier_effect",
    "simulate_rates",
    "t2_one_sample",
    "t2_paired",
    "t2_two_sample",
    "t2circ_one_sample",
    "t2circ_paired",
    "t2circ_two_sample",
]
