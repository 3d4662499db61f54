"""Mahalanobis screening and the pairwise effect size."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstats import (
    ComplexSample,
    Design,
    GroupedDataset,
    OutlierReport,
    amp_errors_ellipse,
    ci_test,
    exclude_outliers,
    mahalanobis_distances,
    pairwise_mahalanobis,
    t2_one_sample,
    t2_two_sample,
)
from phasorstats import inference
from phasorstats.exceptions import (
    DegenerateCovariance,
    DomainError,
    TooFewObservations,
)

CROSS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def gaussian_sample(seed, n=12, condition="c", units=False, mean=0j):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    values = z[:, 0] + 1j * z[:, 1] + mean
    labels = tuple(f"u{i}" for i in range(n)) if units else None
    return ComplexSample(values, condition, labels)


class TestDistances:
    def test_point_at_mean(self):
        s = ComplexSample([(0, 0)] + CROSS)
        rep = mahalanobis_distances(s)
        assert rep.distances[0] == pytest.approx(0.0, abs=1e-12)

    def test_cross_pattern_hand_value(self):
        # covariance diag(2/3, 2/3); D = sqrt(1 / (2/3)) for each point
        rep = mahalanobis_distances(ComplexSample(CROSS))
        for d in rep.distances:
            assert d == pytest.approx(math.sqrt(1.5), rel=1e-12)

    def test_returns_d_not_d_squared(self):
        s = gaussian_sample(0)
        rep = mahalanobis_distances(s)
        # the squared distances satisfy the trace identity, D values do not
        assert sum(d * d for d in rep.distances) == pytest.approx(
            2 * (s.n - 1), rel=1e-10
        )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_trace_identity(self, seed):
        s = gaussian_sample(seed, n=int(5 + seed % 20))
        rep = mahalanobis_distances(s)
        assert sum(d * d for d in rep.distances) == pytest.approx(
            2 * (s.n - 1), abs=1e-8
        )

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, seed, angle, scale):
        s = gaussian_sample(seed)
        moved = ComplexSample(
            s.observations * scale * np.exp(1j * angle) + (2.0 - 3.0j)
        )
        a = mahalanobis_distances(s).distances
        b = mahalanobis_distances(moved).distances
        assert np.allclose(a, b, rtol=1e-9)

    def test_preconditions(self):
        with pytest.raises(TooFewObservations):
            mahalanobis_distances(ComplexSample([1 + 1j, 2 + 2j]))
        with pytest.raises(DegenerateCovariance):
            mahalanobis_distances(ComplexSample([(x, x) for x in (1.0, 2.0, 3.0)]))

    # the distances, the ellipse and the condition-index test invert the
    # covariance that T2 inverts, and refuse the same samples the same way
    @pytest.mark.parametrize("compute", [t2_one_sample, ci_test,
                                         amp_errors_ellipse, mahalanobis_distances])
    @pytest.mark.parametrize("values,error", [
        ([1 + 1j, 2 + 2j], TooFewObservations),
        ([(x, x) for x in (1.0, 2.0, 3.0)], DegenerateCovariance),
        ([(x, 0.0) for x in (1.0, 2.0, 3.0)], DegenerateCovariance),
    ], ids=["n2", "diagonal", "real"])
    def test_one_precondition_with_t2(self, compute, values, error):
        with pytest.raises(error):
            compute(ComplexSample(values))

    @pytest.mark.parametrize("threshold", [3.0, 0.5, math.inf])
    def test_report_json_round_trip(self, threshold):
        values = list(gaussian_sample(2, n=15).observations) + [40 + 40j]
        report = mahalanobis_distances(ComplexSample(values, "a"), threshold)
        assert report.flagged or threshold == math.inf
        back = OutlierReport.from_json(report.to_json())
        assert back == report and back.to_json() == report.to_json()


class TestExcludeOutliers:
    def test_clean_data_unchanged(self):
        s = gaussian_sample(1, n=10)
        ds = GroupedDataset((s,), Design.ONE_SAMPLE)
        screened, report = exclude_outliers(ds)
        assert screened.samples[0].n == 10
        assert report.n_flagged == 0

    def test_observation_level_removal(self):
        values = list(gaussian_sample(2, n=15).observations) + [40 + 40j]
        ds = GroupedDataset((ComplexSample(values, "a"),), Design.ONE_SAMPLE)
        screened, report = exclude_outliers(ds)
        assert report.per_condition[0].flagged_indices == (15,)
        assert screened.samples[0].n == 15

    def test_unit_level_removal(self):
        rng = np.random.default_rng(3)
        n = 12
        labels = tuple(f"u{i}" for i in range(n))
        a_vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b_vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a_vals[4] = 50 + 50j  # unit u4 is an outlier in condition a only
        ds = GroupedDataset(
            (
                ComplexSample(a_vals, "a", labels),
                ComplexSample(b_vals, "b", labels),
            ),
            Design.PAIRED,
        )
        screened, report = exclude_outliers(ds)
        assert report.excluded_units == ("u4",)
        for s in screened.samples:
            assert s.n == n - 1
            assert "u4" not in s.unit_labels

    def test_threshold_configurable(self):
        s = gaussian_sample(4, n=20)
        ds = GroupedDataset((s,), Design.ONE_SAMPLE)
        _, strict = exclude_outliers(ds, threshold=0.5)
        assert strict.n_flagged > 0

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), "x"])
    def test_threshold_must_be_positive(self, threshold):
        # nan used to flag nothing without a word
        with pytest.raises(DomainError):
            mahalanobis_distances(gaussian_sample(5), threshold)

    @pytest.mark.parametrize("threshold", ["x", None])
    def test_non_number_threshold_raises_domain_error(self, threshold):
        # used to escape as a raw TypeError from the comparison with 0
        ds = GroupedDataset((gaussian_sample(5),), Design.ONE_SAMPLE)
        with pytest.raises(DomainError, match="threshold must be positive"):
            exclude_outliers(ds, threshold)

    def test_infinite_threshold_flags_nothing(self):
        assert mahalanobis_distances(gaussian_sample(5), math.inf).flagged == ()

    def test_single_pass_not_iterative(self):
        # distances are computed once with every point included: removing
        # the flagged point and re-screening may flag more, but one call
        # must not
        values = list(gaussian_sample(5, n=12).observations) + [30 + 0j]
        ds = GroupedDataset((ComplexSample(values),), Design.ONE_SAMPLE)
        screened, report = exclude_outliers(ds)
        assert report.per_condition[0].flagged_indices == (12,)
        rescreened, second = exclude_outliers(screened)
        # determinism of the single pass
        again = exclude_outliers(ds)[1]
        assert (again.per_condition[0].flagged_indices
                == report.per_condition[0].flagged_indices)

    def test_planted_outlier_detected_reliably(self):
        # the outlier itself inflates the sample covariance, capping its
        # observed distance near sqrt(N-1): at 5 population SDs in an N=20
        # sample detection at threshold 3 runs about 0.87, and essentially
        # certain by 7 SDs
        def detection_rate(displacement, reps=400):
            rng = np.random.default_rng(6)
            hits = 0
            for _ in range(reps):
                z = rng.standard_normal((20, 2))
                values = z[:, 0] + 1j * z[:, 1]
                angle = rng.uniform(0, 2 * np.pi)
                values[0] = values[1:].mean() + displacement * np.exp(1j * angle)
                rep = mahalanobis_distances(ComplexSample(values))
                if 0 in rep.flagged:
                    hits += 1
            return hits / reps

        assert detection_rate(5.0) > 0.8
        assert detection_rate(7.0) > 0.99


class TestPairwiseMahalanobis:
    def test_identical_means(self):
        s = gaussian_sample(7)
        t = ComplexSample(s.observations.copy())
        assert pairwise_mahalanobis(s, t) == pytest.approx(0.0, abs=1e-12)

    def test_matches_quadratic_form_oracle(self):
        for seed in range(20):
            a = gaussian_sample(seed, n=9, mean=0.8)
            b = gaussian_sample(seed + 500, n=7)
            xa = np.column_stack([a.observations.real, a.observations.imag])
            xb = np.column_stack([b.observations.real, b.observations.imag])
            pooled = ((a.n - 1) * np.cov(xa.T) + (b.n - 1) * np.cov(xb.T)) / (
                a.n + b.n - 2
            )
            delta = xa.mean(axis=0) - xb.mean(axis=0)
            expected = math.sqrt(delta @ np.linalg.inv(pooled) @ delta)
            assert pairwise_mahalanobis(a, b) == pytest.approx(expected, rel=1e-10)

    def test_univariate_reduction(self):
        # both groups constant in im: the pooled matrix is rank one and the
        # distance reduces to Cohen's d along re
        rng = np.random.default_rng(8)
        re_a = rng.standard_normal(30)
        re_b = rng.standard_normal(30)
        re_a = (re_a - re_a.mean()) / re_a.std(ddof=1)
        re_b = (re_b - re_b.mean()) / re_b.std(ddof=1)
        a = ComplexSample(re_a + 1.0 + 0.5j)
        b = ComplexSample(re_b + 0.5j)
        assert pairwise_mahalanobis(a, b) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_axis_rejected(self):
        # means differ along the degenerate (zero variance) axis
        a = ComplexSample([(x, 1.0) for x in (1.0, 2.0, 3.0)])
        b = ComplexSample([(x, 0.0) for x in (1.0, 2.0, 3.0)])
        with pytest.raises(DegenerateCovariance):
            pairwise_mahalanobis(a, b)

    def test_one_minimum_for_the_distance_and_the_effect_size(self, monkeypatch):
        # the scalar distance and the tests' effect sizes read one minimum
        a, b = gaussian_sample(9, n=4, mean=1.0), gaussian_sample(10, n=4)
        assert pairwise_mahalanobis(a, b) > 0
        assert t2_two_sample(a, b).effect_size is not None
        monkeypatch.setattr(inference, "PAIRWISE", replace(inference.PAIRWISE, min_n=5))
        with pytest.raises(TooFewObservations, match=">= 5 observations per group"):
            pairwise_mahalanobis(a, b)
        assert t2_two_sample(a, b).effect_size is None
