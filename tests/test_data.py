"""Core data model: covariance summaries, alignment, coherent averaging."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstats import (
    ComplexSample,
    Design,
    GroupedDataset,
    coherent_mean,
    covariance_summary,
    extract_component,
)
from phasorstats.checks import seed as check_seed
from phasorstats.data import align_units
from phasorstats.exceptions import (
    DomainError,
    EmptyUnit,
    LabelMismatch,
    MalformedInput,
    TooFewObservations,
)

CROSS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def make_sample(values, condition="c", units=None):
    return ComplexSample(values, condition, units)


def random_sample(seed, n=12):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    return ComplexSample(z[:, 0] + 1j * z[:, 1])


# an observation is a complex number, as extract_component returns it
class TestComplexObservation:
    def test_amplitude_phase(self):
        # 3 cos + 4 sin over one cycle of four samples: 3 - 4j
        obs = extract_component([3.0, 4.0, -3.0, -4.0], 4.0, 1.0)
        assert type(obs) is complex
        assert obs == pytest.approx(3 - 4j, abs=1e-12)
        assert abs(obs) == pytest.approx(5.0)
        assert cmath.phase(obs) == pytest.approx(math.atan2(-4, 3))

    @pytest.mark.filterwarnings("error")
    def test_rejects_nonfinite(self):
        # a nan or inf in the series, or a sum past the float range; the
        # refusal leaks no RuntimeWarning
        for series in ([math.nan, 0.0, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0],
                       [-math.inf, 0.0, 0.0, 0.0], [1e308, 0.0, -1e308, 0.0]):
            with pytest.raises(MalformedInput, match="must be finite"):
                extract_component(series, 4.0, 1.0)


class TestComplexSample:
    def test_accepts_pairs_and_complex(self):
        a = ComplexSample(CROSS)
        b = ComplexSample([1, -1, 1j, -1j])
        assert np.allclose(a.observations, b.observations)

    def test_rejects_nonfinite(self):
        with pytest.raises(MalformedInput, match="must be finite"):
            ComplexSample([1 + 1j, complex(math.inf, 0)])

    # each of these used to raise a raw ValueError (the last a TypeError)
    @pytest.mark.parametrize("observations,match", [
        (np.ones((2, 2, 2)), "one-dimensional"),
        (np.ones((3, 2)) * 1j, "real \\(re, im\\) columns"),
        (["a", "b"], "malformed string"),
        ([["1", "2"], ["3", "x"]], "malformed string"),
    ])
    def test_rejects_malformed_observations(self, observations, match):
        with pytest.raises(MalformedInput, match=match):
            ComplexSample(observations, "x")

    def test_unit_label_length(self):
        with pytest.raises(LabelMismatch, match="1 unit labels for 2"):
            ComplexSample([1 + 1j, 2.0], unit_labels=("a",))

    def test_observations_read_only(self):
        s = ComplexSample(CROSS)
        with pytest.raises(ValueError):
            s.observations[0] = 0


class TestCovarianceSummary:
    def test_symmetric_cross(self):
        # four points at unit distance on the axes: isotropic scatter
        summary = covariance_summary(ComplexSample(CROSS))
        assert summary.mean == (0.0, 0.0)
        assert np.allclose(summary.cov, np.diag([2 / 3, 2 / 3]))
        assert summary.condition_index == pytest.approx(1.0)
        assert not summary.degenerate

    def test_hand_mean(self):
        summary = covariance_summary(make_sample([(2, 0), (2, 1), (3, 0), (3, 1)]))
        assert summary.mean == (2.5, 0.5)

    def test_repeated_point_degenerate(self):
        summary = covariance_summary(make_sample([(0.7, -0.2)] * 5))
        assert summary.degenerate
        assert np.allclose(summary.cov, 0.0)

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            covariance_summary(make_sample([(1, 2)]))

    @pytest.mark.filterwarnings("error")
    def test_zero_covariance_warns_nothing(self):
        # lambda_max / lambda_min is 0 / 0 here: it used to leak a RuntimeWarning
        summary = covariance_summary(ComplexSample(np.full(4, 1 + 1j)))
        assert summary.degenerate
        assert summary.eigenvalues == (0.0, 0.0)
        assert summary.condition_index == math.inf

    def test_eigenvectors_orthonormal(self):
        for seed in range(20):
            summary = covariance_summary(random_sample(seed))
            v = summary.eigenvectors
            assert np.allclose(v.T @ v, np.eye(2), atol=1e-10)
            lmax, lmin = summary.eigenvalues
            assert lmax >= lmin >= 0.0

    def test_reconstructs_covariance(self):
        summary = covariance_summary(random_sample(3))
        v = summary.eigenvectors
        lam = np.diag(summary.eigenvalues)
        assert np.allclose(v @ lam @ v.T, summary.cov, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_residual_mean_zero(self, seed):
        s = random_sample(seed, n=8)
        mean = s.observations.mean()
        resid = s.observations - mean
        scale = np.abs(s.observations).max() or 1.0
        assert abs(resid.mean()) <= 1e-12 * scale

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=30, deadline=None)
    def test_rotation_leaves_eigenvalues(self, seed, angle):
        s = random_sample(seed)
        rotated = ComplexSample(s.observations * np.exp(1j * angle))
        a = covariance_summary(s)
        b = covariance_summary(rotated)
        assert a.eigenvalues[0] == pytest.approx(b.eigenvalues[0], rel=1e-9)
        assert a.eigenvalues[1] == pytest.approx(b.eigenvalues[1], rel=1e-9)
        assert a.condition_index == pytest.approx(b.condition_index, rel=1e-9)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_scaling_squares_eigenvalues(self, seed, scale):
        s = random_sample(seed)
        scaled = ComplexSample(s.observations * scale)
        a = covariance_summary(s)
        b = covariance_summary(scaled)
        assert b.eigenvalues[0] == pytest.approx(
            a.eigenvalues[0] * scale**2, rel=1e-9
        )
        assert b.condition_index == pytest.approx(a.condition_index, rel=1e-9)


class TestCoherentMean:
    def test_two_point_mean(self):
        unit = make_sample([(1, 0), (0, 1)], units=("u1", "u1"))
        out = coherent_mean([unit])
        assert out.observations[0] == pytest.approx(0.5 + 0.5j)
        assert out.unit_labels == ("u1",)

    def test_identical_repeats(self):
        unit = make_sample([(0.3, -0.4)] * 4)
        out = coherent_mean([unit])
        assert out.observations[0] == pytest.approx(0.3 - 0.4j)

    def test_phase_cancellation(self):
        # both repeats have amplitude 1, the coherent mean has amplitude 0
        unit = make_sample([(1, 0), (-1, 0)])
        out = coherent_mean([unit])
        assert abs(out.observations[0]) == 0.0

    def test_empty_unit(self):
        with pytest.raises(EmptyUnit):
            coherent_mean([ComplexSample(np.array([], dtype=complex))])


class TestGroupedDataset:
    def test_design_counts(self):
        s = make_sample(CROSS)
        with pytest.raises(MalformedInput):
            GroupedDataset((s, s), Design.ONE_SAMPLE)
        with pytest.raises(MalformedInput):
            GroupedDataset((s,), Design.TWO_SAMPLE_INDEPENDENT)

    def test_unknown_design_and_bad_mu(self):
        # both used to raise a raw ValueError
        s = make_sample(CROSS)
        with pytest.raises(MalformedInput, match="'nope' is not a valid Design"):
            GroupedDataset((s,), "nope")
        with pytest.raises(DomainError, match="malformed string"):
            GroupedDataset((s,), Design.ONE_SAMPLE, mu="x")

    @pytest.mark.parametrize("mu", [complex("inf"), complex(0, math.nan), "inf"])
    def test_mu_not_finite(self, mu):
        with pytest.raises(DomainError, match="mu must be finite"):
            GroupedDataset((make_sample(CROSS),), Design.ONE_SAMPLE, mu)

    def test_paired_requires_labels(self):
        a = make_sample(CROSS)
        b = make_sample(CROSS)
        with pytest.raises(LabelMismatch):
            GroupedDataset((a, b), Design.PAIRED)

    def test_align_by_label_not_position(self):
        a = make_sample([(1, 0), (2, 0), (3, 0)], units=("u1", "u2", "u3"))
        b = make_sample([(30, 0), (10, 0), (20, 0)], units=("u3", "u1", "u2"))
        (va, vb), labels = align_units((a, b))
        assert labels == ("u1", "u2", "u3")
        assert np.allclose(vb, [10, 20, 30])

    def test_label_set_mismatch(self):
        a = make_sample([(1, 0), (2, 0)], units=("u1", "u2"))
        b = make_sample([(1, 0), (2, 0)], units=("u1", "u9"))
        with pytest.raises(LabelMismatch):
            align_units((a, b))

    def test_aligned_matrix(self):
        a = make_sample([(1, 0), (2, 0)], "a", units=("u1", "u2"))
        b = make_sample([(5, 0), (4, 0)], "b", units=("u2", "u1"))
        ds = GroupedDataset((a, b), Design.PAIRED)
        matrix, labels = align_units(ds.samples)
        assert labels == ("u1", "u2")
        assert np.allclose(matrix, [[1, 2], [4, 5]])


def test_check_seed():
    assert check_seed(np.int64(5)) == 5
    assert type(check_seed(np.int64(5))) is int
    for bad in (-1, 1.5, 2.0, "3", None):
        with pytest.raises(DomainError):
            check_seed(bad)
