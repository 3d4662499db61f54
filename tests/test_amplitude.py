"""Amplitude error bars: ellipse extrema and bootstrap intervals."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import phasorstats
from phasorstats import (
    ComplexSample,
    amp_ci_bootstrap,
    amp_errors_ellipse,
    covariance_summary,
)
from phasorstats import amplitude as amplitude_module
from phasorstats.amplitude import AmplitudeSummary
from phasorstats.exceptions import (
    DegenerateCovariance,
    DomainError,
    TooFewObservations,
)


def whitened_sample(seed, n=24, mean=0j):
    """Sample with exactly isotropic unit covariance, shifted to `mean`."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    z = z - z.mean(axis=0)
    z = z @ np.linalg.inv(np.linalg.cholesky(np.cov(z.T))).T
    return ComplexSample(z[:, 0] + 1j * z[:, 1] + mean)


def dense_scan_bounds(sample, level, points=1_000_000):
    """Brute-force oracle: extremal |p| over a dense grid of ellipse points,
    sharpened by one parabolic interpolation step."""
    from phasorstats import covariance_summary

    summary = covariance_summary(sample)
    scale = chi2.ppf(level, df=2) / sample.n
    lmax, lmin = summary.eigenvalues
    v = summary.eigenvectors
    r1, r2 = math.sqrt(lmax * scale), math.sqrt(lmin * scale)
    theta = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    px = summary.mean[0] + r1 * np.cos(theta) * v[0, 0] + r2 * np.sin(theta) * v[0, 1]
    py = summary.mean[1] + r1 * np.cos(theta) * v[1, 0] + r2 * np.sin(theta) * v[1, 1]
    dist = np.hypot(px, py)

    def refine(idx, pick):
        step = 2.0 * np.pi / points
        ts = theta[idx] + np.array([-step, 0.0, step])
        ds = []
        for t in ts:
            x = summary.mean[0] + r1 * math.cos(t) * v[0, 0] + r2 * math.sin(t) * v[0, 1]
            y = summary.mean[1] + r1 * math.cos(t) * v[1, 0] + r2 * math.sin(t) * v[1, 1]
            ds.append(math.hypot(x, y))
        a, b, c = ds
        denom = a - 2 * b + c
        if denom == 0:
            return b
        t_star = ts[1] + 0.5 * step * (a - c) / denom
        x = summary.mean[0] + r1 * math.cos(t_star) * v[0, 0] + r2 * math.sin(t_star) * v[0, 1]
        y = summary.mean[1] + r1 * math.cos(t_star) * v[1, 0] + r2 * math.sin(t_star) * v[1, 1]
        return pick(b, math.hypot(x, y))

    return refine(int(dist.argmin()), min), refine(int(dist.argmax()), max)


class TestEllipse:
    def test_isotropic_bounds_are_mean_plus_minus_radius(self):
        s = whitened_sample(0, mean=3.0 + 0j)
        level = 0.68
        res = amp_errors_ellipse(s, level)
        r = math.sqrt(chi2.ppf(level, 2) / s.n)
        assert res.mean_amplitude == pytest.approx(3.0, abs=1e-9)
        assert res.error_low == pytest.approx(3.0 - r, abs=1e-9)
        assert res.error_high == pytest.approx(3.0 + r, abs=1e-9)

    def test_origin_inside_gives_zero_lower_bound(self):
        s = whitened_sample(1, mean=0j)
        res = amp_errors_ellipse(s, 0.95)
        assert res.error_low == 0.0
        assert res.error_high > 0.0

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            z = rng.standard_normal((15, 2)) @ np.array([[1.5, 0.6], [0.0, 0.4]])
            s = ComplexSample(z[:, 0] + 1j * z[:, 1] + (1.2 - 0.8j))
            res = amp_errors_ellipse(s, 0.68)
            lo, hi = dense_scan_bounds(s, 0.68, points=100_000)
            assert res.error_high == pytest.approx(hi, rel=1e-4)
            if res.error_low > 0:
                assert res.error_low == pytest.approx(lo, rel=1e-4)

    def test_rotation_invariance_of_amplitude(self):
        s = whitened_sample(3, mean=2.0 + 1.0j)
        base = amp_errors_ellipse(s, 0.68)
        for angle in (0.3, 1.2, -2.0):
            rotated = ComplexSample(s.observations * np.exp(1j * angle))
            res = amp_errors_ellipse(rotated, 0.68)
            assert res.mean_amplitude == pytest.approx(
                base.mean_amplitude, rel=1e-9
            )
            assert res.error_low == pytest.approx(base.error_low, abs=1e-9)
            assert res.error_high == pytest.approx(base.error_high, abs=1e-9)

    # a non-number level used to escape as a raw TypeError
    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan"), "x", None])
    def test_bad_level_raises_domain_error(self, level):
        with pytest.raises(DomainError):
            amp_errors_ellipse(whitened_sample(5), level)

    def test_preconditions(self):
        with pytest.raises(TooFewObservations):
            amp_errors_ellipse(ComplexSample([1 + 1j, 2 + 2j]), 0.68)
        with pytest.raises(DegenerateCovariance):
            amp_errors_ellipse(
                ComplexSample([(x, 0) for x in (1.0, 2.0, 3.0)]), 0.68
            )


def golden_min(f, lo, hi, tol=1e-10):
    """Golden-section minimum of f on [lo, hi], as the library searched
    before it evaluated the distance inline."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def numpy_ellipse(sample, level):
    """Oracle: the ellipse bounds with the distance evaluated on numpy
    2-vectors, as ``amp_errors_ellipse`` did before it moved to floats, and
    searched by ``golden_min`` through a closure, as before the search
    evaluated it inline."""
    summary = covariance_summary(sample)
    scale = -2.0 * math.log1p(-level) / sample.n
    lmax, lmin = summary.eigenvalues
    vmax = summary.eigenvectors[:, 0]
    vmin = summary.eigenvectors[:, 1]
    r1 = math.sqrt(lmax * scale)
    r2 = math.sqrt(lmin * scale)
    center = np.array(summary.mean)

    def point(theta):
        return center + r1 * math.cos(theta) * vmax + r2 * math.sin(theta) * vmin

    def dist(theta):
        p = point(theta)
        return math.hypot(p[0], p[1])

    def extremal(f, sign):
        grid = np.linspace(0.0, 2.0 * math.pi, 49)
        values = np.array([sign * f(t) for t in grid])
        step = grid[1] - grid[0]
        best = math.inf
        for i in np.argsort(values)[:3]:
            t = golden_min(lambda x: sign * f(x), grid[i] - step, grid[i] + step)
            best = min(best, sign * f(t))
        return sign * best

    u = ((center @ vmax) / r1) ** 2 + ((center @ vmin) / r2) ** 2
    high = extremal(dist, -1.0)
    low = 0.0 if u <= 1.0 else extremal(dist, 1.0)
    return AmplitudeSummary(
        mean_amplitude=math.hypot(center[0], center[1]),
        mean_phase=math.atan2(center[1], center[0]),
        error_low=low,
        error_high=high,
        method="ellipse_se",
        level=level,
    )


@st.composite
def ellipse_cases(draw):
    """A sample and a level. The scatter is whitened and then shaped: a
    general rotated ellipse, a near circle (lmin / lmax > 1 - 1e-9) or a
    scatter mirrored about the real axis with its mean on that axis (a
    principal axis). The mean sits 0-3 ellipse radii from the origin, so
    the origin falls inside and outside; the whole sample is then scaled by
    10^-100 ... 10^100."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["general", "near_circle", "on_axis"]))
    level = draw(st.sampled_from([0.5, 0.68, 0.95]))
    offset = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    exponent = draw(st.integers(-100, 100))
    z = rng.standard_normal((n, 2))
    z = z - z.mean(axis=0)
    z = z @ np.linalg.inv(np.linalg.cholesky(np.cov(z.T))).T
    radius = math.sqrt(-2.0 * math.log1p(-level) / n)
    if shape == "on_axis":
        half = z[: n // 2] * draw(st.floats(0.05, 20.0))
        mid = [(draw(st.floats(-1.0, 1.0)), 0.0)] * (n % 2)
        z = np.concatenate([half, half * [1.0, -1.0], np.reshape(mid, (-1, 2))])
        x = z[:, 0] + offset * radius * draw(st.sampled_from([-1.0, 1.0]))
        obs = x + 1j * z[:, 1]
    else:
        aspect = (1.0 + draw(st.floats(0.0, 1e-10)) if shape == "near_circle"
                  else draw(st.floats(0.02, 1.0)))
        angle = draw(st.floats(-math.pi, math.pi))
        c, s = math.cos(angle), math.sin(angle)
        z = z @ np.diag([1.0, aspect]) @ np.array([[c, s], [-s, c]])
        phase = draw(st.floats(-math.pi, math.pi))
        obs = z[:, 0] + 1j * z[:, 1] + offset * radius * complex(
            math.cos(phase), math.sin(phase)
        )
    return ComplexSample(obs * 10.0 ** exponent), level


@settings(max_examples=300, deadline=None)
@given(ellipse_cases())
def test_ellipse_bit_for_bit_with_numpy_evaluation(case):
    sample, level = case
    try:
        got = amp_errors_ellipse(sample, level)
    except DegenerateCovariance:
        assert covariance_summary(sample).degenerate
        return
    assert got.to_json() == numpy_ellipse(sample, level).to_json()


class TestBootstrap:
    @pytest.mark.parametrize("kwargs", [
        dict(n_boot=0),
        dict(n_boot=-3),
        dict(n_boot=float("nan")),
        dict(level=0.0),
        dict(level=1.0),
        dict(level=1.5),
        dict(level=float("nan")),
        dict(n_boot=2.5),  # used to run int(2.5) = 2 resamples silently
        dict(n_boot=100.0),
        dict(seed=-1),  # numpy's ValueError used to escape
        dict(seed=1.5),  # and its TypeError
        dict(seed=[3, -2]),
        dict(seed="7"),
        dict(seed=None),  # used to draw fresh OS entropy on every call
        dict(level="x"),  # used to raise a raw TypeError
        dict(n_boot=2**62),  # numpy's "array is too big" used to escape
        # default_rng took these and advanced them, so a second call with
        # the same object gave other bounds
        dict(seed=np.random.default_rng(1)),
        dict(seed=np.random.SeedSequence(1)),
    ])
    def test_bad_arguments_raise_domain_error(self, kwargs):
        with pytest.raises(DomainError):
            amp_ci_bootstrap(whitened_sample(5), **kwargs)

    def test_identical_observations(self):
        s = ComplexSample([(2.5, 0.0)] * 6)
        res = amp_ci_bootstrap(s, 0.68, n_boot=500, seed=4)
        assert res.error_low == pytest.approx(2.5)
        assert res.error_high == pytest.approx(2.5)

    def test_deterministic_for_seed(self):
        s = whitened_sample(5, mean=1.5 + 0.5j)
        a = amp_ci_bootstrap(s, 0.68, n_boot=2000, seed=42)
        b = amp_ci_bootstrap(s, 0.68, n_boot=2000, seed=42)
        assert (a.error_low, a.error_high) == (b.error_low, b.error_high)
        c = amp_ci_bootstrap(s, 0.68, n_boot=2000, seed=43)
        assert (a.error_low, a.error_high) != (c.error_low, c.error_high)

    def test_halfwidth_tracks_analytic_se(self):
        # isotropic N=50 with component SD sigma: the 68% interval
        # half-width should be close to sigma / sqrt(N)
        sigma = 2.0
        s = ComplexSample(
            whitened_sample(6, n=50, mean=0j).observations * sigma + 10.0
        )
        res = amp_ci_bootstrap(s, 0.68, n_boot=20000, seed=7)
        half = 0.5 * (res.error_high - res.error_low)
        assert half == pytest.approx(sigma / math.sqrt(50), rel=0.15)

    def test_rotation_leaves_amplitude_interval(self):
        # identical resample indices on rotated data give identical
        # amplitude draws, so the bounds match exactly
        s = whitened_sample(8, mean=1.0 + 1.0j)
        base = amp_ci_bootstrap(s, 0.68, n_boot=1000, seed=9)
        rotated = ComplexSample(s.observations * np.exp(0.7j))
        res = amp_ci_bootstrap(rotated, 0.68, n_boot=1000, seed=9)
        assert res.error_low == pytest.approx(base.error_low, rel=1e-12)
        assert res.error_high == pytest.approx(base.error_high, rel=1e-12)

    def test_bounds_bracket_resample_median(self):
        s = whitened_sample(10, n=30, mean=2.0 + 0j)
        hits = 0
        for seed in range(40):
            res = amp_ci_bootstrap(s, 0.68, n_boot=2000, seed=seed)
            rng = np.random.default_rng(seed)
            idx = rng.integers(0, s.n, size=(2000, s.n))
            med = float(np.median(np.abs(s.observations[idx].mean(axis=1))))
            if res.error_low <= med <= res.error_high:
                hits += 1
        assert hits >= 38

    def test_bounds_are_numpy_quantiles(self):
        # the bounds come from one partition instead of np.quantile, which
        # imports numpy.ma; they keep np.quantile's bits
        rng = np.random.default_rng(4)
        for n in (2, 3, 7, 40):
            sample = ComplexSample(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for level, n_boot in ((0.68, 1), (0.68, 2), (0.95, 999), (0.5, 1000),
                                  (0.999, 10000)):
                res = amp_ci_bootstrap(sample, level=level, n_boot=n_boot, seed=n)
                lo, hi = self._one_shot(sample, level, n_boot, seed=n)
                assert (res.error_low, res.error_high) == (lo, hi), (n, level, n_boot)

    @staticmethod
    def _one_shot(sample, level, n_boot, seed):
        """The bounds from every resample index drawn at once, by np.quantile."""
        idx = np.random.default_rng(seed).integers(0, sample.n, (n_boot, sample.n))
        amps = np.abs(sample.observations[idx].mean(axis=1))
        return tuple(np.quantile(amps, [(1.0 - level) / 2.0, (1.0 + level) / 2.0]))

    @pytest.mark.parametrize("n", [2, 3, 89, 2**16 + 1])
    def test_blocks_keep_the_bits_of_one_shot_resampling(self, n):
        # the resamples are drawn and summed in blocks of `rows`; the bounds
        # are those of all n_boot x n indices drawn at once and averaged,
        # on either side of every block edge
        rows = max(1, amplitude_module._BOOT_VALUES // n)
        rng = np.random.default_rng(n)
        sample = ComplexSample(rng.standard_normal(n) + 1j * rng.standard_normal(n) + 0.5)
        # at n = 2**16 + 1 a block is one row, and 10 000 one-shot rows
        # would need 5 GiB of indices: 1-3 rows cover the block edges there
        counts = {1, rows - 1, rows, rows + 1, rows + 2, 10_000}
        for n_boot in sorted(c for c in counts if 1 <= c and c * n <= 2**24):
            res = amp_ci_bootstrap(sample, 0.68, n_boot=n_boot, seed=[5, n_boot])
            lo, hi = self._one_shot(sample, 0.68, n_boot, [5, n_boot])
            assert res.error_low == lo and res.error_high == hi, (n, n_boot)

    def test_memory_does_not_grow_with_resamples_times_n(self):
        # the one-shot (10 000, 400) indices and their complex gather alone
        # take 92 MiB; in blocks a call peaks at ~1.7 MiB
        sample = whitened_sample(3, n=400, mean=1.0)
        tracemalloc.start()
        try:
            amp_ci_bootstrap(sample, 0.68, n_boot=10_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.sparse", "scipy"])
def test_import_leaves_scipy_stats_unloaded(module):
    # the ellipse scale is the closed-form chi-square(2) quantile and the F
    # tail of every test is a finite sum, so a fresh interpreter pays for no
    # scipy module when importing the package
    src = str(Path(phasorstats.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, phasorstats; print(sorted(m for m in sys.modules "
         f"if m == {module!r} or m.startswith({module + '.'!r})))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

