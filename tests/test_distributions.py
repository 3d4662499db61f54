"""F distribution and the condition-index null distribution."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import fdtr, fdtrc

import phasorstats
from phasorstats import ConditionIndexDistribution, f_critical, f_sf
from phasorstats.exceptions import DomainError


class TestFCdf:
    """The F distribution, through its upper tail f_sf."""

    def test_bounds(self):
        assert f_sf(0.0, 2, 10) == 1.0
        assert f_sf(math.inf, 2, 10) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            f_sf(-0.1, 2, 10)
        with pytest.raises(DomainError):
            f_sf(1.0, 0, 10)
        # a non-integral df used to be truncated to the F(2, 10) answer
        for df in ((2.5, 10), (2, 10.5), (np.nan, 10), (2, np.inf)):
            with pytest.raises(DomainError, match="integers >= 1"):
                f_sf(1.0, *df)
            with pytest.raises(DomainError, match="integers >= 1"):
                f_critical(0.05, *df)
        assert f_sf(1.0, 2.0, np.int64(10)) == f_sf(1.0, 2, 10)
        # strings used to escape as a raw TypeError or ValueError, an int
        # past the float range as a raw OverflowError
        for call in (lambda: f_sf(1.0, "2", 5), lambda: f_sf("a", 2, 5),
                     lambda: f_critical("x", 2, 5), lambda: f_sf(1.0, 2, 10**400)):
            with pytest.raises(DomainError):
                call()

    def test_reported_mouse_p(self):
        # F(2, 10) = 8.32 corresponds to p about 0.007
        p = f_sf(8.32, 2, 10)
        assert abs(p - 0.007) < 1e-3

    def test_monotone(self):
        xs = np.linspace(0.0, 12.0, 40)
        values = [f_sf(x, 3, 7) for x in xs]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("df", [(2, 10), (2, 176)])
    def test_against_monte_carlo(self, df):
        # oracle: empirical survival function of F draws from numpy's
        # generator
        rng = np.random.default_rng(1234)
        draws = rng.f(df[0], df[1], size=200000)
        for x in np.linspace(0.2, 5.0, 10):
            assert f_sf(x, *df) == pytest.approx(
                float((draws > x).mean()), abs=0.005
            )

    def test_array_arguments(self):
        xs = np.array([0.0, 0.5, 3.0, np.inf])
        np.testing.assert_array_equal(f_sf(xs, 2, 10),
                                      [f_sf(x, 2, 10) for x in xs])
        with pytest.raises(DomainError):
            f_sf(np.array([1.0, np.nan]), 2, 10)
        with pytest.raises(DomainError):
            f_sf(np.array([1.0, -2.0]), 2, 10)

    def test_critical_inverts(self):
        for alpha in (0.05, 0.0083):
            crit = f_critical(alpha, 2, 176)
            assert f_sf(crit, 2, 176) == pytest.approx(alpha, abs=1e-9)


    @pytest.mark.parametrize("x,df,expected", [
        # regularized incomplete beta at 50 digits (mpmath)
        (38.9, (12, 1056), 1.1147650931842017e-75),
        (200.0, (4, 30), 3.6290754641548225e-21),
        (25.0, (2, 176), 2.7769759763102213e-10),
        (60.0, (2, 10), 2.693290743429044e-06),
        # mpmath at 60 digits, float x; scipy's fdtrc was off by 1.3e-11,
        # 2.1e-7 and 6.1e-4 relative at these three
        (1.126e7, (12, 100), 1.0125701446982413e-300),
        (6.85e16, (4, 38), 9.9921199253375465e-301),
        (3.4e16, (12, 38), 1.1009688712319803e-300),
    ])
    def test_sf_keeps_the_far_tail(self, x, df, expected):
        # 1 - cdf underflows to 0 or loses digits here
        assert f_sf(x, *df) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("df", [(2, 10), (2, 22), (2, 206), (12, 1056)])
    @pytest.mark.parametrize("alpha", [0.05, 1e-10, 1e-17, 1e-100])
    def test_critical_inverts_the_survival_function(self, alpha, df):
        # fdtri at 1 - alpha lost digits as alpha shrank and gave inf once
        # 1 - alpha rounded to 1
        crit = f_critical(alpha, *df)
        assert math.isfinite(crit)
        assert f_sf(crit, *df) == pytest.approx(alpha, rel=1e-13, abs=0)

    @pytest.mark.parametrize("df1", [1, 3, 4, 12])
    @pytest.mark.parametrize("alpha", [0.05, 1e-10, 1e-100])
    def test_critical_is_polished_for_every_df2(self, alpha, df1):
        # betaincinv alone left f_sf(crit) up to 6e-12 relative off alpha for
        # df1 != 2 at alpha = 1e-100
        for df2 in range(1, 300):
            crit = f_critical(alpha, df1, df2)
            assert f_sf(crit, df1, df2) == pytest.approx(alpha, rel=1e-13, abs=0), df2

    @pytest.mark.parametrize("df1", [1, 2, 3, 4, 12])
    @pytest.mark.parametrize("alpha", [0.05, 1e-100, 1e-300])
    def test_critical_at_tiny_alpha(self, alpha, df1):
        # at 1e-300 betaincinv's y underflowed (inf or nan thresholds), and
        # at df2 = 1 the threshold, past the float range, came back ~1e307
        top = np.finfo(float).max
        beyond = []
        for df2 in range(1, 300):
            if f_sf(top, df1, df2) > alpha:
                beyond.append(df2)
                with pytest.raises(DomainError, match="float range"):
                    f_critical(alpha, df1, df2)
                continue
            crit = f_critical(alpha, df1, df2)
            assert 0.0 < crit <= top, df2
            if alpha > 1e-300 or df1 % 2 == 0 or df1 == 1:
                # for odd df1 >= 3 near 1e-300 fdtrc itself is off by up to
                # 1e-3 relative (and 0 at some df2): no x need meet 1e-13
                assert f_sf(crit, df1, df2) == pytest.approx(alpha, rel=1e-13,
                                                             abs=0), df2
        assert beyond == ([1] if alpha == 1e-300 else [])

    def test_even_df1_sum_agrees_with_fdtrc(self):
        # the finite sum against scipy on a random normal-range grid; fdtrc
        # is itself up to ~2e-13 off there, the sum ~7e-14 (mpmath)
        rng = np.random.default_rng(17)
        df1 = 2 * rng.integers(1, 8, 2000)
        df2 = rng.integers(1, 300, 2000)
        x = 10.0 ** rng.uniform(-3, 3, 2000)
        got = [f_sf(*args) for args in zip(x, df1, df2)]
        np.testing.assert_allclose(got, fdtrc(df1, df2, x), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("df", [(2_000_000, 10), (1002, 40), (500, 3000)])
    def test_large_even_df1_is_fdtrc(self, df):
        # past df1 = 1000 the sum would take df1 / 2 steps, and at F(500,
        # 3000) its coefficients overflow: these tails are fdtrc's
        x = np.array([0.0, 0.5, 1.0, 2.0, 1e3])
        np.testing.assert_array_equal(f_sf(x, *df), fdtrc(*df, x))
        assert f_sf(1.0, *df) == fdtrc(*df, 1.0)

    def test_even_df1_calls_no_scipy(self):
        # f_sf at even df1 and f_critical at df1 = 2 (all the cluster test
        # uses) run in a fresh interpreter without importing scipy
        code = """
import sys
import numpy as np
from phasorstats import f_critical, f_sf
for df in ((2, 10), (12, 1056), (4, 38)):
    f_sf(np.array([0.0, 3.0, 1e300, np.inf]), *df)
    f_sf(6.85e16, *df)
for alpha, df2 in ((0.05, 10), (1e-300, 43), (1e-100, 1)):
    f_critical(alpha, 2, df2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        src = str(Path(phasorstats.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_sf_past_the_overflow_of_df1_x(self):
        # fdtrc gives 0 once df1 x overflows; f_sf(x, 2, 1) = (1 + 2x)^-1/2
        top = np.finfo(float).max
        expected = 1.0 / math.sqrt(2.0) / math.sqrt(top)  # 2 top overflows
        assert f_sf(top, 2, 1) == pytest.approx(expected, rel=1e-13)
        np.testing.assert_array_equal(f_sf(np.array([top, np.inf]), 12, 1),
                                      [f_sf(top, 12, 1), 0.0])

    def test_sf_complements_cdf(self):
        xs = np.array([0.0, 0.3, 1.0, 4.0, 12.0, np.inf])
        sf = f_sf(xs, 3, 7)
        np.testing.assert_array_equal(sf, [f_sf(x, 3, 7) for x in xs])
        np.testing.assert_allclose(sf + fdtr(3, 7, xs), 1.0, rtol=0, atol=1e-15)
        assert (sf[0], sf[-1]) == (1.0, 0.0)
        for bad in ((-0.1, 2, 10), (1.0, 0, 10), (np.array([1.0, np.nan]), 2, 10)):
            with pytest.raises(DomainError):
                f_sf(*bad)


class TestConditionIndexDistribution:
    def test_pdf_zero_at_one(self):
        for variant in ("edelman", "modified"):
            dist = ConditionIndexDistribution(5, variant)
            assert dist.pdf(1.0) == 0.0

    def test_pdf_tail_decay(self):
        dist = ConditionIndexDistribution(6)
        assert dist.pdf(1e6) < 1e-12

    def test_domain(self):
        dist = ConditionIndexDistribution(4)
        with pytest.raises(DomainError):
            dist.pdf(0.5)
        with pytest.raises(DomainError):
            dist.cdf(0.99)
        with pytest.raises(DomainError):
            dist.quantile(1.0)
        # nan and inf used to raise a raw ValueError and OverflowError
        for n in (2, np.nan, np.inf):
            with pytest.raises(DomainError, match="sample size"):
                ConditionIndexDistribution(n)
        # NaN is not a condition index; sf(nan) used to return nan
        for method in (dist.pdf, dist.sf, dist.cdf):
            for x in (np.nan, np.array([2.0, np.nan])):
                with pytest.raises(DomainError):
                    method(x)
        # a string used to escape as a raw TypeError or ValueError
        for method in (ConditionIndexDistribution(5).quantile,
                       ConditionIndexDistribution(5).sf):
            with pytest.raises(DomainError):
                method("x")
        # an int past the float range was taken, and every method then
        # raised a raw OverflowError
        with pytest.raises(DomainError, match="sample size"):
            ConditionIndexDistribution(10**400)

    @pytest.mark.parametrize("variant", ["edelman", "modified"])
    def test_normalization_all_n(self, variant):
        for n in range(3, 65):
            dist = ConditionIndexDistribution(n, variant)
            total = quad(dist.pdf, 1.0, np.inf, epsabs=1e-12, limit=200)[0]
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_cdf_bounds_and_monotone(self):
        dist = ConditionIndexDistribution(8)
        assert dist.cdf(1.0) == 0.0
        xs = [1.0, 1.2, 1.5, 2.0, 3.0, 6.0, 20.0]
        values = [dist.cdf(x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert dist.cdf(math.inf) == 1.0

    def test_sf_complements_cdf(self):
        dist = ConditionIndexDistribution(6)
        for x in (1.1, 1.59, 2.5, 8.0):
            assert dist.sf(x) == pytest.approx(1.0 - dist.cdf(x), abs=1e-8)

    def test_closed_form_cdf_n6(self):
        # independent oracle: for n = 6 (modified) the density is
        # 64 x^3 (x^2 - 1) / (x^2 + 1)^5, whose antiderivative in
        # w = x^2 + 1 is 32(-w^-2/2 + w^-3 - w^-4/2); hand-integrated
        dist = ConditionIndexDistribution(6, "modified")

        def closed_cdf(x):
            w = x * x + 1.0
            anti = 32.0 * (-0.5 / w**2 + 1.0 / w**3 - 0.5 / w**4)
            return anti + 1.0  # the constant makes cdf(1) = 0

        for x in (1.2, 1.59, 1.69, 2.5, 4.0):
            assert dist.cdf(x) == pytest.approx(closed_cdf(x), abs=1e-9)

    def test_quantile_bounds_and_roundtrip(self):
        for n in (3, 4, 6, 16, 64):
            dist = ConditionIndexDistribution(n)
            assert dist.quantile(0.0) == 1.0
            assert dist.quantile(0.5) < dist.quantile(0.95)
            for p in (0.5, 0.95):
                assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_quantile_matches_simulated_percentile(self):
        # Monte Carlo oracle at n = 10: the analytic 95th percentile must
        # sit within 1% of the empirical one from 1e5 null samples
        rng = np.random.default_rng(77)
        z = rng.standard_normal((100000, 10, 2))
        mean = z.mean(axis=1, keepdims=True)
        d = z - mean
        a = (d[:, :, 0] ** 2).sum(1)
        c = (d[:, :, 1] ** 2).sum(1)
        b = (d[:, :, 0] * d[:, :, 1]).sum(1)
        half = 0.5 * (a + c)
        disc = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
        ci = np.sqrt((half + disc) / (half - disc))
        dist = ConditionIndexDistribution(10, "modified")
        assert dist.quantile(0.95) == pytest.approx(
            float(np.quantile(ci, 0.95)), rel=0.01
        )

    def test_mouse_p_values(self):
        dist = ConditionIndexDistribution(6, "modified")
        assert dist.sf(1.59) == pytest.approx(0.66, abs=0.005)
        assert dist.sf(1.69) == pytest.approx(0.59, abs=0.005)

    def test_variants_agree_for_large_n(self):
        ede = ConditionIndexDistribution(64, "edelman").quantile(0.95)
        mod = ConditionIndexDistribution(64, "modified").quantile(0.95)
        assert abs(ede - mod) / mod < 0.02

    @pytest.mark.parametrize("variant", ["edelman", "modified"])
    def test_closed_forms_match_quadrature(self, variant):
        # oracle: adaptive quadrature of the density, which the closed
        # forms replaced; the quantile must land where the integral says
        for n in range(3, 201):
            dist = ConditionIndexDistribution(n, variant)
            for p in (0.05, 0.5, 0.95):
                x = dist.quantile(p)
                upper = quad(dist.pdf, x, np.inf, epsabs=1e-14, epsrel=1e-12,
                             limit=200)[0]
                assert upper == pytest.approx(1.0 - p, abs=1e-10), (n, p)
                assert dist.sf(x) == pytest.approx(upper, abs=1e-10), (n, p)
                assert dist.cdf(x) == pytest.approx(p, abs=1e-12), (n, p)

    @pytest.mark.parametrize("variant", ["edelman", "modified"])
    def test_quantile_inverts_cdf_all_n(self, variant):
        for n in range(3, 201):
            dist = ConditionIndexDistribution(n, variant)
            for p in (1e-9, 1e-3, 0.05, 0.5, 0.95, 0.999, 1.0 - 1e-12):
                x = dist.quantile(p)
                assert x >= 1.0
                assert dist.cdf(x) == pytest.approx(p, abs=1e-13), (n, p)
                assert dist.sf(x) == pytest.approx(1.0 - p, rel=1e-9), (n, p)

    @pytest.mark.parametrize("n,x", [(3, 1e6), (6, 50.0), (10, 30.0),
                                     (64, 100.0), (200, 3.0)])
    def test_far_tail_relative_accuracy(self, n, x):
        # tail probabilities far below any absolute quadrature tolerance
        # (down to ~1e-120) keep their relative accuracy; the oracle
        # integrates over t = 1/x, a finite interval
        for variant in ("edelman", "modified"):
            dist = ConditionIndexDistribution(n, variant)
            upper = quad(lambda t: dist.pdf(1.0 / t) / (t * t), 0.0, 1.0 / x,
                         epsabs=0.0, epsrel=1e-12, limit=200)[0]
            assert 0.0 < dist.sf(x) < 1e-5
            assert dist.sf(x) == pytest.approx(upper, rel=1e-9)

    def test_array_arguments(self):
        dist = ConditionIndexDistribution(8)
        xs = np.array([1.0, 1.5, 3.0, np.inf])
        np.testing.assert_array_equal(dist.sf(xs), [dist.sf(x) for x in xs])
        np.testing.assert_array_equal(dist.cdf(xs), [dist.cdf(x) for x in xs])
        assert dist.sf(np.inf) == 0.0
        with pytest.raises(DomainError):
            dist.sf(np.array([2.0, 0.5]))
