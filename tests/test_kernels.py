"""Batched kernels against the scalar tests, including degenerate samples."""

import numpy as np
import pytest

from phasorstats import (
    ComplexSample,
    ConditionIndexDistribution,
    anova2circ_independent,
    anova2circ_repeated,
    ci_test,
    covariance_summary,
    f_sf,
    manova_oneway,
    t2_one_sample,
    t2_paired,
    t2_two_sample,
    t2circ_one_sample,
)
from phasorstats import kernels
from phasorstats.exceptions import (
    DegenerateCovariance,
    SingularWithinScatter,
    ZeroResidualVariance,
)


def groups_block(seed, reps, k, n):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((reps, k, n, 2))
    return z[..., 0] + 1j * z[..., 1] + 0.3 * np.arange(k)[:, None]


@pytest.mark.parametrize("k,n", [(2, 3), (3, 6), (5, 4)])
def test_k_group_kernels_match_scalar_tests(k, n):
    # the scalar tests run the kernels on 1-d groups; batching over a
    # leading axis must give the same numbers
    X = groups_block(k * n, 20, k, n)
    groups = list(X.swapaxes(0, 1))
    _, f_anova, df_anova, bad_anova = kernels.anova2circ_independent(groups)
    pillai, f_manova, df_manova, bad_manova = kernels.manova_oneway(groups)
    assert not bad_anova.any() and not bad_manova.any()
    for i, block in enumerate(X):
        samples = [ComplexSample(g, str(j)) for j, g in enumerate(block)]
        anova = anova2circ_independent(samples)
        manova = manova_oneway(samples)
        assert f_anova[i] == pytest.approx(anova.f_value, rel=1e-10)
        assert df_anova == anova.df
        assert pillai[i] == pytest.approx(manova.statistic, rel=1e-10)
        assert f_manova[i] == pytest.approx(manova.f_value, rel=1e-10)
        assert df_manova == manova.df


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_scalar_tests_are_rows_of_one_batched_call(scale):
    # the scalar tests run the kernels on a batch of one: each result must be
    # the matching row of one batched call, bit for bit
    reps, n = 40, 7
    X = scale * (groups_block(7, reps, 2, n)
                 + np.array([[3 - 2j], [-1 + 4j]]))
    A, B = X[:, 0], X[:, 1]
    mu = scale * (1.5 - 0.5j)
    _, (ca, cb, cc), (lmax, lmin), ci, ci_bad = kernels.spectrum(A)
    t2 = kernels.t2_one_sample(A, mu)
    paired = kernels.t2_one_sample(A - B)
    two = kernels.t2_two_sample(A, B)
    assert not (ci_bad.any() or t2[3].any() or paired[3].any() or two[3].any())
    ci_p = ConditionIndexDistribution(n, "modified").sf(ci)
    labels = tuple(f"u{j}" for j in range(n))
    for i in range(reps):
        a = ComplexSample(A[i], "a", labels)
        b = ComplexSample(B[i], "b", labels)
        summary = covariance_summary(a)
        assert summary.cov.tolist() == [[ca[i], cb[i]], [cb[i], cc[i]]]
        assert summary.eigenvalues == (lmax[i], lmin[i])
        assert summary.condition_index == ci[i]
        res = ci_test(a)
        assert (res.statistic, res.p_value) == (ci[i], ci_p[i])
        for res, (stat, f, df, _) in ((t2_one_sample(a, mu), t2),
                                      (t2_paired(a, b), paired),
                                      (t2_two_sample(a, b), two)):
            assert (res.statistic, res.f_value, res.df) == (stat[i], f[i], df)
            assert res.p_value == f_sf(f[i], *df)
    # repeated-measures ANOVA2circ over random (k, n) condition-by-unit blocks
    rng = np.random.default_rng(int(scale * 1e3))
    for k, m in rng.integers(2, 9, size=(6, 2)):
        Y = scale * groups_block(int(k * m), 10, k, m)
        stat, f, df, bad = kernels.anova2circ_repeated(Y)
        assert not bad.any()
        units = tuple(f"u{j}" for j in range(m))
        for i in range(len(Y)):
            res = anova2circ_repeated([ComplexSample(g, str(j), units)
                                       for j, g in enumerate(Y[i])])
            assert (res.statistic, res.f_value, res.df) == (stat[i], f[i], df)
            assert res.p_value == f_sf(f[i], *df)


def test_degeneracy_rule_is_shared():
    # lambda_min / trace = 9.9997e-13 sits at the 1e-12 threshold; the
    # eigenvalue and determinant forms of the rule used to disagree here, so
    # ci_test raised while t2_one_sample returned a result. The sample is
    # degenerate: its exact determinant is below the threshold, while
    # a c - b b rounded to just above it
    z = np.array([-2.5543706144102805 + 0.06144651687543079j,
                  -2.0328941861980665 - 1.9559786093331912j,
                  -2.3988929873164877 - 0.540038977004919j])
    sample = ComplexSample(z)
    flagged = covariance_summary(sample).degenerate
    assert flagged
    assert bool(kernels.condition_index(z)[1]) == flagged

    def raises(test):
        try:
            test(sample)
        except DegenerateCovariance:
            return True
        return False

    assert raises(ci_test) == flagged
    assert raises(t2_one_sample) == flagged


def test_unequal_group_sizes():
    rng = np.random.default_rng(3)
    sizes = (3, 7, 5)
    values = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in sizes]
    _, f, df, _ = kernels.anova2circ_independent(values)
    assert df == (4, 2 * (sum(sizes) - 3))
    assert f == anova2circ_independent(
        [ComplexSample(v, str(j)) for j, v in enumerate(values)]).f_value


def test_leading_axes_are_independent():
    X = groups_block(1, 12, 1, 7)[:, 0].reshape(3, 4, 7)
    t2, f, df, _ = kernels.t2_one_sample(X)
    assert f.shape == t2.shape == (3, 4) and df == (2, 5)
    np.testing.assert_array_equal(f[1], kernels.t2_one_sample(X[1])[1])


def test_zero_mean_gives_zero_f():
    # the scalar tests return 0 before looking at the covariance
    z = np.array([1.0, -1.0, 2.0, -2.0]) + 0j  # collinear and mean zero
    _, f, _, bad = kernels.t2_one_sample(z[None, :])
    assert f[0] == 0.0 and not bad[0]
    assert t2_one_sample(ComplexSample(z)).f_value == 0.0
    _, f, _, bad = kernels.t2circ_one_sample(np.zeros((1, 4), complex))
    assert f[0] == 0.0 and not bad[0]


def test_degenerate_samples_are_flagged_like_the_scalar_errors():
    line = np.array([1.0, 2.0, 3.0, 5.0]) * (1 + 1j)  # rank-one covariance
    _, f, _, bad = kernels.t2_one_sample(line[None, :])
    assert bad[0] and f[0] == np.inf
    with pytest.raises(DegenerateCovariance):
        t2_one_sample(ComplexSample(line))
    ci, bad = kernels.condition_index(line[None, :])
    assert bad[0] and ci[0] == np.inf

    same = np.full(4, 2 + 1j)
    _, f, _, bad = kernels.t2circ_one_sample(same[None, :])
    assert bad[0] and f[0] == np.inf
    with pytest.raises(ZeroResidualVariance):
        t2circ_one_sample(ComplexSample(same))

    groups = [line[None, :], line[None, :] + 1.0]
    _, f, _, bad = kernels.manova_oneway(groups)
    assert bad[0] and f[0] == np.inf
    with pytest.raises(SingularWithinScatter):
        manova_oneway([ComplexSample(g[0], str(j)) for j, g in enumerate(groups)])

    constant = [same[None, :], same[None, :] + 1.0]
    _, f, _, bad = kernels.anova2circ_independent(constant)
    assert bad[0] and f[0] == np.inf
    with pytest.raises(ZeroResidualVariance):
        anova2circ_independent(
            [ComplexSample(g[0], str(j)) for j, g in enumerate(constant)])
