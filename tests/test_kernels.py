"""Batched kernels against the scalar tests, including degenerate samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstats import (
    ComplexSample,
    ConditionIndexDistribution,
    amp_errors_ellipse,
    anova2circ_independent,
    anova2circ_repeated,
    ci_test,
    covariance_summary,
    f_sf,
    mahalanobis_distances,
    manova_oneway,
    t2_one_sample,
    t2_paired,
    t2_two_sample,
    t2circ_one_sample,
    t2circ_paired,
    t2circ_two_sample,
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


#: Memory layouts of a batch (reps, ..., n) holding the same values: C order,
#: Fortran order, the sample axis outermost, a strided view of the sample
#: axis and a boolean selection along it.
LAYOUTS = (
    np.ascontiguousarray,
    np.asfortranarray,
    lambda X: np.moveaxis(np.ascontiguousarray(np.moveaxis(X, -1, 0)), 0, -1),
    lambda X: np.repeat(X, 2, axis=-1)[..., ::2],
    lambda X: np.repeat(X, 2, axis=-1)[..., np.arange(2 * X.shape[-1]) % 2 == 1],
)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 6), (5, 4)])
def test_k_group_kernels_match_scalar_tests(k, n):
    # the scalar tests run the kernels on 1-d groups; batching over a
    # leading axis, in any memory layout, must give the same bits
    X = groups_block(k * n, 20, k, n)
    results = []
    for block in X:
        samples = [ComplexSample(g, str(j)) for j, g in enumerate(block)]
        results.append((anova2circ_independent(samples), manova_oneway(samples)))
    for layout in LAYOUTS:
        groups = list(layout(X).swapaxes(0, 1))
        _, f_anova, df_anova, bad_anova = kernels.anova2circ_independent(groups)
        pillai, f_manova, df_manova, bad_manova = kernels.manova_oneway(groups)
        assert not bad_anova.any() and not bad_manova.any()
        for i, (anova, manova) in enumerate(results):
            assert (f_anova[i], df_anova) == (anova.f_value, anova.df)
            assert (pillai[i], f_manova[i], df_manova) == (
                manova.statistic, manova.f_value, manova.df)


#: Layouts of a stacked (reps, k, n) block: those above, and the groups axis
#: outermost in memory, as a stack of k separate (reps, n) arrays lies.
STACKED_LAYOUTS = LAYOUTS + (
    lambda X: np.ascontiguousarray(X.swapaxes(0, 1)).swapaxes(0, 1),
)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 9), n=st.integers(2, 70), reps=st.integers(1, 50),
       layout=st.sampled_from(STACKED_LAYOUTS),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_stacked_groups_are_the_list_bit_for_bit(k, n, reps, layout, scale, seed):
    # the stacked (reps, k, n) block takes one scatter pass and the list of
    # k groups one per group; both feed the one fold over groups in order,
    # so every output bit agrees (k >= 8 is where a pairwise sum over the
    # groups axis would round differently from the fold)
    X = scale * groups_block(seed, reps, k, n)
    groups = list(X.swapaxes(0, 1))
    for kernel in (kernels.anova2circ_independent, kernels.manova_oneway):
        stat, f, df, bad = kernel(layout(X))
        want_stat, want_f, want_df, want_bad = kernel(groups)
        assert df == want_df and stat.shape == f.shape == (reps,)
        assert np.array_equal(stat.view(np.uint64), want_stat.view(np.uint64))
        assert np.array_equal(f.view(np.uint64), want_f.view(np.uint64))
        assert np.array_equal(bad, want_bad)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_scalar_tests_are_rows_of_one_batched_call(scale):
    # the scalar tests run the kernels on a batch of one: each result must be
    # the matching row of one batched call, bit for bit, in any memory layout
    reps, n = 40, 7
    X = scale * (groups_block(7, reps, 2, n)
                 + np.array([[3 - 2j], [-1 + 4j]]))
    mu = scale * (1.5 - 0.5j)
    labels = tuple(f"u{j}" for j in range(n))
    rows = []
    for x, y in X:
        a, b = ComplexSample(x, "a", labels), ComplexSample(y, "b", labels)
        rows.append((covariance_summary(a), ci_test(a), mahalanobis_distances(a), (
            t2_one_sample(a, mu), t2_paired(a, b), t2_two_sample(a, b),
            t2circ_one_sample(a, mu), t2circ_paired(a, b),
            t2circ_two_sample(a, b))))
    for layout in LAYOUTS:
        A, B = layout(X[:, 0]), layout(X[:, 1])
        _, (ca, cb, cc), (lmax, lmin), ci, ci_bad = kernels.spectrum(A)
        batched = (kernels.t2_one_sample(A, mu), kernels.t2_one_sample(A - B),
                   kernels.t2_two_sample(A, B), kernels.t2circ_one_sample(A, mu),
                   kernels.t2circ_one_sample(A - B),
                   kernels.t2circ_two_sample(A, B))
        D, D_bad = kernels.mahalanobis(A)
        assert not (ci_bad.any() or D_bad.any() or any(r[3].any() for r in batched))
        ci_p = ConditionIndexDistribution(n, "modified").sf(ci)
        for i, (summary, ci_res, dist, results) in enumerate(rows):
            assert dist.distances == tuple(D[i].tolist())
            assert summary.cov.tolist() == [[ca[i], cb[i]], [cb[i], cc[i]]]
            assert summary.eigenvalues == (lmax[i], lmin[i])
            assert summary.condition_index == ci[i]
            assert (ci_res.statistic, ci_res.p_value) == (ci[i], ci_p[i])
            for res, (stat, f, df, _) in zip(results, batched):
                assert (res.statistic, res.f_value, res.df) == (stat[i], f[i], df)
                assert res.p_value == f_sf(f[i], *df)
    # repeated-measures ANOVA2circ over random (k, n) condition-by-unit blocks
    rng = np.random.default_rng(int(scale * 1e3))
    for k, m in rng.integers(2, 9, size=(6, 2)):
        Y = scale * groups_block(int(k * m), 10, k, m)
        units = tuple(f"u{j}" for j in range(m))
        results = [anova2circ_repeated([ComplexSample(g, str(j), units)
                                        for j, g in enumerate(block)])
                   for block in Y]
        for layout in LAYOUTS:
            stat, f, df, bad = kernels.anova2circ_repeated(layout(Y))
            assert not bad.any()
            for i, res in enumerate(results):
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
    d, bad = kernels.mahalanobis(np.stack([line, line + 1j * np.arange(4)]))
    assert bad.tolist() == [True, False] and np.isnan(d[0]).all()
    assert np.isfinite(d[1]).all()
    with pytest.raises(DegenerateCovariance):
        mahalanobis_distances(ComplexSample(line))

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


class TestDegeneracyAtAnyScale:
    # a, b, c are scaled by a power of two before their products wherever the
    # trace lies outside [2^-400, 2^400]; the products used to overflow above
    # about 1e154 and fall to subnormals below about 1e-154
    LINE = np.arange(5) * (1 + 2j) + 0.3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e80, 1e100, 1e140])
    def test_collinear_sample_is_degenerate(self, scale):
        sample = ComplexSample(self.LINE * scale)
        _, a, b, c = kernels.covariance(sample.observations)
        assert kernels.degenerate(a, b, c)
        with pytest.raises(DegenerateCovariance):
            amp_errors_ellipse(sample)
        with pytest.raises(DegenerateCovariance):
            ci_test(sample)

    @pytest.mark.parametrize("scale", [1.0, 1e80, 1e100, 1e140])
    def test_t2_refuses_collinear_sample(self, scale):
        # its error type only: hotelling's own a c - b b still overflows here
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateCovariance):
                t2_one_sample(ComplexSample(self.LINE * scale))

    @pytest.mark.filterwarnings("error")
    def test_rule_is_invariant_under_powers_of_two(self):
        rng = np.random.default_rng(11)
        # random covariances of many shapes, and randomly rotated matrices
        # with lambda_min / trace at 1e-12 up to the rounding of their
        # entries, which the exact product errors decide
        X = rng.standard_normal((200, 6)) + 1j * rng.standard_normal((200, 6))
        X *= 10.0 ** rng.uniform(-8, 0, (200, 1))
        X.real *= 10.0 ** rng.uniform(-8, 0, (200, 1))
        _, a, b, c = kernels.covariance(X)
        lmin = kernels.DEGENERACY_RTOL * (1 + rng.uniform(-1e-9, 1e-9, 200))
        lmin /= 1 - kernels.DEGENERACY_RTOL  # lambda_min / (1 + lambda_min)
        t = rng.uniform(0, np.pi, 200)
        cos, sin = np.cos(t), np.sin(t)
        a = np.concatenate([a, cos * cos + lmin * sin * sin])
        b = np.concatenate([b, (1 - lmin) * cos * sin])
        c = np.concatenate([c, sin * sin + lmin * cos * cos])
        expected = kernels.degenerate(a, b, c)
        assert 0 < expected[200:].sum() < 200  # both sides of the threshold
        for k in range(-490, 491):
            scaled = kernels.degenerate(np.ldexp(a, k), np.ldexp(b, k),
                                        np.ldexp(c, k))
            np.testing.assert_array_equal(scaled, expected, err_msg=f"k = {k}")
        for i in range(0, 400, 37):  # scalar calls
            for k in (-490, -400, -130, 0, 170, 400, 490):
                assert kernels.degenerate(
                    *(np.ldexp(v[i], k) for v in (a, b, c))) == expected[i]
        # one matrix a call: its products fall to subnormals with no other
        # entry of the call to send it to the exact rule
        for k in range(-540, -495):
            for i in range(200, 400):
                assert kernels.degenerate(
                    *(np.ldexp(v[i], k) for v in (a, b, c))) == expected[i]
        # a zero matrix is degenerate, also beside one that is scaled
        big = np.array([0.0, 2.0**450])
        assert kernels.degenerate(big, np.zeros(2), big).tolist() == [True, False]


@pytest.mark.filterwarnings("error")
def test_diagonal_covariance_gets_the_unit_axis_of_its_larger_entry():
    # a and c one ulp apart: eig2 rounds lmax down to the smaller entry, so
    # lmax - c is 0 and the axis used to be (0, 0), which eigvecs2 divided
    # by its zero norm
    below = float(np.nextafter(0.01, 0.0))
    assert kernels.eig2(0.01, 0.0, below)[0] == below
    x_axis, y_axis = [[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]
    cases = [(0.01, below, x_axis), (below, 0.01, y_axis), (2.0, 2.0, x_axis),
             (3.0, 1.0, x_axis), (1.0, 3.0, y_axis), (0.0, 0.0, x_axis)]
    for a, c, expected in cases:
        lmax, _ = kernels.eig2(a, 0.0, c)
        np.testing.assert_array_equal(kernels.eigvecs2(a, 0.0, c, lmax), expected)
    a, c = (np.array(v) for v in zip(*((a, c) for a, c, _ in cases)))
    x, y = kernels._major_axis(a, np.zeros_like(a), c, kernels.eig2(a, 0.0, c)[0])
    assert x.tolist() == [1.0, 0.0, 1.0, 1.0, 0.0, 1.0]
    assert y.tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]
