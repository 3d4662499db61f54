"""Hypothesis tests: hand-worked examples, oracles, structural identities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import fdtr

from phasorstats import (
    AdjacencyGraph,
    ComplexSample,
    Design,
    GroupedDataset,
    amp_ci_bootstrap,
    amp_errors_ellipse,
    anova2circ_independent,
    anova2circ_repeated,
    ci_test,
    exclude_outliers,
    mahalanobis_distances,
    manova_oneway,
    pairwise_mahalanobis,
    read_components_csv,
    read_timeseries_csv,
    run_flowchart,
    t2_one_sample,
    t2_paired,
    t2_two_sample,
    t2circ_one_sample,
    t2circ_paired,
    t2circ_two_sample,
)
from phasorstats import inference
from phasorstats.data import align_units
from phasorstats.exceptions import (
    DegenerateCovariance,
    DomainError,
    LabelMismatch,
    MalformedInput,
    SingularWithinScatter,
    TooFewGroups,
    TooFewObservations,
    ZeroResidualVariance,
)

CROSS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def gaussian_sample(seed, n=10, condition="c", units=False, mean=0j, spread=1.0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    values = (z[:, 0] + 1j * z[:, 1]) * spread + mean
    labels = tuple(f"u{i}" for i in range(n)) if units else None
    return ComplexSample(values, condition, labels)


# Brute-force oracles: plain loops and numpy.linalg, no shared code with the
# package internals.

def oracle_t2_one_sample(values, mu):
    n = len(values)
    x = np.column_stack([np.real(values), np.imag(values)])
    xbar = x.mean(axis=0)
    cov = np.zeros((2, 2))
    for row in x:
        d = row - xbar
        cov += np.outer(d, d)
    cov /= n - 1
    delta = xbar - np.array([mu.real, mu.imag])
    return n * float(delta @ np.linalg.inv(cov) @ delta)


def oracle_t2circ_one_sample(values, mu):
    n = len(values)
    xbar = sum(values) / n
    num = abs(xbar - mu) ** 2
    den = sum(abs(v - xbar) ** 2 for v in values)
    return (n - 1) * num / den


def oracle_anova2circ(groups):
    all_values = [v for g in groups for v in g]
    grand = sum(all_values) / len(all_values)
    k = len(groups)
    ss_m = 0.0
    ss_r = 0.0
    for g in groups:
        gm = sum(g) / len(g)
        ss_m += len(g) * abs(gm - grand) ** 2
        for v in g:
            ss_r += abs(v - gm) ** 2
    df_m = 2 * (k - 1)
    df_r = 2 * (len(all_values) - k)
    return (ss_m / df_m) / (ss_r / df_r)


class TestT2OneSample:
    def test_zero_when_mean_equals_mu(self):
        res = t2_one_sample(ComplexSample(CROSS), 0j)
        assert res.statistic == pytest.approx(0.0, abs=1e-15)
        assert res.p_value == pytest.approx(1.0)

    def test_translation_invariance(self):
        s = gaussian_sample(0)
        shift = 2.3 - 0.7j
        shifted = ComplexSample(s.observations + shift)
        a = t2_one_sample(s, 0.1 + 0.2j)
        b = t2_one_sample(shifted, 0.1 + 0.2j + shift)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_matches_oracle(self):
        for seed in range(25):
            s = gaussian_sample(seed)
            mu = complex(seed % 3 * 0.1, -0.2)
            res = t2_one_sample(s, mu)
            assert res.statistic == pytest.approx(
                oracle_t2_one_sample(s.observations, mu), rel=1e-10
            )
            assert res.df == (2, s.n - 2)
            assert res.f_value == pytest.approx(
                res.statistic * (s.n - 2) / (2 * (s.n - 1)), rel=1e-12
            )

    def test_preconditions(self):
        with pytest.raises(TooFewObservations):
            t2_one_sample(ComplexSample([1 + 1j, 2 + 2j]), 0j)
        collinear = ComplexSample([(x, 2 * x) for x in (1.0, 2.0, 3.0, 4.0)])
        with pytest.raises(DegenerateCovariance):
            t2_one_sample(collinear, 0j)


class TestT2circOneSample:
    def test_zero_when_mean_equals_mu(self):
        s = gaussian_sample(1)
        res = t2circ_one_sample(s, s.observations.mean())
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_hand_example(self):
        res = t2circ_one_sample(ComplexSample([(2, 0), (2, 1), (3, 0), (3, 1)]), 0j)
        assert res.statistic == pytest.approx(9.75, rel=1e-12)
        assert res.f_value == pytest.approx(39.0, rel=1e-12)
        assert res.df == (2, 6)

    def test_zero_residual(self):
        with pytest.raises(ZeroResidualVariance):
            t2circ_one_sample(ComplexSample([(1, 1)] * 4), 0j)

    @pytest.mark.parametrize("test", [t2_one_sample, t2circ_one_sample])
    def test_mu_not_a_number(self, test):
        # complex("x") used to escape as a raw ValueError
        with pytest.raises(DomainError, match="malformed string"):
            test(gaussian_sample(1), mu="x")

    @pytest.mark.parametrize("test", [t2_one_sample, t2circ_one_sample])
    @pytest.mark.parametrize("mu", [complex("inf"), complex(0, -math.inf),
                                    complex("nan"), complex(1, math.nan)])
    def test_mu_not_finite(self, test, mu):
        # inf used to give p = 0 and nan a message about the F statistic
        with pytest.raises(DomainError, match="mu must be finite"):
            test(gaussian_sample(1), mu)

    def test_matches_oracle(self):
        for seed in range(25):
            s = gaussian_sample(seed, n=7)
            res = t2circ_one_sample(s, 0.3j)
            assert res.statistic == pytest.approx(
                oracle_t2circ_one_sample(list(s.observations), 0.3j), rel=1e-10
            )


class TestTwoSample:
    def test_identical_samples_give_zero(self):
        s = gaussian_sample(2)
        for fn in (t2_two_sample, t2circ_two_sample):
            res = fn(s, ComplexSample(s.observations.copy()))
            assert res.statistic == pytest.approx(0.0, abs=1e-12)
            assert res.p_value == pytest.approx(1.0)

    def test_dfs(self):
        a = gaussian_sample(3, n=9)
        b = gaussian_sample(4, n=6)
        assert t2_two_sample(a, b).df == (2, 9 + 6 - 3)
        assert t2circ_two_sample(a, b).df == (2, 2 * (9 + 6 - 2))
        eq = gaussian_sample(5, n=8)
        assert t2circ_two_sample(eq, gaussian_sample(6, n=8)).df == (2, 4 * 8 - 4)

    def test_t2circ_equals_anova_at_k2(self):
        # the one-way circular ANOVA with two groups must reproduce the
        # two-sample statistic exactly, balanced or not
        for na, nb in ((8, 8), (9, 5)):
            a = gaussian_sample(7, n=na, mean=0.4)
            b = gaussian_sample(8, n=nb)
            two = t2circ_two_sample(a, b)
            anova = anova2circ_independent([a, b])
            assert two.f_value == pytest.approx(anova.f_value, rel=1e-10)
            assert two.df == anova.df
            assert two.p_value == pytest.approx(anova.p_value, rel=1e-10)

    def test_pillai_equals_t2_at_k2(self):
        for seed in range(10):
            a = gaussian_sample(seed, n=8, mean=0.5j)
            b = gaussian_sample(seed + 100, n=11)
            hotelling = t2_two_sample(a, b)
            pillai = manova_oneway([a, b])
            assert pillai.p_value == pytest.approx(hotelling.p_value, abs=1e-9)
            assert pillai.df == hotelling.df

    def test_effect_size_attached(self):
        a = gaussian_sample(9, n=8, mean=1.0)
        b = gaussian_sample(10, n=8)
        res = t2_two_sample(a, b)
        assert res.effect_size is not None and res.effect_size > 0


class TestPaired:
    def test_equal_samples(self):
        s = gaussian_sample(11, units=True)
        t = ComplexSample(s.observations.copy(), "other", s.unit_labels)
        assert t2circ_paired(s, t).p_value == pytest.approx(1.0)

    def test_swap_symmetry(self):
        a = gaussian_sample(12, units=True, mean=0.3)
        b = gaussian_sample(13, units=True)
        ab = t2circ_paired(a, b)
        ba = t2circ_paired(b, a)
        assert ab.statistic == pytest.approx(ba.statistic, rel=1e-12)
        assert ab.p_value == pytest.approx(ba.p_value, rel=1e-12)

    def test_equals_one_sample_on_differences(self):
        a = gaussian_sample(14, units=True, mean=0.5 + 0.1j)
        b = gaussian_sample(15, units=True)
        paired = t2circ_paired(a, b)
        diffs = ComplexSample(a.observations - b.observations)
        direct = t2circ_one_sample(diffs, 0j)
        assert paired.statistic == pytest.approx(direct.statistic, rel=1e-12)
        assert paired.f_value == pytest.approx(direct.f_value, rel=1e-12)

    def test_alignment_is_by_label(self):
        a = ComplexSample([1 + 0j, 2 + 1j, 3 - 1j], "a", ("u1", "u2", "u3"))
        b_sorted = ComplexSample([1.1 + 0.2j, 2.3 + 0j, 3.1 + 0.5j], "b",
                                 ("u1", "u2", "u3"))
        b_shuffled = ComplexSample([3.1 + 0.5j, 1.1 + 0.2j, 2.3 + 0j], "b",
                                   ("u3", "u1", "u2"))
        r1 = t2circ_paired(a, b_sorted)
        r2 = t2circ_paired(a, b_shuffled)
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-12)

    def test_missing_labels(self):
        a = gaussian_sample(16)
        b = gaussian_sample(17)
        with pytest.raises(LabelMismatch):
            t2circ_paired(a, b)

    @pytest.mark.parametrize("contract,scalar", [(inference.T2, t2_paired),
                                                 (inference.T2CIRC, t2circ_paired)])
    def test_batch_keeps_each_pairs_first_unit_order(self, contract, scalar):
        # four conditions, each listing its 40 units in its own order; every
        # ordered pair, so most pairs start at a condition whose order is
        # not the dataset's reference (the first condition's)
        rng = np.random.default_rng(21)
        units = [f"u{i}" for i in range(40)]
        samples = []
        for c in range(4):
            order = rng.permutation(40) if c else np.arange(40)
            z = rng.standard_normal((40, 2)) @ [[3.0, 0.4], [0.0, 0.7]]
            values = z[:, 0] + 1j * z[:, 1] + 0.1 * c
            samples.append(ComplexSample(values[order], f"c{c}",
                                         tuple(units[i] for i in order)))
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        batch = inference.paired_results(contract, samples, pairs)
        moved = []
        for (i, j), got in zip(pairs, batch):
            a, b = samples[i], samples[j]
            observed = (a.observations, b.observations)
            # the pair on its own: aligned to a's units, as t2_paired did
            # before the batch, and through the public call
            (va, vb), _ = align_units((a, b))
            alone = contract.results(va - vb, 0j, pair=observed)[0]
            assert got.to_json() == alone.to_json() == scalar(a, b).to_json()
            (ra, rb), _ = align_units((a, b), order=units)
            moved.append(contract.results(ra - rb, 0j, pair=observed)[0] != alone)
        # the reference order gives other bits here, so a batch that kept
        # it would fail the assertion above
        assert any(moved)

    def test_overflowing_difference_is_malformed_input(self):
        labels = ("u1", "u2", "u3", "u4")
        a = ComplexSample([1e308, 1.0, 2.0, 3.0], "a", labels)
        b = ComplexSample([-1e308, 1.5, 2.7, 3.1], "b", labels)
        c = ComplexSample([0.5, 1.0, 2.5, 3.5], "c", labels[::-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning first
            for call in (lambda: t2_paired(a, b), lambda: t2circ_paired(a, b),
                         lambda: inference.paired_results(
                             inference.T2, (c, a, b), [(0, 1), (1, 2)])):
                with pytest.raises(MalformedInput, match="must be finite"):
                    call()


class TestCITest:
    def test_cross_pattern(self):
        res = ci_test(ComplexSample(CROSS))
        assert res.statistic == pytest.approx(1.0)
        assert res.p_value == pytest.approx(1.0)

    def test_needs_three(self):
        with pytest.raises(TooFewObservations):
            ci_test(ComplexSample([1 + 1j, 2 - 1j]))

    def test_degenerate(self):
        with pytest.raises(DegenerateCovariance):
            ci_test(ComplexSample([(x, 0) for x in (1.0, 2.0, 3.0)]))

    @pytest.mark.filterwarnings("error")
    def test_zero_covariance_raises_without_warning(self):
        # the 0 / 0 condition index used to leak a RuntimeWarning first
        with pytest.raises(DegenerateCovariance, match="degenerate"):
            ci_test(ComplexSample(np.full(4, 1 + 1j)))

    def test_not_f_based(self):
        res = ci_test(gaussian_sample(18))
        assert res.f_value is None and res.df is None
        assert res.statistic_name == "CI_test"


class TestAnova2circ:
    def test_identical_groups(self):
        s = gaussian_sample(19)
        groups = [ComplexSample(s.observations.copy(), str(i)) for i in range(3)]
        res = anova2circ_independent(groups)
        assert res.f_value == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_dfs_k3_n5(self):
        groups = [gaussian_sample(20 + i, n=5) for i in range(3)]
        assert anova2circ_independent(groups).df == (4, 24)

    def test_unbalanced_df(self):
        groups = [gaussian_sample(30, n=4), gaussian_sample(31, n=7),
                  gaussian_sample(32, n=5)]
        assert anova2circ_independent(groups).df == (4, 2 * (16 - 3))

    def test_matches_oracle(self):
        for seed in range(15):
            groups = [
                gaussian_sample(seed * 10 + i, n=5 + i, mean=0.2 * i)
                for i in range(3)
            ]
            res = anova2circ_independent(groups)
            assert res.f_value == pytest.approx(
                oracle_anova2circ([list(g.observations) for g in groups]),
                rel=1e-10,
            )

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            anova2circ_independent([gaussian_sample(33)])


class TestAnova2circRepeated:
    def test_identical_conditions(self):
        s = gaussian_sample(34, units=True)
        groups = [
            ComplexSample(s.observations.copy(), str(i), s.unit_labels)
            for i in range(4)
        ]
        res = anova2circ_repeated(groups)
        assert res.f_value == pytest.approx(0.0, abs=1e-12)

    def test_df_formula(self):
        n, k = 9, 4
        groups = [gaussian_sample(40 + i, n=n, units=True) for i in range(k)]
        res = anova2circ_repeated(groups)
        assert res.df == (2 * (k - 1), 2 * (n - 1) * (k - 1))

    def test_k2_reduces_to_paired(self):
        a = gaussian_sample(50, units=True, mean=0.4)
        b = gaussian_sample(51, units=True)
        rm = anova2circ_repeated([a, b])
        paired = t2circ_paired(a, b)
        assert rm.f_value == pytest.approx(paired.f_value, rel=1e-9)
        assert rm.df == paired.df
        assert rm.p_value == pytest.approx(paired.p_value, abs=1e-9)

    def test_subject_effects_removed(self):
        # adding a constant per unit across all conditions must not change F
        groups = [gaussian_sample(60 + i, n=8, units=True, mean=0.3 * i)
                  for i in range(3)]
        rng = np.random.default_rng(99)
        offsets = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        shifted = [
            ComplexSample(g.observations + offsets, g.condition_label,
                          g.unit_labels)
            for g in groups
        ]
        base = anova2circ_repeated(groups)
        after = anova2circ_repeated(shifted)
        assert base.f_value == pytest.approx(after.f_value, rel=1e-9)


class TestManova:
    def test_identical_groups(self):
        s = gaussian_sample(70)
        groups = [ComplexSample(s.observations.copy(), str(i)) for i in range(3)]
        res = manova_oneway(groups)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_df_k3(self):
        groups = [gaussian_sample(71 + i, n=10) for i in range(3)]
        res = manova_oneway(groups)
        assert res.df == (4, 2 * (30 - 3))

    def test_singular_within(self):
        groups = [
            ComplexSample([(x, 0) for x in (1.0, 2.0, 3.0)], "a"),
            ComplexSample([(x, 0) for x in (4.0, 5.0, 6.0)], "b"),
        ]
        with pytest.raises(SingularWithinScatter):
            manova_oneway(groups)


class TestArgumentTypes:
    # a sample or group of the wrong type used to raise a raw AttributeError
    # ("'int' object has no attribute 'observations'")
    S = gaussian_sample(1, n=6, units=True)

    @pytest.mark.parametrize("test,args,message", [
        (t2_one_sample, (5,), "sample must be a ComplexSample, got int"),
        (t2circ_one_sample, ("x",), "sample must be a ComplexSample, got str"),
        (ci_test, (None,), "sample must be a ComplexSample, got NoneType"),
        (t2_two_sample, (S, 5), "b must be a ComplexSample, got int"),
        (t2circ_two_sample, (1j, S), "a must be a ComplexSample, got complex"),
        (t2_paired, (S, [1, 2]), "b must be a ComplexSample, got list"),
        (t2circ_paired, (np.ones(6), S), "a must be a ComplexSample, got ndarray"),
        (anova2circ_independent, ([S, 5],), r"groups\[1\] must be a ComplexSample, got int"),
        (anova2circ_repeated, ([S, S, None],),
         r"groups\[2\] must be a ComplexSample, got NoneType"),
        (manova_oneway, ([S, 5],), r"groups\[1\] must be a ComplexSample, got int"),
        (manova_oneway, (5,), "groups must be an iterable of ComplexSample, got int"),
        # the computations beside the tests, and the objects that hold samples
        # (a raw AttributeError or TypeError before)
        (amp_errors_ellipse, (5,), "sample must be a ComplexSample, got int"),
        (amp_ci_bootstrap, (5,), "sample must be a ComplexSample, got int"),
        (mahalanobis_distances, ([1, 2, 3],), "sample must be a ComplexSample, got list"),
        (pairwise_mahalanobis, (S, 5), "b must be a ComplexSample, got int"),
        (GroupedDataset, ((5,), Design.ONE_SAMPLE),
         r"samples\[0\] must be a ComplexSample, got int"),
        (GroupedDataset, (5, Design.ONE_SAMPLE),
         "samples must be an iterable of ComplexSample, got int"),
        (exclude_outliers, (5,), "dataset must be a GroupedDataset, got int"),
        (run_flowchart, (5,), "dataset must be a GroupedDataset, got int"),
        # a path that is not a path: an int used to be read as a file
        # descriptor, and closed
        (read_components_csv, (0,), "path must be a str or os.PathLike, got int"),
        (read_timeseries_csv, (None,),
         "path must be a str or os.PathLike, got NoneType"),
        (AdjacencyGraph.from_edge_list, (1.5, 3),
         "path must be a str or os.PathLike, got float"),
    ], ids=["t2_one_sample", "t2circ_one_sample", "ci_test", "t2_two_sample",
            "t2circ_two_sample", "t2_paired", "t2circ_paired",
            "anova2circ_independent", "anova2circ_repeated", "manova_oneway",
            "manova_oneway-groups", "amp_errors_ellipse", "amp_ci_bootstrap",
            "mahalanobis_distances", "pairwise_mahalanobis",
            "GroupedDataset-sample", "GroupedDataset-samples", "exclude_outliers",
            "run_flowchart", "read_components_csv", "read_timeseries_csv",
            "from_edge_list"])
    def test_wrong_type_is_a_domain_error(self, test, args, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            test(*args)


class TestInvariances:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_rotation_and_scale(self, seed, angle, scale):
        s = gaussian_sample(seed, n=9, mean=0.6)
        mu = 0.1 - 0.2j
        factor = scale * np.exp(1j * angle)
        transformed = ComplexSample(s.observations * factor)
        for fn in (t2_one_sample, t2circ_one_sample):
            base = fn(s, mu)
            moved = fn(transformed, mu * factor)
            assert moved.statistic == pytest.approx(base.statistic, rel=1e-9)
            assert moved.p_value == pytest.approx(base.p_value, abs=1e-9)
        base_ci = ci_test(s)
        moved_ci = ci_test(transformed)
        assert moved_ci.statistic == pytest.approx(base_ci.statistic, rel=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_anova_rotation_scale(self, seed):
        rng = np.random.default_rng(seed)
        groups = [gaussian_sample(seed + i, n=6, mean=0.5 * i) for i in range(3)]
        factor = float(rng.uniform(0.1, 5.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        moved = [
            ComplexSample(g.observations * factor, g.condition_label)
            for g in groups
        ]
        base = anova2circ_independent(groups)
        after = anova2circ_independent(moved)
        assert after.f_value == pytest.approx(base.f_value, rel=1e-9)

    @given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_f_equals_n_times_t2circ(self, n, seed):
        s = gaussian_sample(seed, n=n, mean=0.3)
        res = t2circ_one_sample(s, 0j)
        assert res.f_value == pytest.approx(n * res.statistic, rel=1e-12)
        assert res.df == (2, 2 * n - 2)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_p_is_upper_tail_of_f(self, seed):
        s = gaussian_sample(seed, n=8, mean=0.4)
        for fn in (t2_one_sample, t2circ_one_sample):
            res = fn(s, 0j)
            assert res.p_value == pytest.approx(
                1.0 - fdtr(*res.df, res.f_value), abs=1e-12
            )


class TestNullCalibration:
    @staticmethod
    def _draw(rng, n, r=0.0):
        z = rng.standard_normal((n, 2))
        return ComplexSample(z[:, 0] + 1j * (r * z[:, 0] + math.sqrt(1 - r * r) * z[:, 1]))

    def test_two_sample_tests_hold_alpha(self):
        rng = np.random.default_rng(101)
        reps = 10000
        hits_t2 = hits_circ = 0
        for _ in range(reps):
            a, b = self._draw(rng, 10), self._draw(rng, 10)
            if t2_two_sample(a, b).p_value < 0.05:
                hits_t2 += 1
            if t2circ_two_sample(a, b).p_value < 0.05:
                hits_circ += 1
        assert hits_t2 / reps == pytest.approx(0.05, abs=0.01)
        assert hits_circ / reps == pytest.approx(0.05, abs=0.01)

    def test_manova_calibrated_where_anova2circ_inflates(self):
        # correlated data: the covariance-aware MANOVA holds alpha while
        # the circular ANOVA overshoots
        rng = np.random.default_rng(102)
        reps = 10000
        hits_m = hits_a = 0
        for _ in range(reps):
            groups = [self._draw(rng, 10, r=0.9) for _ in range(3)]
            if manova_oneway(groups).p_value < 0.05:
                hits_m += 1
            if anova2circ_independent(groups).p_value < 0.05:
                hits_a += 1
        assert hits_m / reps == pytest.approx(0.05, abs=0.01)
        assert hits_a / reps > 0.08


class TestSphericityConvergence:
    def test_p_values_converge_for_spherical_data(self):
        # data whitened to exactly equal variances and zero correlation:
        # the two tests must agree closely by N = 200
        rng = np.random.default_rng(5)
        n = 200
        z = rng.standard_normal((n, 2))
        z = (z - z.mean(axis=0)) @ np.linalg.inv(np.linalg.cholesky(np.cov(z.T))).T
        values = z[:, 0] + 1j * z[:, 1] + (0.25 + 0.1j)
        s = ComplexSample(values)
        p_t2 = t2_one_sample(s, 0j).p_value
        p_circ = t2circ_one_sample(s, 0j).p_value
        assert abs(p_t2 - p_circ) < 0.01
