"""Permutation cluster correction: kernels, determinism, calibration."""

import json
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from phasorstats import (
    AdjacencyGraph,
    ClusterResult,
    ComplexSample,
    Design,
    GroupedDataset,
    build_dataset,
    cluster_correct,
    f_critical,
    f_sf,
    read_components_csv,
    t2_one_sample,
    t2_two_sample,
    t2circ_one_sample,
    t2circ_two_sample,
)
from phasorstats import clusters, kernels
from phasorstats.exceptions import (
    DegenerateCovariance,
    DesignMismatch,
    DomainError,
    InvalidGraph,
    LabelMismatch,
    MalformedInput,
    TooFewObservations,
    ZeroResidualVariance,
)

DESIGNS = {"one-sample": Design.ONE_SAMPLE, "paired": Design.PAIRED,
           "two-sample": Design.TWO_SAMPLE_INDEPENDENT}

FIXTURES = Path(__file__).parent / "fixtures"


def line_graph(k):
    return AdjacencyGraph(k, tuple((i, i + 1) for i in range(k - 1)))


def one_sample_nodes(seed, k=8, n=12, signal=None, units=False):
    """One dataset per node; `signal` maps node index to a mean shift."""
    rng = np.random.default_rng(seed)
    labels = tuple(f"u{i}" for i in range(n)) if units else None
    datasets = []
    for i in range(k):
        z = rng.standard_normal((n, 2))
        values = z[:, 0] + 1j * z[:, 1]
        if signal:
            values = values + signal.get(i, 0)
        datasets.append(
            GroupedDataset(
                (ComplexSample(values, "stim", labels),), Design.ONE_SAMPLE
            )
        )
    return datasets


def two_sample_nodes(seed, k, na, nb, signal=None):
    """Two independent groups per node; `signal` shifts group a's mean."""
    rng = np.random.default_rng(seed)
    signal = signal or {}

    def noise(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    return [
        GroupedDataset(
            (ComplexSample(noise(na) + signal.get(i, 0), "a"),
             ComplexSample(noise(nb), "b")),
            Design.TWO_SAMPLE_INDEPENDENT,
        )
        for i in range(k)
    ]


def labelled_nodes(design, seed, k=6, n=9, signal=None):
    """Nodes of `design` with unit labels listed in sorted order; group b of
    a two-sample node has two units more than group a."""
    rng = np.random.default_rng(seed)
    signal = signal or {}
    units = tuple(f"u{j:02d}" for j in range(n))
    others = tuple(f"v{j:02d}" for j in range(n + 2))

    def sample(condition, labels, shift=0j):
        z = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
        return ComplexSample(z + shift, condition, labels)

    nodes = []
    for i in range(k):
        a = sample("a", units, signal.get(i, 0j))
        rest = {"one-sample": (), "paired": (sample("b", units),),
                "two-sample": (sample("b", others),)}[design]
        nodes.append(GroupedDataset((a, *rest), DESIGNS[design]))
    return nodes


def map_samples(node, fn):
    """The node with fn(g, observations) in place of its g-th sample's."""
    return GroupedDataset(
        tuple(ComplexSample(fn(g, s.observations), s.condition_label, s.unit_labels)
              for g, s in enumerate(node.samples)),
        node.design, node.mu)


class TestAdjacencyGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraph):
            AdjacencyGraph(3, ((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidGraph):
            AdjacencyGraph(3, ((0, 3),))

    def test_deduplicates_and_orders(self):
        g = AdjacencyGraph(3, ((1, 0), (0, 1), (2, 1)))
        assert g.edges == ((0, 1), (1, 2))

    def test_from_edge_list(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n0 1\n\n1 2\n")
        g = AdjacencyGraph.from_edge_list(path, 3)
        assert g.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("node_count,edges", [
        (3, ((0, 1.5),)),  # used to be truncated to the edge (0, 1)
        (2.5, ()),
        (np.float64(3), ()),
        (3, ((0, 1, 2),)),
        (3, ((0,),)),
        (3, (0,)),
        (3, (("0", 1),)),
        ("3", ()),
        (3, None),  # non-iterable edges used to escape as a raw TypeError
        (3, 5),
    ])
    def test_rejects_non_integer_nodes_and_non_pair_edges(self, node_count, edges):
        with pytest.raises(InvalidGraph):
            AdjacencyGraph(node_count, edges)

    def test_stores_plain_ints(self):
        g = AdjacencyGraph(np.int64(3), ((np.int32(2), np.uint8(1)), (True, 0)))
        assert g.node_count == 3 and g.edges == ((0, 1), (1, 2))
        assert {type(g.node_count)} | {type(i) for e in g.edges for i in e} == {int}

    def test_edge_list_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\nnot an edge\n")
        with pytest.raises(InvalidGraph, match="line 2"):
            AdjacencyGraph.from_edge_list(path, 3)

    def test_edge_list_byte_order_mark_is_skipped(self, tmp_path):
        # the first node index used to read as "\ufeff0", not an integer
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text("0 1\n1 2\n", encoding="utf-8")
        marked.write_text("0 1\n1 2\n", encoding="utf-8-sig")
        assert (AdjacencyGraph.from_edge_list(marked, 3)
                == AdjacencyGraph.from_edge_list(plain, 3))

    def test_edge_list_must_be_utf8(self, tmp_path):
        # used to raise a raw UnicodeDecodeError
        path = tmp_path / "edges.txt"
        path.write_bytes(b"0 1\n1 2 \xff\n")
        with pytest.raises(InvalidGraph, match="edges.txt: not UTF-8"):
            AdjacencyGraph.from_edge_list(path, 3)


class TestKernelsMatchPublicTests:
    # bit for bit, also on a boolean column selection
    def test_one_sample_kernels(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        f_circ = kernels.t2circ_one_sample(V)[1]
        f_t2 = kernels.t2_one_sample(V)[1]
        for i, row in enumerate(V):
            s = ComplexSample(row)
            assert f_circ[i] == t2circ_one_sample(s, 0j).f_value
            assert f_t2[i] == t2_one_sample(s, 0j).f_value

    def test_two_sample_kernels(self):
        rng = np.random.default_rng(1)
        na, nb = 7, 9
        V = rng.standard_normal((5, na + nb)) + 1j * rng.standard_normal((5, na + nb))
        mask = np.zeros(na + nb, dtype=bool)
        mask[:na] = True
        f_circ = kernels.t2circ_two_sample(V[:, mask], V[:, ~mask])[1]
        f_t2 = kernels.t2_two_sample(V[:, mask], V[:, ~mask])[1]
        for i, row in enumerate(V):
            a = ComplexSample(row[:na])
            b = ComplexSample(row[na:])
            assert f_circ[i] == t2circ_two_sample(a, b).f_value
            assert f_t2[i] == t2_two_sample(a, b).f_value


class TestClusterCorrect:
    def test_pure_noise_usually_no_clusters(self):
        datasets = one_sample_nodes(2)
        res = cluster_correct(datasets, line_graph(8), "T2circ",
                              n_perm=200, seed=3)
        assert all(p >= 1 / 201 for p in res.corrected_p)
        assert len(res.node_results) == 8

    def test_no_supra_threshold_nodes(self):
        datasets = one_sample_nodes(4)
        # forming threshold so strict nothing passes
        res = cluster_correct(datasets, line_graph(8), "T2circ",
                              alpha_forming=1e-9, n_perm=50, seed=5)
        assert res.clusters == ()
        assert res.cluster_masses == ()

    def test_determinism(self):
        datasets = one_sample_nodes(6, signal={3: 1.5})
        a = cluster_correct(datasets, line_graph(8), "T2circ", n_perm=300, seed=11)
        b = cluster_correct(datasets, line_graph(8), "T2circ", n_perm=300, seed=11)
        assert a.clusters == b.clusters
        assert a.corrected_p == b.corrected_p
        assert np.array_equal(a.null_distribution, b.null_distribution)
        c = cluster_correct(datasets, line_graph(8), "T2circ", n_perm=300, seed=12)
        assert not np.array_equal(a.null_distribution, c.null_distribution)

    def test_json_round_trip(self):
        datasets = one_sample_nodes(6, signal={3: 1.5, 4: 1.5})
        res = cluster_correct(datasets, line_graph(8), "T2", n_perm=100, seed=11)
        assert res.clusters
        text = res.to_json()
        assert list(json.loads(text)) == [
            "test", "alpha_forming", "n_permutations", "clusters",
            "cluster_masses", "corrected_p", "node_results", "null_distribution"]
        parsed = ClusterResult.from_json(text)
        assert parsed.to_json() == text  # == on the records meets the ndarray
        assert parsed.node_results == res.node_results
        null = parsed.null_distribution
        assert null.dtype == float and not null.flags.writeable
        np.testing.assert_array_equal(null, res.null_distribution)

    def test_corrected_p_floor(self):
        datasets = one_sample_nodes(7, signal={2: 3.0, 3: 3.0})
        res = cluster_correct(datasets, line_graph(8), "T2circ",
                              n_perm=99, seed=13)
        assert res.clusters
        for p in res.corrected_p:
            assert p >= 1 / 100

    def test_point_reflection_leaves_null(self):
        # flipping every observation through the origin commutes with the
        # sign-flip null, so the null distribution is unchanged
        datasets = one_sample_nodes(8, signal={1: 0.8})
        flipped = [
            GroupedDataset(
                (ComplexSample(-d.samples[0].observations,
                               d.samples[0].condition_label),),
                Design.ONE_SAMPLE,
            )
            for d in datasets
        ]
        a = cluster_correct(datasets, line_graph(8), "T2circ", n_perm=150, seed=17)
        b = cluster_correct(flipped, line_graph(8), "T2circ", n_perm=150, seed=17)
        assert np.array_equal(a.null_distribution, b.null_distribution)
        assert a.cluster_masses == b.cluster_masses

    def test_planted_signal_detected(self):
        # d = 2 at one node, N = 16: its singleton cluster should survive
        # correction in nearly every replicate
        hits = 0
        reps = 60
        for r in range(reps):
            datasets = one_sample_nodes(100 + r, n=16, signal={4: 2.0})
            res = cluster_correct(datasets, line_graph(8), "T2circ",
                                  n_perm=200, seed=r)
            for cluster, p in zip(res.clusters, res.corrected_p):
                if 4 in cluster and p < 0.05:
                    hits += 1
                    break
        assert hits / reps > 0.9

    def test_unit_order_across_nodes_is_canonical(self):
        # one permutation acts on all nodes at once, so a node listing its
        # units in a different row order must give the identical result
        rng = np.random.default_rng(41)

        def shuffled(s):
            perm = rng.permutation(s.n)
            return ComplexSample(s.observations[perm], s.condition_label,
                                 tuple(s.unit_labels[j] for j in perm))

        g = line_graph(4)
        for design in DESIGNS:
            datasets = labelled_nodes(design, 40, k=4, n=10, signal={2: 1.2})
            rows = [GroupedDataset(tuple(shuffled(s) for s in d.samples), d.design)
                    for d in datasets]
            for test in ("T2", "T2circ"):
                a = cluster_correct(datasets, g, test, n_perm=120, seed=9)
                b = cluster_correct(rows, g, test, n_perm=120, seed=9)
                assert a.to_dict() == b.to_dict(), (design, test)

    @pytest.mark.parametrize("test", ["T2", "T2circ"])
    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_node_results_are_the_f_that_formed_the_clusters(self, design, test):
        nodes = labelled_nodes(design, 80, signal={2: 1.5 + 1j, 3: 1.5 + 1j})
        res = cluster_correct(nodes, line_graph(6), test, n_perm=50, seed=1)
        groups = [np.stack([d.samples[g].observations for d in nodes])
                  for g in range(len(nodes[0].samples))]
        if design == "two-sample":
            kernel = (kernels.t2_two_sample if test == "T2"
                      else kernels.t2circ_two_sample)
            statistic, f, df, _ = kernel(*groups)
            scalar = t2_two_sample if test == "T2" else t2circ_two_sample
            # the scalar test's bits, node by node
            singles = [scalar(*d.samples) for d in nodes]
            assert f.tolist() == [r.f_value for r in singles]
            effect = [r.effect_size for r in singles]
            assert None not in effect
        else:
            D = groups[0] - groups[1] if design == "paired" else groups[0]
            kernel = (kernels.t2_one_sample if test == "T2"
                      else kernels.t2circ_one_sample)
            statistic, f, df, _ = kernel(D)
            effect = [None] * len(nodes)  # a distance only between two samples
        got = res.node_results
        assert [r.effect_size for r in got] == effect
        assert [r.statistic for r in got] == statistic.tolist()
        assert [r.f_value for r in got] == f.tolist()
        assert [r.p_value for r in got] == [f_sf(x, *df) for x in f]
        assert {r.df for r in got} == {df}
        # each cluster mass is the sum of its nodes' reported F
        assert res.clusters
        for cluster, mass in zip(res.clusters, res.cluster_masses):
            assert mass == sum(got[i].f_value for i in cluster)

    def test_two_units_per_group_have_no_effect_size(self):
        # T2circ tests two units per group; the pairwise distance needs three
        nodes = two_sample_nodes(81, 4, 2, 2, signal={1: 3.0, 2: 3.0})
        res = cluster_correct(nodes, line_graph(4), "T2circ", n_perm=20, seed=1)
        assert [r.effect_size for r in res.node_results] == [None] * 4
        assert [r.f_value for r in res.node_results] == [
            t2circ_two_sample(*d.samples).f_value for d in nodes]
        assert {t2circ_two_sample(*d.samples).effect_size for d in nodes} == {None}

    @pytest.mark.parametrize("design", list(DESIGNS))
    @pytest.mark.parametrize("test,n", [("T2", 2), ("T2circ", 1)])
    def test_too_few_units_raise(self, design, test, n):
        nodes = labelled_nodes(design, 90, k=3, n=n)
        with pytest.raises(TooFewObservations, match=f">= {n + 1}"):
            cluster_correct(nodes, line_graph(3), test, n_perm=10, seed=0)

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_degenerate_node_raises_under_t2(self, design):
        nodes = labelled_nodes(design, 91, k=3, n=8)
        nodes[1] = map_samples(nodes[1], lambda g, z: z.real)  # on a line
        with pytest.raises(DegenerateCovariance, match="covariance is degenerate"):
            cluster_correct(nodes, line_graph(3), "T2", n_perm=10, seed=0)

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_constant_node_raises_under_t2circ(self, design):
        nodes = labelled_nodes(design, 92, k=3, n=8)
        nodes[1] = map_samples(nodes[1],
                               lambda g, z: np.full_like(z, 1 + 1j if g == 0 else 0j))
        with pytest.raises(ZeroResidualVariance, match="all observations coincide"):
            cluster_correct(nodes, line_graph(3), "T2circ", n_perm=10, seed=0)

    def test_unit_labels_must_match_across_nodes(self):
        nodes = labelled_nodes("paired", 93, k=3, n=8)
        nodes[2] = GroupedDataset(
            tuple(ComplexSample(s.observations, s.condition_label,
                                ("x",) + s.unit_labels[1:]) for s in nodes[2].samples),
            Design.PAIRED)
        with pytest.raises(LabelMismatch):
            cluster_correct(nodes, line_graph(3), "T2circ", n_perm=10, seed=0)

    def test_mixed_labelled_and_unlabelled_nodes_rejected(self):
        labelled = one_sample_nodes(42, k=2, n=8, units=True)
        bare = one_sample_nodes(43, k=2, n=8, units=False)
        with pytest.raises(DesignMismatch):
            cluster_correct([labelled[0], bare[1]], line_graph(2),
                            "T2circ", n_perm=10, seed=0)

    def test_condition_order_must_match_across_nodes(self):
        rng = np.random.default_rng(44)
        labels = tuple(f"u{i}" for i in range(8))

        def node(flip):
            a = ComplexSample(rng.standard_normal(8) + 1j * rng.standard_normal(8),
                              "a", labels)
            b = ComplexSample(rng.standard_normal(8) + 1j * rng.standard_normal(8),
                              "b", labels)
            pair = (b, a) if flip else (a, b)
            return GroupedDataset(pair, Design.PAIRED)

        with pytest.raises(DesignMismatch):
            cluster_correct([node(False), node(True)], line_graph(2),
                            "T2circ", n_perm=10, seed=0)

    def test_design_mismatch(self):
        one = one_sample_nodes(20, k=2)
        rng = np.random.default_rng(21)
        two = GroupedDataset(
            (
                ComplexSample(rng.standard_normal(12) + 0j, "a"),
                ComplexSample(rng.standard_normal(12) + 0j, "b"),
            ),
            Design.TWO_SAMPLE_INDEPENDENT,
        )
        with pytest.raises(DesignMismatch):
            cluster_correct([one[0], two], line_graph(2), "T2circ",
                            n_perm=10, seed=0)

    @pytest.mark.parametrize("kwargs", [
        dict(test="T3"),
        dict(alpha_forming=0.0),
        dict(alpha_forming=1.0),
        dict(alpha_forming=float("nan")),
        dict(n_perm=0),
        dict(n_perm=2**32),
        dict(n_perm=10.0),
        dict(seed=-1),
        dict(seed=1.5),
        dict(alpha_forming="0.05"),  # used to raise a raw TypeError
        dict(n_perm=2**62),
    ])
    def test_bad_arguments_raise_domain_error(self, kwargs):
        args = dict(test="T2circ", n_perm=10, seed=0) | kwargs
        with pytest.raises(DomainError):
            cluster_correct(one_sample_nodes(23, k=2), line_graph(2), **args)

    def test_graph_size_mismatch(self):
        with pytest.raises(InvalidGraph):
            cluster_correct(one_sample_nodes(22, k=3), line_graph(4),
                            "T2circ", n_perm=10, seed=0)

    def test_graph_must_be_an_adjacency_graph(self):
        # used to raise a raw AttributeError
        with pytest.raises(InvalidGraph, match="AdjacencyGraph"):
            cluster_correct(one_sample_nodes(22, k=3), None, "T2circ", n_perm=10,
                            seed=0)

    @pytest.mark.parametrize("nodes", ["abc", None, [None, None, None]])
    def test_nodes_must_be_grouped_datasets(self, nodes):
        # "abc" used to raise a raw AttributeError, None a TypeError
        with pytest.raises(MalformedInput, match="GroupedDataset"):
            cluster_correct(nodes, line_graph(3), "T2circ", n_perm=10, seed=0)

    def test_two_sample_design(self):
        rng = np.random.default_rng(23)
        datasets = []
        for i in range(4):
            a = rng.standard_normal((10, 2))
            b = rng.standard_normal((10, 2))
            if i == 1:
                a = a + [2.0, 0.0]
            datasets.append(
                GroupedDataset(
                    (
                        ComplexSample(a[:, 0] + 1j * a[:, 1], "a"),
                        ComplexSample(b[:, 0] + 1j * b[:, 1], "b"),
                    ),
                    Design.TWO_SAMPLE_INDEPENDENT,
                )
            )
        res = cluster_correct(datasets, line_graph(4), "T2circ",
                              n_perm=300, seed=29)
        found = [c for c, p in zip(res.clusters, res.corrected_p)
                 if 1 in c and p < 0.05]
        assert found

    def test_paired_design_matches_one_sample_on_differences(self):
        rng = np.random.default_rng(31)
        labels = tuple(f"u{i}" for i in range(12))
        paired_nodes = []
        diff_nodes = []
        for i in range(5):
            a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            if i == 2:
                a = a + (1.0 + 1.0j)
            paired_nodes.append(
                GroupedDataset(
                    (
                        ComplexSample(a, "a", labels),
                        ComplexSample(b, "b", labels),
                    ),
                    Design.PAIRED,
                )
            )
            diff_nodes.append(
                GroupedDataset(
                    (ComplexSample(a - b, "d", labels),), Design.ONE_SAMPLE
                )
            )
        g = line_graph(5)
        res_paired = cluster_correct(paired_nodes, g, "T2circ", n_perm=100, seed=7)
        res_diff = cluster_correct(diff_nodes, g, "T2circ", n_perm=100, seed=7)
        assert res_paired.clusters == res_diff.clusters
        assert np.allclose(res_paired.null_distribution, res_diff.null_distribution)

    def test_familywise_error_calibrated(self):
        # pure noise over 8 nodes: probability of any cluster surviving at
        # 0.05 should be close to 0.05
        reps = 800
        hits = 0
        for r in range(reps):
            datasets = one_sample_nodes(10_000 + r, k=8, n=12)
            res = cluster_correct(datasets, line_graph(8), "T2circ",
                                  n_perm=250, seed=r)
            if any(p < 0.05 for p in res.corrected_p):
                hits += 1
        assert hits / reps == pytest.approx(0.05, abs=0.015)


def _complex_nodes(rng, k, n, scales, means):
    z = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return z * scales[:, None] + means[:, None]


class TestBlockEvaluation:
    """The block path (one matmul per block of permutations) against the
    per-permutation kernel rows, the tie rule and the block cap."""

    @pytest.mark.parametrize("test", ["T2", "T2circ"])
    @pytest.mark.parametrize("design,sizes", [
        ("one-sample", (9, 9)), ("paired", (9, 9)),
        ("two-sample", (9, 9)), ("two-sample", (7, 11)),
    ])
    def test_block_f_matches_kernel_rows(self, design, test, sizes):
        rng = np.random.default_rng(70)
        k = 12
        scales = 10.0 ** rng.uniform(-3, 3, size=k)
        # node means up to 10 sds from zero, in every direction
        means = scales * rng.uniform(0, 10, size=k) * np.exp(
            2j * np.pi * rng.uniform(size=k))
        if design == "two-sample":
            na, nb = sizes
            V = _complex_nodes(rng, k, na + nb, scales, means)
            # group A up to 10 sds from group B: the group term dominates
            # the total scatter the pooled scatter is taken from
            V[:, :na] += scales[:, None] * (rng.uniform(0, 10, size=k) * np.exp(
                2j * np.pi * rng.uniform(size=k)))[:, None]
            V[0] = V[0].real  # a real node: T2 is degenerate there
            base = np.arange(na + nb) < na
            masks = np.array([base, ~base]
                             + [base[rng.permutation(na + nb)] for _ in range(60)])
            got = clusters._label_shuffle_block(V, na, test)(masks)
            kernel = (kernels.t2_two_sample if test == "T2"
                      else kernels.t2circ_two_sample)
            want = np.array([kernel(V[:, m], V[:, ~m])[1] for m in masks])
        else:
            n = sizes[0]
            if design == "one-sample":
                D = _complex_nodes(rng, k, n, scales, means)
            else:  # within-unit differences of correlated conditions
                base = _complex_nodes(rng, k, n, scales, means)
                D = (base + 0.3 * _complex_nodes(rng, k, n, scales, 0 * means)
                     - _complex_nodes(rng, k, n, scales, 0.5 * means))
            D[0] = D[0].real
            draws = np.array([np.zeros(n, int), np.ones(n, int)]
                             + [rng.integers(0, 2, size=n) for _ in range(60)])
            got = clusters._sign_flip_block(D, test)(draws)
            kernel = (kernels.t2_one_sample if test == "T2"
                      else kernels.t2circ_one_sample)
            want = np.array([kernel(D * (2 * s - 1))[1] for s in draws])
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert finite[:, 1:].all()
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9, atol=0)

    @staticmethod
    def _identity_draws(design, n_units, seed, n_perm):
        """Replays the draws ``default_rng(seed).random((n_perm, n_units))``
        of ``cluster_correct``: which permutations leave the data as they
        are (all signs equal, unit 0 aside when it is zero everywhere; the
        observed labels or, for equal groups, their swap)."""
        u = np.random.default_rng(seed).random((n_perm, n_units))
        if design == "two-sample":
            base = np.arange(n_units) < n_units // 2
            m = np.argsort(u, axis=1) < n_units // 2
            return (m == base).all(axis=1) | (m != base).all(axis=1)
        d = u < 0.5
        if design == "one-sample-zero-unit":
            d = d[:, 1:]  # flipping a zero changes nothing
        return d.min(axis=1) == d.max(axis=1)

    @pytest.mark.parametrize("test", ["T2", "T2circ"])
    @pytest.mark.parametrize("design",
                             ["one-sample", "one-sample-zero-unit", "two-sample"])
    def test_identity_draws_tie_with_the_observed_mass(self, design, test):
        # 5 units give 32 sign patterns; with unit 0 at zero, 7 units keep
        # the planted cluster supra-threshold for T2
        k, n_units = 8, {"one-sample": 5, "one-sample-zero-unit": 7,
                         "two-sample": 6}[design]
        # one block of BLOCK_VALUES // k permutations, then a single-row
        # block; pick a seed whose single-row block is an identity draw
        n_perm = clusters.BLOCK_VALUES // k + 1
        seed = next(s for s in range(1000)
                    if self._identity_draws(design, n_units, s, n_perm)[-1])
        identity = self._identity_draws(design, n_units, seed, n_perm)
        signal = {i: 3.0 + 1.0j for i in range(3)}
        if design == "two-sample":
            datasets = two_sample_nodes(50, k, 3, 3, signal)
        else:
            datasets = one_sample_nodes(50, k=k, n=n_units, signal=signal)
        if design == "one-sample-zero-unit":  # unit 0 sits at mu = 0 everywhere
            datasets = [
                GroupedDataset((ComplexSample(
                    np.r_[0j, d.samples[0].observations[1:]], "stim"),),
                    Design.ONE_SAMPLE)
                for d in datasets
            ]
        res = cluster_correct(datasets, line_graph(k), test,
                              n_perm=n_perm, seed=seed)
        assert res.cluster_masses
        top = max(res.cluster_masses)
        assert (res.null_distribution == top).sum() >= identity.sum() > 0
        i = res.cluster_masses.index(top)
        ge = int((res.null_distribution >= top).sum())
        assert ge >= identity.sum()
        assert res.corrected_p[i] == (1 + ge) / (1 + n_perm)

    @pytest.mark.parametrize("test", ["T2", "T2circ"])
    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_draws_are_rows_of_one_generator(self, design, test, monkeypatch):
        # permutation p is row p of default_rng(seed).random((n_perm, units))
        # for any block and span size: one permutation per block and span,
        # blocks of 3 in spans of 2 blocks, and the defaults, over 700
        # permutations that end on a partial block
        k, n_perm, seed = 8, 700, 2**33 + 3
        nodes = labelled_nodes(design, 94, k=k, n=10, signal={2: 1.5, 3: 1.5})
        n_units = {"two-sample": 22}.get(design, 10)
        u = np.random.default_rng(seed).random((n_perm, n_units))
        want = np.argsort(u, axis=1) < 10 if design == "two-sample" else u < 0.5
        name = ("_label_shuffle_block" if design == "two-sample"
                else "_sign_flip_block")
        make_block_f = getattr(clusters, name)
        seen = []

        def recording(*args):
            block_f = make_block_f(*args)

            def record(draws):
                seen.append(draws.copy())
                return block_f(draws)
            return record

        monkeypatch.setattr(clusters, name, recording)
        for block, span in ((k, 1), (3 * k, 6 * k),
                            (clusters.BLOCK_VALUES, clusters.SPAN_VALUES)):
            monkeypatch.setattr(clusters, "BLOCK_VALUES", block)
            monkeypatch.setattr(clusters, "SPAN_VALUES", span)
            seen.clear()
            res = cluster_correct(nodes, line_graph(k), test, n_perm=n_perm,
                                  seed=seed)
            assert max(len(d) for d in seen) == min(block // k, n_perm)
            np.testing.assert_array_equal(np.concatenate(seen), want)
            again = cluster_correct(nodes, line_graph(k), test, n_perm=n_perm,
                                    seed=seed)
            assert again.to_json() == res.to_json()

    @pytest.mark.parametrize("design", ["one-sample", "two-sample"])
    def test_block_cap_moves_only_last_bits(self, design, monkeypatch):
        signal = {2: 1.5, 3: 1.5}
        if design == "one-sample":
            datasets = one_sample_nodes(60, k=8, n=10, signal=signal)
        else:
            datasets = two_sample_nodes(61, 8, 9, 11, signal)
        results = []
        for cap in (1, 10**9):  # one permutation per block; one block
            monkeypatch.setattr(clusters, "BLOCK_VALUES", cap)
            for test in ("T2", "T2circ"):
                results.append(cluster_correct(datasets, line_graph(8), test,
                                               n_perm=300, seed=62))
        for single, whole in zip(results[:2], results[2:]):
            assert single.clusters and single.clusters == whole.clusters
            assert single.corrected_p == whole.corrected_p
            assert single.cluster_masses == whole.cluster_masses
            np.testing.assert_allclose(single.null_distribution,
                                       whole.null_distribution, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("test", ["T2", "T2circ"])
    @pytest.mark.parametrize("design", ["one-sample", "two-sample"])
    def test_span_size_leaves_the_result(self, design, test, monkeypatch):
        # blocks of 4 permutations; identity draws on the first and on the
        # last row of some block, so at span boundaries when a span is one
        # block
        k, n_units, block, n_perm = 8, {"one-sample": 5, "two-sample": 6}[design], 4, 203

        def at_span_ends(seed):
            hit = np.flatnonzero(self._identity_draws(design, n_units, seed,
                                                      n_perm)) % block
            return (hit == 0).any() and (hit == block - 1).any()

        seed = next(s for s in range(100) if at_span_ends(s))
        signal = {i: 3.0 + 1.0j for i in range(3)}
        if design == "two-sample":
            datasets = two_sample_nodes(51, k, 3, 3, signal)
        else:
            datasets = one_sample_nodes(51, k=k, n=n_units, signal=signal)
        monkeypatch.setattr(clusters, "BLOCK_VALUES", block * k)
        results = []
        for values in (1, 10**9):  # a span of one F block; one span in all
            monkeypatch.setattr(clusters, "SPAN_VALUES", values)
            results.append(cluster_correct(datasets, line_graph(k), test,
                                           n_perm=n_perm, seed=seed).to_dict())
        assert results[0]["clusters"]
        assert results[0] == results[1]


def _exact_p(nodes, graph, test):
    """The one observed cluster's mass and its exact corrected p: the share
    of every distinct draw (2^n sign vectors, or C(n, na) label masks)
    whose maximum mass reaches it, from the module's own block_f and
    _max_masses, identity draws at the observed mass."""
    observed = cluster_correct(nodes, graph, test, n_perm=1, seed=0)
    (mass,) = observed.cluster_masses
    if nodes[0].design is Design.TWO_SAMPLE_INDEPENDENT:
        V = np.hstack([clusters._unit_matrix([d.samples[g] for d in nodes])
                       for g in (0, 1)])
        n, na = V.shape[1], nodes[0].samples[0].n
        draws = np.array([np.isin(np.arange(n), c) for c in combinations(range(n), na)])
        base = np.arange(n) < na
        identity = (draws == base).all(axis=1) | (draws == ~base).all(axis=1)
        block_f = clusters._label_shuffle_block(V, na, test)
    else:
        M = clusters._unit_matrix([s for d in nodes for s in d.samples])
        D = M[0::2] - M[1::2]
        draws = np.array(list(product([False, True], repeat=D.shape[1])))
        identity = draws.all(axis=1) | ~draws.any(axis=1)
        block_f = clusters._sign_flip_block(D, test)
    f = block_f(draws)
    f_crit = f_critical(observed.alpha_forming, *observed.node_results[0].df)
    top = np.where(identity, mass,
                   clusters._max_masses(f, f_crit, clusters._forward_neighbours(graph)))
    return mass, float(np.mean(top >= mass))


class TestExactPValue:
    """Over 20 seeds, the sampled corrected p of a small design centres on
    the exact p from enumerating all of its draws."""

    @pytest.mark.parametrize("case", ["mouse-paired", "two-sample-3-3"])
    def test_mean_corrected_p_meets_the_enumerated_exact_p(self, case):
        if case == "mouse-paired":  # the fixture at three nodes on a line
            mouse = build_dataset(read_components_csv(FIXTURES / "mouse_ssvep.csv"),
                                  Design.PAIRED)
            nodes = [mouse] * 3
        else:
            nodes = two_sample_nodes(52, 3, 3, 3, {i: 2.0 + 1.0j for i in range(3)})
        graph, n_perm, seeds = line_graph(3), 1000, range(20)
        mass, exact = _exact_p(nodes, graph, "T2circ")
        if case == "mouse-paired":
            assert exact == 2 / 64  # only D and -D reach the observed mass
        sampled = [cluster_correct(nodes, graph, "T2circ", n_perm=n_perm, seed=s)
                   for s in seeds]
        assert all(r.cluster_masses == (mass,) for r in sampled)
        mean_p = np.mean([r.corrected_p[0] for r in sampled])
        se = np.sqrt(exact * (1 - exact) / (n_perm * len(seeds)))
        assert abs(mean_p - exact) <= 4 * se, (mean_p, exact, se)


def _full_graph_labels(f, f_crit, graph):
    """Reference labelling over every node of every row: B disjoint copies
    of the graph in one sparse matrix, an edge kept where both ends exceed
    f_crit, and masses summed over all nodes with 0 below f_crit. Returns
    (labels (rows, nodes), masses)."""
    rows, k = f.shape
    edges = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T
    supra = f > f_crit
    row, edge = np.nonzero(supra[:, edges[0]] & supra[:, edges[1]])
    offset = row * k
    adjacency = sparse.csr_array(
        (np.ones(edge.size), (offset + edges[0][edge], offset + edges[1][edge])),
        shape=(rows * k, rows * k),
    )
    n_labels, labels = csgraph.connected_components(adjacency, directed=False)
    masses = np.bincount(labels, weights=np.where(supra, f, 0.0).ravel(),
                         minlength=n_labels)
    return labels.reshape(rows, k), masses


def _bfs_components(f, f_crit, graph):
    """Supra-threshold components of every row by breadth-first search, as
    sets of indices into the row-major f."""
    rows, k = f.shape
    neighbours = [set() for _ in range(k)]
    for i, j in graph.edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    components = set()
    for r in range(rows):
        seen = set()
        for start in range(k):
            if f[r, start] <= f_crit or start in seen:
                continue
            component, frontier = {start}, [start]
            while frontier:
                frontier = {j for i in frontier for j in neighbours[i]
                            if f[r, j] > f_crit and j not in component}
                component.update(frontier)
            seen |= component
            components.add(frozenset(r * k + i for i in component))
    return components


@st.composite
def _graphs(draw):
    """Random edge sets, chains, stars, complete graphs and graphs without
    edges, with isolated nodes added and the node numbers shuffled."""
    k = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["random", "chain", "star", "complete", "none"]))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = {
        "random": [p for p in pairs if draw(st.booleans())],
        "chain": [(i, i + 1) for i in range(k - 1)],
        "star": [(0, i) for i in range(1, k)],
        "complete": pairs,
        "none": [],
    }[kind]
    total = k + draw(st.integers(0, 3))  # nodes without edges
    name = draw(st.permutations(range(total)))
    return AdjacencyGraph(total, tuple(
        (name[j], name[i]) if draw(st.booleans()) else (name[i], name[j])
        for i, j in edges))


def _supra_values(rng, shape, supra_fraction, f_crit):
    """F values, a supra_fraction of them above f_crit, supra ones over six
    decades, so that the order of summation shows in the last bits of a
    mass; some exactly at f_crit."""
    spread = 10.0 ** rng.uniform(-3, 3, shape)
    f = np.where(rng.uniform(size=shape) < supra_fraction,
                 f_crit + rng.exponential(size=shape) * spread,
                 f_crit * rng.uniform(size=shape))
    f[rng.uniform(size=shape) < 0.05] = f_crit
    return f


def _check_labelling(f, f_crit, graph):
    """``_cluster_labels`` and ``_max_masses`` on f against the breadth-first
    search and the labelling of every node."""
    forward = clusters._forward_neighbours(graph)
    flat, labels, masses = clusters._cluster_labels(f, f_crit, forward)

    assert np.array_equal(flat, np.flatnonzero(f > f_crit))
    assert {frozenset(flat[labels == c]) for c in np.unique(labels)} == \
        _bfs_components(f, f_crit, graph)
    # labels count components in order of their smallest flat index
    present, first = np.unique(labels, return_index=True)
    assert np.array_equal(present, np.arange(len(masses)))
    assert np.all(np.diff(first) > 0)
    full_labels, full_masses = _full_graph_labels(f, f_crit, graph)
    assert masses[labels].tobytes() == full_masses[full_labels.ravel()[flat]].tobytes()
    assert clusters._max_masses(f, f_crit, forward).tobytes() == \
        full_masses[full_labels].max(axis=1).tobytes()


def _fixed_graph(name):
    """Chains numbered in order, reversed, zig-zag and at random, which take
    the union-find from one to many hooking rounds; a grid, a complete
    graph and a single node."""
    rng = np.random.default_rng(5)
    chains = {
        "chain-in-order": np.arange(5000),
        "chain-reversed": np.arange(4000)[::-1],
        "chain-zigzag": np.stack([np.arange(1500), np.arange(3000)[:1499:-1]],
                                 axis=1).ravel(),
        "chain-random": rng.permutation(2000),
    }
    if name in chains:
        order = chains[name].tolist()
        return AdjacencyGraph(len(order), tuple(zip(order[:-1], order[1:])))
    if name == "grid-64x64":
        node = np.arange(64 * 64).reshape(64, 64)
        return AdjacencyGraph(node.size, tuple(
            (i, j) for a, b in ((node[:, :-1], node[:, 1:]), (node[:-1], node[1:]))
            for i, j in zip(a.ravel().tolist(), b.ravel().tolist())))
    if name == "complete-50":
        return AdjacencyGraph(50, tuple(combinations(range(50), 2)))
    return AdjacencyGraph(1, ())


class TestSupraLabelling:
    """``_cluster_labels`` over the supra-threshold nodes alone against a
    breadth-first search and against the labelling of every node."""

    @settings(max_examples=200, deadline=None)
    @given(graph=_graphs(), rows=st.integers(1, 6),
           supra_fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_full_graph_labelling(self, graph, rows, supra_fraction, seed):
        rng = np.random.default_rng(seed)
        f = _supra_values(rng, (rows, graph.node_count), supra_fraction, 3.0)
        _check_labelling(f, 3.0, graph)

    @pytest.mark.parametrize("name", [
        "chain-in-order", "chain-reversed", "chain-zigzag", "chain-random",
        "grid-64x64", "complete-50", "one-node",
    ])
    def test_large_graphs_match_full_graph_labelling(self, name):
        # the hypothesis graphs have at most 13 nodes, one or two hooking
        # rounds; rows here: every node supra, 90 % and 50 % of them, none
        graph = _fixed_graph(name)
        rng = np.random.default_rng(17)
        f = np.vstack([_supra_values(rng, (1, graph.node_count), fraction, 3.0)
                       for fraction in (1.0, 0.9, 0.5, 0.0)])
        _check_labelling(f, 3.0, graph)
