"""Permutation cluster correction: kernels, determinism, calibration."""

import numpy as np
import pytest

from phasorstats import (
    AdjacencyGraph,
    ComplexSample,
    Design,
    GroupedDataset,
    cluster_correct,
    t2_one_sample,
    t2_two_sample,
    t2circ_one_sample,
    t2circ_two_sample,
)
from phasorstats import kernels
from phasorstats.exceptions import DesignMismatch, DomainError, InvalidGraph


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

    def test_edge_list_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\nnot an edge\n")
        with pytest.raises(InvalidGraph, match="line 2"):
            AdjacencyGraph.from_edge_list(path, 3)


class TestKernelsMatchPublicTests:
    def test_one_sample_kernels(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        f_circ = kernels.t2circ_one_sample(V)[1]
        f_t2 = kernels.t2_one_sample(V)[1]
        for i, row in enumerate(V):
            s = ComplexSample(row)
            assert f_circ[i] == pytest.approx(
                t2circ_one_sample(s, 0j).f_value, rel=1e-10
            )
            assert f_t2[i] == pytest.approx(
                t2_one_sample(s, 0j).f_value, rel=1e-10
            )

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
            assert f_circ[i] == pytest.approx(
                t2circ_two_sample(a, b).f_value, rel=1e-10
            )
            assert f_t2[i] == pytest.approx(
                t2_two_sample(a, b).f_value, rel=1e-10
            )


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
        datasets = one_sample_nodes(40, k=4, n=10, units=True,
                                    signal={2: 1.2})
        rng = np.random.default_rng(41)
        shuffled = []
        for d in datasets:
            s = d.samples[0]
            perm = rng.permutation(s.n)
            shuffled.append(
                GroupedDataset(
                    (ComplexSample(s.observations[perm], s.condition_label,
                                   tuple(s.unit_labels[j] for j in perm)),),
                    Design.ONE_SAMPLE,
                )
            )
        g = line_graph(4)
        a = cluster_correct(datasets, g, "T2circ", n_perm=120, seed=9)
        b = cluster_correct(shuffled, g, "T2circ", n_perm=120, seed=9)
        assert a.clusters == b.clusters
        assert a.cluster_masses == pytest.approx(b.cluster_masses, rel=1e-12)
        assert np.allclose(a.null_distribution, b.null_distribution)

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
    ])
    def test_bad_arguments_raise_domain_error(self, kwargs):
        args = dict(test="T2circ", n_perm=10, seed=0) | kwargs
        with pytest.raises(DomainError):
            cluster_correct(one_sample_nodes(23, k=2), line_graph(2), **args)

    def test_graph_size_mismatch(self):
        with pytest.raises(InvalidGraph):
            cluster_correct(one_sample_nodes(22, k=3), line_graph(4),
                            "T2circ", n_perm=10, seed=0)

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
