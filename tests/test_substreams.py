"""Computed permutation substreams against numpy's own generators.

NEP 19 does not promise that numpy's Generator streams stay the same across
numpy versions. If an upgrade changes them, these tests fail: the computed
substreams no longer reproduce ``default_rng([seed, p])``, and every cluster
null distribution would move with them. They are a gate and are never
skipped.
"""

import json

import numpy as np
import pytest

from phasorstats import (
    AdjacencyGraph,
    ComplexSample,
    Design,
    GroupedDataset,
    cluster_correct,
)
from phasorstats import clusters, substreams
from phasorstats.exceptions import DomainError

#: one, two, three and four 32-bit entropy words, and five, which the hash
#: mixes in after filling its pool
SEEDS = (0, 1, 7, 12345, 2**32 - 1, 2**32 + 5, 2**64 + 9, 2**70 + 3,
         2**96 + 1, 2**140 + 17)

#: every unit count up to 65, odd and even, and a few larger ones
SIZES = (*range(66), 100, 127, 128, 129, 255, 256, 257)


def reference_sign_draws(seed, p, n):
    return np.array([np.random.default_rng([seed, int(q)]).integers(0, 2, size=n)
                     for q in p], dtype=np.uint8).reshape(len(p), n)


def reference_permutations(seed, p, n):
    return np.array([np.random.default_rng([seed, int(q)]).permutation(n)
                     for q in p], dtype=np.intp).reshape(len(p), n)


def substream_indices(seed, count):
    """count indices: the first ones, then random ones up to 2^32 - 1."""
    rng = np.random.default_rng(seed % 2**32)
    tail = rng.integers(2**16, 2**32, size=16)
    return np.r_[np.arange(count - 18), tail, 2**31, 2**32 - 1]


def test_draws_match_numpy_on_1e5_substreams():
    # 10 seeds x 10^4 indices; pair i draws SIZES[i % len(SIZES)] values, so
    # every size meets every seed on >= 130 substreams
    pairs = 0
    for seed in SEEDS:
        p = substream_indices(seed, 10_000)
        size_of = np.arange(p.size) % len(SIZES)
        for s, n in enumerate(SIZES):
            rows = p[size_of == s]
            np.testing.assert_array_equal(
                substreams.sign_draws(seed, rows, n),
                reference_sign_draws(seed, rows, n),
                err_msg=f"sign draws, seed {seed}, n {n}")
            np.testing.assert_array_equal(
                substreams.permutations(seed, rows, n),
                reference_permutations(seed, rows, n),
                err_msg=f"permutations, seed {seed}, n {n}")
            pairs += rows.size
    assert pairs >= 10**5


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_outputs_match_pcg64(seed):
    # the seeding hash and the 128-bit LCG on their own, across jumps of
    # more than one block of columns
    p = substream_indices(seed, 200)
    want = np.array([np.random.PCG64(np.random.SeedSequence([seed, int(q)]))
                     .random_raw(40) for q in p])
    streams = substreams._Streams(seed, p.astype(np.uint32))
    got = np.concatenate([streams.outputs(1), streams.outputs(24),
                          streams.outputs(15)], axis=1)
    np.testing.assert_array_equal(got, want)


def test_seed_and_index_checks():
    assert substreams.check_seed(np.int64(5)) == 5
    for bad in (-1, 1.5, 2.0, "3", None):
        with pytest.raises(DomainError):
            substreams.check_seed(bad)
    for bad in ([-1], [2**32], [0.5], [[1]]):
        with pytest.raises(DomainError):
            substreams.sign_draws(0, np.array(bad), 4)


def _nodes(design, k=8, n=10):
    rng = np.random.default_rng(90)
    labels = tuple(f"u{i}" for i in range(n))

    def noise(shift=0j):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n) + shift

    planted = {2: 2.0 + 1.0j, 3: 2.0 + 1.0j, 4: 2.0 + 1.0j}
    out = []
    for i in range(k):
        shift = planted.get(i, 0j)
        if design == "one-sample":
            samples = (ComplexSample(noise(shift), "a", labels),)
        elif design == "paired":
            base = noise()
            samples = (ComplexSample(base + 0.5 * noise(shift), "a", labels),
                       ComplexSample(base + 0.5 * noise(), "b", labels))
        else:
            samples = (ComplexSample(noise(shift)[:6], "a"),
                       ComplexSample(noise()[:6], "b"))
        out.append(GroupedDataset(samples, {
            "one-sample": Design.ONE_SAMPLE, "paired": Design.PAIRED,
            "two-sample": Design.TWO_SAMPLE_INDEPENDENT}[design]))
    return out


@pytest.mark.parametrize("test", ["T2", "T2circ"])
@pytest.mark.parametrize("design", ["one-sample", "paired", "two-sample"])
def test_cluster_correct_matches_per_permutation_generators(design, test,
                                                            monkeypatch):
    # 8 nodes: F blocks of 1024 permutations, draw passes of 3 (10 units) or
    # 2 (12 units) blocks; 7000 permutations span several of each and end on
    # a partial block
    k, n_perm, seed = 8, 7000, 2**33 + 3
    graph = AdjacencyGraph(k, tuple((i, i + 1) for i in range(k - 1)))
    datasets = _nodes(design, k)
    n = 12 if design == "two-sample" else 10
    block = clusters.BLOCK_VALUES // k
    assert n_perm > 2 * block * (clusters.DRAW_VALUES // (block * n))
    computed = cluster_correct(datasets, graph, test, n_perm=n_perm, seed=seed)

    # the reference: one generator per permutation, one draw pass per F block
    monkeypatch.setattr(substreams, "sign_draws", reference_sign_draws)
    monkeypatch.setattr(substreams, "permutations", reference_permutations)
    monkeypatch.setattr(clusters, "DRAW_VALUES", 1)
    reference = cluster_correct(datasets, graph, test, n_perm=n_perm, seed=seed)
    assert (json.dumps(computed.to_dict()).encode()
            == json.dumps(reference.to_dict()).encode())
    assert computed.null_distribution.tobytes() == reference.null_distribution.tobytes()

    # the tie rule: every identity draw counts at the observed maximum
    p = np.arange(n_perm)
    if design == "two-sample":
        masks = reference_permutations(seed, p, n) < 6
        identity = masks[:, :6].all(axis=1) | ~masks[:, :6].any(axis=1)
    else:
        draws = reference_sign_draws(seed, p, n)
        identity = draws.min(axis=1) == draws.max(axis=1)
    top = max(computed.cluster_masses)
    assert (computed.null_distribution == top).sum() >= identity.sum() > 0
