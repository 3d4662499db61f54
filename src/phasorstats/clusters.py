"""Permutation-based cluster correction across sensors, times or frequencies.

Mass multivariate testing over a graph of recording locations: each node's
dataset is tested, supra-threshold nodes are merged into connected clusters,
and each cluster's summed F value is referred to the distribution of maximum
cluster masses under permutation of the data (sign flips of within-unit
differences for one-sample and paired designs, condition-label shuffles for
independent groups), following the logic of Maris & Oostenveld (2007).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import checks, inference, kernels
from .data import ComplexSample, Design, GroupedDataset, align_units
from .distributions import f_critical
from .exceptions import DesignMismatch, DomainError, InvalidGraph, MalformedInput
from .kernels import BLOCK_VALUES
from .records import Record

#: F values labelled per ``_cluster_labels`` call, in permutations x nodes:
#: many F blocks per call, at a bounded cost in memory.
SPAN_VALUES = 2**16

_SUPPORTED_DESIGNS = (Design.ONE_SAMPLE, Design.PAIRED, Design.TWO_SAMPLE_INDEPENDENT)

#: The one- and two-sample contracts (inference.py) of each node test.
_CONTRACTS = {
    "T2": (inference.T2, inference.T2_TWO_SAMPLE),
    "T2circ": (inference.T2CIRC, inference.T2CIRC_TWO_SAMPLE),
}


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected graph over node indices 0 .. node_count - 1."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        node_count = checks.integer("node_count", self.node_count, 1, InvalidGraph)
        try:
            edges = iter(self.edges)
        except TypeError:
            raise InvalidGraph(f"edges {self.edges!r} are not a sequence of "
                               "node pairs") from None
        seen = set()
        for edge in edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise InvalidGraph(f"edge {edge!r} is not a pair of nodes") from None
            i, j = (checks.integer("node index", v, error=InvalidGraph) for v in (i, j))
            if i == j:
                raise InvalidGraph(f"self-loop at node {i}")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise InvalidGraph(f"edge ({i}, {j}) outside 0..{node_count - 1}")
            seen.add((min(i, j), max(i, j)))
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @classmethod
    def from_edge_list(cls, path, node_count: int) -> "AdjacencyGraph":
        """Read one 'i j' pair per line; '#' lines and blanks are skipped, and
        so is a leading UTF-8 byte-order mark."""
        edges = []
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError:
            raise InvalidGraph(f"{path}: not UTF-8 text") from None
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise InvalidGraph(f"{path}: line {lineno}: expected 'i j'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise InvalidGraph(
                    f"{path}: line {lineno}: non-integer node index"
                ) from None
            edges.append((i, j))
        return cls(node_count, tuple(edges))


@dataclass(frozen=True)
class ClusterResult(Record):
    """Observed clusters with their permutation-corrected p-values;
    ``node_results`` are the F values that formed them (units matched by
    sorted label), so a cluster's mass is the sum of its nodes' f_value."""

    test: str
    alpha_forming: float
    n_permutations: int
    clusters: tuple[tuple[int, ...], ...]
    cluster_masses: tuple[float, ...]
    corrected_p: tuple[float, ...]
    node_results: tuple[inference.TestResult, ...]
    null_distribution: np.ndarray


def _columns(X: np.ndarray) -> np.ndarray:
    """(n, 2k) real matrix of the (k, n) complex X, columns interleaved
    re/im per node, so that (B, n) @ it views as a (B, k) complex array."""
    return np.ascontiguousarray(X.T).view(np.float64)


def _f_values(test: str, h, dfr: int, mean, sxx, sxy, syy) -> np.ndarray:
    """F of T2 or T2circ from the mean (difference), the (pooled) scatter
    sums on dfr degrees of freedom and the sample-size factor h."""
    if test == "T2":
        # h d' (S / dfr)^-1 d = (h dfr) d' S^-1 d
        return kernels.hotelling(h * dfr, sxx, sxy, syy, mean, dfr - 1)[1]
    return kernels.circular(h, dfr, mean, sxx + syy)[1]


def _plus_outer(sxx, sxy, syy, w, u, v):
    """Scatter sums plus w (u v' + v u') / 2, reading the complex u and v as
    (re, im) vectors."""
    return (sxx + w * (u.real * v.real),
            sxy + 0.5 * w * (u.real * v.imag + v.real * u.imag),
            syy + w * (u.imag * v.imag))


def _sign_flip_block(D: np.ndarray, test: str):
    """F of D * s at every node for a block of sign rows, as a function of
    the 0/1 draws (B, n), s = 2 * draw - 1; returns (B, nodes).

    Sign flips leave the sums of squares and cross-products unchanged; only
    the mean moves. With every node centred at its own mean o, the permuted
    mean is m = sbar o + (s @ e) / n, and the scatter about it is the
    scatter of e plus n (o o' - m m'), formed as n (o - m)(o + m)' so that
    no term of size n |o|^2 cancels.
    """
    n = D.shape[-1]
    o, sxx, sxy, syy = kernels.scatter(D)
    parts = _columns(D - o[:, None])

    def block_f(draws: np.ndarray) -> np.ndarray:
        s = draws * 2.0 - 1.0
        t = s.sum(axis=1)[:, None]  # n sbar, an exact integer
        mean = (s @ parts).view(np.complex128) / n  # (s @ e) / n, for now
        scatter = _plus_outer(sxx, sxy, syy, n, (n - t) / n * o - mean,
                              (n + t) / n * o + mean)  # o - m, o + m
        mean += t / n * o
        return _f_values(test, n, n - 1, mean, *scatter)

    return block_f


def _label_shuffle_block(V: np.ndarray, na: int, test: str):
    """Two-sample F at every node for a block of label masks (B, n), True
    for group A, as a function of the masks; returns (B, nodes).

    A shuffle leaves the scatter about the grand mean unchanged; only the
    group sums a and b of the centred data move. The pooled scatter is that
    total scatter minus a a' / na and b b' / nb.
    """
    n = V.shape[-1]
    nb = n - na
    g, txx, txy, tyy = kernels.scatter(V)
    parts = _columns(V - g[:, None])
    total = parts.sum(axis=0).view(np.complex128)  # zero up to rounding

    def block_f(masks: np.ndarray) -> np.ndarray:
        a = (masks.astype(np.float64) @ parts).view(np.complex128)
        b = total - a
        pooled = _plus_outer(*_plus_outer(txx, txy, tyy, -1.0 / na, a, a),
                             -1.0 / nb, b, b)
        a /= na
        a -= b / nb  # the mean difference
        return _f_values(test, na * nb / n, n - 2, a, *pooled)

    return block_f


def _forward_neighbours(graph: AdjacencyGraph):
    """(first, far): the edges (i, j), j > i, of node i end at
    far[first[i]:first[i + 1]], as graph.edges are sorted (i, j) pairs."""
    edges = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    return np.searchsorted(edges[:, 0], np.arange(graph.node_count + 1)), edges[:, 1]


def _cluster_labels(f: np.ndarray, f_crit: float, forward):
    """Connected supra-threshold components of every row of f (rows, nodes).

    Only the nodes above f_crit are labelled: flat, their indices into the
    row-major f. The edges between them are gathered from each one's
    forward neighbours (``_forward_neighbours``) and kept where the far end
    is above f_crit too. The rows are disjoint copies of the graph, so one
    union-find over the kept edges labels them all: each node's root is
    hooked onto the smaller root across an edge, and the roots shortcut to
    their own roots, until every edge joins one root (Shiloach & Vishkin,
    J. Algorithms 3, 1982). A root only ever moves to a smaller position,
    so each component ends at its smallest, and labels count components in
    order of their smallest node. Returns (flat, labels, masses): labels
    (one per flat node) index masses, the summed F of each component, added
    in flat order.
    """
    first, far = forward
    k = f.shape[1]
    values = f.ravel()
    supra = values > f_crit
    flat = np.flatnonzero(supra)
    node = flat % k
    count = first[node + 1] - first[node]
    src = np.repeat(np.arange(flat.size), count)
    # each gathered edge: its node's first edge plus its place in that run
    edge = np.arange(src.size) + np.repeat(first[node] - np.cumsum(count) + count,
                                           count)
    dst = np.repeat(flat - node, count) + far[edge]
    keep = supra[dst]
    src, dst = src[keep], np.searchsorted(flat, dst[keep])  # positions in flat
    root = np.arange(flat.size)
    while src.size:
        a, b = root[src], root[dst]
        split = a != b
        src, dst, a, b = src[split], dst[split], a[split], b[split]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    # number the roots (the nodes that are their own root) in order
    labels = (np.cumsum(root == np.arange(flat.size)) - 1)[root]
    return flat, labels, np.bincount(labels, weights=values[flat])


def _max_masses(f: np.ndarray, f_crit: float, forward) -> np.ndarray:
    """Largest cluster mass of every row of f, 0 where a row has none."""
    flat, labels, masses = _cluster_labels(f, f_crit, forward)
    top = np.zeros(len(f))
    np.maximum.at(top, flat // f.shape[1], masses[labels])
    return top


def _validate_nodes(
    node_datasets: Sequence[GroupedDataset], graph: AdjacencyGraph
) -> Design:
    if not (isinstance(node_datasets, Sequence)
            and all(isinstance(d, GroupedDataset) for d in node_datasets)):
        raise MalformedInput("node_datasets must be a sequence of GroupedDataset, "
                             f"got {node_datasets!r:.80}")
    if not isinstance(graph, AdjacencyGraph):
        raise InvalidGraph(f"graph must be an AdjacencyGraph, got {graph!r:.80}")
    if len(node_datasets) != graph.node_count:
        raise InvalidGraph(f"graph has {graph.node_count} nodes but "
                           f"{len(node_datasets)} datasets were supplied")
    designs = {d.design for d in node_datasets}
    if len(designs) != 1:
        raise DesignMismatch("all nodes must share one design")
    design = designs.pop()
    if design not in _SUPPORTED_DESIGNS:
        names = [d.value for d in _SUPPORTED_DESIGNS]
        raise DesignMismatch(f"cluster correction supports {names}, got {design.value}")
    shapes = {tuple(s.n for s in d.samples) for d in node_datasets}
    if len(shapes) != 1:
        raise DesignMismatch("all nodes must have identical group sizes")
    conditions = {d.condition_labels for d in node_datasets}
    if len(conditions) != 1:
        raise DesignMismatch("all nodes must list the same conditions")
    return design


def _unit_matrix(samples: Sequence[ComplexSample]) -> np.ndarray:
    """(len(samples), units) observations, column j one unit in every row:
    labelled samples aligned by ``align_units`` with the columns in sorted
    label order, so input row order does not matter; unlabelled ones stacked
    as they are."""
    labelled = {s.unit_labels is not None for s in samples}
    if labelled == {False}:
        return np.stack([s.observations for s in samples])
    if len(labelled) > 1:
        raise DesignMismatch("either every node carries unit labels or none does")
    M, labels = align_units(samples)
    # C order: a column-major M gave the permutation loop up to 7x its page faults
    return np.ascontiguousarray(M[:, np.argsort(labels)])


def cluster_correct(
    node_datasets: Sequence[GroupedDataset],
    graph: AdjacencyGraph,
    test: str = "T2circ",
    alpha_forming: float = 0.05,
    n_perm: int = 1000,
    seed: int = 0,
) -> ClusterResult:
    """Cluster-corrected mass test over a graph of node datasets.

    The same permutation (sign flips per unit, or one label shuffle) is
    applied to every node, preserving the spatial correlation structure.
    Cluster mass is the sum of F values over a connected supra-threshold
    component; corrected p = (1 + #{null >= observed}) / (1 + n_perm).

    Units are matched across nodes by label (``align_units``) in sorted
    label order, so the row order of the inputs does not matter; a unit
    label set that differs across nodes raises ``LabelMismatch``, and either
    every node carries labels or none does. ``node_results``, whose F
    values formed the clusters, are the scalar test's records from one
    kernel call over all nodes (``inference.Contract.results``); a node it
    cannot test raises the contract's error, prefixed by the node.

    Every call draws its permutations, in order, from one generator
    ``default_rng(seed)``: permutation p is row p of ``u =
    default_rng(seed).random((n_perm, units))``, whatever the block and
    span sizes. Its signs are ``u < 0.5`` and its label mask (True for
    group A) is ``argsort(u) < na``, a uniform shuffle of the observed
    labels. seed must be a non-negative integer and n_perm in [1, 2^32)
    (``DomainError`` otherwise); node_datasets must be a sequence of
    ``GroupedDataset`` (``MalformedInput``) and graph an ``AdjacencyGraph``
    (``InvalidGraph``).

    Permutations are drawn and evaluated in blocks of at most
    ``BLOCK_VALUES // nodes``: the block's draws form a sign or label-mask
    matrix, and one matmul gives every permuted mean (the sums of squares
    do not move). The F of a span of blocks, up to ``SPAN_VALUES`` values,
    is then labelled by one union-find (``_cluster_labels``) over its
    supra-threshold nodes alone; the observed clusters come from the same
    labelling on a span of one permutation. The block size moves the null
    only in the last bits; the span size does not move it at all.

    Tie rule: a draw that maps the data onto itself (all signs equal,
    ignoring units whose difference is zero at every node; the observed
    labels, or their swap when the groups are equal in size) is given the
    observed maximum mass exactly, so it always counts in null >= observed.
    A shuffle that only exchanges units holding identical values in the two
    groups is not detected as one; it is evaluated like any other draw, and
    its maximum may differ from the observed one in the last bits.
    """
    if test not in _CONTRACTS:
        raise DomainError(f"test must be 'T2' or 'T2circ', got {test!r}")
    checks.probability("alpha_forming", alpha_forming)
    seed = checks.seed(seed)
    n_perm = checks.integer("n_perm", n_perm, 1, maximum=checks.MAX_DRAWS)
    design = _validate_nodes(node_datasets, graph)
    two_sample = design is Design.TWO_SAMPLE_INDEPENDENT
    sizes = tuple(s.n for s in node_datasets[0].samples)
    contract = _CONTRACTS[test][two_sample]
    contract.check(sizes)
    k_nodes = len(node_datasets)

    if two_sample:
        na = sizes[0]
        V = np.hstack([_unit_matrix([d.samples[g] for d in node_datasets])
                       for g in (0, 1)])
        n_draw = V.shape[1]
        base_mask = np.arange(n_draw) < na
        A, B = V[:, :na], V[:, na:]
        node_results = contract.results(A, B, pair=(A, B), at="node {}: ")
        block_f = _label_shuffle_block(V, na, test)

        def is_identity(masks: np.ndarray) -> np.ndarray:
            same = (masks == base_mask).all(axis=1)
            if 2 * na == n_draw:  # swapping equal groups changes nothing
                same |= (masks != base_mask).all(axis=1)
            return same
    else:
        # one-sample (differences from mu) and paired (within-unit
        # differences) reduce to sign-flippable difference matrices
        if design is Design.ONE_SAMPLE:
            mu = np.array([d.mu for d in node_datasets])
            D = _unit_matrix([d.samples[0] for d in node_datasets]) - mu[:, None]
        else:
            M = _unit_matrix([s for d in node_datasets for s in d.samples])
            D = M[0::2] - M[1::2]
        node_results = contract.results(D, at="node {}: ")
        block_f = _sign_flip_block(D, test)
        n_draw = D.shape[1]

        moved = np.any(D != 0, axis=0)  # units a sign flip changes

        def is_identity(draws: np.ndarray) -> np.ndarray:
            # all signs equal on the moved units: D or -D, whose F is the same
            kept = draws[:, moved]
            return (kept == kept[:, :1]).all(axis=1)

    obs_f = np.array([r.f_value for r in node_results])
    df = node_results[0].df
    f_crit = f_critical(alpha_forming, df[0], df[1])
    forward = _forward_neighbours(graph)

    nodes, node_labels, component_masses = _cluster_labels(obs_f[None], f_crit,
                                                           forward)
    clusters = tuple(tuple(int(i) for i in nodes[node_labels == c])
                     for c in range(len(component_masses)))  # by smallest node
    masses = tuple(component_masses.tolist())
    observed_max = max(masses, default=0.0)

    null = np.empty(n_perm)
    block = max(1, BLOCK_VALUES // k_nodes)
    span = block * max(1, SPAN_VALUES // (block * k_nodes))
    rng = np.random.default_rng(seed)
    for start in range(0, n_perm, span):
        rows = min(span, n_perm - start)
        f = np.empty((rows, k_nodes))
        identity = np.empty(rows, dtype=bool)
        for b in range(0, rows, block):
            u = rng.random((min(block, rows - b), n_draw))
            draws = np.argsort(u, axis=1) < na if two_sample else u < 0.5
            f[b:b + len(u)] = block_f(draws)
            identity[b:b + len(u)] = is_identity(draws)
        null[start:start + rows] = np.where(identity, observed_max,
                                            _max_masses(f, f_crit, forward))
    null.sort()

    corrected = tuple(
        float((1 + int((null >= m).sum())) / (1 + n_perm)) for m in masses
    )
    null.setflags(write=False)
    return ClusterResult(
        clusters=clusters,
        cluster_masses=masses,
        corrected_p=corrected,
        null_distribution=null,
        alpha_forming=alpha_forming,
        test=test,
        n_permutations=n_perm,
        node_results=node_results,
    )
