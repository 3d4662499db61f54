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

from . import kernels
from .data import ComplexSample, Design, GroupedDataset, align_paired
from .distributions import f_critical
from .exceptions import DesignMismatch, DomainError, InvalidGraph
from .inference import (
    TestResult,
    t2_one_sample,
    t2_two_sample,
    t2circ_one_sample,
    t2circ_two_sample,
)

_SUPPORTED_DESIGNS = (
    Design.ONE_SAMPLE,
    Design.PAIRED,
    Design.TWO_SAMPLE_INDEPENDENT,
)


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected graph over node indices 0 .. node_count - 1."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise InvalidGraph("graph needs at least one node")
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise InvalidGraph(f"self-loop at node {i}")
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise InvalidGraph(
                    f"edge ({i}, {j}) outside 0..{self.node_count - 1}"
                )
            seen.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @classmethod
    def from_edge_list(cls, path, node_count: int) -> "AdjacencyGraph":
        """Read one 'i j' pair per line; '#' lines and blanks are skipped."""
        edges = []
        text = Path(path).read_text()
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

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


@dataclass(frozen=True)
class ClusterResult:
    """Observed clusters with their permutation-corrected p-values."""

    clusters: tuple[tuple[int, ...], ...]
    cluster_masses: tuple[float, ...]
    corrected_p: tuple[float, ...]
    null_distribution: np.ndarray
    alpha_forming: float
    test: str
    n_permutations: int
    node_results: tuple[TestResult, ...]

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "alpha_forming": self.alpha_forming,
            "n_permutations": self.n_permutations,
            "clusters": [list(c) for c in self.clusters],
            "cluster_masses": list(self.cluster_masses),
            "corrected_p": list(self.corrected_p),
            "node_results": [r.to_dict() for r in self.node_results],
            "null_distribution": [float(x) for x in self.null_distribution],
        }


def _components(nodes: np.ndarray, adj: list[list[int]]) -> list[list[int]]:
    """Connected components of the supra-threshold node set (BFS)."""
    active = set(int(i) for i in nodes)
    out = []
    while active:
        start = min(active)
        comp = [start]
        active.remove(start)
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v in active:
                    active.remove(v)
                    comp.append(v)
                    queue.append(v)
        out.append(sorted(comp))
    return out


def _validate_nodes(
    node_datasets: Sequence[GroupedDataset], graph: AdjacencyGraph
) -> Design:
    if len(node_datasets) != graph.node_count:
        raise InvalidGraph(
            f"graph has {graph.node_count} nodes but {len(node_datasets)} "
            "datasets were supplied"
        )
    designs = {d.design for d in node_datasets}
    if len(designs) != 1:
        raise DesignMismatch("all nodes must share one design")
    design = designs.pop()
    if design not in _SUPPORTED_DESIGNS:
        raise DesignMismatch(
            f"cluster correction supports {[d.value for d in _SUPPORTED_DESIGNS]}, "
            f"got {design.value}"
        )
    shapes = {tuple(s.n for s in d.samples) for d in node_datasets}
    if len(shapes) != 1:
        raise DesignMismatch("all nodes must have identical group sizes")
    conditions = {d.condition_labels for d in node_datasets}
    if len(conditions) != 1:
        raise DesignMismatch("all nodes must list the same conditions")
    return design


def _row_aligned(sample, reference: tuple[str, ...] | None) -> np.ndarray:
    """Observations reordered to the reference unit order.

    One permutation is applied to every node simultaneously, so row j must
    mean the same unit at every node; otherwise the permutation null loses
    the spatial correlation structure it is meant to preserve.
    """
    if reference is None:
        if sample.unit_labels is not None:
            raise DesignMismatch(
                "either every node carries unit labels or none does"
            )
        return sample.observations
    if sample.unit_labels is None:
        raise DesignMismatch(
            "either every node carries unit labels or none does"
        )
    if len(set(sample.unit_labels)) != len(sample.unit_labels):
        raise DesignMismatch(
            f"duplicate unit labels in condition {sample.condition_label!r}"
        )
    if set(sample.unit_labels) != set(reference):
        raise DesignMismatch("nodes do not share unit labels")
    order = {u: j for j, u in enumerate(sample.unit_labels)}
    return sample.observations[[order[u] for u in reference]]


def _reference_units(sample) -> tuple[str, ...] | None:
    """Canonical unit order: sorted labels, so results are invariant to the
    row order of the input files."""
    if sample.unit_labels is None:
        return None
    if len(set(sample.unit_labels)) != len(sample.unit_labels):
        raise DesignMismatch(
            f"duplicate unit labels in condition {sample.condition_label!r}"
        )
    return tuple(sorted(sample.unit_labels))


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
    Each permutation's RNG substream derives from (seed, permutation index),
    so results are reproducible and permutations could run concurrently.
    """
    if test not in ("T2", "T2circ"):
        raise DomainError(f"test must be 'T2' or 'T2circ', got {test!r}")
    if not 0.0 < alpha_forming < 1.0:
        raise DomainError(f"alpha_forming must be in (0, 1), got {alpha_forming}")
    if not n_perm >= 1:
        raise DomainError(f"n_perm must be >= 1, got {n_perm}")
    design = _validate_nodes(node_datasets, graph)
    k_nodes = len(node_datasets)

    if design is Design.TWO_SAMPLE_INDEPENDENT:
        na = node_datasets[0].samples[0].n
        n_total = na + node_datasets[0].samples[1].n
        ref_a = _reference_units(node_datasets[0].samples[0])
        ref_b = _reference_units(node_datasets[0].samples[1])
        V = np.empty((k_nodes, n_total), dtype=np.complex128)
        for i, d in enumerate(node_datasets):
            V[i, :na] = _row_aligned(d.samples[0], ref_a)
            V[i, na:] = _row_aligned(d.samples[1], ref_b)
        base_mask = np.zeros(n_total, dtype=bool)
        base_mask[:na] = True
        kernel = kernels.t2_two_sample if test == "T2" else kernels.t2circ_two_sample

        def rows_f(mask: np.ndarray) -> np.ndarray:
            return kernel(V[:, mask], V[:, ~mask])[1]

        obs_f = rows_f(base_mask)

        def permuted_f(rng: np.random.Generator) -> np.ndarray:
            return rows_f(base_mask[rng.permutation(n_total)])

        node_results = tuple(
            (t2_two_sample if test == "T2" else t2circ_two_sample)(
                d.samples[0], d.samples[1]
            )
            for d in node_datasets
        )
        df = node_results[0].df
    else:
        # one-sample (differences from mu) and paired (within-unit
        # differences) reduce to sign-flippable difference matrices
        if design is Design.ONE_SAMPLE:
            n_units = node_datasets[0].samples[0].n
            reference = _reference_units(node_datasets[0].samples[0])
            D = np.empty((k_nodes, n_units), dtype=np.complex128)
            for i, d in enumerate(node_datasets):
                D[i] = _row_aligned(d.samples[0], reference) - d.mu
        else:
            first = node_datasets[0].samples[0]
            reference = _reference_units(first)
            n_units = first.n
            D = np.empty((k_nodes, n_units), dtype=np.complex128)
            for i, d in enumerate(node_datasets):
                va, vb, labels = align_paired(d.samples[0], d.samples[1])
                diffs = ComplexSample(va - vb, "", labels)
                D[i] = _row_aligned(diffs, reference)
        kernel = kernels.t2_one_sample if test == "T2" else kernels.t2circ_one_sample
        obs_f = kernel(D)[1]

        def permuted_f(rng: np.random.Generator) -> np.ndarray:
            signs = rng.integers(0, 2, size=n_units) * 2 - 1
            return kernel(D * signs[None, :])[1]

        one_sample = t2_one_sample if test == "T2" else t2circ_one_sample
        node_results = tuple(
            one_sample(
                ComplexSample(row, node_datasets[i].samples[0].condition_label),
                0j,
            )
            for i, row in enumerate(D)
        )
        df = node_results[0].df

    f_crit = f_critical(alpha_forming, df[0], df[1])
    adj = graph.neighbors()

    def max_mass(f_values: np.ndarray) -> tuple[float, list[list[int]], list[float]]:
        supra = np.nonzero(f_values > f_crit)[0]
        if supra.size == 0:
            return 0.0, [], []
        comps = _components(supra, adj)
        masses = [float(f_values[c].sum()) for c in comps]
        return max(masses), comps, masses

    _, clusters, masses = max_mass(obs_f)

    null = np.empty(n_perm)
    for p_idx in range(n_perm):
        rng = np.random.default_rng([seed, p_idx])
        null[p_idx] = max_mass(permuted_f(rng))[0]
    null.sort()

    corrected = tuple(
        float((1 + int((null >= m).sum())) / (1 + n_perm)) for m in masses
    )
    null.setflags(write=False)
    return ClusterResult(
        clusters=tuple(tuple(c) for c in clusters),
        cluster_masses=tuple(masses),
        corrected_p=corrected,
        null_distribution=null,
        alpha_forming=alpha_forming,
        test=test,
        n_permutations=n_perm,
        node_results=node_results,
    )
