"""Seeded inputs, operations and correctness checks of the three workloads.

Each workload is a fixed list of pool items whose *shape* (design, sizes,
test, grid) never changes; the seed only draws the numbers. Op times are
therefore comparable across seeds, and the ten-seed spread measures the
program rather than the pool. A timed run cycles through the pool in order,
so host noise falls on every item alike.

Every item is run repeatedly. Its first output is checked in full and kept
as the reference; every later output must equal it byte for byte, which
also shows that the program is deterministic. The SHA-256 of the first
outputs, in pool order, is the workload's output digest for the seed.

Only the public API of ``phasorstats`` is used, looked up through module
attributes at call time so that the traced run can wrap entry points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

WORKLOADS = ("analyze", "montecarlo", "cluster")


class CheckFailed(Exception):
    """An output that fails its correctness check."""


@dataclass
class Item:
    """One pool entry: how to run it, how to check it, and its work count."""

    tag: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    encode: Callable[[Any], bytes]
    work: int  # replicates (montecarlo), permutations (cluster), resamples (analyze)
    meta: dict = field(default_factory=dict)
    observe: Optional[Callable[[Any], dict]] = None  # per-op figures for the trace


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

#: (design, units per condition, conditions, effect, anisotropic, outliers,
#:  rows per unit, baseline). Units 6..100, conditions 1..7, all five designs.
#: With the two fixtures the pool has 15 items: pool sizes of 5 (mod 10)
#: put both the p50 and the p90 of whole cycles mid-way inside one item's
#: times instead of on the boundary between two items.
ANALYZE_SPECS = (
    ("one-sample", 6, 1, 1.0, False, 0, 1, False),
    ("one-sample", 24, 1, 0.6, True, 2, 3, False),
    ("two-sample", 30, 2, 0.5, True, 0, 1, False),
    ("two-sample", 45, 2, 0.8, False, 3, 2, False),
    ("paired", 8, 2, 1.0, False, 0, 1, False),
    ("paired", 40, 2, 0.5, True, 2, 1, False),
    ("paired", 100, 2, 0.3, False, 0, 1, False),
    ("oneway", 15, 3, 1.0, False, 0, 1, False),
    ("oneway", 20, 5, 0.8, True, 2, 1, False),
    ("oneway", 8, 7, 0.0, False, 0, 2, False),
    ("oneway-rm", 30, 4, 0.8, False, 0, 1, True),
    ("oneway-rm", 24, 6, 0.6, True, 0, 1, False),
    ("oneway-rm", 50, 7, 0.5, False, 3, 1, True),
)

#: The committed fixtures and the CLI arguments their goldens were made with.
FIXTURES = (
    ("mouse", ["--design", "paired"]),
    ("human", ["--design", "oneway-rm", "--baseline", "0"]),
)

BOOTSTRAP_REPS = 10000  # run_flowchart default, one resample set per condition


def _noise(rng: np.random.Generator, size: int, anisotropic: bool) -> np.ndarray:
    z = rng.standard_normal((size, 2))
    if anisotropic:
        # variance ratio 10 with correlation 0.5, rotated at random; the
        # condition-index test rejects this for every N used here
        angle = rng.uniform(0.0, math.pi)
        c, s = math.cos(angle), math.sin(angle)
        a = np.array([[math.sqrt(10.0), 0.0], [0.5, 0.8]]) @ np.array([[c, -s], [s, c]])
        z = z @ a
    return z[:, 0] + 1j * z[:, 1]


def _analyze_rows(rng: np.random.Generator, spec) -> list[tuple[str, str, float, float]]:
    design, n, k, effect, aniso, n_out, reps, _ = spec
    unit_aligned = design in ("paired", "oneway-rm")
    offset = complex(*rng.normal(0.0, 2.0, 2))
    unit_effects = 0.7 * _noise(rng, n, False) if unit_aligned else np.zeros(n)
    outlier_units = set(rng.choice(n, size=n_out, replace=False).tolist())
    rows = []
    for g in range(k):
        cond = f"c{g}"
        mean = offset + (effect * (g + 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                         if (g > 0 or design == "one-sample") else 0.0)
        values = mean + unit_effects + _noise(rng, n, aniso)
        if outlier_units and (g == 0 or not unit_aligned):
            scale = 10.0 if aniso else 8.0
            for u in sorted(outlier_units):
                values[u] += scale * np.exp(1j * rng.uniform(0, 2 * math.pi))
        for u in range(n):
            unit = f"u{u:03d}" if unit_aligned or design == "one-sample" else f"g{g}u{u:03d}"
            # several rows per unit are coherently averaged by the reader;
            # jitter that cancels keeps the unit mean exact
            jitter = 0.1 * _noise(rng, reps, False)
            jitter -= jitter.mean()
            for r in range(reps):
                v = values[u] + jitter[r]
                rows.append((unit, cond, float(v.real), float(v.imag)))
    return rows


def _write_csv(path: Path, rows) -> None:
    lines = ["unit,condition,re,im"]
    lines += [f"{u},{c},{re!r},{im!r}" for u, c, re, im in rows]
    path.write_text("\n".join(lines) + "\n")


def _p_values(report: dict) -> list[float]:
    ps = [report["primary"]["p_value"]]
    ps += [c["ci_p_value"] for c in report["conditions"] if c["ci_p_value"] is not None]
    ps += [p["result"]["p_value"] for p in report["posthoc"]]
    return ps


def check_analyze_output(text: bytes, golden: Optional[bytes]) -> None:
    """Golden byte match for fixtures; p-values in [0, 1] and a lossless
    ``AnalysisReport`` round trip for every report."""
    import phasorstats

    if golden is not None and text != golden:
        raise CheckFailed("report differs from its committed golden")
    decoded = text.decode()
    report = json.loads(decoded)
    for p in _p_values(report):
        if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise CheckFailed(f"p-value {p!r} outside [0, 1]")
    if phasorstats.AnalysisReport.from_json(decoded).to_json() != decoded:
        raise CheckFailed("report does not round-trip through AnalysisReport")


def analyze_items(seed: int, root: Path, workdir: Path) -> list[Item]:
    """Pool of ``phasorstats analyze`` invocations: both fixtures and one
    generated CSV per entry of ANALYZE_SPECS."""
    from phasorstats import cli

    fixtures = root / "tests" / "fixtures"
    jobs = []
    for name, args in FIXTURES:
        csv_path = fixtures / f"{name}_ssvep.csv"
        golden = (fixtures / f"{name}_report.json").read_bytes()
        lines = csv_path.read_text().splitlines()[1:]
        conditions = len({line.split(",")[1] for line in lines})
        jobs.append((name, csv_path, args + ["--seed", "0"], golden, len(lines), conditions))
    for i, spec in enumerate(ANALYZE_SPECS):
        rows = _analyze_rows(_rng(seed, 1, i), spec)
        csv_path = workdir / f"analyze-{i:02d}.csv"
        _write_csv(csv_path, rows)
        args = ["--design", spec[0], "--seed", str(seed + i)]
        if spec[7]:
            args += ["--baseline", "c0"]
        jobs.append((f"{spec[0]}-n{spec[1]}-k{spec[2]}", csv_path, args, None, len(rows), spec[2]))

    items = []
    for j, (tag, csv_path, args, golden, n_rows, conditions) in enumerate(jobs):
        out = workdir / f"analyze-{j:02d}.json"
        argv = ["analyze", str(csv_path), *args, "--format", "json", "--out", str(out)]

        def run(argv=argv, out=out) -> bytes:
            rc = cli.main(argv)
            if rc != 0:
                raise CheckFailed(f"analyze exited with code {rc}")
            return out.read_bytes()

        items.append(Item(
            tag=f"analyze:{tag}",
            run=run,
            check=lambda text, golden=golden: check_analyze_output(text, golden),
            encode=lambda text: text,
            work=BOOTSTRAP_REPS * conditions,
            meta={"rows": n_rows},
        ))
    return items


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

MC_REPS = 400

#: (test, n, d, correlation, variance ratio, planted outlier distance);
#: 25 cells, see ANALYZE_SPECS for the pool size.
MC_CELLS = (
    ("T2", 4, 0.0, 0.0, 1.0, None),
    ("T2", 8, 0.0, 0.6, 1.0, None),
    ("T2", 16, 0.0, 0.0, 4.0, None),
    ("T2", 64, 0.0, -0.9, 0.25, None),
    ("T2", 32, 0.5, 0.0, 1.0, None),
    ("T2circ", 4, 0.0, 0.0, 1.0, None),
    ("T2circ", 16, 0.0, 0.0, 1.0, None),
    ("T2circ", 64, 0.0, 0.0, 1.0, None),
    ("T2circ", 16, 0.0, 0.6, 1.0, None),
    ("T2circ", 8, 0.5, 0.0, 1.0, None),
    ("T2circ", 32, 1.0, 0.0, 1.0, None),
    ("ANOVA2circ", 4, 0.0, 0.0, 1.0, None),
    ("ANOVA2circ", 16, 0.0, 0.0, 1.0, None),
    ("ANOVA2circ", 64, 0.5, 0.0, 1.0, None),
    ("ANOVA2circ", 8, 1.0, 0.0, 4.0, None),
    ("MANOVA", 4, 0.0, 0.0, 1.0, None),
    ("MANOVA", 16, 0.0, 0.3, 2.0, None),
    ("MANOVA", 32, 0.5, 0.0, 1.0, None),
    ("MANOVA", 8, 1.0, 0.0, 1.0, None),
    ("CI_test", 4, 0.0, 0.0, 1.0, None),
    ("CI_test", 16, 0.0, 0.0, 1.0, None),
    ("CI_test", 64, 0.0, 0.0, 1.0, None),
    ("CI_test", 8, 1.0, 0.0, 1.0, 3.0),
    ("CI_test", 16, 0.0, 0.0, 1.0, 4.0),
    ("CI_test", 32, 0.0, 0.0, 1.0, 2.0),
)

#: Per-tail probability of the binomial band. The seeded cells are
#: deterministic, so this is the chance that a correct program fails a
#: given (cell, seed) pair.
BAND_TAIL = 1e-6


def is_exact_null(test: str, d: float, r: float, v: float, outlier) -> bool:
    """Null cells whose rejection rate is exactly alpha: T2 under any
    covariance, the circular tests and CI_test under spherical noise."""
    if d != 0.0 or outlier:
        return False
    if test == "T2":
        return True
    return test in ("T2circ", "ANOVA2circ", "CI_test") and r == 0.0 and v == 1.0


def binomial_band(n_reps: int, alpha: float) -> tuple[int, int]:
    """Hit counts [lo, hi] a correct exact test stays within, except with
    probability BAND_TAIL in each tail."""
    from scipy.stats import binom

    lo = int(binom.ppf(BAND_TAIL, n_reps, alpha))
    hi = int(binom.isf(BAND_TAIL, n_reps, alpha))
    return lo, hi


def check_rate_table(table_json: str, spec_fields: dict, exact_null: bool) -> None:
    """Cell echoes its spec, rate = hits / n_reps with the binomial SE, and
    exact null cells reject within the binomial band of alpha."""
    payload = json.loads(table_json)
    (cell,) = payload["cells"]
    n_reps = spec_fields["n_reps"]
    for key in ("test", "d", "n", "correlation", "variance_ratio", "k", "n_reps"):
        if cell[key] != spec_fields[key]:
            raise CheckFailed(f"cell {key} = {cell[key]!r}, spec has {spec_fields[key]!r}")
    hits = cell["rate"] * n_reps
    if abs(hits - round(hits)) > 1e-6 or not 0 <= round(hits) <= n_reps:
        raise CheckFailed(f"rate {cell['rate']} is not a count over {n_reps}")
    rate = cell["rate"]
    if not math.isclose(cell["se"], math.sqrt(rate * (1 - rate) / n_reps), rel_tol=1e-9, abs_tol=1e-15):
        raise CheckFailed("se is not the binomial standard error")
    if exact_null:
        lo, hi = binomial_band(n_reps, spec_fields["alpha"])
        if not lo <= round(hits) <= hi:
            raise CheckFailed(
                f"{cell['test']} null rejects {round(hits)}/{n_reps}, "
                f"outside the band [{lo}, {hi}] of alpha = {spec_fields['alpha']}"
            )


def montecarlo_items(seed: int) -> list[Item]:
    """One ``simulate_rates`` cell per entry of MC_CELLS at MC_REPS replicates."""
    import phasorstats

    items = []
    for i, (test, n, d, r, v, outlier) in enumerate(MC_CELLS):
        k = 3 if test in ("ANOVA2circ", "MANOVA") else 1
        fields = dict(test=test, n=n, d=d, correlation=r, variance_ratio=v, k=k,
                      planted_outlier_distance=outlier, alpha=0.05,
                      n_reps=MC_REPS, seed=int(_rng(seed, 2).integers(2**31)) + i)
        spec = phasorstats.SimulationSpec(**fields)
        exact = is_exact_null(test, d, r, v, outlier)
        items.append(Item(
            tag=f"montecarlo:{test}",
            run=lambda spec=spec: phasorstats.simulate_rates(spec).to_json(),
            check=lambda text, fields=fields, exact=exact: check_rate_table(text, fields, exact),
            encode=str.encode,
            work=MC_REPS,
            meta={"test": test},
        ))
    return items


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

N_PERM = 1000

#: (grid side, design, test, units per group, patch side): twelve 16 x 16
#: ops and three 8 x 8 ops, 15 in all (see ANALYZE_SPECS for the pool size).
CLUSTER_SPECS = (
    *((16, design, test, n, 4)
      for design, sizes in (("one-sample", (16, 32)), ("paired", (12, 24)),
                            ("two-sample", (12, 20)))
      for test in ("T2circ", "T2") for n in sizes),
    (8, "one-sample", "T2circ", 12, 3),
    (8, "paired", "T2", 20, 3),
    (8, "two-sample", "T2circ", 16, 3),
)

_DESIGNS = {"one-sample": "one_sample", "paired": "paired",
            "two-sample": "two_sample_independent"}

#: Planted mean shift in noise SDs: large enough that every patch node is
#: supra-threshold and the patch cluster beats all 1000 permutations.
PATCH_EFFECT = 2.5


def grid_graph(side: int):
    from phasorstats import AdjacencyGraph

    edges = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                edges.append((i, i + 1))
            if r + 1 < side:
                edges.append((i, i + side))
    return AdjacencyGraph(side * side, tuple(edges))


def _cluster_datasets(rng: np.random.Generator, side: int, design: str, n: int, patch: int):
    from phasorstats import ComplexSample, GroupedDataset

    r0, c0 = rng.integers(0, side - patch + 1, size=2)
    patch_nodes = [(r0 + a) * side + (c0 + b) for a in range(patch) for b in range(patch)]
    direction = np.exp(1j * rng.uniform(0, 2 * math.pi))
    shift = np.zeros(side * side, dtype=complex)
    shift[patch_nodes] = PATCH_EFFECT * direction
    units = tuple(f"u{u:02d}" for u in range(n))
    datasets = []
    for node in range(side * side):
        if design == "one-sample":
            samples = (ComplexSample(shift[node] + _noise(rng, n, False), "c0", units),)
        elif design == "paired":
            base = _noise(rng, n, False)
            a = base + shift[node] + 0.5 * _noise(rng, n, False)
            b = base + 0.5 * _noise(rng, n, False)
            samples = (ComplexSample(a, "a", units), ComplexSample(b, "b", units))
        else:
            samples = (
                ComplexSample(shift[node] + _noise(rng, n, False), "a",
                              tuple(f"a{u:02d}" for u in range(n))),
                ComplexSample(_noise(rng, n, False), "b",
                              tuple(f"b{u:02d}" for u in range(n))),
            )
        datasets.append(GroupedDataset(samples, _DESIGNS[design]))
    return datasets, tuple(sorted(patch_nodes))


def check_cluster_result(result, patch: tuple[int, ...], n_perm: int) -> None:
    """Null distribution of length n_perm and sorted; the planted patch lies
    inside one cluster with corrected p <= 0.05."""
    null = np.asarray(result.null_distribution)
    if null.shape != (n_perm,):
        raise CheckFailed(f"null distribution has shape {null.shape}, expected ({n_perm},)")
    if np.any(np.diff(null) < 0):
        raise CheckFailed("null distribution is not sorted")
    for cluster, p in zip(result.clusters, result.corrected_p):
        if p <= 0.05 and set(patch) <= set(cluster):
            return
    raise CheckFailed("no cluster with corrected p <= 0.05 covers the planted patch")


def cluster_items(seed: int) -> list[Item]:
    """One ``cluster_correct`` call with N_PERM permutations per CLUSTER_SPECS entry."""
    import phasorstats

    items = []
    for i, (side, design, test, n, patch) in enumerate(CLUSTER_SPECS):
        datasets, patch_nodes = _cluster_datasets(_rng(seed, 3, i), side, design, n, patch)
        graph = grid_graph(side)
        perm_seed = seed + i

        def run(datasets=datasets, graph=graph, test=test, perm_seed=perm_seed):
            return phasorstats.cluster_correct(datasets, graph, test=test,
                                               n_perm=N_PERM, seed=perm_seed)

        items.append(Item(
            tag=f"cluster:{design}",
            run=run,
            check=lambda res, patch_nodes=patch_nodes: check_cluster_result(res, patch_nodes, N_PERM),
            encode=lambda res: json.dumps(res.to_dict(), sort_keys=True).encode(),
            work=N_PERM,
            meta={"design": design, "nodes": side * side},
            observe=lambda res: {"empty_perms": int((res.null_distribution == 0).sum())},
        ))
    return items


def make_items(workload: str, seed: int, root: Path, workdir: Path) -> list[Item]:
    if workload == "analyze":
        return analyze_items(seed, root, workdir)
    if workload == "montecarlo":
        return montecarlo_items(seed)
    if workload == "cluster":
        return cluster_items(seed)
    raise ValueError(f"unknown workload {workload!r}")
