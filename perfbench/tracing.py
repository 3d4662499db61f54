"""Span tracing from outside the program, and the per-layer metrics.

Entry points are wrapped under the name their caller looks them up by
(``report.amp_ci_bootstrap`` replaces the ``amp_ci_bootstrap`` global of
``phasorstats.report``); methods are wrapped on their class. A ``span``
wrapper records name, start, end, parent span and op id into flat arrays
kept in memory; a ``count`` wrapper only counts calls per op. A name that
no longer exists is reported as absent instead of failing the run, so the
tracer survives later PRs that delete or rename internals.

Self time of a span is its duration minus the durations of its direct
children; with one thread, children never overlap.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

INFERENCE_GROUPS = {
    "T2": ("t2_one_sample", "t2_two_sample", "t2_paired"),
    "T2circ": ("t2circ_one_sample", "t2circ_two_sample", "t2circ_paired"),
    "ANOVA2circ": ("anova2circ_independent", "anova2circ_repeated"),
    "MANOVA": ("manova_oneway",),
    "CI_test": ("ci_test",),
}
_GROUP_OF = {fn: g for g, fns in INFERENCE_GROUPS.items() for fn in fns}


@dataclass(frozen=True)
class Entry:
    """One wrapped name: ``owner`` is the module (or module:Class) whose
    attribute is replaced; ``layer`` is the module that implements it."""

    owner: str
    attr: str
    layer: str
    kind: str = "span"  # or "count"

    @property
    def name(self) -> str:
        if ":" in self.owner:
            return f"{self.owner.split(':')[1]}.{self.attr}"
        return f"{self.owner.rsplit('.', 1)[1]}.{self.attr}"


def _inference_entries(owner: str, fns) -> list[Entry]:
    return [Entry(owner, fn, "inference") for fn in fns]


_P = "phasorstats."
ENTRIES: tuple[Entry, ...] = (
    # cli -> ingest / report
    Entry(_P + "cli", "read_components_csv", "ingest"),
    Entry(_P + "cli", "build_dataset", "ingest"),
    Entry(_P + "cli", "run_flowchart", "report"),
    Entry(_P + "report:AnalysisReport", "to_json", "report"),
    # report -> outliers / data / inference / amplitude
    Entry(_P + "report", "exclude_outliers", "outliers"),
    Entry(_P + "report", "covariance_summary", "data"),
    Entry(_P + "report", "amp_errors_ellipse", "amplitude"),
    Entry(_P + "report", "amp_ci_bootstrap", "amplitude"),
    *_inference_entries(_P + "report", _GROUP_OF),
    # covariance summaries reached from the other layers
    Entry(_P + "inference", "covariance_summary", "data"),
    Entry(_P + "outliers", "covariance_summary", "data"),
    Entry(_P + "amplitude", "covariance_summary", "data"),
    # distributions
    Entry(_P + "inference", "f_cdf", "distributions"),
    Entry(_P + "distributions:ConditionIndexDistribution", "sf", "distributions"),
    Entry(_P + "distributions:ConditionIndexDistribution", "quantile", "distributions"),
    Entry(_P + "clusters", "f_critical", "distributions"),
    Entry(_P + "distributions", "quad", "distributions", "count"),
    # simulate
    *_inference_entries(_P + "simulate", ("t2_one_sample", "t2circ_one_sample",
                                          "anova2circ_independent", "manova_oneway")),
    Entry(_P + "simulate", "ComplexSample", "data", "count"),
    # clusters
    *_inference_entries(_P + "clusters", ("t2_one_sample", "t2_two_sample",
                                          "t2circ_one_sample", "t2circ_two_sample")),
)

OP = "op"  # name of the span the runner opens around every op


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span and call-count recorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: list[Counter] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._restore: list[tuple[object, str, object, bool]] = []
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name_id: int, fn: Callable, args, kwargs):
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def run_op(self, fn: Callable):
        """Run one op inside an ``op`` span with a fresh op id."""
        self._op_id = len(self.counts)
        self.counts.append(Counter())
        return self._span(self._id(OP), fn, (), {})

    def _wrapper(self, entry: Entry, fn: Callable) -> Callable:
        if entry.kind == "count":
            name = entry.name
            counts = self.counts

            def counted(*args, **kwargs):
                counts[self._op_id][name] += 1
                return fn(*args, **kwargs)

            return counted
        name_id = self._id(entry.name)

        def spanned(*args, **kwargs):
            return self._span(name_id, fn, args, kwargs)

        return spanned

    def install(self, entries=ENTRIES) -> None:
        self.absent = []
        for entry in entries:
            try:
                owner = _resolve(entry.owner)
                original = getattr(owner, entry.attr)
            except (ImportError, AttributeError):
                self.absent.append(entry.name)
                continue
            own = entry.attr in vars(owner)
            self._restore.append((owner, entry.attr, vars(owner).get(entry.attr), own))
            setattr(owner, entry.attr, self._wrapper(entry, original))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def table(self) -> "SpanTable":
        return SpanTable(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int_).copy(),
            start=np.frombuffer(self.start, dtype=float).copy(),
            end=np.frombuffer(self.end, dtype=float).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int_).copy(),
            op=np.frombuffer(self.op, dtype=np.int_).copy(),
            counts=[dict(c) for c in self.counts],
        )


@dataclass
class SpanTable:
    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    counts: list[dict]

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def ids(self, names) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def child_time(self, child_names=None) -> np.ndarray:
        """Per span, the summed duration of its direct children (restricted
        to ``child_names`` when given)."""
        out = np.zeros(self.name.size)
        sel = self.parent >= 0
        if child_names is not None:
            sel &= np.isin(self.name, self.ids(child_names))
        np.add.at(out, self.parent[sel], self.duration[sel])
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name, start=self.start,
            end=self.end, parent=self.parent, op=self.op,
        )


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    op_id: int
    tag: str
    work: int
    meta: dict
    observed: dict


class View:
    """The spans and counts of a chosen set of ops."""

    def __init__(self, table: SpanTable, ops: list[OpRecord]):
        self.t = table
        self.ops = ops
        ids = np.array([o.op_id for o in ops], dtype=np.int_)
        self.mask = np.isin(table.op, ids)
        self.op_dur = self.ops_self([])

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def select(self, names) -> np.ndarray:
        return self.mask & np.isin(self.t.name, self.t.ids(names))

    def durations(self, names) -> np.ndarray:
        return self.t.duration[self.select(names)]

    def self_times(self, names) -> np.ndarray:
        sel = self.select(names)
        return self.t.duration[sel] - self.t.child_time()[sel]

    def count(self, name: str) -> int:
        return sum(self.t.counts[o.op_id].get(name, 0) for o in self.ops)

    def ops_self(self, child_names) -> dict[int, float]:
        """Per op id, op duration minus its direct children in ``child_names``."""
        op_name = self.t.ids([OP])
        sel = self.mask & np.isin(self.t.name, op_name)
        child = self.t.child_time(child_names)
        return {int(self.t.op[i]): float(self.t.duration[i] - child[i])
                for i in np.nonzero(sel)[0]}


def _names(layer: str) -> list[str]:
    return [e.name for e in ENTRIES if e.layer == layer and e.kind == "span"]


def _inference_names(group: Optional[str] = None) -> list[str]:
    fns = INFERENCE_GROUPS[group] if group else _GROUP_OF
    return [e.name for e in ENTRIES if e.layer == "inference" and e.attr in fns]


def _mean(x: np.ndarray, scale: float) -> Optional[float]:
    return float(x.mean() * scale) if x.size else None


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def _us_per_rep(v: View, test: str) -> Optional[float]:
    ops = [o for o in v.ops if o.meta.get("test") == test]
    return _ratio(sum(v.op_dur.get(o.op_id, 0.0) for o in ops) * 1e6,
                  sum(o.work for o in ops))


def _simulate_self(v: View) -> Optional[float]:
    children = _inference_names() + _names("distributions")
    self_t = v.ops_self(children)
    return _ratio(sum(self_t.values()) * 1e6, sum(o.work for o in v.ops))


def _us_per_perm(v: View, design: str) -> Optional[float]:
    ops = [o for o in v.ops if o.meta.get("design") == design]
    self_t = v.ops_self(_inference_names() + _names("distributions"))
    return _ratio(sum(self_t.get(o.op_id, 0.0) for o in ops) * 1e6,
                  sum(o.work for o in ops))


def _share(v: View, layer: str) -> Optional[float]:
    return _ratio(float(v.durations(_names(layer)).sum()), sum(v.op_dur.values()))


def _rows_per_s(v: View) -> Optional[float]:
    return _ratio(sum(o.meta.get("rows", 0) for o in v.ops),
                  float(v.durations(["cli.read_components_csv"]).sum()))


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, the workload whose ops it is read from, and the
    end-to-end metric (on ``moves_workload``) it is expected to move."""

    name: str
    unit: str
    better: str
    measured_on: str
    moves: str
    moves_workload: str
    compute: Callable[[View], Optional[float]]


LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("amplitude.bootstrap_ms", "ms", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(v.durations(["report.amp_ci_bootstrap"]), 1e3)),
    LayerMetric("amplitude.ellipse_ms", "ms", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(v.durations(["report.amp_errors_ellipse"]), 1e3)),
    LayerMetric("amplitude.share", "frac", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _share(v, "amplitude")),
    LayerMetric("distributions.ci_sf_us", "us", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(v.durations(["ConditionIndexDistribution.sf"]), 1e6)),
    LayerMetric("distributions.quad_calls_per_op", "count", "lower", "analyze", "op_ms_p50",
        "analyze", lambda v: _ratio(v.count("distributions.quad"), v.n_ops)),
    LayerMetric("distributions.ci_quantile_ms", "ms", "lower", "montecarlo", "reps_per_s",
        "montecarlo",
        lambda v: _mean(v.durations(["ConditionIndexDistribution.quantile"]), 1e3)),
    LayerMetric("distributions.f_cdf_us", "us", "lower", "montecarlo", "reps_per_s", "montecarlo",
        lambda v: _mean(v.durations(["inference.f_cdf"]), 1e6)),
    LayerMetric("inference.calls_per_op", "count", "lower", "montecarlo", "reps_per_s",
        "montecarlo", lambda v: _ratio(int(v.select(_inference_names()).sum()), v.n_ops)),
    *(
        LayerMetric(f"inference.us_per_call.{g}", "us", "lower",
            "analyze" if g == "CI_test" else "montecarlo", "reps_per_s", "montecarlo",
            lambda v, g=g: _mean(v.durations(_inference_names(g)), 1e6))
        for g in INFERENCE_GROUPS
    ),
    *(
        LayerMetric(f"simulate.us_per_rep.{g}", "us", "lower", "montecarlo", "reps_per_s",
            "montecarlo", lambda v, g=g: _us_per_rep(v, g))
        for g in INFERENCE_GROUPS
    ),
    LayerMetric("simulate.self_us_per_rep", "us", "lower", "montecarlo", "reps_per_s",
        "montecarlo", _simulate_self),
    LayerMetric("simulate.samples_per_rep", "count", "lower", "montecarlo", "reps_per_s",
        "montecarlo",
        lambda v: _ratio(v.count("simulate.ComplexSample"), sum(o.work for o in v.ops))),
    *(
        LayerMetric(f"clusters.us_per_perm.{d}", "us", "lower", "cluster", "perms_per_s",
            "cluster", lambda v, d=d: _us_per_perm(v, d))
        for d in ("one-sample", "paired", "two-sample")
    ),
    LayerMetric("clusters.node_tests_ms", "ms", "lower", "cluster", "perms_per_s", "cluster",
        lambda v: _ratio(float(v.durations(_inference_names()).sum()) * 1e3, v.n_ops)),
    LayerMetric("clusters.empty_perm_frac", "frac", "lower", "cluster", "perms_per_s", "cluster",
        lambda v: _ratio(sum(o.observed.get("empty_perms", 0) for o in v.ops),
                        sum(o.work for o in v.ops))),
    LayerMetric("outliers.screen_ms", "ms", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(v.durations(["report.exclude_outliers"]), 1e3)),
    LayerMetric("data.covariance_summary_calls_per_op", "count", "lower", "analyze", "op_ms_p50",
        "analyze",
        lambda v: _ratio(int(v.select(_names("data")).sum()), v.n_ops)),
    LayerMetric("data.covariance_summary_us", "us", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(v.durations(_names("data")), 1e6)),
    LayerMetric("ingest.read_ms", "ms", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(v.durations(["cli.read_components_csv"]), 1e3)),
    LayerMetric("ingest.rows_per_s", "1/s", "higher", "analyze", "op_ms_p50", "analyze",
        _rows_per_s),
    LayerMetric("ingest.build_ms", "ms", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(v.durations(["cli.build_dataset"]), 1e3)),
    LayerMetric("report.flowchart_self_ms", "ms", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(v.self_times(["cli.run_flowchart"]), 1e3)),
    LayerMetric("report.to_json_ms", "ms", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(v.durations(["AnalysisReport.to_json"]), 1e3)),
    LayerMetric("cli.self_ms", "ms", "lower", "analyze", "op_ms_p50", "analyze",
        lambda v: _mean(np.array(list(v.ops_self(None).values())), 1e3)),
)
