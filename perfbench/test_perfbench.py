"""Self-tests of the benchmark's generators, checks and tracer.

Kept outside the repository's test suite; run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import phasorstats  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


# --- generators ------------------------------------------------------------

def _csvs(seed, workdir):
    workdir.mkdir()
    W.analyze_items(seed, ROOT, workdir)
    return {p.name: p.read_bytes() for p in sorted(workdir.glob("*.csv"))}


def test_analyze_inputs_depend_only_on_seed(tmp_path):
    first, again, other = _csvs(3, tmp_path / "a"), _csvs(3, tmp_path / "b"), _csvs(4, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_analyze_pool_covers_designs_sizes_and_fixtures(tmp_path):
    items = W.analyze_items(0, ROOT, tmp_path)
    assert len(items) == len(W.ANALYZE_SPECS) + 2
    assert {s[0] for s in W.ANALYZE_SPECS} == set(phasorstats.cli._DESIGNS)
    assert min(s[1] for s in W.ANALYZE_SPECS) == 6 and max(s[1] for s in W.ANALYZE_SPECS) == 100
    assert min(s[2] for s in W.ANALYZE_SPECS) == 1 and max(s[2] for s in W.ANALYZE_SPECS) == 7
    assert any(s[4] for s in W.ANALYZE_SPECS) and any(s[5] for s in W.ANALYZE_SPECS)


def test_montecarlo_and_cluster_inputs_depend_only_on_seed():
    def mc(seed):
        return [json.loads(it.run()) for it in W.montecarlo_items(seed)[:2]]

    assert mc(5) == mc(5) and mc(5) != mc(6)
    a = W._cluster_datasets(W._rng(5, 3, 0), 8, "paired", 12, 3)
    b = W._cluster_datasets(W._rng(5, 3, 0), 8, "paired", 12, 3)
    assert a[1] == b[1]
    assert all(np.array_equal(x.samples[0].observations, y.samples[0].observations)
               for x, y in zip(a[0], b[0]))


def test_exact_null_cells():
    assert W.is_exact_null("T2", 0.0, 0.6, 4.0, None)
    assert W.is_exact_null("CI_test", 0.0, 0.0, 1.0, None)
    assert not W.is_exact_null("T2circ", 0.0, 0.6, 1.0, None)
    assert not W.is_exact_null("MANOVA", 0.0, 0.0, 1.0, None)
    assert not W.is_exact_null("CI_test", 0.0, 0.0, 1.0, 3.0)


# --- analyze check ---------------------------------------------------------

def _mouse_report(tmp_path) -> bytes:
    out = tmp_path / "mouse.json"
    rc = phasorstats.cli.main(["analyze", str(FIXTURES / "mouse_ssvep.csv"), "--design",
                               "paired", "--format", "json", "--seed", "0", "--out", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_golden_matches_and_one_flipped_byte_fails(tmp_path):
    golden = (FIXTURES / "mouse_report.json").read_bytes()
    text = _mouse_report(tmp_path)
    W.check_analyze_output(text, golden)
    for pos in (0, len(golden) // 2, len(golden) - 2):
        flipped = bytearray(golden)
        flipped[pos] ^= 0x01
        with pytest.raises(W.CheckFailed):
            W.check_analyze_output(text, bytes(flipped))


def test_p_value_outside_unit_interval_fails(tmp_path):
    report = json.loads(_mouse_report(tmp_path))
    report["primary"]["p_value"] = 1.5
    with pytest.raises(W.CheckFailed, match="outside"):
        W.check_analyze_output((json.dumps(report, indent=2) + "\n").encode(), None)


def test_report_that_does_not_round_trip_fails(tmp_path):
    text = _mouse_report(tmp_path).decode()
    with pytest.raises(W.CheckFailed, match="round-trip"):
        W.check_analyze_output(text.replace("\n", "\n ", 1).encode(), None)


# --- montecarlo check ------------------------------------------------------

def _cell(rate, n_reps=400, test="T2"):
    fields = dict(test=test, n=8, d=0.0, correlation=0.0, variance_ratio=1.0, k=1,
                  planted_outlier_distance=None, alpha=0.05, n_reps=n_reps, seed=1)
    cell = {k: fields[k] for k in ("test", "d", "n", "correlation", "variance_ratio", "k", "n_reps")}
    cell.update(rate=rate, se=(rate * (1 - rate) / n_reps) ** 0.5)
    return json.dumps({"seed": 1, "cells": [cell]}), fields


def test_rate_inside_band_passes_and_outside_fails():
    lo, hi = W.binomial_band(400, 0.05)
    assert lo < 20 < hi
    W.check_rate_table(*_cell(20 / 400), exact_null=True)
    for hits in (lo - 1, hi + 1, 200):
        text, fields = _cell(hits / 400)
        with pytest.raises(W.CheckFailed, match="band"):
            W.check_rate_table(text, fields, exact_null=True)
        W.check_rate_table(text, fields, exact_null=False)  # power cells carry no band


def test_rate_table_field_checks():
    text, fields = _cell(0.05)
    payload = json.loads(text)
    payload["cells"][0]["se"] *= 2
    with pytest.raises(W.CheckFailed, match="se"):
        W.check_rate_table(json.dumps(payload), fields, exact_null=False)
    with pytest.raises(W.CheckFailed, match="n ="):
        W.check_rate_table(text, dict(fields, n=9), exact_null=False)
    with pytest.raises(W.CheckFailed, match="count"):
        W.check_rate_table(*_cell(0.05 + 1e-4), exact_null=False)


def test_real_null_cell_passes():
    item = W.montecarlo_items(2)[0]
    item.check(item.run())


# --- cluster check ---------------------------------------------------------

def _small_cluster(effect):
    old = W.PATCH_EFFECT
    W.PATCH_EFFECT = effect
    try:
        datasets, patch = W._cluster_datasets(W._rng(9, 3, 0), 8, "one-sample", 12, 3)
    finally:
        W.PATCH_EFFECT = old
    res = phasorstats.cluster_correct(datasets, W.grid_graph(8), n_perm=200, seed=1)
    return res, patch


def test_planted_patch_is_found():
    res, patch = _small_cluster(W.PATCH_EFFECT)
    W.check_cluster_result(res, patch, 200)


def test_patch_without_cluster_fails():
    res, patch = _small_cluster(0.0)
    with pytest.raises(W.CheckFailed, match="patch"):
        W.check_cluster_result(res, patch, 200)


def test_null_length_and_order_are_checked():
    res, patch = _small_cluster(W.PATCH_EFFECT)
    with pytest.raises(W.CheckFailed, match="shape"):
        W.check_cluster_result(res, patch, 201)

    class Shuffled:
        clusters, corrected_p = res.clusters, res.corrected_p
        null_distribution = res.null_distribution[::-1] + np.arange(200)

    with pytest.raises(W.CheckFailed, match="sorted"):
        W.check_cluster_result(Shuffled, patch, 200)


# --- loop and tracer -------------------------------------------------------

def test_loop_fails_an_output_that_changes_between_repeats():
    outputs = iter([b"a", b"a", b"b"])
    item = W.Item("x", run=lambda: next(outputs), check=lambda out: None,
                  encode=lambda out: out, work=1)
    loop = run.Loop([item])
    for _ in range(3):
        loop.run_one(0)
    assert (loop.attempted, loop.failed) == (3, 1)


def test_loop_counts_raising_op_and_failed_check():
    def bad_check(out):
        raise W.CheckFailed("wrong")

    items = [W.Item("raise", run=lambda: 1 / 0, check=lambda o: None, encode=bytes, work=1),
             W.Item("check", run=lambda: b"x", check=bad_check, encode=bytes, work=1)]
    loop = run.Loop(items)
    loop.run_one(0)
    loop.run_one(1)
    loop.run_one(1)  # a repeat of a failed output fails too
    assert (loop.attempted, loop.failed) == (3, 3)


def test_calibration_cancels_host_speed_and_keeps_program_speed():
    ref = calibration.REFERENCE_S
    assert calibration.scale([0.1, 0.3], [ref, ref, ref]) == pytest.approx([0.1, 0.3])
    # a host twice as slow doubles both the op and the kernel around it
    assert calibration.scale([0.2], [2 * ref, 2 * ref]) == pytest.approx([0.1])
    assert calibration.scale([0.2], [ref, 3 * ref]) == pytest.approx([0.1])
    with pytest.raises(ValueError):
        calibration.scale([0.1, 0.2], [ref, ref])


def test_tracer_reports_missing_entry_points_as_absent():
    entries = (
        tracing.Entry("phasorstats.distributions", "no_such_function", "distributions", "count"),
        tracing.Entry("phasorstats.no_such_module", "f", "x"),
        tracing.Entry("phasorstats.inference", "f_cdf", "distributions"),
    )
    original = phasorstats.inference.f_cdf
    tracer = tracing.Tracer()
    tracer.install(entries)
    try:
        assert phasorstats.inference.f_cdf is not original
        tracer.run_op(lambda: phasorstats.t2circ_one_sample(phasorstats.ComplexSample([1, 2j, 3])))
    finally:
        tracer.uninstall()
    assert phasorstats.inference.f_cdf is original
    assert tracer.absent == ["distributions.no_such_function", "no_such_module.f"]
    table = tracer.table()
    assert {table.names[i] for i in table.name} == {tracing.OP, "inference.f_cdf"}


def test_class_methods_are_restored():
    cls = phasorstats.ConditionIndexDistribution
    before = vars(cls)["sf"]
    tracer = tracing.Tracer()
    tracer.install([tracing.Entry("phasorstats.distributions:ConditionIndexDistribution",
                                  "sf", "distributions")])
    try:
        tracer.run_op(lambda: cls(5).sf(2.0))
    finally:
        tracer.uninstall()
    assert vars(cls)["sf"] is before
    assert sorted(tracer.table().names) == ["ConditionIndexDistribution.sf", tracing.OP]


def test_self_time_subtracts_direct_children_only():
    t = tracing.SpanTable(
        names=["op", "a", "b"], name=np.array([0, 1, 2, 2]),
        start=np.array([0.0, 1.0, 2.0, 5.0]), end=np.array([10.0, 4.0, 3.0, 6.0]),
        parent=np.array([-1, 0, 1, 0]), op=np.array([0, 0, 0, 0]), counts=[{}],
    )
    v = tracing.View(t, [tracing.OpRecord(0, "x", 1, {}, {})])
    assert v.self_times(["op"]).tolist() == [10.0 - 3.0 - 1.0]
    assert v.self_times(["a"]).tolist() == [2.0]
    assert v.ops_self(["b"]) == {0: 9.0}


def test_metrics_of_ops_without_spans_do_not_fail():
    empty = tracing.Tracer().table()
    empty.counts.append({})
    view = tracing.View(empty, [tracing.OpRecord(0, "x", 1, {}, {})])
    values = {m.name: m.compute(view) for m in tracing.LAYER_METRICS}
    assert all(v is None or v == 0.0 for v in values.values())
    assert values["amplitude.bootstrap_ms"] is None  # reported as absent


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m.name for m in tracing.LAYER_METRICS] + ["trace.overhead_pct", "trace.spans_per_op"]
    assert [m["name"] for m in spec["per_layer"]] == names
    declared = {m.name: (m.unit, m.better) for m in tracing.LAYER_METRICS}
    assert all(declared.get(m["name"], (m["unit"], m["better"])) == (m["unit"], m["better"])
               for m in spec["per_layer"])
