"""Flowchart reports, JSON round-trips, CLI behavior and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import phasorstats
from phasorstats import (
    AnalysisReport,
    ComplexSample,
    Design,
    GroupedDataset,
    ScreeningReport,
    amp_ci_bootstrap,
    amp_errors_ellipse,
    build_dataset,
    ci_test,
    covariance_summary,
    exclude_outliers,
    read_components_csv,
    run_flowchart,
    t2_paired,
    t2_two_sample,
    t2circ_paired,
    t2circ_two_sample,
)
from phasorstats import amplitude, cli, exceptions, kernels, report as report_module
from phasorstats.cli import PRESETS, main as cli_main
from phasorstats.exceptions import DomainError, MalformedInput, PhasorStatsError
from phasorstats.report import AmplitudeEntry, format_text

FIXTURES = Path(__file__).parent / "fixtures"


def spherical_sample(seed, n=12, condition="c", units=True, mean=0j):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    labels = tuple(f"u{i}" for i in range(n)) if units else None
    return ComplexSample(z[:, 0] + 1j * z[:, 1] + mean, condition, labels)


def elongated_sample(seed, n=12, condition="c", mean=0j):
    """Strongly anisotropic scatter: the assumption test must reject."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2)) @ np.diag([6.0, 0.5])
    return ComplexSample(z[:, 0] + 1j * z[:, 1] + mean, condition)


class TestFlowchart:
    def test_circ_branch_for_spherical_two_groups(self):
        ds = GroupedDataset(
            (spherical_sample(0, condition="a", mean=1.0),
             spherical_sample(1, condition="b")),
            Design.PAIRED,
        )
        report = run_flowchart(ds, seed=3)
        assert report.branch == "circ"
        assert report.flowchart_leaf == "paired_t2circ"
        assert report.primary.statistic_name == "T2circ"

    def test_classic_branch_when_assumptions_fail(self):
        ds = GroupedDataset(
            (elongated_sample(2, condition="a", mean=2.0),
             elongated_sample(3, condition="b")),
            Design.TWO_SAMPLE_INDEPENDENT,
        )
        report = run_flowchart(ds, seed=3)
        assert report.branch == "classic"
        assert report.flowchart_leaf == "two_sample_t2"
        assert report.primary.statistic_name == "T2"
        assert "rejects" in report.rationale

    def test_branch_is_function_of_ci_pvalues(self):
        # same design, one significant condition index -> classic
        ds = GroupedDataset(
            (spherical_sample(4, condition="a"),
             elongated_sample(5, condition="b")),
            Design.TWO_SAMPLE_INDEPENDENT,
        )
        report = run_flowchart(ds)
        assert report.branch == "classic"
        assert "b" in report.rationale

    def test_oneway_posthoc_only_when_significant(self):
        groups = tuple(
            spherical_sample(10 + i, condition=f"g{i}", mean=2.5 * i)
            for i in range(3)
        )
        ds = GroupedDataset(groups, Design.ONEWAY_INDEPENDENT)
        report = run_flowchart(ds, seed=1)
        assert report.flowchart_leaf == "anova2circ_independent"
        assert report.primary.p_value < 0.05
        assert report.n_comparisons == 3
        assert len(report.posthoc) == 3
        for ph in report.posthoc:
            assert ph.alpha_adjusted == pytest.approx(0.05 / 3)

    def test_oneway_null_no_posthoc(self):
        # these seeds give a clearly non-significant omnibus test
        groups = tuple(
            spherical_sample(20 + i, condition=f"g{i}") for i in range(3)
        )
        ds = GroupedDataset(groups, Design.ONEWAY_INDEPENDENT)
        report = run_flowchart(ds, seed=1)
        assert report.primary.p_value >= 0.05
        assert report.posthoc == ()
        assert report.n_comparisons == 0

    def test_baseline_restricts_pairs(self):
        groups = tuple(
            spherical_sample(30 + i, condition=f"g{i}", mean=2.5 * i, n=14)
            for i in range(4)
        )
        ds = GroupedDataset(groups, Design.ONEWAY_INDEPENDENT)
        report = run_flowchart(ds, seed=1, baseline="g0")
        assert report.n_comparisons == 3
        assert all(ph.pair[0] == "g0" for ph in report.posthoc)

    def test_unknown_baseline_is_malformed_input(self):
        significant = GroupedDataset(tuple(
            spherical_sample(30 + i, condition=f"g{i}", mean=2.5 * i, n=14)
            for i in range(3)
        ), Design.ONEWAY_INDEPENDENT)
        # no post-hoc tests run here, and the baseline is still checked
        null = GroupedDataset(tuple(
            spherical_sample(20 + i, condition=f"g{i}") for i in range(3)
        ), Design.ONEWAY_INDEPENDENT)
        assert run_flowchart(null, seed=1).primary.p_value > 0.05
        for ds in (significant, null):
            with pytest.raises(MalformedInput, match="baseline 'g9'"):
                run_flowchart(ds, seed=1, baseline="g9")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan, "0.05"])
    def test_alpha_outside_unit_interval_is_domain_error(self, alpha):
        # 1.5 used to give a classic-branch report, 0 or nan a circ one, and
        # a string a raw TypeError
        ds = GroupedDataset((spherical_sample(60, mean=2.0),), Design.ONE_SAMPLE)
        with pytest.raises(DomainError, match="alpha must be in"):
            run_flowchart(ds, alpha=alpha)

    @pytest.mark.parametrize("design,classic,two_group", [
        (Design.ONEWAY_INDEPENDENT, False, t2circ_two_sample),
        (Design.ONEWAY_INDEPENDENT, True, t2_two_sample),
        (Design.ONEWAY_REPEATED, False, t2circ_paired),
        (Design.ONEWAY_REPEATED, True, t2_paired),
    ])
    def test_posthoc_results_are_the_two_group_tests(self, design, classic,
                                                      two_group):
        # anisotropic scatter takes the classic branch; the means differ
        # along the narrow axis, so the omnibus test is significant
        rng = np.random.default_rng(70)
        scale = np.diag([6.0, 0.5]) if classic else np.eye(2)
        labels = tuple(f"u{i}" for i in range(14))
        groups = []
        for i in range(3):
            z = rng.standard_normal((14, 2)) @ scale
            groups.append(ComplexSample(z[:, 0] + 1j * z[:, 1] + 3j * i,
                                        f"g{i}", labels))
        report = run_flowchart(GroupedDataset(tuple(groups), design),
                               screen_outliers=False, bootstrap_reps=50)
        assert report.branch == ("classic" if classic else "circ")
        assert len(report.posthoc) == 3
        by_label = {s.condition_label: s for s in groups}
        for ph in report.posthoc:
            assert ph.result == two_group(*(by_label[c] for c in ph.pair))

    @pytest.mark.parametrize("case", ["unit_level", "observation_level"])
    def test_report_holds_the_screening_record(self, case):
        if case == "unit_level":
            ds = build_dataset(read_components_csv(FIXTURES / "human_ssvep.csv"),
                               Design.ONEWAY_REPEATED)
        else:
            values = list(spherical_sample(40, units=False).observations)
            ds = GroupedDataset((ComplexSample(values + [50 + 50j], "a"),),
                                Design.ONE_SAMPLE)
        screening = exclude_outliers(ds)[1]
        assert screening.n_flagged > 0
        assert run_flowchart(ds, bootstrap_reps=50).screening == screening
        assert ScreeningReport.from_json(screening.to_json()) == screening

    def test_no_bootstrap_without_an_ellipse(self, monkeypatch):
        # the middle condition is collinear: it has no ellipse and no
        # amplitude entry, so no bootstrap is drawn for it
        line = ComplexSample(np.arange(8.0) * (1 + 2j) + 0.3, "line")
        ds = GroupedDataset(
            (spherical_sample(60, condition="a", mean=2.0), line,
             spherical_sample(61, condition="c")),
            Design.ONEWAY_INDEPENDENT,
        )
        calls = []

        def counting(sample, *args, **kwargs):
            calls.append(sample.condition_label)
            return amp_ci_bootstrap(sample, *args, **kwargs)

        monkeypatch.setattr(report_module, "amp_ci_bootstrap", counting)
        report = run_flowchart(ds, seed=4, screen_outliers=False,
                               bootstrap_reps=500)
        # the bootstraps run in threads, so the calls may come in any order
        assert sorted(calls) == ["a", "c"]
        # the others keep their own [seed, i] streams, so the report is
        # what it was when every condition drew
        assert report.amplitudes == tuple(
            AmplitudeEntry(s.condition_label, amp_errors_ellipse(s, 0.68),
                           amp_ci_bootstrap(s, 0.68, 500, seed=[4, i]))
            for i, s in enumerate(ds.samples) if i != 1
        )
        assert [c.condition for c in report.conditions] == ["a", "line", "c"]

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_threaded_bootstraps_equal_serial_calls(self, monkeypatch, cpus):
        # one worker runs inline, more run in a thread pool; each condition
        # keeps its own [seed, i] stream, so scheduling moves no bit
        monkeypatch.setattr(report_module, "_available_cpus", lambda: cpus)
        ds = build_dataset(read_components_csv(FIXTURES / "human_ssvep.csv"),
                           Design.ONEWAY_REPEATED)
        assert len(ds.samples) == 7
        reports = [run_flowchart(ds, seed=9, screen_outliers=False,
                                 bootstrap_reps=2000) for _ in range(3)]
        assert reports[0].amplitudes == tuple(
            AmplitudeEntry(s.condition_label, amp_errors_ellipse(s, 0.68),
                           amp_ci_bootstrap(s, 0.68, 2000, seed=[9, i]))
            for i, s in enumerate(ds.samples)
        )
        assert len({r.to_json() for r in reports}) == 1

    # each used to warn (a UserWarning from outlier screening) and fail in
    # covariance_summary with "covariance needs >= 2 observations, got 0"
    @pytest.mark.parametrize("case,kwargs,message", [
        ("one-unit", {}, "condition 'b' has 1 observation(s)"),
        ("one-unit", {"screen_outliers": False}, "condition 'b' has 1 observation(s)"),
        ("human", {"outlier_threshold": 0.5},
         "condition '0' has 0 of its 100 observations left after outlier "
         "screening at threshold D > 0.5"),
    ])
    def test_too_small_condition_is_named(self, case, kwargs, message):
        if case == "human":
            ds = build_dataset(read_components_csv(FIXTURES / "human_ssvep.csv"),
                               Design.ONEWAY_REPEATED)
        else:
            ds = GroupedDataset((spherical_sample(1, n=6, condition="a", units=False),
                                 ComplexSample([1 + 1j], "b")),
                                Design.TWO_SAMPLE_INDEPENDENT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(exceptions.TooFewObservations) as exc:
                run_flowchart(ds, **kwargs)
        assert str(exc.value) == f"{message}; a summary needs >= 2"

    # the 2 observations of a condition always have a degenerate covariance,
    # so the classic branch is taken and its T^2 refuses them; each of
    # these said only "T2 needs >= 3 observations per group, got 2"
    SMALL = {
        "one-sample": (Design.ONE_SAMPLE, [("a", ["u1", "u2"])],
                       "condition 'a' has 2 observation(s); one_sample_t2 needs >= 3"),
        "paired": (Design.PAIRED, [("a", ["u1", "u2"]), ("b", ["u1", "u2"])],
                   "condition 'a' has 2 observation(s); paired_t2 needs >= 3"),
        "two-sample": (Design.TWO_SAMPLE_INDEPENDENT,
                       [("a", ["u1", "u2", "u3", "u4"]), ("b", ["u5", "u6"])],
                       "condition 'b' has 2 observation(s); two_sample_t2 needs >= 3"),
        # the MANOVA leaf runs on the three groups and is significant; the
        # post-hoc two-sample T^2 of the first pair refuses them
        "oneway": (Design.ONEWAY_INDEPENDENT,
                   [("a", ["u1", "u2"]), ("b", ["u3", "u4"]), ("c", ["u5", "u6"])],
                   "post-hoc pair 'a' vs 'b': condition 'a' has 2 observation(s); "
                   "two_sample_t2 needs >= 3"),
    }
    SMALL_VALUES = [0.1 + 0.2j, -0.3 + 0.1j, 10.2 + 9.9j, 9.8 + 10.3j,
                    20.1 - 0.2j, 19.7 + 0.4j]

    @classmethod
    def small_dataset(cls, case):
        design, conditions, _ = cls.SMALL[case]
        values = iter(cls.SMALL_VALUES)
        return GroupedDataset(tuple(
            ComplexSample([next(values) for _ in units], condition, tuple(units))
            for condition, units in conditions), design)

    @pytest.mark.parametrize("case", list(SMALL))
    def test_condition_too_small_for_its_test_is_named(self, case):
        with pytest.raises(exceptions.TooFewObservations) as exc:
            run_flowchart(self.small_dataset(case), bootstrap_reps=50)
        assert str(exc.value) == self.SMALL[case][2]

    def test_one_covariance_per_condition(self, monkeypatch):
        # the summary, the condition-index p-value and the ellipse of each
        # screened condition come from one spectrum; the primary MANOVA and
        # the paired post-hoc tests form none
        calls = []
        spectrum = kernels.spectrum

        def counting(X):
            calls.append(X.shape)
            return spectrum(X)

        monkeypatch.setattr(kernels, "spectrum", counting)
        rng = np.random.default_rng(5)
        labels = tuple(f"u{i}" for i in range(20))
        k = 5
        groups = tuple(
            ComplexSample((rng.standard_normal(20) * 3.0 + 1j * rng.standard_normal(20))
                          + 2.0 * i, f"g{i}", labels) for i in range(k))
        report = run_flowchart(GroupedDataset(groups, Design.ONEWAY_REPEATED),
                               bootstrap_reps=50)
        assert report.branch == "classic" and len(report.posthoc) == 10
        assert len(report.amplitudes) == k
        assert calls == [(20,)] * k

    @staticmethod
    def condition_cases():
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 89):
            z = rng.standard_normal((n, 2)) @ [[2.0, 0.5], [0.0, 0.3]]
            yield z[:, 0] + 1j * z[:, 1] + 0.4 - 0.2j
        yield np.arange(6.0) * (1 + 2j) + 0.3  # collinear: degenerate
        yield np.full(5, 1.5 - 0.5j)  # identical: a zero covariance
        z = rng.standard_normal((12, 2))
        base = z[:, 0] + 1j * z[:, 1] + 0.8
        for angle in (0.3, 2.0, -1.2):
            yield base * complex(math.cos(angle), math.sin(angle))
        for e in (40, -40):
            yield base * 2.0**e

    def test_condition_parts_equal_the_scalar_calls(self):
        # ConditionSummary, its CI p-value and the ellipse, read from one
        # spectrum, are bit for bit covariance_summary, ci_test and
        # amp_errors_ellipse (a JSON float keeps every bit and the sign of 0)
        seen = set()
        for values in self.condition_cases():
            s = ComplexSample(values, "c")
            spectrum = kernels.spectrum(s.observations)
            got = report_module._summarize_condition(s, spectrum)
            summary = covariance_summary(s)
            try:
                p = ci_test(s).p_value
            except (exceptions.TooFewObservations, exceptions.DegenerateCovariance):
                p = None
            expected = report_module.ConditionSummary(
                "c", s.n, summary.mean[0], summary.mean[1], abs(summary.mean_complex),
                math.atan2(summary.mean[1], summary.mean[0]),
                tuple(tuple(float(x) for x in row) for row in summary.cov),
                summary.eigenvalues,
                None if summary.degenerate else summary.condition_index,
                summary.degenerate, p)
            assert got.to_json() == expected.to_json()
            seen.add((s.n, got.degenerate, p is None))
            if p is not None:
                assert (amplitude.ellipse_summary(spectrum, s.n, 0.68).to_json()
                        == amp_errors_ellipse(s, 0.68).to_json())
        # a p-value where n >= 3 and not degenerate, none otherwise
        assert {(2, True, True), (6, True, True), (5, True, True),
                (3, False, False), (89, False, False)} <= seen

    @pytest.mark.parametrize("classic", [False, True])
    def test_repeated_posthoc_in_each_pairs_unit_order(self, classic):
        # the conditions list their units in different orders; each post-hoc
        # result is its pair's own paired test, aligned to its first
        # condition's units
        rng = np.random.default_rng(71)
        scale = np.diag([6.0, 0.5]) if classic else np.eye(2)
        labels = [f"u{i}" for i in range(30)]
        groups = []
        for i in range(4):
            order = rng.permutation(30)
            z = rng.standard_normal((30, 2)) @ scale
            groups.append(ComplexSample((z[:, 0] + 1j * z[:, 1] + 3j * i)[order],
                                        f"g{i}", tuple(labels[j] for j in order)))
        report = run_flowchart(GroupedDataset(tuple(groups), Design.ONEWAY_REPEATED),
                               screen_outliers=False, bootstrap_reps=50)
        assert report.branch == ("classic" if classic else "circ")
        assert len(report.posthoc) == 6
        test = t2_paired if classic else t2circ_paired
        by_label = {s.condition_label: s for s in groups}
        for ph in report.posthoc:
            assert ph.result == test(*(by_label[c] for c in ph.pair))

    def test_screening_disabled(self):
        values = list(spherical_sample(40, units=False).observations)
        values.append(50 + 50j)
        ds = GroupedDataset((ComplexSample(values, "a"),), Design.ONE_SAMPLE)
        screened = run_flowchart(ds, seed=0)
        raw = run_flowchart(ds, seed=0, screen_outliers=False)
        assert screened.screening is not None
        assert raw.screening is None
        assert screened.conditions[0].n == len(values) - 1
        assert raw.conditions[0].n == len(values)

    def test_json_round_trip(self):
        ds = GroupedDataset(
            (spherical_sample(50, condition="a", mean=1.5),
             spherical_sample(51, condition="b")),
            Design.PAIRED,
        )
        report = run_flowchart(ds, seed=9, input_sha256="abc123")
        parsed = AnalysisReport.from_json(report.to_json())
        assert parsed == report

    @pytest.mark.parametrize("case", [
        "unscreened_report", "degenerate_condition", "ci_test", "two_sample"])
    def test_record_round_trip(self, case):
        line = ComplexSample(np.array([1.0, 2.0, 3.0, 5.0]) * (1 + 1j), "line")
        if case == "unscreened_report":
            record = run_flowchart(
                GroupedDataset((spherical_sample(52, mean=1.0),),
                               Design.ONE_SAMPLE),
                screen_outliers=False, bootstrap_reps=50)
            assert record.screening is None
        elif case == "degenerate_condition":
            record = run_flowchart(
                GroupedDataset((spherical_sample(53, condition="a"), line),
                               Design.TWO_SAMPLE_INDEPENDENT),
                bootstrap_reps=50)
            degenerate = record.conditions[1]
            assert degenerate.degenerate and degenerate.condition_index is None
            assert degenerate.ci_p_value is None
        elif case == "ci_test":
            record = ci_test(spherical_sample(54))
            assert record.df is None and record.f_value is None
        else:
            record = t2_two_sample(spherical_sample(55),
                                   spherical_sample(56, mean=1.0))
            assert record.effect_size is not None
        d = record.to_dict()
        assert json.loads(json.dumps(d)) == d  # lists, not tuples
        assert type(record).from_dict(json.loads(json.dumps(d))) == record

    def test_missing_field_is_malformed_input(self):
        report = json.loads((FIXTURES / "mouse_report.json").read_text())
        del report["primary"]["p_value"]
        with pytest.raises(MalformedInput, match="'p_value' in TestResult"):
            AnalysisReport.from_json(json.dumps(report))

    def test_extra_keys_are_ignored(self):
        text = (FIXTURES / "mouse_report.json").read_text()
        report = json.loads(text)
        report["primary"]["p_valeu"] = 0.5
        parsed = AnalysisReport.from_json(json.dumps(report))
        assert parsed == AnalysisReport.from_json(text)

    def test_text_format_mentions_key_facts(self):
        ds = GroupedDataset((spherical_sample(60, mean=2.0),), Design.ONE_SAMPLE)
        report = run_flowchart(ds, seed=0)
        text = format_text(report)
        assert "selected test" in text
        assert report.flowchart_leaf in text


def human_dataset():
    return build_dataset(read_components_csv(FIXTURES / "human_ssvep.csv"),
                         Design.ONEWAY_REPEATED)


class BootstrapFailed(Exception):
    pass


class TestBootstrapPool:
    # run_flowchart maps the bootstraps over one thread pool per process,
    # made on first use; on one CPU they run inline

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_repeated_calls_start_no_threads(self, monkeypatch, cpus):
        monkeypatch.setattr(report_module, "_available_cpus", lambda: cpus)
        ds = human_dataset()
        reports, threads = [], []
        for _ in range(20):
            reports.append(run_flowchart(ds, seed=5, bootstrap_reps=500))
            threads.append(threading.active_count())
        assert max(threads[1:]) == threads[1]
        assert all(r == reports[0] for r in reports)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_forked_child_makes_its_own_pool(self, monkeypatch, cpus):
        import multiprocessing

        monkeypatch.setattr(report_module, "_available_cpus", lambda: cpus)
        ds = human_dataset()
        expected = run_flowchart(ds, seed=5, bootstrap_reps=500).to_json()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(
            run_flowchart(ds, seed=5, bootstrap_reps=500).to_json()))
        with warnings.catch_warnings():
            # Python >= 3.12 warns that a process with threads forks: here
            # the parent's pool workers, which the child does not use
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        try:
            # a child left with the parent's pool, whose threads it does not
            # have, would wait for its bootstraps forever
            assert receive.poll(60), "the forked child returned no report"
            assert receive.recv() == expected
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_failing_bootstrap_raises_and_the_pool_runs_on(self, monkeypatch,
                                                            cpus):
        ds = human_dataset()
        monkeypatch.setattr(report_module, "_available_cpus", lambda: 1)
        serial = run_flowchart(ds, seed=5, bootstrap_reps=500)
        monkeypatch.setattr(report_module, "_available_cpus", lambda: cpus)
        failing_label = ds.samples[3].condition_label
        running = []

        def failing(sample, *args, **kwargs):
            if sample.condition_label == failing_label:
                raise BootstrapFailed(failing_label)
            running.append(sample.condition_label)
            try:
                time.sleep(0.05)  # still running when the failure comes in
                return amp_ci_bootstrap(sample, *args, **kwargs)
            finally:
                running.remove(sample.condition_label)

        monkeypatch.setattr(report_module, "amp_ci_bootstrap", failing)
        with pytest.raises(BootstrapFailed):
            run_flowchart(ds, seed=5, bootstrap_reps=500)
        # the call raises only once none of its bootstraps runs on
        assert running == []
        monkeypatch.setattr(report_module, "amp_ci_bootstrap", amp_ci_bootstrap)
        assert run_flowchart(ds, seed=5, bootstrap_reps=500) == serial


class TestParserCache:
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch, cpus):
        # main builds its parser on its first call and parses every later
        # call with it; no call's flags carry over to the next
        monkeypatch.setattr(report_module, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "_parser", None)
        builds, build_parser = [], cli.build_parser

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        human = [str(FIXTURES / "human_ssvep.csv"), "--design", "oneway-rm"]
        mouse = [str(FIXTURES / "mouse_ssvep.csv"), "--design", "paired"]
        text_args = [*human, "--no-outlier-screen", "--format", "text"]
        src = str(Path(phasorstats.__file__).resolve().parents[1])
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from phasorstats.cli import "
             "main; sys.exit(main(sys.argv[1:]))", "analyze", *text_args],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            check=True)
        runs = [
            ([*human, "--baseline", "0", "--format", "json"],
             (FIXTURES / "human_report.json").read_bytes()),
            ([*mouse, "--format", "json"],
             (FIXTURES / "mouse_report.json").read_bytes()),
            (text_args, fresh.stdout),
            ([*human, "--baseline", "0", "--format", "json", "--seed", "0"],
             (FIXTURES / "human_report.json").read_bytes()),
        ]
        for i, (args, expected) in enumerate(runs):
            out = tmp_path / f"run{i}"
            assert cli_main(["analyze", *args, "--out", str(out)]) == 0
            assert out.read_bytes() == expected, args
        assert len(builds) <= 1


class TestCliAnalyze:
    def test_mouse_fixture_paired_path(self, tmp_path, capsys):
        rc = cli_main([
            "analyze", str(FIXTURES / "mouse_ssvep.csv"),
            "--design", "paired", "--format", "json",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["flowchart_leaf"] == "paired_t2circ"
        assert report["primary"]["f_value"] == pytest.approx(8.32, abs=1e-9)
        assert report["primary"]["effect_size"] == pytest.approx(2.14, abs=1e-9)

    def test_text_output_default(self, capsys):
        rc = cli_main([
            "analyze", str(FIXTURES / "mouse_ssvep.csv"), "--design", "paired",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "paired_t2circ" in out

    def test_empty_input_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = cli_main(["analyze", str(empty), "--design", "paired"])
        assert rc == 2

    def test_missing_file_exit_2(self, capsys):
        rc = cli_main(["analyze", "/nonexistent.csv", "--design", "paired"])
        assert rc == 2

    def test_degenerate_data_exit_3(self, tmp_path, capsys):
        path = tmp_path / "degenerate.csv"
        lines = ["unit,condition,re,im"]
        for i in range(5):
            lines.append(f"u{i},a,{float(i)},{float(2 * i)}")  # collinear
        path.write_text("\n".join(lines) + "\n")
        rc = cli_main(["analyze", str(path), "--design", "one-sample",
                       "--no-outlier-screen"])
        assert rc == 3

    def test_constant_condition_exit_3_without_warning(self, tmp_path):
        # its 0 / 0 condition index used to print a RuntimeWarning first
        path = tmp_path / "constant.csv"
        path.write_text("unit,condition,re,im\n"
                        + "".join(f"u{i},a,1.0,1.0\n" for i in range(5)))
        src = str(Path(phasorstats.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c",
             "import sys; from phasorstats.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "analyze", str(path), "--design", "one-sample"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert out.returncode == 3
        assert "RuntimeWarning" not in out.stderr
        assert "covariance is degenerate" in out.stderr

    @pytest.mark.parametrize("args,condition", [
        (["human_ssvep.csv", "--design", "oneway-rm", "--threshold", "0.5"],
         "'0' has 0 of its 100 observations left after outlier screening at "
         "threshold D > 0.5"),
        (["mouse_ssvep.csv", "--design", "paired", "--threshold", "0.3"],
         "'sound' has 0 of its 6 observations left after outlier screening at "
         "threshold D > 0.3"),
        (["mouse_ssvep.csv", "--design", "two-sample", "--threshold", "0.3"],
         "'sound' has 0 of its 6"),
        (["one-unit", "--design", "two-sample"], "'b' has 1 observation(s)"),
        (["one-unit", "--design", "two-sample", "--no-outlier-screen"],
         "'b' has 1 observation(s)"),
    ], ids=["human-oneway-rm", "mouse-paired", "mouse-two-sample", "one-unit",
            "one-unit-unscreened"])
    def test_too_small_condition_exit_3_naming_it(self, tmp_path, args, condition):
        # these printed a UserWarning with the path of outliers.py, then
        # "error: covariance needs >= 2 observations, got 0" (or got 1)
        one_unit = tmp_path / "one-unit.csv"
        one_unit.write_text("unit,condition,re,im\nu1,a,1,2\nu2,a,2,1\n"
                            "u3,a,0,1\nu1,b,1,1\n")
        path = one_unit if args[0] == "one-unit" else FIXTURES / args[0]
        src = str(Path(phasorstats.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import sys; from phasorstats.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "analyze", str(path), *args[1:]],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert out.returncode == 3
        assert "Warning" not in out.stderr
        [line] = out.stderr.splitlines()
        assert line.startswith(f"error: condition {condition}")
        assert line.endswith("; a summary needs >= 2")

    @pytest.mark.parametrize("case", list(TestFlowchart.SMALL))
    def test_condition_too_small_for_its_test_exit_3(self, tmp_path, case):
        design, conditions, message = TestFlowchart.SMALL[case]
        values = iter(TestFlowchart.SMALL_VALUES)
        path = tmp_path / "small.csv"
        path.write_text("unit,condition,re,im\n" + "".join(
            f"{u},{condition},{v.real!r},{v.imag!r}\n"
            for condition, units in conditions for u, v in zip(units, values)))
        flag = {v: k for k, v in cli._DESIGNS.items()}[design]
        src = str(Path(phasorstats.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import sys; from phasorstats.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "analyze", str(path), "--design", flag],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert out.returncode == 3
        assert out.stderr.splitlines() == [f"error: {message}"]

    def test_input_is_read_once_and_its_bytes_hashed(self, tmp_path, monkeypatch):
        # the file is rewritten after it is read: the report is of the bytes
        # read, and input_sha256 their hash
        path = tmp_path / "mouse.csv"
        original = (FIXTURES / "mouse_ssvep.csv").read_bytes()
        path.write_bytes(original)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(args)
            return real_open(file, *args, **kwargs)

        real_read = cli.read_components_csv

        def rewriting_read(name, data=None):
            path.write_text("unit,condition,re,im\nm1,sound,1,2\n")
            return real_read(name, data)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(cli, "read_components_csv", rewriting_read)
        out = tmp_path / "report.json"
        assert cli_main(["analyze", str(path), "--design", "paired", "--format",
                         "json", "--seed", "0", "--out", str(out)]) == 0
        assert len(opened) == 1
        report = json.loads(out.read_text())
        golden = json.loads((FIXTURES / "mouse_report.json").read_text())
        assert report["provenance"]["input_sha256"] == hashlib.sha256(original).hexdigest()
        assert report == golden

    def test_negative_seed_exit_3(self, capsys):
        # as for cluster; numpy's own ValueError used to exit 2 here
        rc = cli_main(["analyze", str(FIXTURES / "mouse_ssvep.csv"),
                       "--design", "paired", "--seed", "-1"])
        assert rc == 3
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_design_count_mismatch_exit_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("unit,condition,re,im\nu1,a,1,0\nu2,a,2,1\n")
        rc = cli_main(["analyze", str(path), "--design", "paired"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: paired design needs 2 samples, got 1" in err
        assert "Traceback" not in err

    def test_unknown_baseline_exit_2(self, capsys):
        rc = cli_main(["analyze", str(FIXTURES / "human_ssvep.csv"),
                       "--design", "oneway-rm", "--baseline", "99"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: baseline '99' is not a condition" in err
        assert "Traceback" not in err

    def test_unknown_baseline_without_posthoc_exit_2(self, capsys):
        # a paired design runs no post-hoc tests
        rc = cli_main(["analyze", str(FIXTURES / "mouse_ssvep.csv"),
                       "--design", "paired", "--baseline", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: baseline 'nope' is not a condition" in err
        assert "Traceback" not in err

    def test_bad_flag_exit_2(self, capsys):
        rc = cli_main(["analyze", "x.csv", "--design", "sideways"])
        assert rc == 2

    @pytest.mark.parametrize("flag", [
        ["--alpha", "0"],
        ["--alpha", "1.5"],
        ["--alpha", "nan"],
        ["--threshold", "nan"],
        ["--threshold", "0"],
        ["--mu", "nan,0"],
        ["--mu", "1,2,3"],
    ])
    def test_bad_numeric_flag_exit_2(self, flag, capsys):
        # valid paired data: only the flag can make the run fail
        rc = cli_main(["analyze", str(FIXTURES / "mouse_ssvep.csv"),
                       "--design", "paired", *flag])
        assert rc == 2
        assert f"argument {flag[0]}" in capsys.readouterr().err

    def test_output_deterministic_across_runs(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            rc = cli_main([
                "analyze", str(FIXTURES / "human_ssvep.csv"),
                "--design", "oneway-rm", "--baseline", "0",
                "--format", "json", "--seed", "7", "--out", str(out),
            ])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCliSimulate:
    def test_preset_table(self, tmp_path):
        out = tmp_path / "fig4a.csv"
        rc = cli_main(["simulate", "fig4a", "--reps", "200", "--seed", "1",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("test,d,n,")
        assert len(lines) == 1 + 2 * 7  # two tests, seven correlations

    def test_preset_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            rc = cli_main(["simulate", "fig4a", "--reps", "150", "--seed",
                           "3", "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig2_and_fig5(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert cli_main(["simulate", "fig2", "--reps", "2000", "--seed", "1",
                         "--out", str(out)]) == 0
        assert out.read_text().startswith("d,skewness")
        out5 = tmp_path / "fig5b.csv"
        assert cli_main(["simulate", "fig5b", "--reps", "2000", "--seed", "1",
                         "--out", str(out5)]) == 0
        assert out5.read_text().startswith("n,threshold_edelman")

    # every preset, so every branch of the generator: fig3 (d > 0), fig4a
    # (correlation), fig4b (variance ratio), fig6 (k = 3, ANOVA2circ and
    # MANOVA) and outliers (planted), besides fig2 and fig5
    @pytest.mark.parametrize("preset", PRESETS)
    def test_preset_bytes_match_golden(self, tmp_path, preset):
        out = tmp_path / f"{preset}.csv"
        assert cli_main(["simulate", preset, "--reps", "300", "--seed", "1",
                         "--out", str(out)]) == 0
        golden = FIXTURES / "presets" / f"{preset}.csv"
        assert out.read_bytes() == golden.read_bytes()

    # these used to exit 0 and write CSV
    @pytest.mark.parametrize("preset", ["fig2", "fig5a", "fig5b"])
    def test_json_on_a_csv_only_preset_exit_2(self, tmp_path, capsys, preset):
        out = tmp_path / "out.json"
        assert cli_main(["simulate", preset, "--reps", "50", "--json",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "rate-table presets (fig3, fig4a, fig4b, fig6, outliers)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"test": "T2circ", "n": 8, "d": 1.0,
                                    "n_reps": 100, "seed": 5}))
        rc = cli_main(["simulate", str(spec)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("test,d,n,")

    @pytest.mark.parametrize("preset", ["fig3", "fig2", "fig5b"])
    def test_negative_seed_exit_3(self, capsys, preset):
        # numpy's own ValueError used to exit 2 here
        rc = cli_main(["simulate", preset, "--reps", "50", "--seed", "-1"])
        assert rc == 3
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_negative_seed_in_spec_file_exit_3(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"test": "T2circ", "n": 8, "seed": -5}))
        assert cli_main(["simulate", str(spec), "--reps", "10"]) == 3
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_bad_spec_file_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text("{not json")
        assert cli_main(["simulate", str(spec)]) == 2

    def test_invalid_spec_fields_exit_3(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"test": "T2circ", "n": 1}))
        assert cli_main(["simulate", str(spec)]) == 3
        # a float size used to exit 1 with a traceback
        for name, value in (("n", 8.0), ("k", 2.0), ("n_reps", 10.5)):
            spec.write_text(json.dumps({"test": "T2circ", name: value}))
            assert cli_main(["simulate", str(spec)]) == 3
            assert f"{name} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("in_file,flags,expected", [
        # abbreviated flags went unseen and the file's values won
        ({"n_reps": 50, "seed": 3}, ["--rep", "7", "--se", "9"], (7, 9)),
        ({"n_reps": 50, "seed": 3}, ["--reps", "7"], (7, 3)),
        ({"n_reps": 50, "seed": 3}, [], (50, 3)),
        ({}, [], (10000, 0)),
    ])
    def test_spec_file_precedence(self, tmp_path, capsys, in_file, flags,
                                  expected):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"test": "T2circ", "n": 2, **in_file}))
        assert cli_main(["simulate", str(spec), "--json", *flags]) == 0
        table = json.loads(capsys.readouterr().out)
        assert (table["cells"][0]["n_reps"], table["seed"]) == expected

    @pytest.mark.parametrize("fields", [
        {"test": "T2", "n": 2},
        {"test": "CI_test", "n": 2},
        {"test": "MANOVA", "n": 2, "k": 2},
    ])
    def test_spec_too_small_for_its_test_exit_3(self, tmp_path, capsys, fields):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(fields))
        assert cli_main(["simulate", str(spec), "--reps", "10"]) == 3
        assert f"{fields['test']} needs" in capsys.readouterr().err


class TestCliOther:
    def test_extract_round_trip(self, tmp_path, capsys):
        import math

        ts = tmp_path / "ts.csv"
        lines = ["# sample_rate=100", "# target_frequency=10",
                 "unit,condition,t_index,value"]
        for t in range(40):
            v = 1.5 * math.cos(2 * math.pi * 10 * t / 100)
            lines.append(f"u1,a,{t},{v!r}")
        ts.write_text("\n".join(lines) + "\n")
        out = tmp_path / "components.csv"
        rc = cli_main(["extract", str(ts), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("unit,condition,re,im")
        re_val = float(text.strip().splitlines()[1].split(",")[2])
        assert re_val == pytest.approx(1.5, abs=1e-9)

    def test_extract_bad_cycles_exit_2(self, tmp_path, capsys):
        ts = tmp_path / "ts.csv"
        lines = ["# sample_rate=100", "# target_frequency=7.3",
                 "unit,condition,t_index,value"]
        lines += [f"u1,a,{t},0.0" for t in range(40)]
        ts.write_text("\n".join(lines) + "\n")
        assert cli_main(["extract", str(ts)]) == 2

    def test_power_grid(self, capsys):
        rc = cli_main(["power", "--test", "T2circ", "--d", "0,1",
                       "--n", "8", "--reps", "100", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.strip().splitlines()) == 3

    @staticmethod
    def _cluster_files(tmp_path):
        rng = np.random.default_rng(8)
        paths = []
        for node in range(3):
            path = tmp_path / f"node{node}.csv"
            lines = ["unit,condition,re,im"]
            shift = 2.5 if node == 1 else 0.0
            for i in range(10):
                z = rng.standard_normal(2)
                lines.append(f"u{i},a,{float(z[0]) + shift!r},{float(z[1])!r}")
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        return paths, edges

    def test_cluster_command(self, tmp_path, capsys):
        paths, edges = self._cluster_files(tmp_path)
        rc = cli_main(["cluster", *paths, "--edges", str(edges),
                       "--design", "one-sample", "--test", "T2circ",
                       "--perms", "200", "--seed", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["n_permutations"] == 200
        assert len(payload["node_results"]) == 3

    @pytest.mark.parametrize("flag,word", [
        (["--seed", "-1"], "seed"),
        (["--perms", str(2**32)], "n_perm"),
    ])
    def test_cluster_precondition_exit_3(self, tmp_path, flag, word, capsys):
        # numpy's own ValueError used to leak here and exit 2
        paths, edges = self._cluster_files(tmp_path)
        rc = cli_main(["cluster", *paths, "--edges", str(edges),
                       "--design", "one-sample", *flag])
        assert rc == 3
        assert word in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["edges", "node"])
    def test_cluster_non_utf8_input_exit_2(self, tmp_path, which, capsys):
        paths, edges = self._cluster_files(tmp_path)
        bad = edges if which == "edges" else Path(paths[1])
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        rc = cli_main(["cluster", *paths, "--edges", str(edges),
                       "--design", "one-sample", "--perms", "10"])
        assert rc == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--alpha-forming", "0"],
        ["--alpha-forming", "nan"],
        ["--perms", "0"],
        ["--mu", "inf,0"],
    ])
    def test_cluster_bad_flag_exit_2_before_reading(self, tmp_path, flag, capsys):
        rc = cli_main(["cluster", str(tmp_path / "missing.csv"), "--edges",
                       str(tmp_path / "missing.txt"), "--design", "one-sample",
                       *flag])
        assert rc == 2
        assert f"argument {flag[0]}" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        import phasorstats

        rc = cli_main(["--version"])
        out = capsys.readouterr().out
        assert rc == 0
        assert phasorstats.__version__ in out


INPUT_ERRORS = {"MalformedInput", "InvalidGraph", "NonIntegerCycles",
                "FrequencyNotResolvable"}
ERRORS = [c for c in vars(exceptions).values()
          if isinstance(c, type) and issubclass(c, PhasorStatsError)
          and c is not PhasorStatsError]


@pytest.mark.parametrize("error", ERRORS, ids=lambda c: c.__name__)
def test_each_error_declares_its_exit_code(error):
    # 2: an input the program cannot read; 3: a statistical precondition
    assert INPUT_ERRORS <= {c.__name__ for c in ERRORS}
    assert error.exit_code == (2 if error.__name__ in INPUT_ERRORS else 3)


def test_package_exports_every_error():
    for error in (PhasorStatsError, *ERRORS):
        assert getattr(phasorstats, error.__name__) is error
        assert error.__name__ in phasorstats.__all__


class TestGoldenReports:
    @pytest.mark.parametrize("name,args", [
        ("mouse", ["--design", "paired"]),
        ("human", ["--design", "oneway-rm", "--baseline", "0"]),
    ], ids=["mouse", "human"])
    def test_golden_regenerates(self, tmp_path, name, args):
        # byte for byte, as scripts/make_fixtures.py writes the goldens
        out = tmp_path / f"{name}.json"
        rc = cli_main(["analyze", str(FIXTURES / f"{name}_ssvep.csv"), *args,
                       "--format", "json", "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (FIXTURES / f"{name}_report.json").read_bytes()

    def test_extract_golden(self, tmp_path):
        # a quoted label and two conditions, as scripts/make_fixtures.py
        # writes the time series and its components
        out = tmp_path / "components.csv"
        assert cli_main(["extract", str(FIXTURES / "timeseries.csv"),
                         "--out", str(out)]) == 0
        golden = FIXTURES / "timeseries_components.csv"
        assert out.read_bytes() == golden.read_bytes()


def test_analyze_loads_no_scipy_or_numpy_ma(tmp_path):
    # cold start: a whole analyze of either fixture, in a fresh interpreter,
    # imports no scipy module (the F tails are finite sums) and no numpy.ma
    # (the bootstrap bounds are not read through np.quantile) beyond what
    # `import numpy` loads itself (numpy 1.x imports numpy.ma eagerly)
    code = """
import sys
import numpy
loaded = set(sys.modules)
from phasorstats.cli import main
fixtures, out = sys.argv[1:]
for name, args in (("mouse", ["--design", "paired"]),
                   ("human", ["--design", "oneway-rm", "--baseline", "0"])):
    assert main(["analyze", f"{fixtures}/{name}_ssvep.csv", *args, "--format",
                 "json", "--seed", "0", "--out", f"{out}/{name}.json"]) == 0
print(sorted(m for m in set(sys.modules) - loaded if m.split(".")[0] == "scipy"
             or m.split(".")[:2] == ["numpy", "ma"]))
"""
    src = str(Path(phasorstats.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(FIXTURES), str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cluster_loads_no_scipy(tmp_path):
    # cold start: cluster_correct (one- and two-sample, both tests) and a
    # whole `phasorstats cluster`, in a fresh interpreter, import no scipy
    # module (the labelling is a numpy union-find, the F tail a finite sum)
    code = """
import sys
import numpy as np
from phasorstats import (AdjacencyGraph, ComplexSample, Design, GroupedDataset,
                         cluster_correct)
from phasorstats.cli import main
fixtures, out = sys.argv[1:]
rng = np.random.default_rng(0)
graph = AdjacencyGraph(3, ((0, 1), (1, 2)))

def sample(condition, shift):
    return ComplexSample(rng.standard_normal(8) + 1j * rng.standard_normal(8)
                         + shift, condition)

one = [GroupedDataset((sample("a", 2),), Design.ONE_SAMPLE) for _ in range(3)]
two = [GroupedDataset((sample("a", 2), sample("b", 0)),
                      Design.TWO_SAMPLE_INDEPENDENT) for _ in range(3)]
for nodes in (one, two):
    for test in ("T2", "T2circ"):
        assert cluster_correct(nodes, graph, test, n_perm=200, seed=1).clusters
with open(f"{out}/edges.txt", "w") as f:
    f.write("0 1\\n1 2\\n")
mouse = f"{fixtures}/mouse_ssvep.csv"
assert main(["cluster", mouse, mouse, mouse, "--edges", f"{out}/edges.txt",
             "--design", "paired", "--perms", "200", "--seed", "3",
             "--out", f"{out}/clusters.json"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(phasorstats.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(FIXTURES), str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures adds ~8 ms to a cold start; run_flowchart imports
    # it only when it runs bootstraps in threads
    src = str(Path(phasorstats.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, phasorstats; print(sorted(m for m in "
         "sys.modules if m.split('.')[0] == 'concurrent'))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "[]"
