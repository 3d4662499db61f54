"""Records write json's indent-2 text themselves, byte for byte."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstats import (
    AdjacencyGraph,
    AmplitudeSummary,
    AnalysisReport,
    ClusterResult,
    Design,
    RateTable,
    SimulationSpec,
    build_dataset,
    cluster_correct,
    mahalanobis_distances,
    read_components_csv,
    run_flowchart,
    simulate_rates,
)
from phasorstats import inference
from phasorstats.records import Record
from phasorstats.simulate import RateCell

FIXTURES = Path(__file__).parent / "fixtures"


def dumps(record: Record) -> str:
    """The text ``to_json`` wrote while it called json."""
    return json.dumps(record.to_dict(), indent=2) + "\n"


def walk(value):
    """``value`` and every value inside it, records, tuples and lists."""
    yield value
    if isinstance(value, Record):
        for field in dataclasses.fields(value):
            yield from walk(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from walk(item)


def record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from record_classes(sub)


def human_report() -> AnalysisReport:
    rows = read_components_csv(FIXTURES / "human_ssvep.csv")
    return run_flowchart(build_dataset(rows, Design.ONEWAY_REPEATED),
                         baseline="0", bootstrap_reps=200)


def mouse_dataset():
    return build_dataset(read_components_csv(FIXTURES / "mouse_ssvep.csv"),
                         Design.PAIRED)


def test_every_record_class_writes_the_json_text():
    graph = AdjacencyGraph(3, ((0, 1), (1, 2)))
    outputs = [
        human_report(),
        cluster_correct([mouse_dataset()] * 3, graph, n_perm=50, seed=3),
        simulate_rates(SimulationSpec("MANOVA", d=0.5, n=6, k=3, n_reps=40)),
        mahalanobis_distances(mouse_dataset().samples[0]),
    ]
    seen = set()
    for output in outputs:
        for value in walk(output):
            if isinstance(value, Record):
                seen.add(type(value))
                assert value.to_json() == dumps(value), type(value).__name__
    assert seen == set(record_classes())


def test_reports_hold_no_numpy_scalar():
    # the bootstrap's mean amplitude was an np.float64, the one numpy
    # scalar of a report (its text was the same)
    found = [type(v).__name__ for v in walk(human_report())
             if isinstance(v, np.generic)]
    assert found == []


def test_golden_report_is_written_back_byte_for_byte():
    for name in ("human_report", "mouse_report"):
        text = (FIXTURES / f"{name}.json").read_text()
        assert AnalysisReport.from_json(text).to_json() == text
    text = (FIXTURES / "mouse_cluster.json").read_text()
    assert ClusterResult.from_json(text).to_json() == text
    text = (FIXTURES / "fig3_rates.json").read_text()
    assert RateTable.from_json(text).to_json() == text


#: labels with json's escapes: quotes, backslashes, control, non-ASCII and
#: astral characters, and the empty string
LABELS = st.one_of(
    st.just(""),
    st.text(st.sampled_from(list('a"\\/\b\f\n\r\t\x00\x1f\x7f') +
                            ["é", " ", "﻿", "\U0001f600"]), max_size=6),
    st.text(max_size=6),
)
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1]
#: floats of every kind, np.float64 (a float subclass) among them
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(),
                   st.floats().map(np.float64))
INTS = st.one_of(st.integers(-5, 5), st.integers(-2**100, 2**100))
COUNTS = st.lists(INTS, max_size=3).map(tuple)


@st.composite
def outcomes(draw):
    return inference.TestResult(
        statistic_name=draw(LABELS), statistic=draw(FLOATS),
        f_value=draw(st.none() | FLOATS),
        df=draw(st.none() | st.tuples(INTS, INTS)),
        p_value=draw(FLOATS), effect_size=draw(st.none() | FLOATS),
        n_per_group=draw(COUNTS))


@st.composite
def records(draw):
    kind = draw(st.sampled_from(["result", "cell", "amplitude", "cluster"]))
    if kind == "result":
        return draw(outcomes())
    if kind == "cell":
        return RateCell(draw(LABELS), draw(FLOATS), draw(INTS), draw(FLOATS),
                        draw(FLOATS), draw(INTS), draw(FLOATS), draw(FLOATS),
                        draw(INTS))
    if kind == "amplitude":
        return AmplitudeSummary(draw(FLOATS), draw(FLOATS), draw(FLOATS),
                                draw(FLOATS), draw(LABELS), draw(FLOATS))
    null = np.array(draw(st.lists(st.floats(), max_size=4)), dtype=float)
    return ClusterResult(
        test=draw(LABELS), alpha_forming=draw(FLOATS), n_permutations=draw(INTS),
        clusters=tuple(draw(st.lists(COUNTS, max_size=3))),
        cluster_masses=tuple(draw(st.lists(FLOATS, max_size=3))),
        corrected_p=(),
        node_results=tuple(draw(st.lists(outcomes(), max_size=2))),
        null_distribution=null)


@settings(max_examples=300, deadline=None)
@given(records())
def test_written_text_is_jsons(record):
    assert record.to_json() == dumps(record)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), 1j, {1, 2}])
def test_a_value_json_refuses_raises_type_error(value):
    cell = RateCell("T2", 0.0, value, 0.0, 1.0, 1, 0.05, 0.01, 100)
    with pytest.raises(TypeError):
        dumps(cell)
    with pytest.raises(TypeError, match="not JSON serializable"):
        cell.to_json()


def test_arrays_of_any_shape_are_written_as_json_writes_their_lists():
    result = ClusterResult.from_json((FIXTURES / "mouse_cluster.json").read_text())
    for null in (np.empty(0), np.arange(6.0).reshape(2, 3), np.array(2.5),
                 np.float64(2.5), np.array([math.nan, -math.inf, -0.0])):
        record = dataclasses.replace(result, null_distribution=null)
        assert record.to_json() == dumps(record)
