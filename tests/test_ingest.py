"""CSV ingestion and single-bin DFT extraction."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstats import (
    ComplexSample,
    Design,
    build_dataset,
    coherent_mean,
    extract_component,
    read_components_csv,
    read_timeseries_csv,
)
from phasorstats.exceptions import (
    FrequencyNotResolvable,
    MalformedInput,
    NonIntegerCycles,
)
from phasorstats.ingest import ComponentRow, write_components_csv


def oracle_dft_bin(series, k):
    """Direct O(M) summation, written independently of the implementation."""
    m = len(series)
    acc = 0.0 + 0.0j
    for t, v in enumerate(series):
        acc += v * complex(math.cos(2 * math.pi * k * t / m),
                           -math.sin(2 * math.pi * k * t / m))
    return 2.0 * acc / m


class TestExtractComponent:
    def test_cosine_convention(self):
        fs, f, cycles = 500.0, 10.0, 4
        m = int(fs * cycles / f)
        t = np.arange(m) / fs
        obs = extract_component(3.0 * np.cos(2 * np.pi * f * t), fs, f)
        assert obs.real == pytest.approx(3.0, abs=1e-9)
        assert obs.imag == pytest.approx(0.0, abs=1e-9)

    def test_sine_is_quadrature(self):
        fs, f = 200.0, 8.0
        m = int(fs / f) * 5
        t = np.arange(m) / fs
        obs = extract_component(2.0 * np.sin(2 * np.pi * f * t), fs, f)
        assert abs(obs) == pytest.approx(2.0, abs=1e-9)
        assert cmath.phase(obs) == pytest.approx(-math.pi / 2, abs=1e-9)

    def test_noise_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal(128)
        fs = 64.0
        f = 4.0  # bin k = 8
        obs = extract_component(series, fs, f)
        expected = oracle_dft_bin(list(series), 8)
        assert obs.real == pytest.approx(expected.real, abs=1e-9)
        assert obs.imag == pytest.approx(expected.imag, abs=1e-9)

    def test_non_integer_cycles(self):
        with pytest.raises(NonIntegerCycles):
            extract_component(np.zeros(100), 100.0, 7.3)

    def test_frequency_out_of_range(self):
        # above Nyquist, DC, NaN rate or target (a raw ValueError from
        # round(nan) once), and 1e-9 cycles, which rounds to the DC bin and
        # used to return 2 * mean
        for fs, f in ((100.0, 60.0), (100.0, 0.0), (math.nan, 10.0),
                      (100.0, math.nan), (1e12, 10.0)):
            with pytest.raises(FrequencyNotResolvable):
                extract_component(np.ones(100), fs, f)

    # each used to escape as a raw TypeError or ValueError
    @pytest.mark.parametrize("series,fs,f,error", [
        ([1, 0, -1, 0], "x", 1, FrequencyNotResolvable),
        ([1, 0, -1, 0], 4, "x", FrequencyNotResolvable),
        ([1, 0, -1, 0], None, 1, FrequencyNotResolvable),
        (["a", "b", "c", "d"], 4, 1, MalformedInput),
    ])
    def test_non_number_arguments_raise_typed_errors(self, series, fs, f, error):
        with pytest.raises(error):
            extract_component(series, fs, f)


class TestComponentsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "unit,condition,re,im\n"
            "m1,sound,1.5,-0.25\n"
            "m2,sound,0.5,0.75\n"
            "m1,light,2.0,0.0\n"
            "m2,light,1.0,1.0\n"
        )
        rows = read_components_csv(path)
        assert len(rows) == 4
        assert rows[0].unit == "m1" and rows[0].re == 1.5
        text = write_components_csv(rows)
        assert "m1,sound,1.5,-0.25" in text

    def test_component_row_is_a_named_tuple(self):
        # built, read, printed and compared as the frozen dataclass it was
        row = ComponentRow("m1", "a", 1.0, -2.0)
        assert isinstance(row, tuple)
        assert row == ComponentRow(unit="m1", condition="a", re=1.0, im=-2.0)
        assert row != ComponentRow("m1", "a", 1.0, 2.0)
        assert (row.unit, row.condition, row.re, row.im) == ("m1", "a", 1.0, -2.0)
        assert repr(row) == "ComponentRow(unit='m1', condition='a', re=1.0, im=-2.0)"
        with pytest.raises(AttributeError):
            row.re = 0.0

    # labels that need quoting used to be written bare, so the file read
    # back with shifted columns, and a quoted line break was dropped
    LABELS = ["m,1", 'q"1', '"quoted"', 'a,"b",c', "two\nlines", "plain"]

    def test_quoted_labels_survive_two_round_trips(self, tmp_path):
        values = [(1.5, 0.0), (-0.1, 2.0), (1e-300, -7.25), (3.0, 1e300),
                  (-2.5, 0.1), (0.0, -0.0)]
        rows = [ComponentRow(unit, condition, re, im)
                for unit, (re, im) in zip(self.LABELS, values)
                for condition in ("c,1", "c")]
        path = tmp_path / "data.csv"
        path.write_text(write_components_csv(rows))
        assert read_components_csv(path) == rows
        again = tmp_path / "again.csv"
        again.write_text(write_components_csv(read_components_csv(path)))
        assert again.read_bytes() == path.read_bytes()
        assert read_components_csv(again) == rows

    @pytest.mark.parametrize("label", ["a\r\nb", "a\rb"])
    def test_carriage_returns_in_labels_survive_a_round_trip(self, tmp_path, label):
        # the file used to be read with universal newlines, which turned a
        # quoted "\r\n" into "\n"; a bare "\r" was written unquoted
        rows = [ComponentRow(label, "c", 1.0, 2.0), ComponentRow("u2", label, 3.0, 4.0)]
        path = tmp_path / "data.csv"
        path.write_bytes(write_components_csv(rows).encode())
        assert read_components_csv(path) == rows

    def test_carriage_return_line_ends_are_read(self, tmp_path):
        path = tmp_path / "data.csv"
        for end in ("\r\n", "\r"):
            path.write_bytes(end.join(["unit,condition,re,im", "m1,a,1,2",
                                       "m2,a,oops,0", ""]).encode())
            with pytest.raises(MalformedInput, match="line 3"):
                read_components_csv(path)

    @pytest.mark.parametrize("label", [" m1 ", "m1 ", "\tm1", "m1\n"])
    def test_blank_padded_labels_are_refused_on_write(self, label):
        # the reader strips every cell, so " m1 " would read back as m1 and
        # merge with a real unit m1
        with pytest.raises(MalformedInput, match="row 2: column 'condition'"):
            write_components_csv([ComponentRow("m1", "a", 1.0, 2.0),
                                  ComponentRow("m2", label, 3.0, 4.0)])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,cond,re,im\nm1,a,1,2\n")
        with pytest.raises(MalformedInput, match="condition"):
            read_components_csv(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,condition,re,im\nm1,a,1.0,2.0\nm2,a,oops,0\n")
        with pytest.raises(MalformedInput, match="line 3"):
            read_components_csv(path)

    def test_line_numbers_count_line_breaks_in_quoted_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('unit,condition,re,im\n"m\n1",a,1.0,2.0\nm2,a,oops,0\n')
        with pytest.raises(MalformedInput, match="line 4"):
            read_components_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MalformedInput):
            read_components_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("unit,condition,re,im\n")
        with pytest.raises(MalformedInput, match="no data rows"):
            read_components_csv(path)

    def test_non_utf8_bytes(self, tmp_path):
        # used to raise a raw UnicodeDecodeError
        path = tmp_path / "latin.csv"
        path.write_bytes("unit,condition,re,im\nm\xe9,a,1,2\n".encode("latin-1"))
        with pytest.raises(MalformedInput, match="latin.csv: not UTF-8"):
            read_components_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports begin with one; the first column
        # used to read as "\ufeffunit" and be reported missing
        text = "unit,condition,re,im\nm1,a,1,2\nm2,a,3,4\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_components_csv(marked) == read_components_csv(plain)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("run,unit,condition,re,im\n7,m1,a,1,2\n7,m2,a,3,4\n")
        rows = read_components_csv(path)
        assert rows[0].im == 2.0


class TestBuildDataset:
    def test_repetitions_coherently_averaged(self, tmp_path):
        path = tmp_path / "reps.csv"
        path.write_text(
            "unit,condition,re,im\n"
            "u1,a,1,0\n"
            "u1,a,0,1\n"
            "u2,a,2,2\n"
        )
        ds = build_dataset(read_components_csv(path), Design.ONE_SAMPLE)
        sample = ds.samples[0]
        assert sample.n == 2
        assert sample.unit_labels == ("u1", "u2")
        assert sample.observations[0] == pytest.approx(0.5 + 0.5j)

    def test_condition_order_of_first_appearance(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text(
            "unit,condition,re,im\n"
            "u1,zeta,1,0\n"
            "u1,alpha,2,0\n"
            "u2,zeta,3,0\n"
            "u2,alpha,4,0\n"
        )
        ds = build_dataset(read_components_csv(path), Design.PAIRED)
        assert ds.condition_labels == ("zeta", "alpha")

    def test_design_count_mismatch(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("unit,condition,re,im\nu1,a,1,0\nu2,a,2,0\n")
        with pytest.raises(MalformedInput, match="needs 2 samples, got 1"):
            build_dataset(read_components_csv(path), Design.PAIRED)

    @settings(max_examples=100, deadline=None)
    @given(
        reps=st.sampled_from([1, 2, 3, 4, 5, 9]),
        n_units=st.integers(1, 6),
        n_conditions=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_means_equal_coherent_mean_bit_for_bit(
        self, reps, n_units, n_conditions, seed
    ):
        rng = np.random.default_rng(seed)
        cells = [(f"u{u}", f"c{c}") for u in range(n_units)
                 for c in range(n_conditions)] * reps
        cells = [cells[i] for i in rng.permutation(len(cells))]
        # magnitudes over 1e-300 ... 1e300, with signed zeros mixed in
        values = rng.standard_normal(2 * len(cells)) * 10.0 ** rng.integers(
            -300, 300, 2 * len(cells))
        values[rng.random(values.size) < 0.1] = 0.0
        values = np.copysign(values, rng.standard_normal(values.size))
        rows = [ComponentRow(unit, cond, float(values[2 * i]),
                             float(values[2 * i + 1]))
                for i, (unit, cond) in enumerate(cells)]
        ds = build_dataset(rows, Design.ONEWAY_INDEPENDENT)
        # one ComplexSample per unit, collapsed by coherent_mean, with
        # conditions and units in order of first appearance
        conditions = list(dict.fromkeys(r.condition for r in rows))
        assert list(ds.condition_labels) == conditions
        for sample, cond in zip(ds.samples, conditions):
            units = list(dict.fromkeys(r.unit for r in rows
                                       if r.condition == cond))
            expected = coherent_mean([
                ComplexSample(
                    np.asarray([complex(r.re, r.im) for r in rows
                                if (r.unit, r.condition) == (unit, cond)]),
                    cond, (unit,) * reps,
                )
                for unit in units
            ], cond)
            assert sample.condition_label == expected.condition_label == cond
            assert sample.unit_labels == expected.unit_labels == tuple(units)
            assert sample.observations.dtype == np.complex128
            assert (sample.observations.tobytes()
                    == expected.observations.tobytes())


class TestTimeseriesCsv:
    def _write(self, path, fs=100.0, f=10.0, amplitude=2.0, phase=0.0, m=50):
        lines = [f"# sample_rate={fs}", f"# target_frequency={f}",
                 "unit,condition,t_index,value"]
        for t in range(m):
            v = amplitude * math.cos(2 * math.pi * f * t / fs + phase)
            lines.append(f"u1,stim,{t},{v!r}")
        path.write_text("\n".join(lines) + "\n")

    def test_extracts_component(self, tmp_path):
        path = tmp_path / "ts.csv"
        self._write(path)
        rows = read_timeseries_csv(path)
        assert len(rows) == 1
        assert rows[0].re == pytest.approx(2.0, abs=1e-9)
        assert rows[0].im == pytest.approx(0.0, abs=1e-9)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # the metadata line after a byte-order mark used to read as the header
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        self._write(plain)
        marked.write_text(plain.read_text(), encoding="utf-8-sig")
        assert read_timeseries_csv(marked) == read_timeseries_csv(plain)

    def test_rows_may_arrive_shuffled(self, tmp_path):
        path = tmp_path / "ts.csv"
        self._write(path)
        lines = path.read_text().strip().splitlines()
        header, body = lines[:3], lines[3:]
        rng = np.random.default_rng(1)
        rng.shuffle(body)
        path.write_text("\n".join(header + body) + "\n")
        rows = read_timeseries_csv(path)
        assert rows[0].re == pytest.approx(2.0, abs=1e-9)

    def test_quoted_labels_survive_extract_and_read_back(self, tmp_path):
        # the extract path: time series -> components CSV -> components
        lines = ["# sample_rate=100", "# target_frequency=10",
                 "unit,condition,t_index,value"]
        quoted = {'"m,1"': "m,1", '"q""1"': 'q"1', "u3": "u3"}
        for k, unit in enumerate(quoted):
            for t in range(20):
                v = (k + 1) * math.cos(2 * math.pi * 10 * t / 100)
                lines.append(f'{unit},"on,off",{t},{v!r}')
        path = tmp_path / "ts.csv"
        path.write_text("\n".join(lines) + "\n")
        rows = read_timeseries_csv(path)
        assert [(r.unit, r.condition) for r in rows] == [
            (unit, "on,off") for unit in quoted.values()]
        components = tmp_path / "components.csv"
        components.write_text(write_components_csv(rows))
        assert read_components_csv(components) == rows
        again = tmp_path / "again.csv"
        again.write_text(write_components_csv(read_components_csv(components)))
        assert read_components_csv(again) == rows

    def test_missing_metadata(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text("unit,condition,t_index,value\nu1,a,0,1.0\n")
        with pytest.raises(MalformedInput, match="sample_rate"):
            read_timeseries_csv(path)

    def test_gap_in_t_index(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text(
            "# sample_rate=100\n# target_frequency=10\n"
            "unit,condition,t_index,value\n"
            "u1,a,0,1.0\nu1,a,2,1.0\n"
        )
        with pytest.raises(MalformedInput, match="exactly once"):
            read_timeseries_csv(path)

    def test_non_integer_cycle_series(self, tmp_path):
        path = tmp_path / "ts.csv"
        self._write(path, m=55)  # 5.5 cycles of 10 Hz at 100 Hz
        with pytest.raises(NonIntegerCycles):
            read_timeseries_csv(path)
