"""CSV ingestion and single-bin DFT extraction."""

import cmath
import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorstats import (
    ComplexSample,
    ComponentColumns,
    Design,
    build_dataset,
    coherent_mean,
    extract_component,
    read_components_csv,
    read_timeseries_csv,
)
from phasorstats.exceptions import (
    DomainError,
    FrequencyNotResolvable,
    MalformedInput,
    NonIntegerCycles,
)
from phasorstats.ingest import write_components_csv


def columns(*rows):
    """The components table of (unit, condition, re, im) rows."""
    return ComponentColumns(*map(list, zip(*rows)))


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
        table = read_components_csv(path)
        assert len(table.unit) == 4
        assert table.unit[0] == "m1" and table.re[0] == 1.5
        text = write_components_csv(table)
        assert "m1,sound,1.5,-0.25" in text

    @pytest.mark.parametrize("reader", [read_components_csv, read_timeseries_csv])
    def test_file_descriptor_is_refused_and_left_open(self, reader):
        # an int path used to be read as a file descriptor and then closed
        r, w = os.pipe()
        os.write(w, b"unit,condition,re,im\nm1,a,1.0,0.0\n")
        os.close(w)
        try:
            with pytest.raises(DomainError, match="^path must be a str"):
                reader(r)
            assert os.read(r, 9) == b"unit,cond"  # still open, and unread
        finally:
            os.close(r)

    # labels that need quoting used to be written bare, so the file read
    # back with shifted columns, and a quoted line break was dropped
    LABELS = ["m,1", 'q"1', '"quoted"', 'a,"b",c', "two\nlines", "plain"]

    def test_quoted_labels_survive_two_round_trips(self, tmp_path):
        values = [(1.5, 0.0), (-0.1, 2.0), (1e-300, -7.25), (3.0, 1e300),
                  (-2.5, 0.1), (0.0, -0.0)]
        table = columns(*((unit, condition, re, im)
                          for unit, (re, im) in zip(self.LABELS, values)
                          for condition in ("c,1", "c")))
        path = tmp_path / "data.csv"
        path.write_text(write_components_csv(table))
        assert read_components_csv(path) == table
        again = tmp_path / "again.csv"
        again.write_text(write_components_csv(read_components_csv(path)))
        assert again.read_bytes() == path.read_bytes()
        assert read_components_csv(again) == table

    @pytest.mark.parametrize("label", ["a\r\nb", "a\rb"])
    def test_carriage_returns_in_labels_survive_a_round_trip(self, tmp_path, label):
        # the file used to be read with universal newlines, which turned a
        # quoted "\r\n" into "\n"; a bare "\r" was written unquoted
        table = columns((label, "c", 1.0, 2.0), ("u2", label, 3.0, 4.0))
        path = tmp_path / "data.csv"
        path.write_bytes(write_components_csv(table).encode())
        assert read_components_csv(path) == table

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
            write_components_csv(columns(("m1", "a", 1.0, 2.0),
                                         ("m2", label, 3.0, 4.0)))

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
        assert read_components_csv(path).im[0] == 2.0


def row_reader(path):
    """Reference: the row-by-row components reader that the columnar one
    replaced. Rows come lazily, their floats parsed as they come, so an
    error is the first one met in file order."""
    metadata = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise MalformedInput(f"{path}: not UTF-8 text") from None
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("#"):
            body_start = i + 1
            item = stripped.lstrip("#").strip()
            if "=" in item:
                key, _, value = item.partition("=")
                try:
                    metadata[key.strip()] = float(value.strip())
                except ValueError:
                    raise MalformedInput(
                        f"{path}: line {i + 1}: metadata value "
                        f"{value.strip()!r} is not a number") from None
        elif stripped == "":
            body_start = i + 1
        else:
            break
    body = lines[body_start:]
    if not body or not body[0].strip():
        raise MalformedInput(f"{path}: no header row")
    reader = csv.reader(body)
    try:
        header = [h.strip() for h in next(reader)]
    except csv.Error as exc:
        raise MalformedInput(f"{path}: line {body_start + reader.line_num}: "
                             f"{exc}") from None
    columns = ("unit", "condition", "re", "im")
    for name in columns:
        if name not in header:
            raise MalformedInput(f"{path}: line {body_start + reader.line_num}: "
                                 f"missing column {name!r} "
                                 f"(have {', '.join(header)})")
    indices = [header.index(name) for name in columns]

    def number(lineno, name, raw):
        try:
            value = float(raw)
        except ValueError:
            raise MalformedInput(f"{path}: line {lineno}: column {name!r} value "
                                 f"{raw!r} is not a number") from None
        if not math.isfinite(value):
            raise MalformedInput(f"{path}: line {lineno}: column {name!r} must be finite")
        return value

    table = ComponentColumns([], [], [], [])
    for row in reader:
        if not any(c.strip() for c in row):
            continue
        lineno = body_start + reader.line_num
        if len(row) < len(header):
            raise MalformedInput(f"{path}: line {lineno}: expected {len(header)} "
                                 f"fields, got {len(row)}")
        unit, condition, re, im = (row[i].strip() for i in indices)
        table.unit.append(unit)
        table.condition.append(condition)
        table.re.append(number(lineno, "re", re))
        table.im.append(number(lineno, "im", im))
    if not table.unit:
        raise MalformedInput(f"{path}: no data rows")
    return table


def outcome(read, path, *args):
    """The columns a reader returns, their floats as repr (which tells -0.0
    from 0.0), or the type and message of the error it raises."""
    try:
        unit, condition, re, im = read(path, *args)
        return unit, condition, list(map(repr, re)), list(map(repr, im))
    except MalformedInput as exc:
        return type(exc), str(exc)


LABEL = st.text(st.sampled_from(list('ab ,"\r\n\t#') + ["\ufeff", "é"]), max_size=4)
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "0", "1e308", "1_0", "+.5", "5.", "-1E-320"]),
).flatmap(lambda x: st.sampled_from([x, f" {x}", f"{x}\t ", f" {x} "]))
NOT_A_NUMBER = st.sampled_from(["1e309", "-inf", "nan", "oops", "", "0x1p3",
                                "infinity", "1,5"])


@st.composite
def component_files(draw):
    """Component CSV bytes: any line ends, minimal or full quoting, a
    byte-order mark, comment and metadata lines, blank and padded header
    names, extra columns, blank, whitespace-only, empty-field and short
    rows, and cells that are numbers, signed zeros, non-finite or not
    numbers at all."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=end, quoting=draw(
        st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    for line in draw(st.lists(st.sampled_from(
            ["# made by hand", "# sample_rate=100", "#", "", "   "]), max_size=3)):
        buf.write(line + end)
    header = draw(st.permutations(["unit", "condition", "re", "im"]))
    for extra in draw(st.lists(st.sampled_from(["run", "note"]), max_size=2,
                               unique=True)):
        header.insert(draw(st.integers(0, len(header))), extra)
    writer.writerow([draw(st.sampled_from([h, f" {h} "])) for h in header])
    # half the files are well formed; the others may hold any error
    broken = draw(st.booleans())
    number = st.one_of(NUMBER, NUMBER, NOT_A_NUMBER) if broken else NUMBER
    kinds = ["row"] * 6 + ["blank", "spaces", "commas"] + ["short"] * broken
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "row":
            writer.writerow([draw(number) if h in ("re", "im") else draw(LABEL)
                             for h in header])
        elif kind == "blank":
            writer.writerow([])
        elif kind == "spaces":
            writer.writerow(["  "])
        elif kind == "commas":
            writer.writerow([" "] * len(header))
        else:
            writer.writerow([draw(LABEL)] * draw(st.integers(1, len(header) - 1)))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + buf.getvalue()).encode("utf-8")


class TestColumnarReader:
    @settings(max_examples=400, deadline=None)
    @given(data=component_files())
    def test_reads_what_the_row_reader_read(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(data)
        expected = outcome(row_reader, path)
        assert outcome(read_components_csv, path) == expected
        assert outcome(read_components_csv, path, data) == expected

    # the malformed inputs of TestComponentsCsv, and the precedence of a
    # short row and a bad number
    @pytest.mark.parametrize("text", [
        "unit,cond,re,im\nm1,a,1,2\n",
        "unit,condition,re,im\nm1,a,1.0,2.0\nm2,a,oops,0\n",
        "unit,condition,re,im\r\nm1,a,1,2\r\nm2,a,oops,0\r\n",
        "unit,condition,re,im\rm1,a,1,2\rm2,a,oops,0\r",
        'unit,condition,re,im\n"m\n1",a,1.0,2.0\nm2,a,oops,0\n',
        "",
        "unit,condition,re,im\n",
        "unit,condition,re,im\nm1,a,1,nan\nm2,a,inf,0\n",
        "unit,condition,re,im\nm1,a,1,2\nm2,a\nm3,a,x,0\n",
        "unit,condition,re,im\nm1,a,1,2\nm3,a,x,0\nm2,a\n",
        "unit,condition,re,im\n,,,\n  \n\n",
        "# sample_rate=fast\nunit,condition,re,im\nm1,a,1,2\n",
    ])
    def test_malformed_input_gives_the_row_readers_error(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        expected = outcome(row_reader, path)
        assert expected[0] is MalformedInput
        assert outcome(read_components_csv, path) == expected

    def test_field_over_the_csv_limit_is_malformed_input(self, tmp_path):
        # it used to escape as a raw _csv.Error, a traceback from the CLI;
        # a bad number on an earlier line still comes first
        path = tmp_path / "long.csv"
        long = "a" * (csv.field_size_limit() + 1)
        path.write_text(f"unit,condition,re,im\nm1,a,1,2\nm2,{long},1,2\n")
        with pytest.raises(MalformedInput, match="long.csv: line 3: field larger"):
            read_components_csv(path)
        path.write_text(f"unit,condition,re,im\nm1,a,x,2\nm2,{long},1,2\n")
        with pytest.raises(MalformedInput, match="line 2: column 're'"):
            read_components_csv(path)

    @pytest.mark.parametrize("prefix,line", [
        ("", 1), ("\n\n", 3), ("# made by hand\n  \n", 3),
        ("# sample_rate=100\n# target_frequency=10\n", 3),
    ])
    def test_header_over_the_csv_limit_is_malformed_input(self, tmp_path,
                                                          prefix, line):
        # a header field used to escape as a raw _csv.Error
        path = tmp_path / "long.csv"
        long = "a" * (csv.field_size_limit() + 1)
        path.write_text(f"{prefix}unit,condition,re,im,{long}\nm1,a,1,2\n")
        with pytest.raises(MalformedInput,
                           match=f"long.csv: line {line}: field larger"):
            read_components_csv(path)
        assert outcome(read_components_csv, path) == outcome(row_reader, path)

    @pytest.mark.parametrize("prefix,line", [
        ("", 1), ("\n\n", 3), ("# made by hand\n\n# note\n", 4),
    ])
    def test_missing_column_names_the_header_line(self, tmp_path, prefix, line):
        # it used to say line 1 wherever the header was
        path = tmp_path / "cols.csv"
        path.write_text(f"{prefix}unit,cond,re,im\nm1,a,1,2\n")
        with pytest.raises(MalformedInput, match=f"cols.csv: line {line}: "
                                                 "missing column 'condition'"):
            read_components_csv(path)
        assert outcome(read_components_csv, path) == outcome(row_reader, path)

    def test_non_utf8_gives_the_row_readers_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes("unit,condition,re,im\nm\xe9,a,1,2\n".encode("latin-1"))
        assert outcome(read_components_csv, path) == outcome(row_reader, path)



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
        rows = [(unit, cond, float(values[2 * i]), float(values[2 * i + 1]))
                for i, (unit, cond) in enumerate(cells)]
        ds = build_dataset(columns(*rows), Design.ONEWAY_INDEPENDENT)
        # one ComplexSample per unit, collapsed by coherent_mean, with
        # conditions and units in order of first appearance
        conditions = list(dict.fromkeys(c for _, c, _, _ in rows))
        assert list(ds.condition_labels) == conditions
        for sample, cond in zip(ds.samples, conditions):
            units = list(dict.fromkeys(u for u, c, _, _ in rows if c == cond))
            expected = coherent_mean([
                ComplexSample(
                    np.asarray([complex(re, im) for u, c, re, im in rows
                                if (u, c) == (unit, cond)]),
                    cond, (unit,) * reps,
                )
                for unit in units
            ], cond)
            assert sample.condition_label == expected.condition_label == cond
            assert sample.unit_labels == expected.unit_labels == tuple(units)
            assert sample.observations.dtype == np.complex128
            assert (sample.observations.tobytes()
                    == expected.observations.tobytes())


    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.integers(1, 20), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_units_with_other_repetition_counts(self, counts, seed):
        # the means of units with 1 ... 20 rows (past numpy's 8-value
        # pairwise block) are each the coherent mean of that unit alone,
        # though each repetition count is averaged in one call
        rng = np.random.default_rng(seed)
        cells = [(f"u{u}", f"c{u % 3}") for u, count in enumerate(counts)
                 for _ in range(count)]
        cells = [cells[i] for i in rng.permutation(len(cells))]
        values = rng.standard_normal((len(cells), 2)) * 10.0 ** rng.integers(
            -300, 300, (len(cells), 2))
        values[rng.random(values.shape) < 0.1] = -0.0
        rows = [(unit, cond, re, im)
                for (unit, cond), (re, im) in zip(cells, values.tolist())]
        conditions = list(dict.fromkeys(cond for _, cond in cells))
        design = Design.ONE_SAMPLE if len(conditions) == 1 else Design.ONEWAY_INDEPENDENT
        ds = build_dataset(columns(*rows), design)
        assert list(ds.condition_labels) == conditions
        for sample in ds.samples:
            repetitions = {unit: [complex(re, im) for u, _, re, im in rows if u == unit]
                           for unit in sample.unit_labels}
            expected = coherent_mean([
                ComplexSample(np.asarray(v), "", (unit,) * len(v))
                for unit, v in repetitions.items()
            ])
            assert (sample.observations.tobytes()
                    == expected.observations.tobytes())


U, C = ["u1", "u2", "u3"], ["a", "a", "a"]
RE, IM = [1.0, 2.0, 3.0], [0.5, -0.5, 0.0]


class TestMalformedTable:
    # build_dataset used to raise a raw TypeError or ValueError on these, or
    # to read a short column as fewer rows; write_components_csv wrote them,
    # and the reader then refused the file
    @pytest.mark.parametrize("table,message", [
        ((U, C, RE), "four columns"),
        ((U, C, RE, IM, IM), "four columns"),
        ((U, C, RE, IM[:2]), "of one length"),
        ((U[:2], C, RE, IM), "of one length"),
        (None, "four columns"),
        ((U, C, [1.0, "x", 3.0], IM), "row 2: column 're' value 'x'"),
        ((U, C, [1.0, 2.0, "3.0"], IM), "row 3: column 're' value '3.0'"),
        ((U, C, RE, [0.5, math.nan, 0.0]), "row 2: column 'im' value nan"),
        ((U, C, [math.inf, 2.0, 3.0], IM), "row 1: column 're' value inf"),
        ((U, C, RE, [0.5, 1j, 0.0]), "row 2: column 'im' value 1j"),
        ((U, C, RE, [0.5, None, 0.0]), "row 2: column 'im' value None"),
        ((U, C, [1.0, 10**400, 3.0], IM), "row 2: column 're'"),
    ])
    @pytest.mark.parametrize("use", [
        lambda table: build_dataset(table, Design.ONE_SAMPLE),
        write_components_csv,
    ], ids=["build_dataset", "write_components_csv"])
    def test_is_malformed_input(self, use, table, message):
        with pytest.raises(MalformedInput, match=message):
            use(table)

    def test_any_sequences_of_finite_reals_are_a_table(self, tmp_path):
        # tuples, numpy arrays and ints; a sum that overflows on finite terms
        re_column = np.array([1e308, 1e308, -3.0])
        table = (tuple(U), C, re_column, (1, 0, -2))
        path = tmp_path / "data.csv"
        path.write_text(write_components_csv(table))
        expected = columns(*zip(U, C, [1e308, 1e308, -3.0], [1.0, 0.0, -2.0]))
        assert read_components_csv(path) == expected
        assert (build_dataset(table, Design.ONE_SAMPLE).samples[0].observations.tobytes()
                == build_dataset(expected, Design.ONE_SAMPLE).samples[0].observations.tobytes())


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
        table = read_timeseries_csv(path)
        assert len(table.unit) == 1
        assert table.re[0] == pytest.approx(2.0, abs=1e-9)
        assert table.im[0] == pytest.approx(0.0, abs=1e-9)

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
        assert read_timeseries_csv(path).re[0] == pytest.approx(2.0, abs=1e-9)

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
        table = read_timeseries_csv(path)
        assert list(zip(table.unit, table.condition)) == [
            (unit, "on,off") for unit in quoted.values()]
        components = tmp_path / "components.csv"
        components.write_text(write_components_csv(table))
        assert read_components_csv(components) == table
        again = tmp_path / "again.csv"
        again.write_text(write_components_csv(read_components_csv(components)))
        assert read_components_csv(again) == table

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

    def test_missing_column_names_the_header_line(self, tmp_path):
        # the header follows two metadata lines; it used to say line 1
        path = tmp_path / "ts.csv"
        path.write_text("# sample_rate=100\n# target_frequency=10\n"
                        "unit,condition,t,value\nu1,a,0,1.0\n")
        with pytest.raises(MalformedInput,
                           match="ts.csv: line 3: missing column 't_index'"):
            read_timeseries_csv(path)

    def test_header_over_the_csv_limit_is_malformed_input(self, tmp_path):
        path = tmp_path / "ts.csv"
        long = "a" * (csv.field_size_limit() + 1)
        path.write_text("# sample_rate=100\n# target_frequency=10\n"
                        f"unit,condition,t_index,value,{long}\nu1,a,0,1.0\n")
        with pytest.raises(MalformedInput, match="ts.csv: line 3: field larger"):
            read_timeseries_csv(path)

    def test_non_integer_cycle_series(self, tmp_path):
        path = tmp_path / "ts.csv"
        self._write(path, m=55)  # 5.5 cycles of 10 Hz at 100 Hz
        with pytest.raises(NonIntegerCycles):
            read_timeseries_csv(path)
