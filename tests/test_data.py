import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel import data
from interpanel.data import (CiteBlocks, Dims, DuplicateColumn, ExtraField,
                             IteBlocks, MissingColumn, MissingField,
                             NonConstantH, NonFiniteValue, PanelDataError,
                             UnbalancedPanel, add_intercept_h,
                             build_ite_blocks, build_regressors,
                             drop_failing_units, factor_units,
                             interaction_block, load_csv, make_dataset,
                             subset_units, validate, write_csv)
from interpanel.dgp import packaged_config, simulate
from interpanel.estimators import cite_theta, fit_cite, ite
from interpanel.linalg import (RANK_TOL, RankDeficient, rank_deficient,
                               residual_makers, solve_ols)

from conftest import kron_block_loops, load_outcome, random_panel


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestDims:
    def test_valid(self):
        d = Dims(n=4, T=3, K_x=2, K_g=1, K_z=1, K_h=1)
        assert d.n_psi == 3

    @pytest.mark.parametrize("kwargs", [
        dict(n=1, T=3, K_x=1),
        dict(n=4, T=0, K_x=1),
        dict(n=4, T=2, K_x=3),
        dict(n=4, T=3, K_x=1, K_g=-1),
        dict(n=4, T=3, K_x=0),
        dict(n=2 ** 62, T=6, K_x=2),  # more values than an array can hold
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Dims(**kwargs)


class TestLoadCsv:
    def test_minimal_shape(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[u, t, 0.5 * u + t, u * t] for u in (1, 2) for t in (1, 2, 3)]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        ds = load_csv(path)
        d = ds.dims
        assert (d.n, d.T, d.K_x, d.K_g, d.K_z, d.K_h) == (2, 3, 1, 0, 0, 0)
        assert ds.unit_labels == (1, 2)

    def test_row_order_is_irrelevant(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[2, 3, 23, 1], [1, 1, 11, 1], [2, 1, 21, 1],
                [1, 3, 13, 1], [1, 2, 12, 1], [2, 2, 22, 1]]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        ds = load_csv(path)
        assert_allclose(ds.Y, [[11, 12, 13], [21, 22, 23]])

    def test_non_constant_h(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[7, 1, 1.0, 1.0, 0.2], [7, 2, 1.0, 1.0, 0.3],
                [8, 1, 1.0, 1.0, 0.5], [8, 2, 1.0, 1.0, 0.5]]
        write_rows(path, ["unit", "time", "y", "x1", "h1"], rows)
        with pytest.raises(NonConstantH) as err:
            load_csv(path)
        assert err.value.unit == 7
        assert err.value.column == "h1"

    def test_h_texts_of_one_value_are_constant(self, tmp_path):
        # each distinct h text is read once; "1" and "1.0" are one float,
        # so unit 7 is constant, and the floats are float()'s own
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y,x1,h1\n7,1,1.0,1.0,1\n7,2,1.0,2.0,1.0\n"
                        "8,1,1.0,1.0,0.1\n8,2,1.0,3.0,0.10000000000000001\n")
        ds = load_csv(path)
        assert ds.H.tolist() == [[1.0], [float("0.1")]]
        assert ds.H[1, 0] == float("0.10000000000000001")

    @pytest.mark.parametrize("text", ["abc", "inf", "1e999", ""])
    def test_bad_h_text_names_row_and_column(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y,x1,h1\n7,1,1.0,1.0,2\n7,2,1.0,2.0,2\n"
                        f"8,1,1.0,1.0,{text}\n8,2,1.0,3.0,{text}\n")
        with pytest.raises(NonFiniteValue) as err:
            load_csv(path)
        assert str(err.value) == "non-finite value at row 4, column 'h1'"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(path, ["unit", "time", "x1"], [[1, 1, 1], [2, 1, 1]])
        with pytest.raises(MissingColumn):
            load_csv(path)

    def test_unbalanced(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[1, 1, 0, 1], [1, 2, 0, 1], [2, 1, 0, 1]]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        with pytest.raises(UnbalancedPanel) as err:
            load_csv(path)
        assert err.value.unit == 2

    def test_non_finite(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[1, 1, "nan", 1], [1, 2, 0, 1], [2, 1, 0, 1], [2, 2, 0, 1]]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        with pytest.raises(NonFiniteValue):
            load_csv(path)

    def test_short_row_names_row_and_column(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[1.0, 2.0, 1, 1], [1.5, 2.5, 2, 1], [2.0, 3.0, 1, 2],
                [3.0, 4.0, 2]]
        write_rows(path, ["y", "x1", "time", "unit"], rows)
        with pytest.raises(MissingField) as err:
            load_csv(path)
        assert (err.value.row, err.value.column) == (5, "unit")

    def test_long_row_names_row_and_field_counts(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[1, 1, 1.0, 2.0, 99], [1, 2, 1.5, 2.5], [2, 1, 2.0, 3.0],
                [2, 2, 3.0, 4.5]]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        with pytest.raises(ExtraField) as err:
            load_csv(path)
        assert isinstance(err.value, PanelDataError)
        assert (err.value.row, err.value.found, err.value.expected) == (2, 5, 4)
        assert str(err.value) == "row 2 has 5 fields, more than the header's 4"

    def test_rows_are_numbered_by_file_line(self, tmp_path):
        # record 1 spans lines 2-3, so the nan in record 3 is on line 5
        path = tmp_path / "p.csv"
        path.write_text('unit,time,y,x1,note\n1,1,1.0,2.0,"two\nlines"\n'
                        "1,2,1.5,2.5,b\n2,1,nan,3.0,c\n2,2,3.0,4.5,d\n")
        with pytest.raises(NonFiniteValue) as err:
            load_csv(path)
        assert str(err.value) == "non-finite value at row 5, column 'y'"

    def test_role_column_named_twice(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[u, t, 1.0, 2.0, 3.0] for u in (1, 2) for t in (1, 2)]
        write_rows(path, ["unit", "time", "y", "x1", "x1"], rows)
        with pytest.raises(DuplicateColumn) as err:
            load_csv(path)
        assert err.value.column == "x1"
        assert str(err.value) == "column 'x1' appears 2 times in the header"

    def test_repeated_names_without_a_role_are_allowed(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [["a", u, t, u + t, u * t, "b"] for u in (1, 2) for t in (1, 2)]
        write_rows(path, ["note", "unit", "time", "y", "x1", "note"], rows)
        assert_allclose(load_csv(path).Y, [[2, 3], [3, 4]])

    def test_quoted_fields_and_blank_lines(self, tmp_path):
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        rows = [["a", 1, 0.25, 1.5], ["a", 2, 1e-3, -2.0],
                ["b", 1, 3.0, 7.125], ["b", 2, -0.5, 4.0]]
        write_rows(plain, ["unit", "time", "y", "x1"], rows)
        quoted.write_text('"unit","time","y","x1"\n\n' + "".join(
            ",".join(f'"{"b,c" if v == "b" else v}"' for v in row) + "\n\n"
            for row in rows))
        a, b = load_csv(plain), load_csv(quoted)
        for name in ("Y", "X", "G", "Z", "H"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert b.unit_labels == ("a", "b,c")
        assert b.time_labels == a.time_labels == (1, 2)

    def test_texts_of_one_label_are_one_unit(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [["1", 1, 1.0, 2.0], ["01", 2, 1.5, 2.5], [" 2", 1, 2.0, 3.0],
                ["2", 2, 3.0, 4.5]]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        ds = load_csv(path)
        assert ds.unit_labels == (1, 2)
        assert [type(u) for u in ds.unit_labels] == [int, int]
        assert_allclose(ds.Y, [[1.0, 1.5], [2.0, 3.0]])

    def test_number_text_is_read_as_float_reads_it(self, tmp_path):
        path = tmp_path / "p.csv"
        texts = [" 1.5 ", "1_000", "\uff12.\uff15", "+7e-1"]
        rows = [[u, t, texts[2 * (u - 1) + t - 1], 1.0] for u in (1, 2)
                for t in (1, 2)]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        assert np.array_equal(load_csv(path).Y.ravel(), [float(v) for v in texts])

    @pytest.mark.parametrize("first, second", [
        (a, b) for a in ("short", "nan", "text")
        for b in ("short", "nan", "text", "gone") if a != b])
    def test_first_bad_record_in_file_order_wins(self, tmp_path, first, second):
        bad = {"short": "1,2", "nan": "1,2,nan,2.5", "text": "1,2,1.5,abc"}
        messages = {
            "short": "row 3 has fewer fields than the header: "
                     "no value for column 'y'",
            "nan": "non-finite value at row 3, column 'y'",
            "text": "non-finite value at row 3, column 'x1'",
        }
        lines = ["1,1,1.0,2.0", bad[first], "2,1,2.0,3.0",
                 bad.get(second, "2,2,3.0,4.5")]
        if second == "gone":
            lines.pop()
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y,x1\n" + "\n".join(lines) + "\n")
        with pytest.raises(PanelDataError) as err:
            load_csv(path)
        assert str(err.value) == messages[first]

    def test_schema_mapping(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[s, yr, 0.1, 0.2, 0.3, 0.4]
                for s in ("CA", "TX") for yr in (2001, 2002)]
        write_rows(path, ["state", "year", "rate", "tax", "unemp", "mormon"],
                   rows)
        ds = load_csv(path, schema={"unit": "state", "time": "year",
                                    "y": "rate", "x": ["tax"],
                                    "g": ["unemp"], "h": ["mormon"]})
        assert ds.dims.K_g == 1 and ds.dims.K_h == 1
        assert ds.columns["x"] == ["tax"]

    @pytest.mark.parametrize("schema, block", [
        ({"x": "y"}, "x"), ({"x": ["x1", "y"]}, "x"), ({"g": ["y"]}, "g"),
        ({"z": ["y"]}, "z"), ({"h": ["y"]}, "h")])
    def test_outcome_is_no_regressor(self, tmp_path, schema, block):
        path = tmp_path / "p.csv"
        rows = [[u, t, 0.5 * u + t, u * t + 1.0] for u in (1, 2)
                for t in (1, 2, 3)]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        with pytest.raises(PanelDataError) as err:
            load_csv(path, schema=schema)
        assert str(err.value) == \
            f"column 'y' is both y and one of the {block} columns"

    def test_time_column_may_be_a_regressor(self, tmp_path):
        # a trend regressor reads the time column; the record reader loads it
        path = tmp_path / "p.csv"
        rows = [[u, t, 0.5 * u + t, u * t] for u in (1, 2) for t in (1, 2, 3)]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        ds = load_csv(path, schema={"x": ["x1", "time"]})
        assert ds.columns["x"] == ["x1", "time"]
        assert np.array_equal(ds.X[:, :, 1], [[1, 2, 3], [1, 2, 3]])

    @pytest.mark.parametrize("units, want", [
        ((10, 2), (2, 10)),                # all numeric: numeric order
        (("u10", "u2"), ("u10", "u2")),    # all text: text order
        ((10, "a", 2), (10, 2, "a")),      # mixed: text order, no TypeError
    ])
    def test_label_order(self, tmp_path, units, want):
        path = tmp_path / "p.csv"
        rows = [[u, t, 1.0, 2.0] for u in units for t in ("b", 1)]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        ds = load_csv(path)
        assert ds.unit_labels == want
        assert ds.time_labels == (1, "b")

    def test_round_trip_bit_identical(self, tmp_path):
        cfg = packaged_config("baseline")
        from dataclasses import replace
        cfg = replace(cfg, dims=replace(cfg.dims, n=17), seed=5)
        ds = simulate(cfg).dataset
        path = tmp_path / "sim.csv"
        write_csv(ds, path)
        back = load_csv(path)
        for name in ("Y", "X", "G", "Z", "H"):
            a, b = getattr(ds, name), getattr(back, name)
            assert np.array_equal(a, b), name
        assert back.unit_labels == ds.unit_labels
        assert back.time_labels == ds.time_labels


class TestLoadCsvChunks:
    """The record reader (`_csv_columns`), which reads a file that the
    loadtxt pass does not (here: always), on files whose bad records,
    blank lines and first-seen labels sit where a reader that took the
    records 3 at a time would start a new chunk. Each file must load, or
    fail, as one pass over its records in file order does."""

    HEADER = "unit,time,y,x1\n"
    GOOD = ["1,1,1.0,2.0", "1,2,1.5,2.5", "1,3,1.7,2.1",
            "2,1,2.0,3.0", "2,2,3.0,4.5", "2,3,3.5,4.0",
            "3,1,0.5,1.0", "3,2,0.25,1.5", "3,3,0.125,1.25"]

    def load(self, path, monkeypatch):
        """load_csv(path) by the record reader; the error, if any."""
        with monkeypatch.context() as m:
            m.setattr(data, "_loadtxt_columns", lambda *args: None)
            try:
                return load_csv(path)
            except PanelDataError as exc:
                return exc

    def assert_error(self, path, monkeypatch, error, message, row):
        err = self.load(path, monkeypatch)
        assert (type(err), str(err), err.row) == (error, message, row)

    def write(self, tmp_path, lines, blank_after=()):
        path = tmp_path / "p.csv"
        path.write_text(self.HEADER + "".join(
            line + "\n" + "\n" * (r in blank_after)
            for r, line in enumerate(lines)))
        return path

    def test_bad_record_in_the_second_chunk(self, tmp_path, monkeypatch):
        lines = list(self.GOOD)
        lines[4] = "2,2,nan,4.5"  # record 5, file line 6
        self.assert_error(self.write(tmp_path, lines), monkeypatch,
                          NonFiniteValue,
                          "non-finite value at row 6, column 'y'", 6)

    def test_earlier_of_two_bad_records_across_a_boundary_wins(
            self, tmp_path, monkeypatch):
        lines = list(self.GOOD)
        lines[2] = "1,3,1.7,abc"  # record 3
        lines[3] = "2,1"          # record 4
        self.assert_error(self.write(tmp_path, lines), monkeypatch,
                          NonFiniteValue,
                          "non-finite value at row 4, column 'x1'", 4)

    @pytest.mark.parametrize("wide, inf", [(4, 7), (1, 4), (7, 4)])
    def test_wrong_width_and_a_bad_value_in_other_chunks(
            self, tmp_path, monkeypatch, wide, inf):
        lines = list(self.GOOD)
        lines[wide] += ",9"
        lines[inf] = lines[inf].rsplit(",", 1)[0] + ",inf"
        if wide < inf:
            error = ExtraField
            message = f"row {wide + 2} has 5 fields, more than the header's 4"
        else:
            error = NonFiniteValue
            message = f"non-finite value at row {inf + 2}, column 'x1'"
        self.assert_error(self.write(tmp_path, lines), monkeypatch, error,
                          message, min(wide, inf) + 2)

    def test_blank_lines_across_a_boundary_keep_the_file_line(
            self, tmp_path, monkeypatch):
        # blank lines after records 2 and 3: record 4 is file line 7
        lines = list(self.GOOD)
        lines[3] = "2,1,2.0"
        self.assert_error(
            self.write(tmp_path, lines, blank_after=(1, 2)), monkeypatch,
            MissingField,
            "row 7 has fewer fields than the header: no value for column 'x1'",
            7)

    @pytest.mark.parametrize("records, want", [
        ("10:2 10:1 10:3 2:1 2:3 2:2 1:3 1:1 1:2", (1, 2, 10)),
        ("b:2 b:1 b:3 10:1 10:3 10:2 a:3 a:1 a:2", (10, "a", "b")),
        ("3:2 3:1 3:3 01:1 01:2 5:1 1:3 5:2 5:3", (1, 3, 5)),
    ])
    def test_labels_first_seen_in_a_later_chunk_sort_as_one_column(
            self, tmp_path, monkeypatch, records, want):
        # unit:time per record; the labels that sort first are seen last,
        # and "01" and "1" (records 4 and 7) are one unit
        keys = [rec.split(":") for rec in records.split()]
        path = self.write(tmp_path, [f"{unit},{time},{r},{r * r - 1}"
                                     for r, (unit, time) in enumerate(keys)])
        Y = np.empty((3, 3))  # record r's y is r
        for r, (unit, time) in enumerate(keys):
            Y[want.index(int(unit) if unit.isdigit() else unit),
              int(time) - 1] = r
        by_records, by_loadtxt = self.load(path, monkeypatch), load_csv(path)
        assert by_records.unit_labels == by_loadtxt.unit_labels == want
        assert by_records.time_labels == by_loadtxt.time_labels == (1, 2, 3)
        assert np.array_equal(by_records.Y, Y)
        for name in ("Y", "X", "G", "Z", "H"):
            assert np.array_equal(getattr(by_records, name),
                                  getattr(by_loadtxt, name))

    def test_simulated_panel_reads_the_same_in_any_chunking(
            self, tmp_path, monkeypatch):
        ds = random_panel(21, n=7, T=5, K_x=2, K_g=1, K_z=1, K_h=2)
        path = tmp_path / "sim.csv"
        write_csv(ds, path)
        back = self.load(path, monkeypatch)
        for name in ("Y", "X", "G", "Z", "H"):
            assert np.array_equal(getattr(back, name), getattr(ds, name))
        assert back.unit_labels == ds.unit_labels


HEAD = "unit,time,y,x1\n"
# (file text, schema, whether the record reader reads the file) per case
PARSER_CASES = {
    "blank-lines": (HEAD + "\n1,1,1.0,2.0\n\n\n1,2,1.5,2.5\n2,1,2.0,3.0\n"
                    "2,2,3.0,4.5\n\n", None, False),
    "whitespace-only-line": (HEAD + "1,1,1.0,2.0\n \t\n1,2,1.5,2.5\n", None,
                             True),
    "crlf": (HEAD.replace("\n", "\r\n") + "1,1,1.0,2.0\r\n1,2,1.5,2.5\r\n"
             "2,1,2.0,3.0\r\n2,2,3.0,4.5\r\n", None, False),
    "cr": (HEAD.replace("\n", "\r") + "1,1,1.0,2.0\r1,2,1.5,2.5\r\r"
           "2,1,2.0,3.0\r2,2,3.0,4.5\r", None, False),
    "quoted-comma-quote-and-line-break": (
        HEAD + '"a,b",1,1.0,2.0\n"a,b",2,1.5,2.5\n"c""d",1,2.0,3.0\n'
        '"c""d",2,3.0,4.5\n"e\r\nf",1,0.5,1.0\n"e\r\nf",2,0.25,1.5\n', None,
        False),
    "line-break-then-short-row": (HEAD + '"a\nb",1,1.0,2.0\n"a\nb",2\n', None,
                                  True),
    "line-break-in-the-header": ('"no\nte",unit,time,y,x1\na,1,1,1.0,2.0\n'
                                 "b,1,2,1.5,2.5\nc,2,1,2.0,3.0\n"
                                 "d,2,2,3.0,4.5\n", None, False),
    "spaced-and-hash-labels": (
        HEAD + " a,1,1.0,2.0\n a,2,1.5,2.5\na ,1,2.0,3.0\na ,2,3.0,4.5\n"
        "#,1,0.5,1.0\n#,2,0.25,1.5\n", None, False),
    "long-label": (HEAD + "".join(f"{u * 20},{t},{t}.5,{t}.25\n" for u in "ab"
                               for t in (1, 2)), None, False),
    "underscore-and-arabic-digit": (
        HEAD + "1,1,1_0,2.0\n1,2,١.5,2.5\n2,1,2.0,３\n2,2,3.0,4.5\n", None,
        True),
    "empty-value": (HEAD + "1,1,1.0,2.0\n1,2,,2.5\n", None, True),
    "padded-value": (HEAD + "1,1, 1.5\t,2.0\n1,2,1.5,2.5 \n2,1,2.0,3.0\n"
                     "2,2,3.0,4.5\n", None, False),
    "separator-around-a-value": (HEAD + "1,1,1.0,2.0\n1,2,1.5\x1c,2.5\n", None,
                                 True),
    "separator-in-a-label": (HEAD + "a\x1fb,1,1.0,2.0\na\x1fb,2,1.5,2.5\n"
                             "c,1,2.0,3.0\nc,2,3.0,4.5\n", None, True),
    "nan-value": (HEAD + "1,1,1.0,2.0\n1,2,1.5,nan\n", None, True),
    "single-data-row": (HEAD + "1,1,1.0,2.0\n", None, False),
    "header-only": (HEAD, None, True),
    "text-column-without-role": (
        "note,unit,time,y,x1\nx,1,1,1.0,2.0\n\"y,z\",1,2,1.5,2.5\n"
        "1e999,2,1,2.0,3.0\n,2,2,3.0,4.5\n", None, False),
    "repeated-non-role-name": (
        "note,unit,time,y,x1,note\na,1,1,1.0,2.0,b\na,1,2,1.5,2.5,b\n"
        "a,2,1,2.0,3.0,b\na,2,2,3.0,4.5,b\n", None, False),
    "short-row": (HEAD + "1,1,1.0,2.0\n1,2,1.5\n", None, True),
    "long-row": (HEAD + "1,1,1.0,2.0\n1,2,1.5,2.5,9\n", None, True),
    "unbalanced": (HEAD + "1,1,1.0,2.0\n1,2,1.5,2.5\n2,1,2.0,3.0\n", None,
                   False),
    "unit-column-is-also-x": (HEAD + "1,1,1.0,2.0\n1,2,1.5,2.5\n2,1,2.0,3.0\n"
                              "2,2,3.0,4.5\n", {"x": ["unit"]}, True),
}


@pytest.mark.parametrize("text, schema, by_records", PARSER_CASES.values(),
                         ids=PARSER_CASES)
def test_loadtxt_pass_reads_as_the_chunked_reader(tmp_path, text, schema,
                                                  by_records):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    got, took_records = load_outcome(path, schema)
    assert got == load_outcome(path, schema, fallback=True)[0]
    assert took_records == by_records


class TestLoadtxtPass:
    @pytest.mark.parametrize("fallback", [False, True])
    def test_a_utf8_bom_is_dropped(self, tmp_path, fallback):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(random_panel(6, n=4, T=3), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, by_records = load_outcome(marked, fallback=fallback)
        assert by_records == fallback
        assert got == load_outcome(plain)[0]

    @staticmethod
    def load_through_a_pipe(tmp_path, payload):
        """load_outcome of a FIFO that a thread fills with `payload`."""
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(payload,))
        writer.start()
        try:
            return load_outcome(fifo)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_a_pipe_is_read_by_the_chunked_reader(self, tmp_path):
        plain = tmp_path / "plain.csv"
        write_csv(random_panel(7, n=4, T=3), plain)
        got, by_records = self.load_through_a_pipe(tmp_path,
                                                   plain.read_bytes())
        assert by_records
        assert got == load_outcome(plain)[0]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_a_pipe_with_a_short_record_fails_as_the_file_does(self,
                                                               tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"unit,time,y,x1\n1,1,1.0,2.0\n\n1,2,1.5\n"
                          b"2,1,2.0,3.0\n2,2,3.0,4.5\n")
        got, by_records = self.load_through_a_pipe(tmp_path,
                                                   plain.read_bytes())
        assert by_records
        assert got == load_outcome(plain)[0] == (
            MissingField, "row 4 has fewer fields than the header: no value "
            "for column 'x1'", 4)


class TestLabelOrder:
    SCRIPT = ("import sys; from interpanel.data import load_csv; "
              "print(load_csv(sys.argv[1]).unit_labels)")

    def test_order_does_not_follow_the_hash_seed(self, tmp_path):
        # a NaN key ("nan") would leave the order to set iteration order;
        # a non-finite numeric key sorts the whole column as text
        path = tmp_path / "panel.csv"
        write_rows(path, ["unit", "time", "y", "x1"],
                   [[u, t, 0.5 * t, t] for u in ("2", "nan", "1", "inf")
                    for t in (1, 2)])
        src = str(Path(__file__).resolve().parents[1] / "src")
        orders = set()
        for hash_seed in ("0", "1", "2", "3", "5", "6"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", self.SCRIPT, str(path)],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            orders.add(run.stdout.strip())
        assert orders == {"(1, 2, 'inf', 'nan')"}

    def test_non_finite_number_sorts_the_column_as_text(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_rows(path, ["unit", "time", "y", "x1"],
                   [[u, t, 0.5 * t, t] for u in ("10", "2", "inf")
                    for t in (1, 2)])
        assert load_csv(path).unit_labels == (10, 2, "inf")
        # an integer too large for a float has no finite numeric key either
        big = "1" * 400
        write_rows(path, ["unit", "time", "y", "x1"],
                   [[u, t, 0.5 * t, t] for u in ("2", big) for t in (1, 2)])
        assert load_csv(path).unit_labels == (int(big), 2)


def makers(A):
    """Residual makers of a stack of designs, from `factor_units`."""
    return residual_makers(factor_units(A)[0])


class TestBuildRegressors:
    def test_no_g_means_psi_is_z(self):
        ds = random_panel(0, K_g=0, K_z=1)
        dr = build_regressors(ds)
        assert_allclose(dr.cite.Psi, ds.Z)

    def test_scalar_case_column_layout(self):
        ds = random_panel(1, K_x=1, K_g=1, K_z=1, K_h=1)
        dr = build_regressors(ds)
        assert_allclose(dr.cite.Psi[:, :, 0], ds.X[:, :, 0] * ds.G[:, :, 0])
        assert_allclose(dr.cite.Psi[:, :, 1], ds.Z[:, :, 0])
        # K_x = 1: M_{i,-1} = I, so M1PsiTilde is PsiTilde
        assert_allclose(dr.ite.M1PsiTilde[:, :, 0],
                        ds.X[:, :, 0] * ds.H[:, 0][:, None])

    def test_kron_block_double_loop_oracle(self):
        ds = random_panel(2, K_x=3, K_g=2, K_z=0)
        dr = build_regressors(ds)
        assert_allclose(dr.cite.Psi, kron_block_loops(ds.X, ds.G), atol=1e-14)

    def test_column_counts(self):
        ds = random_panel(3, K_x=2, K_g=2, K_z=1, K_h=3)
        dr = build_regressors(ds)
        assert dr.cite.Psi.shape[2] == 2 * 2 + 1
        assert dr.ite.M1PsiTilde.shape[2] == 3 + 2 * 2 + 1

    def test_annihilation_invariants(self):
        # each stored projection is orthogonal to the X block it removes
        ds = random_panel(4, n=20, K_x=2)
        dr = build_regressors(ds)
        X, X1 = ds.X, ds.X[:, :, 1:]
        for A, B in ((X, dr.cite.MPsi), (X, dr.cite.MY[:, :, None]),
                     (X1, dr.ite.M1PsiTilde), (X1, dr.ite.M1Y[:, :, None])):
            assert np.max(np.abs(np.einsum("ntk,ntp->nkp", A, B))) < 1e-9

    @pytest.fixture
    def made(self, monkeypatch):
        """Shapes of the Q factors build_regressors forms an M from."""
        shapes = []

        def counting(Q):
            shapes.append(Q.shape)
            return residual_makers(Q)

        monkeypatch.setattr("interpanel.data.residual_makers", counting)
        return shapes

    def test_empty_design_is_not_factored(self, made, factored):
        # K_x = 1: X_{i,-1} has no columns, so M_i = I and only X_i is factored
        ds = random_panel(7, K_x=1)
        Q, R = factor_units(ds.X[:, :, 1:])
        assert Q.shape == ds.X[:, :, 1:].shape and R.shape == (ds.dims.n, 0, 0)
        dr = build_regressors(ds)
        assert made == [ds.X.shape]
        assert factored["qr"] == [ds.X.shape]
        PsiTilde = np.concatenate([ds.X * ds.H[:, None, :], dr.cite.Psi], axis=2)
        assert np.array_equal(dr.ite.M1PsiTilde, PsiTilde)
        assert dr.ite.M1Y is ds.Y

    @pytest.mark.parametrize("K_x", [1, 2])
    def test_empty_psi_forms_no_residual_maker_of_x(self, made, K_x):
        # K_g = K_z = 0: Psi has no columns, so X_i is only factored (for
        # the slopes) and no M_i is formed; the fits match, bit for bit,
        # the dense path that applies M_i = I - Q_i Q_i' to every block
        ds = random_panel(8, n=15, K_x=K_x, K_g=0, K_z=0, K_h=2)
        dr = build_regressors(ds)
        assert made == ([] if K_x == 1 else [ds.X[:, :, 1:].shape])
        Q, R = factor_units(ds.X)
        M = residual_makers(Q)
        assert np.array_equal(dr.cite.MY, ds.Y - np.einsum(
            "ntk,nk->nt", Q, np.einsum("ntk,nt->nk", Q, ds.Y)))
        assert dr.cite.MPsi.shape == (15, 6, 0)
        M1 = makers(ds.X[:, :, 1:])
        Psi = np.zeros((15, 6, 0))
        PsiTilde = ds.X[:, :, 0:1] * ds.H[:, None, :]
        dense_cite = CiteBlocks(
            Y=ds.Y, X=ds.X, H=ds.H, Psi=Psi,
            MPsi=np.einsum("nij,njp->nip", M, Psi),
            MY=np.einsum("nij,nj->ni", M, ds.Y), q_x=Q, r_x=R)
        dense_ite = IteBlocks(M1PsiTilde=np.einsum("nij,njp->nip", M1, PsiTilde),
                              M1Y=np.einsum("nij,nj->ni", M1, ds.Y))
        got, want = fit_cite(dr.cite), fit_cite(dense_cite)
        for name in ("theta_hat", "delta_hat", "kappa_hat"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(ite(dr.ite), ite(dense_ite))

    def test_split_blocks_match_the_dense_projections(self):
        # every block equals the residual-maker-then-einsum expressions
        ds = random_panel(9, n=14, K_x=2, K_g=1, K_z=1, K_h=2)
        dr = build_regressors(ds)
        Q, R = factor_units(ds.X)
        M, M1 = residual_makers(Q), makers(ds.X[:, :, 1:])
        Psi = np.concatenate([ds.X * ds.G, ds.Z], axis=2)
        PsiTilde = np.concatenate([ds.X[:, :, 0:1] * ds.H[:, None, :], Psi],
                                  axis=2)
        want = {
            "Y": ds.Y, "X": ds.X, "H": ds.H, "Psi": Psi,
            "MPsi": np.einsum("nij,njp->nip", M, Psi),
            "MY": np.einsum("nij,nj->ni", M, ds.Y), "q_x": Q, "r_x": R,
            "M1PsiTilde": np.einsum("nij,njp->nip", M1, PsiTilde),
            "M1Y": np.einsum("nij,nj->ni", M1, ds.Y),
        }
        got = {f.name: getattr(part, f.name)
               for part in (dr.cite, dr.ite) for f in fields(part)}
        assert set(got) == set(want)
        for name, value in want.items():
            assert np.array_equal(got[name], value), name

    @pytest.fixture
    def chunks_of_3(self, monkeypatch):
        """_project forms the residual makers of 3 units at a time: at
        T = 6, or at the T the returned function is called with."""
        def at(T):
            monkeypatch.setattr(data, "_PROJECT_BYTES", 3 * 8 * T * T)
        at(6)
        return at

    @staticmethod
    def dense_blocks(ds):
        """Every block by whole-panel residual makers and einsum."""
        Q, R = factor_units(ds.X)
        M = residual_makers(Q)
        Psi = np.concatenate([interaction_block(ds.X, ds.G), ds.Z], axis=2)
        PsiTilde = np.concatenate([ds.X[:, :, 0:1] * ds.H[:, None, :], Psi],
                                  axis=2)
        want = {"Y": ds.Y, "X": ds.X, "H": ds.H, "Psi": Psi,
                "MPsi": np.einsum("nij,njp->nip", M, Psi),
                "MY": np.einsum("nij,nj->ni", M, ds.Y), "q_x": Q, "r_x": R,
                "M1PsiTilde": PsiTilde, "M1Y": ds.Y}
        if ds.dims.K_x > 1:
            M1 = makers(ds.X[:, :, 1:])
            want["M1PsiTilde"] = np.einsum("nij,njp->nip", M1, PsiTilde)
            want["M1Y"] = np.einsum("nij,nj->ni", M1, ds.Y)
        return want

    @pytest.mark.parametrize("K_x", [1, 2, 3])
    @pytest.mark.parametrize("n, T", [(7, 6), (11, 6), (7, 50)],
                             ids=["7", "11", "7-T50"])
    def test_chunked_projection_is_bit_exact(self, chunks_of_3, made, n, T,
                                             K_x):
        # n spans several chunks of 3 and is no multiple of 3; every block
        # equals the whole-panel expressions bit for bit, and each design's
        # Q is projected out chunk by chunk
        chunks_of_3(T)
        ds = random_panel(30 + K_x, n=n, T=T, K_x=K_x, K_g=1, K_z=1, K_h=2)
        dr = build_regressors(ds)
        got = {f.name: getattr(part, f.name)
               for part in (dr.cite, dr.ite) for f in fields(part)}
        want = self.dense_blocks(ds)
        assert set(got) == set(want)
        for name, value in want.items():
            assert np.array_equal(got[name], value), name
        sizes = [3] * (n // 3) + [n % 3]
        designs = [K_x] + ([K_x - 1] if K_x > 1 else [])
        assert made == [(m, T, k) for k in designs for m in sizes]

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    @pytest.mark.parametrize("T, k", [(T, k) for T in (2, 3, 6, 17, 50)
                                      for k in (1, 2, 3) if k < T])
    def test_projection_is_the_whole_panel_einsum(self, chunks_of_3, T, k, p):
        # _project, chunk by chunk and by its own einsum at p >= 2, gives
        # the whole-panel reference bit for bit: signed zeros everywhere,
        # infs and NaNs of either sign in the first chunk (a NaN fills its
        # unit's column, so the later units stay finite); Y is strided, as
        # load_csv gives it
        chunks_of_3(T)
        rng = np.random.default_rng(100 * T + 10 * k + p)
        n = 7
        Q = factor_units(rng.normal(size=(n, T, k)))[0]
        grid = rng.normal(size=(n, T, p + 1)) * \
            10.0 ** rng.uniform(-100, 100, (n, T, p + 1))
        grid[rng.random(grid.shape) < 0.2] = -0.0
        grid[rng.random(grid.shape) < 0.1] = 0.0
        for value in (np.inf, -np.inf, np.nan, -np.nan):
            grid[:3][rng.random((3, T, p + 1)) < 0.03] = value
        block, Y = np.ascontiguousarray(grid[:, :, 1:]), grid[:, :, 0]
        M = residual_makers(Q)
        got = data._project(Q, block, Y)
        want = (np.einsum("nij,njp->nip", M, block),
                np.einsum("nij,nj->ni", M, Y))
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
            assert np.array_equal(np.signbit(g), np.signbit(w))

    @pytest.mark.parametrize("build", [build_regressors, build_ite_blocks])
    @pytest.mark.parametrize("bad", [3, 8])
    def test_rank_deficient_unit_in_a_later_chunk_is_named(
            self, chunks_of_3, build, bad):
        # the full build fails the unit's X_i, the one-step blocks alone
        # its X_{i,-1}; both name it by its label
        ds = random_panel(5, n=10, K_x=3)
        X = ds.X.copy()
        X[bad, :, 2] = -2.0 * X[bad, :, 1]  # X_i and X_{i,-1} both singular
        labels = [f"u{i}" for i in range(10)]
        ds = make_dataset(ds.Y, X, ds.G, ds.Z, ds.H, unit_labels=labels)
        with pytest.raises(RankDeficient) as err:
            build(ds)
        assert err.value.unit == f"u{bad}"
        assert str(err.value) == f"X_i'X_i is numerically singular (unit u{bad})"
        assert err.value.condition > 1e20

    def test_rank_deficient_unit_is_named(self):
        ds = random_panel(5, n=6)
        X = ds.X.copy()
        X[4, :, 1] = 3.0 * X[4, :, 0]
        bad = make_dataset(ds.Y, X, ds.G, ds.Z, ds.H,
                           unit_labels=list("abcdef"))
        with pytest.raises(RankDeficient) as err:
            build_regressors(bad)
        assert err.value.unit == "e"
        assert "unit e" in str(err.value)

    def test_first_failing_unit_is_named_with_its_condition(self):
        # units 1 and 3 are singular: the first is named, with the squared
        # singular value ratio of its own X_i
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 4, 2))
        X[1, :, 1] = 2.0 * X[1, :, 0]
        X[3, :, 1] = X[3, :, 0] + 1e-13 * rng.normal(size=4)
        ds = make_dataset(rng.normal(size=(5, 4)), X, unit_labels=list("abcde"))
        with pytest.raises(RankDeficient) as err:
            build_regressors(ds)
        sv = np.linalg.svd(np.linalg.qr(X[1])[1], compute_uv=False)
        assert err.value.unit == "b"
        assert err.value.condition == (sv[0] / sv[-1]) ** 2 > 1e20
        X[1] = rng.normal(size=(4, 2))
        with pytest.raises(RankDeficient) as err:
            build_regressors(make_dataset(ds.Y, X, unit_labels=list("abcde")))
        assert err.value.unit == "d"

    @pytest.mark.parametrize("column", [0.0, 1e-160])
    def test_zero_or_vanishing_column_has_infinite_condition(self, column):
        # a zero column has singular value 0; a ratio about 1e160 squares
        # past overflow, with no RuntimeWarning
        rng = np.random.default_rng(9)
        X = rng.normal(size=(6, 5, 2))
        X[2, :, 0] = column * X[2, :, 1]
        with pytest.raises(RankDeficient) as err:
            build_regressors(make_dataset(rng.normal(size=(6, 5)), X))
        assert err.value.unit == 3
        assert err.value.condition == np.inf

    @pytest.mark.parametrize("seed", range(2))
    def test_one_column_units_fail_by_the_svd_rule(self, seed):
        # K_x = 1 with zero, subnormal and extreme-scale units: the first
        # unit the SVD rule fails is the one named
        rng = np.random.default_rng(400 + seed)
        n = 60
        X = rng.normal(size=(n, 6, 1)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1, 1))
        X[rng.random(n) < 0.2] = 0.0
        X[rng.random(n) < 0.1] = 1e-310
        sv = np.linalg.svd(np.linalg.qr(X)[1], compute_uv=False)
        want = (sv[:, 0] == 0.0) | (sv[:, -1] < RANK_TOL * sv[:, 0])
        with pytest.raises(RankDeficient) as err:
            build_regressors(make_dataset(np.zeros((n, 6)), X))
        assert err.value.unit == int(np.argmax(want)) + 1

    @pytest.mark.parametrize("K_x", [1, 2, 3])
    def test_each_design_is_factored_once(self, factored, K_x):
        ds = random_panel(20 + K_x, n=9, K_x=K_x, K_g=1, K_z=1, K_h=2)
        build_regressors(ds)
        designs = [(9, 6, K_x)] + ([(9, 6, K_x - 1)] if K_x > 1 else [])
        assert factored == {"qr": designs, "det": []}

    def test_mc_ite_gap_shape_factors_x_once(self, factored):
        # the Monte Carlo's shape, K_x = 1 with no G or Z: one QR of X, no
        # determinant
        ds = random_panel(23, n=50, K_x=1, K_g=0, K_z=0, K_h=1)
        build_regressors(ds)
        assert factored == {"qr": [(50, 6, 1)], "det": []}

    def test_ite_blocks_alone_factor_only_x_minus1(self, factored):
        # the one-step blocks alone (the plim oracle's) factor X_{i,-1}
        # only, and equal the full build's bit for bit
        ds = random_panel(24, n=9, K_x=3)
        ite_alone = build_ite_blocks(ds)
        assert factored["qr"] == [(9, 6, 2)]
        full = build_regressors(ds).ite
        for f in fields(full):
            assert np.array_equal(getattr(ite_alone, f.name),
                                  getattr(full, f.name)), f.name


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes that Python allocated during the call."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_path_forms_no_whole_panel_temporary(tmp_path,
                                                      monkeypatch):
    # at n = 1000, T = 50 a whole-file list of csv records or an (n, T, T)
    # residual maker would each put the peak near 47 MB; the loadtxt pass
    # (structured records, no lists of fields) stays near 12, the record
    # reader (one float array, each distinct label text held once) near 8,
    # the chunked build near 11
    ds = random_panel(40, n=1000, T=50, K_x=2, K_g=1, K_z=1, K_h=2)
    path = tmp_path / "panel.csv"
    write_csv(ds, path)
    loaded, load_peak = traced_peak(load_csv, path)
    _, build_peak = traced_peak(build_regressors, loaded)
    monkeypatch.setattr(data, "_loadtxt_columns", lambda *args: None)
    _, record_peak = traced_peak(load_csv, path)
    assert load_peak < 20e6
    assert build_peak < 25e6
    assert record_peak < 10e6


def svd_rank_rule(R):
    """`unit_rank_deficient` as it was when it ran np.linalg.svd on an
    empty R too, and discarded the result."""
    n, k = R.shape[:2]
    sv = np.abs(R[:, :, 0]) if k == 1 else np.linalg.svd(R, compute_uv=False)
    return (rank_deficient(sv) if k else np.zeros(n, dtype=bool)), sv


class TestValidate:
    @pytest.mark.parametrize("empty_psi", [True, False])
    def test_one_column_panel_runs_no_svd_and_is_unchanged(self, empty_psi,
                                                           monkeypatch):
        # at K_x = 1, X_{i,-1} has no columns; skipping its SVD leaves the
        # report and the blocks as the SVD rule gave them
        if empty_psi:
            cfg = packaged_config("ite_gap")
            ds = simulate(replace(cfg, dims=replace(cfg.dims, n=40))).dataset
        else:
            ds = random_panel(11, K_x=1)
        with monkeypatch.context() as m:
            m.setattr(data, "unit_rank_deficient", svd_rank_rule)
            want = validate(ds).to_dict(), build_regressors(ds)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        got = validate(ds).to_dict(), build_regressors(ds)
        assert got[0] == want[0] and got[0]["passed"]
        for part in ("cite", "ite"):
            for f in fields(getattr(want[1], part)):
                assert np.array_equal(getattr(getattr(got[1], part), f.name),
                                      getattr(getattr(want[1], part), f.name))

    def test_constant_x_unit_flagged(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 2, 2))
        X[:, :, 1] = 1.0
        X[3, :, 0] = 2.0  # both columns constant for unit 3
        ds = make_dataset(rng.normal(size=(5, 2)), X)
        report = validate(ds)
        assert not report.checks["unit_x_variation"]
        assert 4 in report.failing_units_x

    def test_duplicated_h_column_flagged(self):
        ds = random_panel(9, K_h=2)
        H = ds.H.copy()
        H[:, 1] = H[:, 0]
        dup = make_dataset(ds.Y, ds.X, ds.G, ds.Z, H)
        report = validate(dup)
        assert not report.checks["h_rank"]
        assert not report.passed

    @pytest.mark.parametrize("K_h", [0, 1])
    def test_every_pooled_check_fails_without_a_pooled_sample(self, K_h):
        # two of three units are collinear: no pooled stage is formed, so
        # each pooled check fails at margin 0.0, an empty H included
        ds = random_panel(15, n=3, K_g=0, K_z=0, K_h=K_h)
        X = ds.X.copy()
        X[1:, :, 1] = X[1:, :, 0]
        report = validate(make_dataset(ds.Y, X, ds.G, ds.Z, ds.H))
        assert report.regressors is None
        assert report.pooled_margins == dict.fromkeys(
            ("psi_m_psi", "psi_tilde_m1_psi_tilde", "hth"), 0.0)
        assert not any(report.checks[name] for name in
                       ("pooled_psi_rank", "pooled_psi_tilde_rank", "h_rank"))

    @pytest.mark.parametrize("dims, margins", [
        # no Psi and no H: every pooled design is empty and fits
        ({"K_g": 0, "K_z": 0, "K_h": 0}, (1.0, 1.0, 1.0)),
        # 2 rows against the 3 columns of PsiTilde and of H: such a design
        # never fits, and its Gram's smallest eigenvalue is 0
        ({"n": 2, "T": 1, "K_x": 1, "K_g": 0, "K_z": 0, "K_h": 3},
         (1.0, 0.0, 0.0)),
    ])
    def test_degenerate_pooled_designs(self, dims, margins):
        report = validate(random_panel(17, **dims), h_min=-1.0)
        assert report.pooled_margins == dict(zip(
            ("psi_m_psi", "psi_tilde_m1_psi_tilde", "hth"), margins))
        checks = ("pooled_psi_rank", "pooled_psi_tilde_rank", "h_rank")
        assert [report.checks[c] for c in checks] == [m == 1.0 for m in margins]
        if margins[1] == 0.0:
            # the check read the blocks' fit: the solver's error on an
            # underdetermined system, at condition inf
            with pytest.raises(RankDeficient, match="underdetermined") as exc:
                ite(report.regressors.ite)
            assert exc.value.condition == np.inf

    def test_too_few_rows_for_psi_is_a_failing_check(self):
        # nT = 2 rows against the 5 columns of Psi: the panel is made, its
        # blocks are built, and the pooled check fails at margin 0.0
        rng = np.random.default_rng(23)
        ds = make_dataset(rng.normal(size=(2, 1)), rng.normal(size=(2, 1, 1)),
                          Z=rng.normal(size=(2, 1, 5)))
        assert ds.dims.T * ds.dims.n <= ds.dims.n_psi
        report = validate(ds)
        assert report.panel is ds and report.regressors is not None
        assert report.pooled_margins["psi_m_psi"] == 0.0
        assert not report.checks["pooled_psi_rank"] and not report.passed
        with pytest.raises(RankDeficient, match="underdetermined"):
            fit_cite(report.regressors.cite)

    @pytest.mark.parametrize("part, stage, dims", [
        # 6 rows of Psi, of rank 3 after M_i: rank deficient
        ("cite", "CITE pooled stage",
         {"n": 3, "T": 2, "K_g": 0, "K_z": 6, "K_h": 0}),
        # 2 rows against the 3 columns of PsiTilde: underdetermined
        ("ite", "ITE one-step fit",
         {"n": 2, "T": 1, "K_g": 0, "K_z": 1, "K_h": 2}),
    ])
    def test_a_failing_pooled_fit_names_its_stage(self, part, stage, dims):
        blocks = getattr(build_regressors(random_panel(24, K_x=1, **dims)),
                         part)
        design = blocks.MPsi if part == "cite" else blocks.M1PsiTilde
        rows = dims["n"] * dims["T"]
        with pytest.raises(RankDeficient) as want:
            solve_ols(design.reshape(rows, -1), np.zeros(rows))
        with pytest.raises(RankDeficient) as exc:
            blocks.pooled
        assert str(exc.value) == f"{stage}: {want.value}"
        assert exc.value.condition == want.value.condition

    def test_each_pooled_check_is_its_blocks_fit(self):
        # validate solves each stacked design once, on its blocks; the
        # estimators read that fit, not a copy
        report = validate(random_panel(21, n=9))
        c, t = report.regressors.cite, report.regressors.ite
        assert report.pooled_margins["psi_m_psi"] == 1.0 / c.pooled.gram_condition
        assert report.pooled_margins["psi_tilde_m1_psi_tilde"] == \
            1.0 / t.pooled.gram_condition
        assert fit_cite(c).theta_hat is c.pooled.coefficients
        assert ite(t) is t.pooled.coefficients

    def test_a_failing_pooled_fit_raises_on_every_read(self):
        # z1 = x1 * g1 makes M_i Psi_i collinear: no fit is kept, and each
        # read raises the same RankDeficient again
        ds = random_panel(22, n=9, K_x=2, K_g=1, K_z=1)
        Z = ds.X[:, :, :1] * ds.G
        report = validate(make_dataset(ds.Y, ds.X, ds.G, Z, ds.H))
        assert not report.checks["pooled_psi_rank"]
        c = report.regressors.cite
        messages = []
        for _ in range(2):
            with pytest.raises(RankDeficient) as exc:
                cite_theta(c)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "pooled" not in vars(c)

    def test_baseline_simulation_passes(self, baseline_config):
        from dataclasses import replace
        cfg = replace(baseline_config,
                      dims=replace(baseline_config.dims, n=100), seed=77)
        report = validate(simulate(cfg).dataset)
        assert report.passed
        assert all(m > 0 for m in report.pooled_margins.values())
        assert report.to_dict()["passed"] is True
        # each margin is 1 / gram_condition of the fit on the same design,
        # whatever the response: kappa's reads the fitted slopes
        c, t = report.regressors.cite, report.regressors.ite
        delta1 = fit_cite(c).delta_hat[:, 0]
        fits = {"psi_m_psi": solve_ols(c.MPsi.reshape(c.MY.size, -1),
                                       c.MY.reshape(-1)),
                "psi_tilde_m1_psi_tilde": solve_ols(
                    t.M1PsiTilde.reshape(t.M1Y.size, -1), t.M1Y.reshape(-1)),
                "hth": solve_ols(report.panel.H, delta1)}
        for name, fit in fits.items():
            assert report.pooled_margins[name] == 1.0 / fit.gram_condition

    def test_drop_failing_units(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 3, 2))
        X[:, :, 1] = 1.0
        X[2, :, 0] = 5.0
        ds = make_dataset(rng.normal(size=(6, 3)), X)
        report = validate(ds)
        kept, dropped = drop_failing_units(ds, report)
        assert dropped == (3,)
        assert kept.dims.n == 5
        assert kept is report.panel
        assert kept.unit_labels == (1, 2, 4, 5, 6)

    def test_drop_failing_units_by_position(self):
        # units 0 and 1 share the label 1 and only unit 0 is collinear: it
        # is dropped alone, and its label is listed once
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 3, 2))
        X[0, :, 1] = 2.0 * X[0, :, 0]
        ds = make_dataset(rng.normal(size=(6, 3)), X,
                          unit_labels=[1, 1, 2, 3, 4, 5])
        report = validate(ds)
        kept, dropped = drop_failing_units(ds, report)
        assert report.failing_units_x == (1,)
        assert dropped == (1,)
        assert kept is report.panel
        assert kept.unit_labels == (1, 2, 3, 4, 5)
        assert np.array_equal(kept.Y, ds.Y[1:])

    def test_drop_failing_units_errors_count_positions(self):
        # three of four units, two of them sharing a label, are collinear
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4, 3, 2))
        X[:3, :, 1] = X[:3, :, 0]
        ds = make_dataset(rng.normal(size=(4, 3)), X,
                          unit_labels=[7, 7, 8, 9])
        with pytest.raises(PanelDataError, match="^fewer than 2 units remain "
                           "after dropping 3 failing units$"):
            drop_failing_units(ds, validate(ds))
        # two units of one period pass, against the two columns of Psi:
        # their panel is returned, and the pooled check is the solver's
        X = rng.normal(size=(4, 1, 1))
        X[1:3] = 0.0
        ds = make_dataset(rng.normal(size=(4, 1)), X,
                          Z=rng.normal(size=(4, 1, 2)))
        report = validate(ds)
        assert list(report.kept) == [0, 3]
        assert drop_failing_units(ds, report) == (report.panel, (2, 3))
        assert report.panel.unit_labels == (1, 4)
        assert report.pooled_margins["psi_m_psi"] == 0.0
        assert not report.checks["pooled_psi_rank"]

    def test_regressors_built_on_the_input_when_nothing_fails(self):
        ds = random_panel(13, n=10)
        report = validate(ds)
        assert report.panel is ds
        assert drop_failing_units(ds, report) == (ds, ())
        rebuilt = build_regressors(ds)
        for part in ("cite", "ite"):
            got, want = getattr(report.regressors, part), getattr(rebuilt, part)
            for f in fields(want):
                assert np.array_equal(getattr(got, f.name),
                                      getattr(want, f.name)), f.name
        assert not {"panel", "regressors"} & set(report.to_dict())

    def test_units_the_solver_cannot_factor_fail_at_any_h_min(self):
        # h_min < 0 passes every unit through the trim, but unit 5 is
        # exactly collinear: the rank rule fails it, and the blocks and
        # margins are those of the other five units
        ds = random_panel(14, n=6)
        X = ds.X.copy()
        X[4, :, 1] = 3.0 * X[4, :, 0]
        bad = make_dataset(ds.Y, X, ds.G, ds.Z, ds.H)
        report = validate(bad, h_min=-1.0)
        assert report.failing_units_x == (5,)
        assert report.failing_units_x_minus1 == ()
        assert report.panel.unit_labels == (1, 2, 3, 4, 6)
        rest = validate(subset_units(bad, [0, 1, 2, 3, 5]), h_min=-1.0)
        assert report.pooled_margins == rest.pooled_margins
        assert all(m > 0 for m in report.pooled_margins.values())
        want = build_regressors(report.panel)
        for part in ("cite", "ite"):
            got = getattr(report.regressors, part)
            for f in fields(got):
                assert np.array_equal(getattr(got, f.name),
                                      getattr(getattr(want, part), f.name))

    @pytest.mark.parametrize("factor", [1e3, 1e-3])
    def test_rescaling_one_unit_moves_no_verdict(self, baseline_config, factor):
        from dataclasses import replace
        cfg = replace(baseline_config,
                      dims=replace(baseline_config.dims, n=300, T=6), seed=3)
        ds = simulate(cfg).dataset
        X = ds.X.copy()
        X[7] *= factor
        scaled = make_dataset(ds.Y, X, ds.G, ds.Z, ds.H)
        before, after = validate(ds), validate(scaled)
        assert after.failing_units_x == before.failing_units_x == ()
        assert after.failing_units_x_minus1 == before.failing_units_x_minus1
        assert_allclose(after.unit_margin_x, before.unit_margin_x, rtol=1e-9)

    def test_a_unit_scaled_past_the_float_range_keeps_its_verdict(self):
        # X_i * 1e80 (K_x = 2) puts det(X_i'X_i) past the float range: it
        # reads inf, with no warning, and the unit's margins and verdicts
        # are those of the unscaled unit
        ds = random_panel(3, K_x=2)
        X = ds.X.copy()
        X[4] *= 1e80
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = validate(ds)
            after = validate(make_dataset(ds.Y, X, ds.G, ds.Z, ds.H))
        assert after.unit_gram_det_x[4] == np.inf
        assert after.failing_units_x == before.failing_units_x == ()
        assert after.failing_units_x_minus1 == \
            before.failing_units_x_minus1 == ()
        for name in ("unit_margin_x", "unit_margin_x_minus1"):
            assert_allclose(getattr(after, name)[4], getattr(before, name)[4],
                            rtol=1e-14)
        # the pooled designs span 80 decades: both fits raise, so both
        # pooled checks fail, with margins (sigma_min / sigma_max)^2 >= 0
        assert before.passed
        assert all(m >= 0.0 for m in after.pooled_margins.values())
        assert not after.checks["pooled_psi_rank"]
        assert not after.checks["pooled_psi_tilde_rank"]
        with pytest.raises(RankDeficient):
            cite_theta(after.regressors.cite)
        with pytest.raises(RankDeficient):
            ite(after.regressors.ite)

    def test_gram_det_of_a_ones_column_is_T(self):
        # K_x = 1: det(1'1) = T from R_i = [-sqrt(T)]
        report = validate(make_dataset(np.zeros((3, 5)), np.ones((3, 5, 1))))
        assert_allclose(report.unit_gram_det_x, 5.0, rtol=1e-15)

    def test_gram_det_of_an_empty_x_minus1_is_one(self):
        # K_x = 1 leaves X_{i,-1} with no columns: an empty product, 1.0
        report = validate(make_dataset(np.zeros((4, 5)), np.ones((4, 5, 1))))
        assert np.array_equal(report.unit_gram_det_x_minus1, np.ones(4))

    def test_gram_det_matches_cofactor_expansion(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 6, 2))
        G = np.einsum("ntk,ntl->nkl", X, X)
        report = validate(make_dataset(rng.normal(size=(5, 6)), X))
        assert_allclose(report.unit_gram_det_x,
                        G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0],
                        rtol=1e-12)
        assert_allclose(report.unit_gram_det_x_minus1, G[:, 1, 1], rtol=1e-12)

    def test_gram_det_of_a_subnormal_column_is_zero(self):
        # [2.2e-316 b, b]: the product of R's diagonal underflows to 0.0,
        # with no RuntimeWarning, and the unit fails
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 5, 2))
        X[1, :, 0] = 2.2e-316 * X[1, :, 1]
        report = validate(make_dataset(rng.normal(size=(4, 5)), X))
        assert report.unit_gram_det_x[1] == 0.0
        assert report.failing_units_x == (2,)

    def test_gram_det_of_collinear_units_is_never_negative(self):
        # exactly collinear units [a, c a]: an LU of the Gram matrix made
        # about a third of their determinants negative; prod(diag R)^2
        # cannot be, and it stays at rounding size
        rng = np.random.default_rng(1)
        a = rng.normal(size=(300, 6, 1))
        X = np.concatenate([a, rng.normal(size=(300, 1, 1)) * a], axis=2)
        report = validate(make_dataset(rng.normal(size=(300, 6)), X))
        assert report.unit_gram_det_x.min() >= 0.0
        assert report.unit_gram_det_x.max() < 1e-25
        assert len(report.failing_units_x) == 300

    def test_gram_det_of_a_unit_is_its_own(self):
        # each unit's determinants come from its own QR, whatever other
        # units share the panel
        ds = random_panel(7, n=10, K_x=3)
        full, part = validate(ds), validate(subset_units(ds, [8, 2, 5]))
        for name in ("unit_gram_det_x", "unit_gram_det_x_minus1"):
            assert np.array_equal(getattr(full, name)[[8, 2, 5]],
                                  getattr(part, name))


class TestHelpers:
    def test_subset_units(self):
        ds = random_panel(11, n=8)
        sub = subset_units(ds, [0, 3, 3])
        assert sub.dims.n == 3
        assert sub.unit_labels == (1, 4, 4)
        assert_allclose(sub.Y[1], ds.Y[3])

    def test_add_intercept_h(self):
        ds = random_panel(12, K_h=1)
        out = add_intercept_h(ds)
        assert out.dims.K_h == 2
        assert_allclose(out.H[:, 0], 1.0)
        assert out.columns["h"][0] == "h_const"
