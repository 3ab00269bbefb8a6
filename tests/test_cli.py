import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanova import cli, simulate
from spanova.asp import AspConfig
from spanova.cli import (
    METHODS,
    _column_from_json,
    _column_to_json,
    _config_from_args,
    _parse_numeric_table,
    build_parser,
    ingest,
    main,
    parse_model,
)
from spanova.kernels import PredictorDomain
from spanova.simulate import SELECTORS, gen_data
from spanova.util import InputError


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_ingest_minmax_and_discrete_inference(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a", "b", "y"],
                     [[0.0, 1, 1.0], [5.0, 2, 2.0], [10.0, 1, 3.0], [2.5, 2, 4.0]])
    table = ingest(path, "y")
    assert table.predictor_names == ("a", "b")
    a, b = table.dataset.domains
    assert a.kind == "continuous" and (a.lo, a.hi) == (0.0, 10.0)
    assert b.kind == "discrete" and b.levels == (1.0, 2.0)
    assert table.dataset.x[:, 0] == pytest.approx([0.0, 0.5, 1.0, 0.25])
    assert table.dataset.x[:, 1] == pytest.approx([1.0, 2.0, 1.0, 2.0])
    assert table.dataset.y == pytest.approx([1.0, 2.0, 3.0, 4.0])
    # no view of the parsed table outlives ingest, so the table is freed
    assert table.dataset.x.base is None and table.dataset.y.base is None
    path = write_csv(tmp_path / "m.csv", ["a", "y", "b"],
                     [[0.0, 1.0, 1], [5.0, 2.0, 2], [10.0, 3.0, 1], [2.5, 4.0, 2]])
    middle = ingest(path, "y").dataset
    assert np.array_equal(middle.x, table.dataset.x) and np.array_equal(middle.y, table.dataset.y)


def test_ingest_many_integer_levels_stay_continuous(tmp_path):
    rows = [[float(i), float(i)] for i in range(30)]
    path = write_csv(tmp_path / "d.csv", ["a", "y"], rows)
    table = ingest(path, "y")
    assert table.dataset.domains[0].kind == "continuous"
    assert table.dataset.x[:, 0] == pytest.approx(np.arange(30) / 29.0)


def test_ingest_overrides(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["a", "b", "y"],
                     [[0.1, 1, 1.0], [0.2, 2, 2.0], [0.1, 1, 3.0], [0.2, 2, 4.0]])
    table = ingest(path, "y", discrete_overrides=["a"], continuous_overrides=["b"])
    assert table.dataset.domains[0].kind == "discrete"
    assert table.dataset.domains[0].levels == (0.1, 0.2)
    assert table.dataset.domains[1].kind == "continuous"
    with pytest.raises(InputError):
        ingest(path, "y", continuous_overrides=["a"], discrete_overrides=["a"])
    with pytest.raises(InputError):
        ingest(path, "y", discrete_overrides=["zz"])


def test_ingest_error_reporting(tmp_path):
    rows = [["0.1", "1.0"]] * 10
    rows[6] = ["", "1.0"]
    path = write_csv(tmp_path / "d.csv", ["a", "y"], rows)
    with pytest.raises(InputError, match="7"):
        ingest(path, "y")
    path = write_csv(tmp_path / "e.csv", ["a", "y"], [["0.1", "oops"]])
    with pytest.raises(InputError, match="column 'y'"):
        ingest(path, "y")
    path = write_csv(tmp_path / "f.csv", ["a", "y"], [])
    with pytest.raises(InputError, match="no data rows"):
        ingest(path, "y")
    with pytest.raises(InputError, match="not in header"):
        ingest(write_csv(tmp_path / "g.csv", ["a", "y"], [["1", "2"]]), "z")
    empty = tmp_path / "h.csv"
    empty.write_text("")
    with pytest.raises(InputError, match="empty"):
        ingest(str(empty), "y")
    const = write_csv(tmp_path / "i.csv", ["a", "y"],
                      [["3.3", "1"], ["3.3", "2"]])
    with pytest.raises(InputError, match="constant"):
        ingest(const, "y")


def test_numeric_table_fast_path_reads_cells_as_float_does():
    """The csv.reader path's parse agrees with float() per cell and names
    the row and the column of a cell it rejects; the same cells read from
    files take the one-pass numpy read where it accepts them
    (``test_csv_file_cells_land_where_the_csv_reader_path_puts_them``)."""
    cells = ["1", "-2", "+3", "1e5", "-1.5E-3", "3e+02", " 2.5 ", "\t7\t", "1_0",
             ".5", "5.", "-0"]
    table = _parse_numeric_table(["a", "y"], [[cell, "0.5"] for cell in cells])
    assert table.shape == (len(cells), 2)
    expected = [float(cell) for cell in cells]
    np.testing.assert_array_equal(table[:, 0], expected)
    np.testing.assert_array_equal(np.signbit(table[:, 0]), np.signbit(expected))
    for bad in ("1__0", "_1", "0x10", "1,5", "1e"):
        with pytest.raises(InputError, match="row 3, column 'a'"):
            _parse_numeric_table(["a", "y"], [["1", "2"], ["3", "4"], [bad, "5"]])
    for rows in ([["1", "2"], ["3"]], [["1", "2"], [" ", "4"]]):
        with pytest.raises(InputError, match="rows with missing cells: 2$"):
            _parse_numeric_table(["a", "y"], rows)


def parse_outcome(path, columns=None):
    """Where the parse of a CSV file lands, and its result: ("fast", table)
    from the one-pass read, ("fallback", table) from the csv.reader path,
    or ("error", message).  A spy on ``_parse_numeric_table`` tells the
    two paths apart."""
    with mock.patch.object(cli, "_parse_numeric_table", wraps=_parse_numeric_table) as spy:
        try:
            table = cli._read_numeric_csv(str(path), columns)[1]
        except InputError as exc:
            return "error", str(exc)
    return "fallback" if spy.called else "fast", table


def csv_header(path):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        return next(filter(None, csv.reader(handle)))


def csv_reader_outcome(path, columns=None):
    """The result of the csv.reader parse alone, of every row held in a
    list: the table or the error message."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        header, *rows = filter(None, csv.reader(handle))
    try:
        return _parse_numeric_table(header, rows, columns)
    except InputError as exc:
        return str(exc)


CELL_FILES = {
    **{f"cell {cell!r}": (f"a,y\n{cell},0.5\n", "fast")
       for cell in ["1", "-2", "+3", "1e5", "-1.5E-3", "3e+02", " 2.5 ", "\t7\t", ".5", "5.",
                    "-0"]},
    "cell '1_0'": ("a,y\n1_0,0.5\n", "fallback"),
    **{f"bad cell {cell!r}": (f"a,y\n1,2\n3,4\n{cell},5\n", "error")
       for cell in ["1__0", "_1", "0x10", "1e", '"1,5"', "#1", "# note"]},
    "quoted numeric cell": ('a,y\n1,2\n"3.5",4\n', "fast"),
    "blank lines": ("\na,y\n\n1,2\r\n\r\n3,4\n\n", "fast"),
    "whitespace-only line": ("a,y\n1,2\n   \n3,4\n", "error"),
    "whitespace-only line, one column": ("a\n1\n \t\n3\n", "error"),
    "byte order mark": ("\ufeffa,y\n1,2\n3,4\n", "fast"),
    "repeated header name": ("a,a,y\n1,2,3\n", "error"),
    "short row": ("a,y\n1,2\n3\n5,6\n", "error"),
    "long row": ("a,y\n1,2\n3,4,5\n5,6\n", "error"),
    "every row wider than the header": ("a,y\n1,2,3\n4,5,6\n", "error"),
    "trailing comma": ("a,y\n1,2,\n", "error"),
    "header only": ("a,y\n", "fast"),
    "header and blank lines": ("a,y\n\r\n\n", "fast"),
}

# Where a read of the last column alone lands when the full read does not:
# the one pass converts only that column, so an unread bad cell or a
# repeated unread name no longer sends the file to the fallback or to an
# error.
LAST_COLUMN_MOVED = {
    "cell '1_0'": "fast",
    **{f"bad cell {cell!r}": "fast" for cell in ["1__0", "_1", "0x10", "1e", '"1,5"', "#1",
                                                  "# note"]},
    "repeated header name": "fast",
}


@pytest.mark.parametrize("case", sorted(CELL_FILES))
def test_csv_file_cells_land_where_the_csv_reader_path_puts_them(tmp_path, case):
    """Each file, read whole and by its last column alone, lands in the
    one-pass numpy read, in the csv.reader fallback, or in an error, and
    gives what the csv.reader path alone gives: the same floats (sign of
    zero included) or the same message."""
    text, place = CELL_FILES[case]
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    last = csv_header(path)[-1:]
    for columns, want_place in ((None, place), (last, LAST_COLUMN_MOVED.get(case, place))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_place, got = parse_outcome(path, columns)
        want = csv_reader_outcome(path, columns)
        assert got_place == want_place, columns
        if want_place == "error":
            assert got == want
        else:
            assert cli._read_numeric_csv(str(path), columns)[0] == csv_header(path)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# Files read by some columns, with the table the one-pass read gives.
COLUMN_FILES = {
    "unread text column": ("id,x\na,1\nb,2\n", ("x",), [[1.0], [2.0]]),
    "repeated unread name": ("id,x,id\n7,1,8\n9,2,9\n", ("x",), [[1.0], [2.0]]),
    "quoted unread cell": ('id,x\n"a",1\nb,2\n', ("x",), [[1.0], [2.0]]),
    "quoted comma in an unread cell": ('id,x\n"a,b",1\n"c,,d",2\n', ("x",), [[1.0], [2.0]]),
    "quoted newline in an unread cell": ('id,x\n"a\nb",1\n"c\r\n\nd",2\n', ("x",),
                                         [[1.0], [2.0]]),
    "quoted header": ('"id","x"\na,1\nb,2\n', ("x",), [[1.0], [2.0]]),
    "extra unread numeric column": ("x,z\n1,5\n2,6\n", ("x",), [[1.0], [2.0]]),
    "columns in another order": ("b,x,a\n7,1,3\n8,2,4\n", ("a", "x"), [[3.0, 1.0], [4.0, 2.0]]),
}


def test_csv_columns_read_through_files(tmp_path):
    """Reading some columns: an unread column, quoted, holding commas or
    newlines, or numeric, and a quoted header stay in the one-pass read, as
    does a repeated unread name, and the columns come in the order asked
    for.  A row whose width differs from the header's, in an unread text
    column too, is reported by the csv.reader path."""
    path = tmp_path / "t.csv"
    for case, (text, columns, want) in COLUMN_FILES.items():
        path.write_text(text, newline="")
        place, got = parse_outcome(path, columns)
        assert place == "fast", case
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(csv_reader_outcome(path, columns), want)
    for text in ("id,x\na,1\nb,2,3\n", 'id,x\na,1\n"b,2\n', "id,x\na,1\nb\n"):
        path.write_text(text)
        assert (parse_outcome(path, ("x",))
                == ("error", csv_reader_outcome(path, ("x",)))
                == ("error", "rows with missing cells: 2")), text


# Cells that the two readers could split, unquote or convert differently.
FUZZ_CELLS = ["1", "-0", "2.5", " 3 ", "1_0", "a", "", " ", "nan", "1e", '"4"', '"-0"', '" 5 "',
              '"6"7', '"a,b"', '"x\ny"', '"x\r\ny"', '"q""r"', 'a"b', '""', '"1""2"', '"7" ',
              ' "8"', '"9"x', '"c']


@settings(max_examples=300, deadline=None)
@given(names=st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True),
       quoted=st.booleans(), rows=st.lists(st.lists(st.sampled_from(FUZZ_CELLS), min_size=1,
                                                    max_size=4), max_size=4),
       end=st.sampled_from(["\n", "\r\n", "\r"]), last_end=st.booleans())
def test_any_file_reads_as_the_csv_reader_path_reads_it(tmp_path_factory, names, quoted, rows,
                                                         end, last_end):
    """Whole, by its last column, and by its columns reversed, a file of
    mixed quoted, text, bad, blank and ragged cells gives the floats (sign
    of zero included) or the message that the csv.reader path alone gives,
    whichever path reads it."""
    header = ",".join(f'"{n}"' if quoted else n for n in names)
    text = end.join([header, *(",".join(row) for row in rows)]) + (end if last_end else "")
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for columns in (None, names[-1:], names[::-1]):
        got, want = parse_outcome(path, columns)[1], csv_reader_outcome(path, columns)
        if isinstance(want, str):
            assert got == want
        else:
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def read_peak_bytes(path, columns):
    """The tracemalloc peak of one read of ``columns`` of a CSV file."""
    tracemalloc.start()
    try:
        cli._read_numeric_csv(str(path), columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["quoted numeric cells", "quoted text id read by column",
                                  "1_0 cell"])
def test_csv_reads_grow_by_a_few_floats_per_row(tmp_path, kind):
    """Peak memory grows per row by at most 3 x 8 x width bytes, width the
    file's column count.  The table holds 8 x width bytes per row, a read by
    column copies at most that much again, and the growing buffers
    over-allocate by a fraction (array('d') by 1/16, loadtxt's table by
    chunks): 1.7x at most was measured.  A Python str per cell costs at
    least 49 bytes, more than 6 floats, and the reads that held one per
    cell grew by 13 x 8 x width bytes per row."""
    rng = np.random.default_rng(8)
    peaks = []
    for n in (2000, 8000):
        rows = rng.uniform(size=(n, 3)).tolist()
        if kind == "quoted numeric cells":
            text, columns = '"x1","x2","y"\n' + "".join(
                f'"{a!r}","{b!r}","{c!r}"\n' for a, b, c in rows), None
        elif kind == "quoted text id read by column":
            text, columns = "id,x1,x2\n" + "".join(
                f'"row {i}",{a!r},{b!r}\n' for i, (a, b, _) in enumerate(rows)), ("x1", "x2")
        else:
            text, columns = "x1,x2,y\n1_0,2,3\n" + "".join(
                f"{a!r},{b!r},{c!r}\n" for a, b, c in rows[1:]), None
        path = tmp_path / f"{n}.csv"
        path.write_text(text)
        peaks.append(read_peak_bytes(path, columns))
    assert (peaks[1] - peaks[0]) / 6000 <= 3 * 8 * 3, peaks


def test_ingest_header_only_file_warns_nothing(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,y\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="has a header but no data rows"):
            ingest(str(path), "y")


def test_column_domain_round_trip_and_unknown_level():
    s = PredictorDomain.discrete((2.0, 5.0, 9.0))
    assert s.rescale(np.array([5.0, 2.0, 9.0]))[0] == pytest.approx([2.0, 1.0, 3.0])
    with pytest.raises(InputError, match="unknown discrete level"):
        s.rescale(np.array([4.0]))
    doc = _column_to_json("b", s)
    assert doc == {"name": "b", "kind": "discrete", "levels": [2.0, 5.0, 9.0]}
    assert _column_from_json(doc) == s
    c = PredictorDomain.continuous(1.0, 3.0)
    assert _column_from_json(_column_to_json("a", c)) == c


def test_parse_model_grammar():
    assert parse_model("1,2,1:2", 3) == [(0,), (1,), (0, 1)]
    assert parse_model("2, 2:3 ,1:2:3", 3) == [(1,), (1, 2), (0, 1, 2)]
    with pytest.raises(InputError):
        parse_model("1,,2", 3)
    with pytest.raises(InputError):
        parse_model("1:x", 3)
    with pytest.raises(InputError):
        parse_model("4", 3)


def test_simulate_command(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--scenario", "u2", "--n", "50", "--snr", "5",
                 "--seed", "3", "--with-truth", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x1", "y", "eta"]
    assert len(rows) == 50
    x1 = np.array([float(r[0]) for r in rows])
    assert np.all((x1 >= 0) & (x1 <= 1))
    code = main(["simulate", "--scenario", "zz", "--n", "50", "--snr", "5",
                 "--out", str(out)])
    assert code == 2


FIT_ARGS = ["--method", "asp-u", "--b-coef", "20", "--subsamples", "3",
            "--gcv-max-iter", "6", "--seed", "5", "--jobs", "1"]


@pytest.fixture(scope="module")
def fitted_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_fit")
    sim = tmp / "train.csv"
    assert main(["simulate", "--scenario", "u2", "--n", "250", "--snr", "5",
                 "--seed", "3", "--out", str(sim)]) == 0
    fit = tmp / "fit.json"
    fitted = tmp / "fitted.csv"
    assert main(["fit", "--data", str(sim), "--response", "y", "--model", "1",
                 *FIT_ARGS, "--out", str(fit), "--fitted-out", str(fitted)]) == 0
    return sim, fit, fitted, tmp


def test_fit_document_contents(fitted_paths):
    _, fit_path, fitted_path, _ = fitted_paths
    doc = json.loads(fit_path.read_text())
    assert doc["selection"]["method"] == "asp-u"
    assert doc["selection"]["lambda"] > 0
    assert doc["selection"]["p"] in (1.0, 2.0)
    assert doc["config"]["p"] == "auto"
    assert doc["n"] == 250
    # q = round(10 * 250^{2/9})
    assert doc["fit"]["q"] == 34
    assert len(doc["fit"]["d"]) == 2
    assert len(doc["fit"]["c"]) == 34
    assert doc["fit"]["trace_a"] > 2.0
    header, rows = read_csv(fitted_path)
    assert header == ["fitted"] and len(rows) == 250


def test_fit_deterministic_excluding_timing(fitted_paths, tmp_path):
    sim, fit_path, _, _ = fitted_paths
    again = tmp_path / "fit2.json"
    assert main(["fit", "--data", str(sim), "--response", "y", "--model", "1",
                 *FIT_ARGS, "--out", str(again)]) == 0
    a = json.loads(fit_path.read_text())
    b = json.loads(again.read_text())
    a.pop("timing")
    b.pop("timing")
    assert a == b


def test_predict_round_trip(fitted_paths, tmp_path):
    sim, fit_path, fitted_path, _ = fitted_paths
    out = tmp_path / "pred.csv"
    assert main(["predict", "--fit", str(fit_path), "--data", str(sim),
                 "--out", str(out)]) == 0
    _, fitted_rows = read_csv(fitted_path)
    header, pred_rows = read_csv(out)
    assert header == ["prediction", "out_of_range"]
    fitted = np.array([float(r[0]) for r in fitted_rows])
    preds = np.array([float(r[0]) for r in pred_rows])
    assert np.max(np.abs(preds - fitted)) < 1e-10
    assert all(r[1] == "false" for r in pred_rows)


def test_predict_flags_out_of_range(fitted_paths, tmp_path):
    _, fit_path, _, _ = fitted_paths
    data = write_csv(tmp_path / "far.csv", ["x1"], [[5.0], [0.5]])
    out = tmp_path / "pred.csv"
    assert main(["predict", "--fit", str(fit_path), "--data", str(data),
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[1] for r in rows] == ["true", "false"]


def test_predict_empty_input(fitted_paths, tmp_path):
    _, fit_path, _, _ = fitted_paths
    data = tmp_path / "empty.csv"
    data.write_text("x1\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--fit", str(fit_path), "--data", str(data),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == b"prediction,out_of_range\r\n"


def test_predict_reads_only_the_fit_columns(fitted_paths, tmp_path, capsys):
    """A text id column, one of its cells blank, changes no prediction;
    a missing or non-numeric cell in a predictor column still fails."""
    _, fit_path, _, _ = fitted_paths
    xs = [0.1, 0.5, 0.9]
    plain = write_csv(tmp_path / "plain.csv", ["x1"], [[v] for v in xs])
    with_id = write_csv(tmp_path / "id.csv", ["id", "x1"],
                        [["a", xs[0]], ["", xs[1]], ["c", xs[2]]])
    outs = [tmp_path / "plain_pred.csv", tmp_path / "id_pred.csv"]
    for data, out in zip((plain, with_id), outs):
        assert main(["predict", "--fit", str(fit_path), "--data", data, "--out", str(out)]) == 0
    assert read_csv(outs[0]) == read_csv(outs[1])
    for rows, message in (([["a", "0.2"], ["b", "x"]], "non-numeric cell at row 2, column 'x1'"),
                          ([["a", "0.2"], ["b", " "]], "rows with missing cells: 2"),
                          ([["a", "0.2"], ["b"]], "rows with missing cells: 2")):
        data = write_csv(tmp_path / "bad.csv", ["id", "x1"], rows)
        capsys.readouterr()
        assert main(["predict", "--fit", str(fit_path), "--data", data,
                     "--out", str(tmp_path / "bad_pred.csv")]) == 2
        assert message in capsys.readouterr().err


def no_fallback(*args):
    raise AssertionError("the csv.reader parse ran")


def test_predict_reads_an_id_column_in_the_one_pass_read(fitted_paths, tmp_path, monkeypatch):
    """A text id column is not read: the file takes the one-pass read, with
    the csv.reader parse made to fail, and predicts bit for bit what the
    file without that column predicts."""
    _, fit_path, _, _ = fitted_paths
    xs = np.random.default_rng(6).uniform(size=40)
    plain = write_csv(tmp_path / "plain.csv", ["x1"], [[v] for v in xs])
    with_id = write_csv(tmp_path / "id.csv", ["id", "x1"],
                        [[f"row-{i}", v] for i, v in enumerate(xs)])
    monkeypatch.setattr(cli, "_parse_numeric_table", no_fallback)
    outs = [tmp_path / "plain_pred.csv", tmp_path / "id_pred.csv"]
    for data, out in zip((plain, with_id), outs):
        assert main(["predict", "--fit", str(fit_path), "--data", data, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def fit_m1(tmp_path, data, *extra):
    """Fit ``1,2`` to a CSV of ``m1`` rows; the fit document's path."""
    fit = tmp_path / "fit.json"
    assert main(["fit", "--data", str(data), "--response", "y", "--model", "1,2", *FIT_ARGS,
                 *extra, "--out", str(fit)]) == 0
    return fit


@pytest.mark.parametrize("source", ["simulate", "simulate --with-truth", "savetxt %.17g"])
def test_fit_and_predict_read_the_files_users_write_in_the_one_pass_read(tmp_path, monkeypatch,
                                                                          source):
    """The files ``spanova simulate`` writes, with its truth column too, and
    a ``np.savetxt(fmt="%.17g")`` file like the benchmark's reach neither
    fit's nor predict's csv.reader parse."""
    train, new = tmp_path / "train.csv", tmp_path / "new.csv"
    for path, seed in ((train, 1), (new, 2)):
        if source == "savetxt %.17g":
            sim = gen_data("m1", 200, 5.0, seed=seed)
            np.savetxt(path, np.column_stack([sim.dataset.x, sim.dataset.y]), delimiter=",",
                       header="x1,x2,y", comments="", fmt="%.17g")
        else:
            assert main(["simulate", "--scenario", "m1", "--n", "200", "--snr", "5",
                         "--seed", str(seed), *source.split()[1:], "--out", str(path)]) == 0
    monkeypatch.setattr(cli, "_parse_numeric_table", no_fallback)
    fit = fit_m1(tmp_path, train, "--fitted-out", str(tmp_path / "fitted.csv"))
    out = tmp_path / "pred.csv"
    assert main(["predict", "--fit", str(fit), "--data", str(new), "--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 200


# A cell longer than csv.reader's default field size limit, 131072 characters.
OVERSIZED_CELL = "z" * 200_000


def test_a_cell_over_the_csv_field_limit_exits_2_naming_the_file_and_row(tmp_path, capsys):
    """A text id cell or a header cell that ``csv.reader`` refuses to split
    is an input error naming the file and the row, not a traceback."""
    sim = gen_data("m1", 60, 5.0, seed=4)
    rows = [[f"row-{i}", *map(repr, r)]
            for i, r in enumerate(np.column_stack([sim.dataset.x, sim.dataset.y]).tolist())]
    rows[3][0] = OVERSIZED_CELL
    big_id = write_csv(tmp_path / "big_id.csv", ["id", "x1", "x2", "y"], rows)
    big_header = write_csv(tmp_path / "big_header.csv", [OVERSIZED_CELL, "x1", "x2", "y"],
                           [r[1:] for r in rows[:3]])
    for data, where in ((big_id, "row 4"), (big_header, "the header")):
        capsys.readouterr()
        assert main(["fit", "--data", data, "--response", "y", "--model", "1,2", *FIT_ARGS,
                     "--out", str(tmp_path / "fit.json")]) == 2
        err = capsys.readouterr().err
        assert f"input error: cannot read {where} of {data}: field larger than field limit" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("where", ["header", "data row", "data row past 8 KB"])
def test_a_csv_that_is_not_utf8_exits_2_naming_the_file(fitted_paths, tmp_path, capsys,
                                                       monkeypatch, where):
    """A byte that is not UTF-8, in the header, a data row or a row read by
    loadtxt past the decoder's first chunk, is an input error for fit and
    predict, not a traceback, and not a bad cell for the csv.reader parse."""
    _, fit_path, _, _ = fitted_paths
    monkeypatch.setattr(cli, "_parse_numeric_table", no_fallback)
    lines = [b"x1,y"] + [b"0.%d,%d" % (i, i % 7) for i in range(1, 10)] * (
        1000 if where.endswith("8 KB") else 1)
    lines[0 if where == "header" else -2] += b"\xff"
    data = tmp_path / "latin.csv"
    data.write_bytes(b"\n".join(lines) + b"\n")
    outs = (tmp_path / "f.json", tmp_path / "pred.csv")
    for out, args in zip(outs, (["fit", "--response", "y", "--model", "1", *FIT_ARGS],
                                ["predict", "--fit", str(fit_path)])):
        capsys.readouterr()
        assert main([*args, "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: cannot read {data}: not UTF-8 text (invalid start byte)\n"
        assert not out.exists()


def test_predict_reads_past_a_cell_over_the_csv_field_limit_in_the_one_pass_read(tmp_path):
    """loadtxt skips an unread id cell of any length: predict reads ``x1``
    and ``x2`` past it without the csv.reader parse, and predicts what the
    file without the id column predicts."""
    train = tmp_path / "train.csv"
    assert main(["simulate", "--scenario", "m1", "--n", "200", "--snr", "5", "--seed", "1",
                 "--out", str(train)]) == 0
    fit = fit_m1(tmp_path, train)
    xs = np.random.default_rng(7).uniform(size=(30, 2)).tolist()
    plain = write_csv(tmp_path / "plain.csv", ["x1", "x2"], xs)
    with_id = write_csv(tmp_path / "id.csv", ["id", "x1", "x2"],
                        [[OVERSIZED_CELL if i == 5 else f"row-{i}", *r] for i, r in enumerate(xs)])
    outs = [tmp_path / "plain_pred.csv", tmp_path / "id_pred.csv"]
    with mock.patch.object(cli, "_parse_numeric_table", wraps=_parse_numeric_table) as spy:
        for data, out in zip((plain, with_id), outs):
            assert main(["predict", "--fit", str(fit), "--data", data, "--out", str(out)]) == 0
    assert not spy.called
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_predict_column_mismatch(fitted_paths, tmp_path):
    _, fit_path, _, _ = fitted_paths
    data = write_csv(tmp_path / "wrong.csv", ["zz"], [[0.5]])
    code = main(["predict", "--fit", str(fit_path), "--data", str(data),
                 "--out", str(tmp_path / "pred.csv")])
    assert code == 2


def test_fit_predict_round_trip_with_discrete_column(tmp_path, capsys):
    rng = np.random.default_rng(4)
    n = 150
    a = rng.uniform(size=n)
    b = rng.choice([2, 5, 9], size=n)
    y = np.sin(2 * np.pi * a) + 0.5 * (b == 5) + 0.2 * rng.standard_normal(n)
    train = write_csv(tmp_path / "train.csv", ["a", "b", "y"],
                      [[repr(float(u)), int(v), repr(float(w))] for u, v, w in zip(a, b, y)])
    fit, fitted = tmp_path / "fit.json", tmp_path / "fitted.csv"
    assert main(["fit", "--data", train, "--response", "y", "--model", "1,2",
                 "--method", "skip", "--seed", "2", "--out", str(fit),
                 "--fitted-out", str(fitted)]) == 0
    columns = json.loads(fit.read_text())["columns"]
    assert columns[1] == {"name": "b", "kind": "discrete", "levels": [2.0, 5.0, 9.0]}
    out = tmp_path / "pred.csv"
    assert main(["predict", "--fit", str(fit), "--data", train, "--out", str(out)]) == 0
    _, fitted_rows = read_csv(fitted)
    _, pred_rows = read_csv(out)
    preds = np.array([float(r[0]) for r in pred_rows])
    assert np.max(np.abs(preds - np.array([float(r[0]) for r in fitted_rows]))) < 1e-10
    unknown = write_csv(tmp_path / "unknown.csv", ["a", "b"], [[0.5, 4]])
    capsys.readouterr()
    assert main(["predict", "--fit", str(fit), "--data", unknown,
                 "--out", str(tmp_path / "pred4.csv")]) == 2
    assert "column 'b': unknown discrete level(s) [4.0]" in capsys.readouterr().err


def test_fit_order_method_records_rate_lambda(tmp_path):
    sim = tmp_path / "train.csv"
    assert main(["simulate", "--scenario", "u2", "--n", "10000", "--snr", "5",
                 "--seed", "1", "--out", str(sim)]) == 0
    fit = tmp_path / "fit.json"
    assert main(["fit", "--data", str(sim), "--response", "y", "--model", "1",
                 "--method", "order", "--r", "3", "--p", "1", "--seed", "1",
                 "--jobs", "1", "--out", str(fit)]) == 0
    doc = json.loads(fit.read_text())
    assert doc["selection"]["lambda"] == 1e-3
    assert doc["selection"]["p"] == doc["config"]["p"] == 1.0
    assert doc["fit"]["q"] == 77


def test_fit_document_records_slope_error_and_dropped_subsamples(tmp_path, monkeypatch):
    """asp-a's fit.json rate block holds gamma_se; a dropped subsample's
    exception text is written under "dropped"."""
    from spanova import asp
    from spanova.util import NumericalError

    sim = tmp_path / "train.csv"
    assert main(["simulate", "--scenario", "u2", "--n", "600", "--snr", "5",
                 "--seed", "1", "--out", str(sim)]) == 0
    real, calls = asp.full_gcv, []

    def fail_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalError("no luck")
        return real(*args, **kwargs)

    monkeypatch.setattr(asp, "full_gcv", fail_first)
    fit = tmp_path / "fit.json"
    assert main(["fit", "--data", str(sim), "--response", "y", "--model", "1",
                 "--method", "asp-a", "--b-coef", "10", "--gcv-max-iter", "4",
                 "--seed", "1", "--jobs", "1", "--out", str(fit)]) == 0
    doc = json.loads(fit.read_text())["selection"]
    assert doc["rate"]["gamma_se"] > 0.0
    assert len(doc["dropped"]) == 1 and doc["dropped"][0].endswith("NumericalError: no luck")


def test_bench_command(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--scenario", "u2", "--n", "250", "--snr", "5",
                 "--methods", "order", "--replicates", "2", "--b-coef", "15",
                 "--subsamples", "2", "--gcv-max-iter", "5", "--seed", "1",
                 "--jobs", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["scenario", "n", "snr", "method", "replicate",
                      "loss", "log_re", "wall_time_seconds"]
    assert len(rows) == 4
    assert {r[3] for r in rows} == {"gcv", "order"}
    summary = tmp_path / "bench_summary.csv"
    s_header, s_rows = read_csv(summary)
    assert s_header[:4] == ["scenario", "n", "snr", "method"]
    gcv_row = [r for r in s_rows if r[3] == "gcv"][0]
    assert float(gcv_row[5]) == 0.0
    assert main(["bench", "--scenario", "u2", "--n", "250", "--snr", "5",
                 "--methods", "nope", "--replicates", "1",
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("option,value,entry", [("--n", "250,abc", "abc"),
                                                ("--snr", "x5", "x5")])
def test_bench_malformed_list_exits_2_naming_it(tmp_path, capsys, option, value, entry):
    args = {"--n": "250", "--snr": "5", option: value}
    code = main(["bench", "--scenario", "u2", "--n", args["--n"], "--snr", args["--snr"],
                 "--methods", "order", "--replicates", "1", "--out", str(tmp_path / "b.csv")])
    assert code == 2
    assert f"input error: {option} entry {entry!r}" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_bench_has_no_method_option(tmp_path, capsys):
    """bench runs the methods of --methods; --method belongs to fit alone."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--scenario", "u2", "--n", "250", "--snr", "5", "--methods", "skip",
              "--method", "gcv", "--out", str(tmp_path / "b.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method gcv" in capsys.readouterr().err


def test_exit_code_on_missing_file(tmp_path, capsys):
    code = main(["fit", "--data", str(tmp_path / "absent.csv"), "--response",
                 "y", "--model", "1", "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
def test_fit_rejects_an_override_of_the_response(tmp_path, capsys, kind):
    """--discrete or --continuous naming the response column is an input error."""
    sim = tmp_path / "train.csv"
    assert main(["simulate", "--scenario", "u2", "--n", "60", "--snr", "5",
                 "--out", str(sim)]) == 0
    capsys.readouterr()
    code = main(["fit", "--data", str(sim), "--response", "y", "--model", "1",
                 f"--{kind}", "y", "--method", "order", "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert f"column 'y' is the response, which takes no {kind} override" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_fit_exit_code_3_when_every_subsample_fit_fails(tmp_path, capsys, monkeypatch):
    """When no subsample fit survives, asp-u's NumericalError, with each
    dropped fit's text, reaches stderr and the command exits 3."""
    from spanova import asp

    sim = tmp_path / "train.csv"
    assert main(["simulate", "--scenario", "u2", "--n", "300", "--snr", "5",
                 "--out", str(sim)]) == 0
    monkeypatch.setattr(asp, "_fit_subsample",
                        lambda job: f"b={job[0].n}: NumericalError: no luck")
    capsys.readouterr()
    code = main(["fit", "--data", str(sim), "--response", "y", "--model", "1",
                 *FIT_ARGS, "--out", str(tmp_path / "f.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: too few subsample fits survived: b=")
    assert err.count("NumericalError: no luck") == 3
    assert not (tmp_path / "f.json").exists()


def test_fit_exit_code_on_constant_response(tmp_path, capsys):
    rng = np.random.default_rng(4)
    path = write_csv(tmp_path / "flat.csv", ["x", "y"],
                     [[float(v), 3.0] for v in rng.uniform(size=60)])
    code = main(["fit", "--data", path, "--response", "y", "--model", "1",
                 *FIT_ARGS, "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert "response is constant" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("method", ["gcv", "skip", "asp-u", "asp-a"])
def test_fit_exits_2_on_a_response_scale_outside_the_range(tmp_path, capsys, method):
    """On 400 rows with y near 1e155, each method exited 1 with an
    OverflowError traceback from the nlam profile; y * 1e-160 overflowed
    too, and y * 1e-155 and y * 1e-170 moved or degraded the selection."""
    rng = np.random.default_rng(9)
    x = rng.uniform(size=400)
    y = np.sin(2 * np.pi * x) + 0.3 * rng.standard_normal(400)
    for scale in (1e155, 1e-155, 1e-160, 1e-170):
        path = write_csv(tmp_path / "d.csv", ["x", "y"], zip(x.tolist(), (scale * y).tolist()))
        code = main(["fit", "--data", path, "--response", "y", "--model", "1", "--method", method,
                     "--jobs", "1", "--out", str(tmp_path / "f.json")])
        assert code == 2, scale
        assert "; rescale y" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_fit_exit_code_on_nonpositive_jobs(tmp_path, capsys, jobs):
    rng = np.random.default_rng(5)
    path = write_csv(tmp_path / "d.csv", ["x", "y"], rng.uniform(size=(60, 2)).tolist())
    code = main(["fit", "--data", path, "--response", "y", "--model", "1",
                 "--method", "order", "--jobs", jobs, "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_fit_exit_code_on_gcv_max_iter_below_one(tmp_path, capsys, iters):
    """Fewer than one iteration used to leave gcv at skip's start, silently."""
    rng = np.random.default_rng(5)
    path = write_csv(tmp_path / "d.csv", ["x", "y"], rng.uniform(size=(60, 2)).tolist())
    code = main(["fit", "--data", path, "--response", "y", "--model", "1",
                 "--method", "gcv", "--gcv-max-iter", iters, "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert f"gcv_max_iter must be at least 1, got {iters}" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_repeated_column_name_exits_2_naming_it(tmp_path, capsys):
    """A header naming a column twice fails the fit, and an input repeating
    one of the fit's predictors fails predict; before, predict read both
    predictors from the first column of that name."""
    rng = np.random.default_rng(6)
    rows = rng.uniform(size=(200, 3)).tolist()
    twice = write_csv(tmp_path / "twice.csv", ["x", "x", "y"], rows)
    capsys.readouterr()
    assert main(["fit", "--data", twice, "--response", "y", "--model", "1,2",
                 "--method", "skip", "--out", str(tmp_path / "f.json")]) == 2
    assert "columns named more than once in the header: ['x']" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()
    train = write_csv(tmp_path / "train.csv", ["x", "z", "y"], rows)
    fit = tmp_path / "fit.json"
    assert main(["fit", "--data", train, "--response", "y", "--model", "1,2",
                 "--method", "skip", "--out", str(fit)]) == 0
    repeated = write_csv(tmp_path / "repeated.csv", ["x", "z", "z", "id", "id"],
                         [[0.5, 0.5, 0.5, 1, 2]])
    capsys.readouterr()
    assert main(["predict", "--fit", str(fit), "--data", repeated,
                 "--out", str(tmp_path / "pred.csv")]) == 2
    assert "columns named more than once in the header: ['z']" in capsys.readouterr().err
    # columns the fit does not read may repeat
    ids = write_csv(tmp_path / "ids.csv", ["x", "z", "id", "id"], [[0.5, 0.5, 1, 2]])
    assert main(["predict", "--fit", str(fit), "--data", ids,
                 "--out", str(tmp_path / "pred.csv")]) == 0
    # a fit document naming one predictor twice would read both from one column
    doc = json.loads(fit.read_text())
    doc["columns"][1]["name"] = "x"
    renamed = tmp_path / "renamed.json"
    renamed.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--fit", str(renamed), "--data", ids,
                 "--out", str(tmp_path / "pred.csv")]) == 2
    assert "columns named more than once: ['x']" in capsys.readouterr().err


def test_byte_order_mark_reads_as_plain_utf8(tmp_path):
    """A CSV saved as UTF-8 with a BOM fits and predicts as the same rows without one."""
    rng = np.random.default_rng(7)
    a = rng.uniform(size=120)
    y = np.sin(2 * np.pi * a) + 0.2 * rng.standard_normal(120)
    outputs = {}
    for header, name in ((["y", "a"], "y_first"), (["a", "y"], "a_first")):
        cols = {"a": a, "y": y}
        rows = [[repr(float(cols[h][i])) for h in header] for i in range(120)]
        for bom in ("", "\ufeff"):
            data = tmp_path / f"{name}{len(bom)}.csv"
            write_csv(data, header, rows)
            data.write_text(bom + data.read_text(encoding="utf-8"), encoding="utf-8")
            fit, pred = tmp_path / f"{data.stem}.json", tmp_path / f"{data.stem}_pred.csv"
            assert main(["fit", "--data", str(data), "--response", "y", "--model", "1",
                         "--method", "skip", "--out", str(fit)]) == 0
            assert main(["predict", "--fit", str(fit), "--data", str(data),
                         "--out", str(pred)]) == 0
            doc = json.loads(fit.read_text())
            outputs[name, bom] = (doc["columns"], doc["fit"], pred.read_bytes())
    for name in ("y_first", "a_first"):
        assert outputs[name, ""][0][0]["name"] == "a"
        assert outputs[name, ""] == outputs[name, "\ufeff"]
    # a fit from a file with a BOM predicts on one without
    plain = write_csv(tmp_path / "plain.csv", ["a"], [[0.25], [0.75]])
    assert main(["predict", "--fit", str(tmp_path / "a_first1.json"), "--data", plain,
                 "--out", str(tmp_path / "plain_pred.csv")]) == 0


@pytest.mark.parametrize("flag, value", [("--b-coef", "nan"), ("--basis-coef", "nan"),
                                         ("--basis-exp", "inf"), ("--r", "inf"),
                                         ("--order-c", "nan")])
def test_fit_exit_code_on_non_finite_numeric_flag(tmp_path, capsys, flag, value):
    rng = np.random.default_rng(6)
    path = write_csv(tmp_path / "d.csv", ["x", "y"], rng.uniform(size=(300, 2)).tolist())
    code = main(["fit", "--data", path, "--response", "y", "--model", "1",
                 *FIT_ARGS, flag, value, "--out", str(tmp_path / "f.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "must be finite" in err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_cells_exit_2_naming_the_column(fitted_paths, tmp_path, capsys, bad):
    """predict would write a nan prediction flagged in range; fit would
    report only that a domain needs finite bounds."""
    _, fit_path, _, _ = fitted_paths
    data = write_csv(tmp_path / "new.csv", ["x1"], [[0.5], [bad]])
    out = tmp_path / "pred.csv"
    assert main(["predict", "--fit", str(fit_path), "--data", data, "--out", str(out)]) == 2
    assert "non-finite cell at row 2, column 'x1'" in capsys.readouterr().err
    assert not out.exists()
    rng = np.random.default_rng(7)
    rows = rng.uniform(size=(60, 3)).tolist()
    rows[4][1] = bad
    train = write_csv(tmp_path / "train.csv", ["a", "b", "y"], rows)
    code = main(["fit", "--data", train, "--response", "y", "--model", "1,2",
                 *FIT_ARGS, "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert "non-finite cell at row 5, column 'b'" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_predict_exit_code_on_fit_document_missing_a_key(tmp_path, capsys):
    fit = tmp_path / "bad.json"
    fit.write_text('{"columns": []}')
    data = write_csv(tmp_path / "new.csv", ["x"], [[0.5]])
    code = main(["predict", "--fit", str(fit), "--data", data,
                 "--out", str(tmp_path / "p.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "'model'" in err


def test_loaded_fit_has_no_fitted_values(fitted_paths):
    """A fit read back from its document predicts, but holds no training
    rows: reading its fitted values raises and says so."""
    sim, fit_path, fitted_path, _ = fitted_paths
    _, spec, fit = cli._load_fit_document(str(fit_path))
    with pytest.raises(InputError, match="no training rows"):
        fit.fitted
    x = np.array([[float(row[0])] for row in read_csv(sim)[1]])
    pred, _ = cli.predict(fit, spec, x)
    fitted = np.array([float(row[0]) for row in read_csv(fitted_path)[1]])
    np.testing.assert_allclose(pred, fitted, rtol=0, atol=1e-10)


def csv_writer_bytes(rows):
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode()


def test_output_files_are_the_bytes_csv_writer_writes(fitted_paths, tmp_path):
    sim, fit_path, fitted_path, _ = fitted_paths
    _, fitted_rows = read_csv(fitted_path)
    assert fitted_path.read_bytes() == csv_writer_bytes(
        [["fitted"], *([repr(float(r[0]))] for r in fitted_rows)])
    data = write_csv(tmp_path / "far.csv", ["x1"], [[5.0], [0.5], [-1.0]])
    out = tmp_path / "pred.csv"
    assert main(["predict", "--fit", str(fit_path), "--data", data, "--out", str(out)]) == 0
    _, pred_rows = read_csv(out)
    assert [r[1] for r in pred_rows] == ["true", "false", "true"]
    assert out.read_bytes() == csv_writer_bytes(
        [["prediction", "out_of_range"], *([repr(float(v)), f] for v, f in pred_rows)])


def test_simulate_and_bench_files_are_the_bytes_csv_writer_writes(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", "m1", "--n", "40", "--snr", "5", "--seed", "3",
                 "--with-truth", "--out", str(out)]) == 0
    sim = gen_data("m1", 40, 5.0, seed=3)
    rows = [[repr(float(v)) for v in (*x, y, eta)]
            for x, y, eta in zip(sim.dataset.x, sim.dataset.y, sim.eta)]
    assert out.read_bytes() == csv_writer_bytes([["x1", "x2", "y", "eta"], *rows])
    out = tmp_path / "bench.csv"
    assert main(["bench", "--scenario", "u2", "--n", "250,90", "--snr", "5",
                 "--methods", "order", "--replicates", "2", "--gcv-max-iter", "5",
                 "--seed", "1", "--jobs", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert out.read_bytes() == csv_writer_bytes([header, *rows])
    assert all(r[i] == repr(float(r[i])) for r in rows for i in (2, 5, 6, 7))
    summary = tmp_path / "bench_summary.csv"
    header, rows = read_csv(summary)
    assert summary.read_bytes() == csv_writer_bytes([header, *rows])
    assert [(r[1], r[3]) for r in rows] == [("90", "gcv"), ("90", "order"),
                                            ("250", "gcv"), ("250", "order")]
    assert all(r[i] == repr(float(r[i])) for r in rows for i in (2, 5, 6))


def test_chunked_writers_write_the_bytes_of_one_chunk(fitted_paths, tmp_path, monkeypatch):
    """fit --fitted-out, predict and simulate turn their rows into text
    CSV_WRITE_LINES rows at a time; at 7 a chunk, 250 rows end in a partial
    chunk of 5, and each file is the bytes the default chunk writes."""
    sim, fit_path, fitted_path, _ = fitted_paths

    def outputs(tag):
        fit, fitted, pred, drawn = (tmp_path / f"{tag}-{name}" for name in
                                    ("fit.json", "fitted.csv", "pred.csv", "sim.csv"))
        assert main(["fit", "--data", str(sim), "--response", "y", "--model", "1",
                     *FIT_ARGS, "--out", str(fit), "--fitted-out", str(fitted)]) == 0
        assert main(["predict", "--fit", str(fit_path), "--data", str(sim),
                     "--out", str(pred)]) == 0
        assert main(["simulate", "--scenario", "m1", "--n", "250", "--snr", "5",
                     "--seed", "3", "--with-truth", "--out", str(drawn)]) == 0
        return [path.read_bytes() for path in (fitted, pred, drawn)]

    assert cli.CSV_WRITE_LINES > 250
    whole = outputs("whole")
    assert whole[0] == fitted_path.read_bytes()
    monkeypatch.setattr(cli, "CSV_WRITE_LINES", 7)
    assert outputs("chunked") == whole


def with_basis_entry(doc, i, j, value):
    """``doc`` with fit.basis_rows[i][j] set to ``value``."""
    rows = [list(row) for row in doc["fit"]["basis_rows"]]
    rows[i][j] = value
    return {**doc, "fit": {**doc["fit"], "basis_rows": rows}}


@pytest.mark.parametrize("corrupt", [
    lambda doc: [],
    lambda doc: {**doc, "fit": {**doc["fit"], "c": "abc"}},
    lambda doc: {**doc, "fit": {**doc["fit"], "c": doc["fit"]["c"][:-1]}},
    lambda doc: {**doc, "fit": {**doc["fit"], "basis_rows": 5}},
    lambda doc: {**doc, "fit": {**doc["fit"], "theta": [0.0] * len(doc["fit"]["theta"])}},
    lambda doc: {**doc, "fit": {**doc["fit"], "theta": [-1.0] * len(doc["fit"]["theta"])}},
    lambda doc: {**doc, "columns": doc["columns"] * 2,
                 "fit": {**doc["fit"], "basis_rows": [r * 2 for r in doc["fit"]["basis_rows"]]}},
    lambda doc: {**doc, "fit": {**doc["fit"], "c": [float("nan"), *doc["fit"]["c"][1:]]}},
    lambda doc: {**doc, "fit": {**doc["fit"], "d": [float("nan"), *doc["fit"]["d"][1:]]}},
    lambda doc: {**doc, "fit": {**doc["fit"], "basis_rows": [
        [float("nan"), *doc["fit"]["basis_rows"][0][1:]], *doc["fit"]["basis_rows"][1:]]}},
    lambda doc: with_basis_entry(doc, 0, 0, 2.0),
    lambda doc: with_basis_entry(doc, 1, 0, -0.5),
], ids=["list", "non-numeric-c", "short-c", "scalar-basis-rows", "nonpositive-theta-zero",
        "nonpositive-theta-negative", "repeated-column", "nan-c", "nan-d", "nan-basis-rows",
        "basis-rows-above-1", "basis-rows-below-0"])
def test_predict_exit_code_on_malformed_fit_document(fitted_paths, tmp_path, capsys, corrupt):
    """Basis rows are model-scale data rows: a continuous entry outside
    [0, 1] used to be read as is, and moved predictions by up to 14."""
    sim, fit_path, _, _ = fitted_paths
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(fit_path.read_text()))))
    capsys.readouterr()
    code = main(["predict", "--fit", str(bad), "--data", str(sim),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "not a fit document" in err


@pytest.mark.parametrize("code", [0.0, 4.0])
def test_predict_rejects_a_basis_code_outside_the_levels(tmp_path, capsys, code):
    """A discrete basis entry is a level code 1..K; 0 and K + 1 name no level."""
    rng = np.random.default_rng(4)
    rows = [[repr(float(a)), int(b), repr(float(y))] for a, b, y in
            zip(rng.uniform(size=90), rng.choice([2, 5, 9], size=90), rng.standard_normal(90))]
    train = write_csv(tmp_path / "train.csv", ["a", "b", "y"], rows)
    fit = tmp_path / "fit.json"
    assert main(["fit", "--data", train, "--response", "y", "--model", "1,2",
                 "--method", "order", "--out", str(fit)]) == 0
    fit.write_text(json.dumps(with_basis_entry(json.loads(fit.read_text()), 0, 1, code)))
    capsys.readouterr()
    assert main(["predict", "--fit", str(fit), "--data", train,
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert "not a fit document" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["c", "d", "basis_rows"])
def test_predict_names_the_non_finite_fit_field(fitted_paths, tmp_path, capsys, field):
    """A NaN coefficient or basis row would make every prediction NaN."""
    sim, fit_path, _, _ = fitted_paths
    doc = json.loads(fit_path.read_text())
    values = np.array(doc["fit"][field], dtype=float)
    values.flat[0] = np.nan
    doc["fit"][field] = values.tolist()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "p.csv"
    capsys.readouterr()
    assert main(["predict", "--fit", str(bad), "--data", str(sim), "--out", str(out)]) == 2
    assert f"fit.{field} has a non-finite entry" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "fitted", "predict", "bench"])
def test_unwritable_output_exits_2_naming_the_path(fitted_paths, tmp_path, capsys, command):
    sim, fit_path, _, _ = fitted_paths
    bad = tmp_path / "absent" / "out.csv"
    fit_args = ["fit", "--data", str(sim), "--response", "y", "--model", "1",
                "--method", "skip", "--jobs", "1"]
    argv = {
        "simulate": ["simulate", "--scenario", "u2", "--n", "50", "--snr", "5", "--out", str(bad)],
        "fit": [*fit_args, "--out", str(bad)],
        "fitted": [*fit_args, "--out", str(tmp_path / "f.json"), "--fitted-out", str(bad)],
        "predict": ["predict", "--fit", str(fit_path), "--data", str(sim), "--out", str(bad)],
        "bench": ["bench", "--scenario", "u2", "--n", "90", "--snr", "5", "--methods", "skip",
                  "--replicates", "1", "--jobs", "1", "--out", str(bad)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"input error: cannot write {bad}: " in capsys.readouterr().err


def test_jobs_default_to_the_available_cpus(monkeypatch):
    parser = build_parser()
    args = parser.parse_args(["fit", "--data", "d", "--response", "y",
                              "--model", "1", "--out", "o"])
    monkeypatch.setattr("spanova.asp.available_cpus", lambda: 6)
    assert _config_from_args(args).worker_count == 6


def test_cli_import_leaves_out_unused_scipy_subpackages():
    """scipy.stats, scipy.integrate and scipy.sparse.linalg serve only the
    oracles and one scenario, so a fresh ``spanova fit`` or ``predict``
    process does not pay for importing them."""
    heavy = ("scipy.stats", "scipy.integrate", "scipy.sparse.linalg")
    code = f"import sys, spanova.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_config_flags_take_aspconfig_defaults(monkeypatch):
    """The parser writes no default of its own: a flag left out takes the
    default of whatever ``AspConfig`` the CLI builds, for fit and bench."""

    @dataclasses.dataclass(frozen=True)
    class Shifted(AspConfig):
        b_coef: float = 20.0
        n_subsamples: int = 7
        r_default: float = 4.0
        gcv_max_iter: int = 9

    monkeypatch.setattr(cli, "AspConfig", Shifted)
    parser = build_parser()
    fit = parser.parse_args(["fit", "--data", "d", "--response", "y", "--model", "1",
                             "--out", "o"])
    bench = parser.parse_args(["bench", "--scenario", "u2", "--n", "90", "--snr", "5",
                               "--methods", "skip", "--out", "o"])
    for args in (fit, bench):
        assert _config_from_args(args) == Shifted()
    flags = ["--b-coef", "30", "--subsamples", "2", "--r", "2.5", "--p", "1.5", "--order-c", "2",
             "--basis-coef", "8", "--basis-exp", "0.25", "--gcv-max-iter", "4", "--seed", "3",
             "--jobs", "1"]
    expected = AspConfig(b_coef=30.0, n_subsamples=2, r_default=2.5, p=1.5, order_c=2.0,
                         basis_coef=8.0, basis_exp=0.25, gcv_max_iter=4, seed=3, jobs=1)
    for command in (["fit", "--data", "d", "--response", "y", "--model", "1", "--out", "o"],
                    ["bench", "--scenario", "u2", "--n", "90", "--snr", "5", "--methods",
                     "skip", "--out", "o"]):
        config = _config_from_args(parser.parse_args([*command, *flags]))
        assert dataclasses.astuple(config) == dataclasses.astuple(expected)


def test_p_option_reads_auto_or_a_number(capsys):
    parser = build_parser()
    base = ["fit", "--data", "d", "--response", "y", "--model", "1", "--out", "o"]
    assert _config_from_args(parser.parse_args([*base, "--p", "auto"])).p is None
    assert _config_from_args(parser.parse_args([*base, "--p", "1.5"])).p == 1.5
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*base, "--p", "smooth"])
    assert exc.value.code == 2
    assert "--p: invalid number_or_auto value: 'smooth'" in capsys.readouterr().err


def test_method_names_are_the_selectors():
    assert METHODS == tuple(SELECTORS) == ("gcv", "skip", "asp-u", "asp-a", "order")
    parser = build_parser()
    base = ["fit", "--data", "d", "--response", "y", "--model", "1", "--out", "o"]
    assert parser.parse_args(base).method == "asp-u"
    for name in METHODS:
        assert parser.parse_args([*base, "--method", name]).method == name
    with pytest.raises(SystemExit):
        parser.parse_args([*base, "--method", "nope"])


@pytest.mark.parametrize("case", ["missing-directory", "same-path", "same-file"])
def test_fit_checks_its_outputs_before_selecting(tmp_path, capsys, monkeypatch, case):
    """A bad output used to be found after the selection and the fit: an
    unwritable --fitted-out left a complete fit.json behind, and one path
    given to --out and --fitted-out ended up holding the fitted values."""
    rng = np.random.default_rng(8)
    data = write_csv(tmp_path / "d.csv", ["a", "b", "y"], rng.uniform(size=(60, 3)).tolist())
    (tmp_path / "sub").mkdir()
    old = tmp_path / "old.json"
    old.write_text("{}\n")
    out, fitted, message = {
        "missing-directory": (tmp_path / "fit.json", tmp_path / "absent" / "f.csv",
                              "cannot write {}: No such file or directory"),
        "same-path": (tmp_path / "same.csv", tmp_path / "same.csv",
                      "two outputs name one file: {}"),
        "same-file": (old, tmp_path / "sub" / ".." / "old.json", "two outputs name one file: {}"),
    }[case]
    calls = []
    monkeypatch.setitem(cli.SELECTORS, "skip", lambda *args: calls.append(args))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["fit", "--data", data, "--response", "y", "--model", "1,2", "--method", "skip",
                 "--out", str(out), "--fitted-out", str(fitted)]) == 2
    assert f"input error: {message.format(fitted)}" in capsys.readouterr().err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before
    assert old.read_text() == "{}\n"


@pytest.mark.parametrize("case", ["fit-fitted-out", "fit-out", "predict-data", "predict-fit"])
def test_an_output_never_overwrites_an_input(fitted_paths, tmp_path, capsys, case):
    """An output naming the training CSV or the fit document used to replace it."""
    sim, fit_path, _, _ = fitted_paths
    data, fit = tmp_path / "t.csv", tmp_path / "f.json"
    data.write_bytes(sim.read_bytes())
    fit.write_bytes(fit_path.read_bytes())
    (tmp_path / "sub").mkdir()
    fit_args = ["fit", "--data", str(data), "--response", "y", "--model", "1",
                "--method", "skip", "--jobs", "1"]
    argv, out, target = {
        "fit-fitted-out": (fit_args + ["--out", str(tmp_path / "o.json"), "--fitted-out"],
                           tmp_path / "sub" / ".." / "t.csv", data),
        "fit-out": (fit_args + ["--out"], data, data),
        "predict-data": (["predict", "--fit", str(fit), "--data", str(data), "--out"], data, data),
        "predict-fit": (["predict", "--fit", str(fit), "--data", str(data), "--out"], fit, fit),
    }[case]
    before = target.read_bytes()
    capsys.readouterr()
    assert main([*argv, str(out)]) == 2
    assert f"input error: an output names an input file: {out}" in capsys.readouterr().err
    assert target.read_bytes() == before


def test_fit_document_flags_a_gcv_search_stopped_by_its_cap(tmp_path):
    sim = tmp_path / "train.csv"
    assert main(["simulate", "--scenario", "m1", "--n", "300", "--snr", "5", "--seed", "1",
                 "--out", str(sim)]) == 0
    flags = {}
    for cap in (1, 30):
        out = tmp_path / f"fit{cap}.json"
        assert main(["fit", "--data", str(sim), "--response", "y", "--model", "1,2,1:2",
                     "--method", "gcv", "--gcv-max-iter", str(cap), "--out", str(out)]) == 0
        flags[cap] = json.loads(out.read_text())["selection"]["flags"]
    assert "iteration-cap" in flags[1] and "iteration-cap" not in flags[30]


@pytest.mark.parametrize("option,value,message", [
    ("--scenario", "u2,nope", "unknown scenario 'nope'"),
    ("--n", "300,5", "n must be at least 10"),
    ("--snr", "5,0", "snr must be positive"),
    ("--snr", "5,nan", "snr must be positive and finite"),
    ("--out", "{tmp}/absent/b.csv", "cannot write {tmp}/absent/b.csv: ")])
def test_bench_checks_every_cell_and_its_outputs_before_the_first(
        tmp_path, capsys, monkeypatch, option, value, message):
    """A bad scenario, size or noise level used to be found only at its own
    cell, and an unwritable output after every cell, once the work was done."""
    calls = []
    monkeypatch.setattr(cli, "run_benchmark", lambda *args, **kwargs: calls.append(args) or [])
    argv = {"--scenario": "u2", "--n": "300", "--snr": "5", "--out": str(tmp_path / "b.csv"),
            option: value.format(tmp=tmp_path)}
    capsys.readouterr()
    assert main(["bench", *(item for pair in argv.items() for item in pair),
                 "--methods", "skip", "--replicates", "2"]) == 2
    assert f"input error: {message.format(tmp=tmp_path)}" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_bench_rejects_a_benchmark_iteration_cap_below_one_before_any_data(
        tmp_path, capsys, monkeypatch):
    """--benchmark-max-iter 0 used to draw the first replicate's data and
    then fail naming gcv_max_iter, a flag the user did not give."""
    calls = []
    monkeypatch.setattr(simulate, "gen_data", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "b.csv"
    capsys.readouterr()
    assert main(["bench", "--scenario", "u2", "--n", "300", "--snr", "5", "--methods", "order",
                 "--benchmark-max-iter", "0", "--jobs", "1", "--out", str(out)]) == 2
    assert ("input error: benchmark_max_iter must be at least 1, got 0"
            in capsys.readouterr().err)
    assert calls == []
    assert not out.exists()


# (flag, value, message) of each config value rejected before any work;
# the order constant's cases keep the bare command as their id
_BAD_CONFIG = (("--order-c", "-1", "order_c must be positive, got -1.0"),
               ("--basis-coef", "0", "basis_coef must be positive, got 0.0"),
               ("--seed", "-1", "seed must be nonnegative, got -1"),
               ("--basis-exp", "-5", "basis_exp must be nonnegative, got -5.0"))


@pytest.mark.parametrize("command,flag,value,message", [
    pytest.param(command, *bad, id=command if bad[0] == "--order-c" else f"{command}{bad[0]}")
    for bad in _BAD_CONFIG for command in ("fit", "bench")])
def test_nonpositive_order_constant_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command, flag, value, message):
    """--order-c -1 used to be written into fit.json by a fit that never
    reads it, and a bench ran every method before order's before it failed.
    --basis-coef 0 and --seed -1 built a config: a fit read its whole CSV and
    a bench drew its first replicate's data before either was rejected."""
    calls = []
    monkeypatch.setitem(cli.SELECTORS, "asp-u", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "run_benchmark", lambda *args, **kwargs: calls.append(args) or [])
    ingest = cli.ingest
    monkeypatch.setattr(cli, "ingest", lambda *args: calls.append(args) or ingest(*args))
    if command == "fit":
        rng = np.random.default_rng(9)
        data = write_csv(tmp_path / "d.csv", ["a", "y"], rng.uniform(size=(60, 2)).tolist())
        argv = ["fit", "--data", data, "--response", "y", "--model", "1", "--method", "asp-u"]
    else:
        argv = ["bench", "--scenario", "m1", "--n", "2000", "--snr", "5",
                "--methods", "asp-u,order"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, flag, value, "--jobs", "1", "--out", str(out)]) == 2
    assert f"input error: {message}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()
