import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spanova.cli import (
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
from spanova.simulate import gen_data
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
    """The one-call numpy parse of a rectangular table agrees with float()
    per cell; cells it rejects still go to the per-cell loop, which names
    the row and the column."""
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


def test_fit_exit_code_on_constant_response(tmp_path, capsys):
    rng = np.random.default_rng(4)
    path = write_csv(tmp_path / "flat.csv", ["x", "y"],
                     [[float(v), 3.0] for v in rng.uniform(size=60)])
    code = main(["fit", "--data", path, "--response", "y", "--model", "1",
                 *FIT_ARGS, "--out", str(tmp_path / "f.json")])
    assert code == 2
    assert "response is constant" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_fit_exit_code_on_non_integer_jobs_environment(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(5)
    path = write_csv(tmp_path / "d.csv", ["x", "y"], rng.uniform(size=(60, 2)).tolist())
    monkeypatch.setenv("SPANOVA_JOBS", "two")
    code = main(["fit", "--data", path, "--response", "y", "--model", "1",
                 "--method", "order", "--out", str(tmp_path / "f.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "SPANOVA_JOBS" in err


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


@pytest.mark.parametrize("corrupt", [
    lambda doc: [],
    lambda doc: {**doc, "fit": {**doc["fit"], "c": "abc"}},
    lambda doc: {**doc, "fit": {**doc["fit"], "c": doc["fit"]["c"][:-1]}},
    lambda doc: {**doc, "fit": {**doc["fit"], "basis_rows": 5}},
    lambda doc: {**doc, "fit": {**doc["fit"], "theta": [0.0] * len(doc["fit"]["theta"])}},
    lambda doc: {**doc, "fit": {**doc["fit"], "theta": [-1.0] * len(doc["fit"]["theta"])}},
    lambda doc: {**doc, "columns": doc["columns"] * 2,
                 "fit": {**doc["fit"], "basis_rows": [r * 2 for r in doc["fit"]["basis_rows"]]}},
], ids=["list", "non-numeric-c", "short-c", "scalar-basis-rows", "nonpositive-theta-zero",
        "nonpositive-theta-negative", "repeated-column"])
def test_predict_exit_code_on_malformed_fit_document(fitted_paths, tmp_path, capsys, corrupt):
    sim, fit_path, _, _ = fitted_paths
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(fit_path.read_text()))))
    capsys.readouterr()
    code = main(["predict", "--fit", str(bad), "--data", str(sim),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_jobs_environment_fallback(monkeypatch):
    parser = build_parser()
    args = parser.parse_args(["fit", "--data", "d", "--response", "y",
                              "--model", "1", "--out", "o"])
    monkeypatch.setenv("SPANOVA_JOBS", "1")
    assert _config_from_args(args).worker_count == 1
    for bad in ("0", "-3"):
        monkeypatch.setenv("SPANOVA_JOBS", bad)
        with pytest.raises(InputError, match="jobs must be at least 1"):
            _config_from_args(args)
    monkeypatch.delenv("SPANOVA_JOBS")
    monkeypatch.setattr("os.cpu_count", lambda: 6)
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
