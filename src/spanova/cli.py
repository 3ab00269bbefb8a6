"""Command-line interface: CSV in, fitted models and reports out.

Four subcommands: ``simulate`` writes a synthetic dataset, ``fit`` ingests
a CSV and fits the model with the chosen selection method, ``predict``
evaluates a stored fit on new rows, and ``bench`` runs the scenario
comparison harness.  Exit codes: 0 success, 2 input error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import itertools
import json
import os
import sys
import time
import warnings
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .asp import AspConfig, SelectionResult, full_sample_basis
from .data import Dataset
from .kernels import PredictorDomain, build_model
from .simulate import SELECTORS, check_cell, gen_data, run_benchmark
from .solver import FitResult, SmoothingParams, fit_model, predict
from .util import InputError, NumericalError

DISCRETE_INFERENCE_MAX_LEVELS = 20
# Output lines joined per write in ``_write_csv_lines``, and rows converted
# to Python values at once in ``_chunked_rows``: about 0.3 MB of text.
CSV_WRITE_LINES = 4096


@dataclass(frozen=True)
class IngestedTable:
    """A parsed CSV: model-ready dataset plus the predictor column names."""

    dataset: Dataset
    predictor_names: tuple[str, ...]


def _column_to_json(name: str, domain: PredictorDomain) -> dict:
    if domain.is_continuous:
        return {"name": name, "kind": domain.kind, "lo": domain.lo, "hi": domain.hi}
    return {"name": name, "kind": domain.kind, "levels": list(domain.levels)}


def _column_from_json(doc: dict) -> PredictorDomain:
    if doc["kind"] == "continuous":
        return PredictorDomain.continuous(float(doc["lo"]), float(doc["hi"]))
    return PredictorDomain.discrete(tuple(float(v) for v in doc["levels"]))


@contextlib.contextmanager
def _open_csv(path: str):
    """A CSV file open past its header, the header (its first non-empty
    row), and the non-empty rows after it as ``csv.reader`` splits them.
    A byte that is not UTF-8, met by any read in the context, is an input error."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from None
    with handle:
        try:
            rows = _csv_rows(path, handle)
            header = next(rows, None)
            if header is None:
                raise InputError(f"{path} is empty")
            yield handle, header, rows
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def _csv_rows(path: str, handle):
    """The non-empty rows of ``csv.reader``, the header first and the data
    rows numbered from 1 as the cell errors number them.  A row it cannot
    split (a cell over its field size limit) is an input error naming the
    file and the row."""
    done = 0
    try:
        for done, row in enumerate(filter(None, csv.reader(handle)), start=1):
            yield row
    except csv.Error as exc:
        where = f"row {done}" if done else "the header"
        raise InputError(f"cannot read {where} of {path}: {exc}") from None


def _read_numeric_csv(path: str, columns=None, check_header=None) -> tuple[list[str], np.ndarray]:
    """The header of a CSV, and the cells of ``columns`` (default: all) as
    floats in one array.

    ``check_header(header, has_rows)``, if given, raises on a header the
    caller rejects before any column name or cell is checked.  One
    ``np.loadtxt`` pass reads every column with no Python object per cell.
    It parses quoted cells, commas and newlines as ``csv.reader`` does,
    skips the cells of unread columns, and fails on a row whose width
    differs from the first row's.  It accepts a subset of the cells
    ``float`` accepts, with the same values.  When it fails or the rows'
    width is not the header's, ``_parse_numeric_table`` reads the file
    again from ``csv.reader`` and names the bad row or cell.
    """
    with _open_csv(path) as (handle, header, _):
        first = next((line for line in handle if line.rstrip("\r\n")), None)
        if check_header:
            check_header(header, first is not None)
        idx = _column_index(header, columns)
        if first is None:  # loadtxt warns on input with no rows
            return header, np.empty((0, len(idx)))
        every = list(range(len(header)))
        try:
            # an unread cell's converter ignores it, str or bytes (numpy < 2)
            table = np.loadtxt(itertools.chain([first], handle), delimiter=",", comments=None,
                               quotechar='"', ndmin=2,
                               converters={j: lambda _: 0.0 for j in every if j not in idx})
            if table.shape[1] == len(header):
                return header, table if idx == every else table[:, idx]
            del table  # freed before the csv.reader parse
        except UnicodeDecodeError:
            raise  # a ValueError, but no cell's: ``_open_csv`` reports it
        except ValueError:
            pass
    with _open_csv(path) as (_, header, rows):
        return header, _parse_numeric_table(header, rows, columns)


def _column_index(header, columns=None) -> list[int]:
    """Positions of ``columns`` (default: all) in the header; a column read
    must be named once there."""
    missing = [name for name in columns or () if name not in header]
    if missing:
        raise InputError(f"input is missing predictor columns: {missing}")
    read = [name for name in header if columns is None or name in columns]
    twice = sorted({name for name in read if read.count(name) > 1})
    if twice:
        raise InputError(f"columns named more than once in the header: {twice}")
    return list(range(len(header))) if columns is None else [header.index(n) for n in columns]


def _parse_numeric_table(header, rows, columns=None):
    """The cells of ``columns`` (default: all) to float, in that order.

    ``rows`` is converted as it is iterated, into one buffer of floats.
    Rows narrower or wider than the header, and missing or non-numeric
    cells in those columns, are reported by position; other columns are
    not read.  A column read must be named once in the header.
    """
    idx = _column_index(header, columns)
    cells = array("d")
    missing, bad = [], None
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header) or any(row[j].strip() == "" for j in idx):
            if len(missing) <= 10:
                missing.append(i)
            continue
        for j in idx:
            try:
                cells.append(float(row[j]))
            except ValueError:
                bad = bad or (i, header[j])
    if missing:
        shown = ", ".join(str(r) for r in missing[:10])
        raise InputError(f"rows with missing cells: {shown}"
                         + (" ..." if len(missing) > 10 else ""))
    if bad:
        raise InputError(f"non-numeric cell at row {bad[0]}, column {bad[1]!r}")
    return np.frombuffer(cells).reshape(-1, len(idx))


def _check_finite(names, table) -> None:
    """Raise on the first nan or inf cell, by row and column name."""
    rows, cols = np.nonzero(~np.isfinite(table))
    if rows.size:
        raise InputError(f"non-finite cell at row {rows[0] + 1}, column {names[cols[0]]!r}")


def _open_output(path: str, **kwargs):
    """``path`` opened for writing; an unwritable path is an input error."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_outputs(*paths, inputs=()) -> None:
    """Raise on an output path that cannot be written or that names the same
    file as another output or one of ``inputs``, before the command does any work.

    ``None`` stands for an output not asked for.  Nothing is opened, so an
    existing file keeps its contents until the command has its results.
    """
    read = {os.path.realpath(path) for path in inputs}
    seen = set()
    for path in filter(None, paths):
        folder = os.path.dirname(path) or os.curdir
        error = (errno.EISDIR if os.path.isdir(path)
                 else errno.ENOENT if not os.path.isdir(folder)
                 else None if os.access(path if os.path.exists(path) else folder, os.W_OK)
                 else errno.EACCES)
        if error is not None:
            raise InputError(f"cannot write {path}: {os.strerror(error)}")
        real = os.path.realpath(path)
        if real in read:
            raise InputError(f"an output names an input file: {path}")
        if real in seen:
            raise InputError(f"two outputs name one file: {path}")
        seen.add(real)


def _write_csv_lines(path: str, header: str, lines) -> None:
    """Write a header and CSV lines with the CRLF line ends of ``csv.writer``.

    ``lines`` may be a generator: it is joined and written CSV_WRITE_LINES
    lines at a time, so the text of a large file is never held whole.
    Every field written this way is a float or int repr, a bare word, a
    plain column name, a checked scenario id or a validated method name,
    which ``csv.writer`` would not quote either.
    """
    lines = iter(lines)
    with _open_output(path, newline="") as handle:
        handle.write(f"{header}\r\n")
        while chunk := list(itertools.islice(lines, CSV_WRITE_LINES)):
            handle.write("\r\n".join(chunk) + "\r\n")


def _chunked_rows(*columns):
    """The rows of equal-length arrays as tuples of Python values.

    The arrays are converted CSV_WRITE_LINES rows at a time, the size of
    one write of ``_write_csv_lines``, so no whole-column list exists.
    """
    for lo in range(0, len(columns[0]), CSV_WRITE_LINES):
        yield from zip(*(col[lo:lo + CSV_WRITE_LINES].tolist() for col in columns))


def _infer_domain(name: str, values: np.ndarray, override: str | None) -> PredictorDomain:
    lo, hi = values.min(), values.max()
    if lo == hi:
        raise InputError(f"column {name!r} is constant; cannot scale")
    if override == "discrete" or (override is None and np.all(values == np.round(values))):
        levels = np.unique(values)
        if override == "discrete" or levels.size <= DISCRETE_INFERENCE_MAX_LEVELS:
            return PredictorDomain.discrete(tuple(levels.tolist()))
    return PredictorDomain.continuous(lo, hi)


def ingest(csv_path: str, response_column: str,
           continuous_overrides=(), discrete_overrides=()) -> IngestedTable:
    """Parse a CSV into a model-ready dataset whose domains hold the scaling.

    Continuous columns are min-max scaled to [0, 1]; integer-valued columns
    with at most 20 distinct values are treated as discrete factors unless
    overridden.  Missing cells are rejected by row, nan or inf by cell.
    y is copied and the predictors rescaled straight out of the parsed
    table, so the table is freed on return.
    """
    overrides = dict.fromkeys(continuous_overrides, "continuous")
    both = [name for name in discrete_overrides if name in overrides]
    overrides.update(dict.fromkeys(discrete_overrides, "discrete"))

    def check_header(header, has_rows):
        if response_column not in header:
            raise InputError(f"response column {response_column!r} not in header {header}")
        if not has_rows:
            raise InputError(f"{csv_path} has a header but no data rows")
        if both:
            raise InputError(f"column {both[0]!r} marked both continuous and discrete")
        unknown = set(overrides) - set(header)
        if unknown:
            raise InputError(f"override columns not in header: {sorted(unknown)}")
        if response_column in overrides:
            raise InputError(f"column {response_column!r} is the response, which takes no"
                             f" {overrides[response_column]} override")

    header, table = _read_numeric_csv(csv_path, check_header=check_header)
    _check_finite(header, table)
    resp_idx = header.index(response_column)
    cols = [j for j in range(len(header)) if j != resp_idx]
    if not cols:
        raise InputError("no predictor columns besides the response")
    names = tuple(header[j] for j in cols)
    domains = [_infer_domain(name, table[:, j], overrides.get(name))
               for j, name in zip(cols, names)]
    dataset = Dataset.from_raw(table, table[:, resp_idx].copy(), domains, cols)
    return IngestedTable(dataset=dataset, predictor_names=names)


def parse_model(text: str, n_predictors: int):
    """Model grammar: comma-separated terms, colon-joined interactions.

    Predictors are 1-based column positions, e.g. "1,2,1:2" is two mains
    plus their interaction.
    """
    effects = []
    for term in text.split(","):
        term = term.strip()
        if not term:
            raise InputError("empty term in model specification")
        try:
            idx = tuple(int(p) - 1 for p in term.split(":"))
        except ValueError:
            raise InputError(f"cannot parse model term {term!r}") from None
        if any(i < 0 or i >= n_predictors for i in idx):
            raise InputError(
                f"model term {term!r} references a predictor outside 1..{n_predictors}")
        effects.append(idx)
    return effects


METHODS = tuple(SELECTORS)


def number_or_auto(text: str) -> float | None:
    """``--p``'s type: a number, or None for 'auto' (estimate p)."""
    return None if text == "auto" else float(text)


def _config_from_args(args) -> AspConfig:
    """The ``AspConfig`` of the config flags given, the rest at its defaults."""
    given = vars(args)
    return AspConfig(**{f.name: given[f.name] for f in fields(AspConfig) if f.name in given})


def _selection_to_json(sel: SelectionResult) -> dict:
    doc = {
        "method": sel.method,
        "lambda": sel.lambda_full,
        "theta": list(sel.theta),
        "flags": list(sel.flags),
    }
    for field in ("subsample_size", "lambda_sub", "p", "r"):
        value = getattr(sel, field)
        if value is not None:
            doc[field] = value
    if sel.dropped:
        doc["dropped"] = list(sel.dropped)
    if sel.rate is not None:
        doc["rate"] = {"c": sel.rate.c, "gamma": sel.rate.gamma,
                       "gamma_se": sel.rate.gamma_se, "rss": sel.rate.rss,
                       "clamped": sel.rate.clamped}
    return doc


def run_fit(args) -> int:
    t_start = time.perf_counter()
    _check_outputs(args.out, args.fitted_out, inputs=(args.data,))
    config = _config_from_args(args)
    table = ingest(args.data, args.response,
                   args.continuous or (), args.discrete or ())
    effects = parse_model(args.model, len(table.predictor_names))
    spec = build_model(table.dataset.domains, effects)
    sel = SELECTORS[args.method](table.dataset, spec, config)
    t_fit = time.perf_counter()
    basis = full_sample_basis(table.dataset.n, spec.null_dim, config)
    fit = fit_model(table.dataset, spec, sel.params, basis=basis)
    fit_seconds = time.perf_counter() - t_fit
    doc = {
        "response": args.response,
        "columns": [_column_to_json(name, dom) for name, dom
                    in zip(table.predictor_names, table.dataset.domains)],
        "model": args.model,
        "n": table.dataset.n,
        "selection": _selection_to_json(sel),
        "fit": {
            "q": len(fit.basis_rows),
            "basis_rows": fit.basis_rows.tolist(),
            "d": fit.d.tolist(),
            "c": fit.c.tolist(),
            "log10_nlam": fit.params.log10_nlam,
            "theta": list(fit.params.theta),
            "trace_a": fit.trace_a,
            "gcv": fit.gcv,
        },
        "config": {
            "seed": config.seed, "basis_coef": config.basis_coef,
            "basis_exp": config.basis_exp, "b_coef": config.b_coef,
            "n_subsamples": config.n_subsamples, "r": config.r_default,
            "p": "auto" if config.p is None else config.p,
            "order_c": config.order_c, "gcv_max_iter": config.gcv_max_iter,
        },
        "timing": {
            "selection_seconds": sel.seconds,
            "fit_seconds": fit_seconds,
            "total_seconds": time.perf_counter() - t_start,
        },
    }
    with _open_output(args.out) as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.fitted_out:
        _write_csv_lines(args.fitted_out, "fitted",
                         (repr(value) for value, in _chunked_rows(fit.fitted)))
    print(f"fit written to {args.out}"
          f" (method={sel.method}, lambda={sel.lambda_full:.6g},"
          f" edf={fit.trace_a:.2f})")
    return 0


def _load_fit_document(path: str):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    try:
        names = tuple(c["name"] for c in doc["columns"])
        effects = parse_model(doc["model"], len(names))
        spec = build_model([_column_from_json(c) for c in doc["columns"]], effects)
        fit_doc = doc["fit"]
        theta = [float(v) for v in fit_doc["theta"]]
        if any(v <= 0.0 for v in theta):
            raise ValueError(f"theta must be positive, got {theta}")
        params = SmoothingParams(log10_nlam=float(fit_doc["log10_nlam"]),
                                 log10_theta=tuple(float(np.log10(v)) for v in theta))
        basis_rows = np.asarray(fit_doc["basis_rows"], dtype=float)
        fit = FitResult(
            d=np.asarray(fit_doc["d"], dtype=float),
            c=np.asarray(fit_doc["c"], dtype=float),
            trace_a=float(fit_doc["trace_a"]),
            gcv=float(fit_doc["gcv"]),
            params=params,
            basis_rows=basis_rows,
        )
    except KeyError as exc:
        raise InputError(f"{path} is not a fit document: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise InputError(f"{path} is not a fit document: {exc}") from None
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        raise InputError(f"{path} is not a fit document: columns named more than once: {twice}")
    for field, values in (("c", fit.c), ("d", fit.d), ("basis_rows", basis_rows)):
        if not np.isfinite(values).all():
            raise InputError(f"{path} is not a fit document: fit.{field} has a non-finite entry")
    try:
        # the basis rows are data rows on model scale, under the training data's checks
        Dataset(x=basis_rows, y=np.zeros(basis_rows.shape[:1]), domains=spec.domains)
    except InputError as exc:
        raise InputError(f"{path} is not a fit document: fit.basis_rows: {exc}") from None
    if (fit.d.shape != (spec.null_dim,) or fit.c.shape != basis_rows.shape[:1]
            or len(params.log10_theta) != spec.n_penalized):
        raise InputError(f"{path} is not a fit document: coefficient shapes do not match"
                         " its model")
    return names, spec, fit


def run_predict(args) -> int:
    _check_outputs(args.out, inputs=(args.data, args.fit))
    names, spec, fit = _load_fit_document(args.fit)
    _, x = _read_numeric_csv(args.data, names)
    _check_finite(names, x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            eta, flags = predict(fit, spec, x)
        except InputError as exc:
            if exc.column is None:
                raise
            raise InputError(f"column {names[exc.column]!r}: {exc}") from None
    _write_csv_lines(args.out, "prediction,out_of_range",
                     (f"{value!r},{'true' if flag else 'false'}"
                      for value, flag in _chunked_rows(eta, flags)))
    n_rows = x.shape[0]
    print(f"{n_rows} prediction{'s' if n_rows != 1 else ''} written to {args.out}")
    return 0


def run_simulate(args) -> int:
    _check_outputs(args.out)
    sim = gen_data(args.scenario, args.n, args.snr, seed=args.seed)
    header = [f"x{j + 1}" for j in range(sim.dataset.d)] + ["y"]
    columns = [*sim.dataset.x.T, sim.dataset.y]
    if args.with_truth:
        header.append("eta")
        columns.append(sim.eta)
    _write_csv_lines(args.out, ",".join(header),
                     (",".join(map(repr, row)) for row in _chunked_rows(*columns)))
    print(f"{sim.n} rows written to {args.out} (sigma={sim.sigma:.6g})")
    return 0


def _summary_path(out_path: str) -> str:
    root, ext = os.path.splitext(out_path)
    return f"{root}_summary{ext or '.csv'}"


def _list_option(option: str, text: str, kind) -> list:
    """The comma-separated entries of ``text``, each read by ``kind``."""
    out = []
    for entry in text.split(","):
        try:
            out.append(kind(entry))
        except ValueError:
            raise InputError(f"{option} entry {entry!r} is not a valid {kind.__name__}") from None
    return out


def run_bench(args) -> int:
    scenarios = [s.strip() for s in args.scenario.split(",")]
    ns = _list_option("--n", args.n, int)
    snrs = _list_option("--snr", args.snr, float)
    methods = [m.strip() for m in args.methods.split(",")]
    config = _config_from_args(args)
    summary = _summary_path(args.out)
    _check_outputs(args.out, summary)
    cells = list(itertools.product(scenarios, ns, snrs))
    for cell in cells:
        check_cell(*cell)
    records = []
    for scenario, n, snr in cells:
        records.extend(run_benchmark(
            scenario, n, snr, methods, args.replicates, seed=config.seed,
            config=config, benchmark_max_iter=args.benchmark_max_iter))
    _write_csv_lines(
        args.out, "scenario,n,snr,method,replicate,loss,log_re,wall_time_seconds",
        (f"{r.scenario},{r.n},{r.snr!r},{r.method},{r.replicate},"
         f"{r.loss!r},{r.log_re!r},{r.wall_time_seconds!r}" for r in records))
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault((r.scenario, r.n, r.snr, r.method), []).append(r)
    _write_csv_lines(
        summary, "scenario,n,snr,method,replicates,median_log_re,median_wall_time_seconds",
        (f"{scenario},{n},{snr!r},{method},{len(group)},"
         f"{float(np.median([r.log_re for r in group]))!r},"
         f"{float(np.median([r.wall_time_seconds for r in group]))!r}"
         for (scenario, n, snr, method), group
         in sorted(groups.items(), key=lambda item: item[0])))
    print(f"{len(records)} rows written to {args.out}; summary in {summary}")
    return 0


def _add_config_arguments(parser):
    """The config flags, each stored under its ``AspConfig`` field; one left
    out is absent from the namespace, so the config takes its default."""
    config = parser.add_argument_group("selection config (defaults: AspConfig's)",
                                       argument_default=argparse.SUPPRESS)
    config.add_argument("--b-coef", type=float,
                        help="subsample size coefficient b = round(coef * n^{1/4})")
    config.add_argument("--subsamples", dest="n_subsamples", type=int)
    config.add_argument("--r", dest="r_default", type=float, help="rate order")
    config.add_argument("--p", type=number_or_auto,
                        help="smoothness index in [1,2], or 'auto' (default) to estimate")
    config.add_argument("--order-c", type=float,
                        help="constant for the order-based method")
    config.add_argument("--basis-coef", type=float,
                        help="basis count rule q = round(coef * n^exp)")
    config.add_argument("--basis-exp", type=float)
    config.add_argument("--gcv-max-iter", type=int)
    config.add_argument("--seed", type=int)
    config.add_argument("--jobs", type=int,
                        help="worker processes for subsample fits"
                             " (default: the CPUs this process may use); each worker"
                             " runs BLAS at cpus // workers threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanova",
        description="Tensor-product smoothing spline regression for large samples")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic benchmark dataset")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--snr", type=float, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--with-truth", action="store_true",
                       help="include the noiseless eta column")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(run=run_simulate)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV file")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--response", required=True)
    p_fit.add_argument("--model", required=True,
                       help="comma-separated terms, e.g. '1,2,1:2'")
    p_fit.add_argument("--continuous", action="append", default=None,
                       metavar="COLUMN", help="force a column continuous")
    p_fit.add_argument("--discrete", action="append", default=None,
                       metavar="COLUMN", help="force a column discrete")
    p_fit.add_argument("--method", choices=METHODS, default="asp-u")
    _add_config_arguments(p_fit)
    p_fit.add_argument("--out", required=True, help="fit document (JSON)")
    p_fit.add_argument("--fitted-out", default=None,
                       help="optional CSV of fitted values")
    p_fit.set_defaults(run=run_fit)

    p_pred = sub.add_parser("predict", help="evaluate a stored fit on new rows")
    p_pred.add_argument("--fit", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(run=run_predict)

    # no abbreviations: --method would otherwise be read as --methods
    p_bench = sub.add_parser("bench", help="run the scenario comparison harness",
                             allow_abbrev=False)
    p_bench.add_argument("--scenario", required=True,
                         help="comma-separated scenario ids")
    p_bench.add_argument("--n", required=True, help="comma-separated sizes")
    p_bench.add_argument("--snr", required=True, help="comma-separated ratios")
    p_bench.add_argument("--methods", required=True,
                         help=f"comma-separated from {METHODS}")
    p_bench.add_argument("--replicates", type=int, default=10)
    p_bench.add_argument("--benchmark-max-iter", type=int, default=None,
                         help="cap the benchmark's iterations (high-dim runs use 1)")
    _add_config_arguments(p_bench)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(run=run_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
