"""Command-line interface: CSV in, fitted models and reports out.

Four subcommands: ``simulate`` writes a synthetic dataset, ``fit`` ingests
a CSV and fits the model with the chosen selection method, ``predict``
evaluates a stored fit on new rows, and ``bench`` runs the scenario
comparison harness.  Exit codes: 0 success, 2 input error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .asp import AspConfig, SelectionResult, full_sample_basis
from .data import Dataset
from .kernels import PredictorDomain, build_model
from .simulate import SCENARIOS, SELECTORS, gen_data, run_benchmark
from .solver import FitResult, SmoothingParams, fit_model, predict
from .util import InputError, NumericalError

DISCRETE_INFERENCE_MAX_LEVELS = 20
# Output lines joined per write in ``_write_csv_lines``.
CSV_WRITE_LINES = 65536


@dataclass(frozen=True)
class IngestedTable:
    """A parsed CSV: model-ready dataset plus the predictor column names."""

    dataset: Dataset
    response: str
    predictor_names: tuple[str, ...]


def _column_to_json(name: str, domain: PredictorDomain) -> dict:
    if domain.is_continuous:
        return {"name": name, "kind": domain.kind, "lo": domain.lo, "hi": domain.hi}
    return {"name": name, "kind": domain.kind, "levels": list(domain.levels)}


def _column_from_json(doc: dict) -> PredictorDomain:
    if doc["kind"] == "continuous":
        return PredictorDomain.continuous(float(doc["lo"]), float(doc["hi"]))
    return PredictorDomain.discrete(tuple(float(v) for v in doc["levels"]))


def _read_csv_table(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row]
    if not rows:
        raise InputError(f"{path} is empty")
    return rows[0], rows[1:]


def _parse_numeric_table(header, raw_rows, columns=None):
    """The cells of ``columns`` (default: all) to float, in that order.

    Rows narrower or wider than the header, and missing or non-numeric
    cells in those columns, are reported by position; other columns are
    not read.  A table whose rows all have the header's width is parsed by
    one numpy conversion, which accepts the same cells as ``float``; only
    when a row is ragged or a cell fails does the per-cell loop run, to
    find them.  A column read must be named once in the header.
    """
    every = list(range(len(header)))
    read = [name for name in header if columns is None or name in columns]
    twice = sorted({name for name in read if read.count(name) > 1})
    if twice:
        raise InputError(f"columns named more than once in the header: {twice}")
    idx = every if columns is None else [header.index(name) for name in columns]
    if all(len(row) == len(header) for row in raw_rows):
        cells = raw_rows if idx == every else [[row[j] for j in idx] for row in raw_rows]
        try:
            return np.array(cells, dtype=float).reshape(len(raw_rows), len(idx))
        except ValueError:
            pass
    missing, bad = [], []
    table = np.empty((len(raw_rows), len(idx)))
    for i, row in enumerate(raw_rows):
        if len(row) != len(header) or any(row[j].strip() == "" for j in idx):
            missing.append(i + 1)
            continue
        for col, j in enumerate(idx):
            try:
                table[i, col] = float(row[j])
            except ValueError:
                bad.append((i + 1, header[j]))
    if missing:
        shown = ", ".join(str(r) for r in missing[:10])
        raise InputError(f"rows with missing cells: {shown}"
                         + (" ..." if len(missing) > 10 else ""))
    if bad:
        row, col = bad[0]
        raise InputError(f"non-numeric cell at row {row}, column {col!r}")
    return table


def _check_finite(names, table) -> None:
    """Raise on the first nan or inf cell, by row and column name."""
    rows, cols = np.nonzero(~np.isfinite(table))
    if rows.size:
        raise InputError(f"non-finite cell at row {rows[0] + 1}, column {names[cols[0]]!r}")


def _write_csv_lines(path: str, header: str, lines) -> None:
    """Write a header and CSV lines with the CRLF line ends of ``csv.writer``.

    ``lines`` may be a generator: it is joined and written CSV_WRITE_LINES
    lines at a time, so the text of a large file is never held whole.
    Every field written this way is a float or int repr, a bare word, a
    plain column name, a checked scenario id or a validated method name,
    which ``csv.writer`` would not quote either.
    """
    lines = iter(lines)
    with open(path, "w", newline="") as handle:
        handle.write(f"{header}\r\n")
        while chunk := list(itertools.islice(lines, CSV_WRITE_LINES)):
            handle.write("\r\n".join(chunk) + "\r\n")


def _infer_domain(name: str, values: np.ndarray, override: str | None) -> PredictorDomain:
    distinct = np.unique(values)
    if distinct.size < 2:
        raise InputError(f"column {name!r} is constant; cannot scale")
    if override == "discrete" or (
            override is None
            and distinct.size <= DISCRETE_INFERENCE_MAX_LEVELS
            and np.all(values == np.round(values))):
        return PredictorDomain.discrete(tuple(distinct.tolist()))
    return PredictorDomain.continuous(values.min(), values.max())


def ingest(csv_path: str, response_column: str,
           continuous_overrides=(), discrete_overrides=()) -> IngestedTable:
    """Parse a CSV into a model-ready dataset whose domains hold the scaling.

    Continuous columns are min-max scaled to [0, 1]; integer-valued columns
    with at most 20 distinct values are treated as discrete factors unless
    overridden.  Missing cells are rejected by row, nan or inf by cell.
    """
    header, raw_rows = _read_csv_table(csv_path)
    if response_column not in header:
        raise InputError(f"response column {response_column!r} not in header {header}")
    if not raw_rows:
        raise InputError(f"{csv_path} has a header but no data rows")
    overrides = {}
    for name in continuous_overrides:
        overrides[name] = "continuous"
    for name in discrete_overrides:
        if overrides.get(name) == "continuous":
            raise InputError(f"column {name!r} marked both continuous and discrete")
        overrides[name] = "discrete"
    unknown = set(overrides) - set(header)
    if unknown:
        raise InputError(f"override columns not in header: {sorted(unknown)}")
    table = _parse_numeric_table(header, raw_rows)
    _check_finite(header, table)
    resp_idx = header.index(response_column)
    y = table[:, resp_idx]
    cols = [j for j in range(len(header)) if j != resp_idx]
    if not cols:
        raise InputError("no predictor columns besides the response")
    names = tuple(header[j] for j in cols)
    x = table[:, cols]
    domains = [_infer_domain(name, x[:, j], overrides.get(name))
               for j, name in enumerate(names)]
    dataset = Dataset.from_raw(x, y, domains)
    return IngestedTable(dataset=dataset, response=response_column,
                         predictor_names=names)


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


METHODS = ("gcv", "skip", "asp-u", "asp-a", "order")


def _config_from_args(args) -> AspConfig:
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        env = os.environ.get("SPANOVA_JOBS")
        try:
            jobs = int(env) if env else None
        except ValueError:
            raise InputError(f"SPANOVA_JOBS must be an integer, got {env!r}") from None
    p_text = getattr(args, "p", "auto")
    estimate = p_text == "auto"
    if estimate:
        p_default = 1.0
    else:
        try:
            p_default = float(p_text)
        except ValueError:
            raise InputError(f"--p must be a number or 'auto', got {p_text!r}") from None
    return AspConfig(
        b_coef=args.b_coef,
        n_subsamples=args.subsamples,
        r_default=args.r,
        p_default=p_default,
        order_c=args.order_c,
        estimate_smoothness=estimate,
        basis_coef=args.basis_coef,
        basis_exp=args.basis_exp,
        gcv_max_iter=args.gcv_max_iter,
        seed=args.seed,
        jobs=jobs,
    )


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
    table = ingest(args.data, args.response,
                   args.continuous or (), args.discrete or ())
    effects = parse_model(args.model, len(table.predictor_names))
    spec = build_model(table.dataset.domains, effects)
    config = _config_from_args(args)
    sel = SELECTORS[args.method](table.dataset, spec, config)
    t_fit = time.perf_counter()
    basis = full_sample_basis(table.dataset.n, spec.null_dim, config)
    fit = fit_model(table.dataset, spec, sel.params, basis=basis)
    fit_seconds = time.perf_counter() - t_fit
    doc = {
        "response": table.response,
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
            "p": "auto" if config.estimate_smoothness else config.p_default,
            "order_c": config.order_c, "gcv_max_iter": config.gcv_max_iter,
        },
        "timing": {
            "selection_seconds": sel.seconds,
            "fit_seconds": fit_seconds,
            "total_seconds": time.perf_counter() - t_start,
        },
    }
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.fitted_out:
        _write_csv_lines(args.fitted_out, "fitted", map(repr, fit.fitted.tolist()))
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
            fitted=np.empty(0),
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
    if (basis_rows.ndim != 2 or basis_rows.shape[1] != len(names)
            or fit.d.shape != (spec.null_dim,) or fit.c.shape != (basis_rows.shape[0],)
            or len(params.log10_theta) != spec.n_penalized):
        raise InputError(f"{path} is not a fit document: coefficient shapes do not match"
                         " its model")
    return doc, names, spec, fit


def run_predict(args) -> int:
    doc, names, spec, fit = _load_fit_document(args.fit)
    header, raw_rows = _read_csv_table(args.data)
    missing = [name for name in names if name not in header]
    if missing:
        raise InputError(f"input is missing predictor columns: {missing}")
    x = _parse_numeric_table(header, raw_rows, names)
    _check_finite(names, x)
    for name, dom, col in zip(names, spec.domains, x.T):
        if not dom.is_continuous:
            try:
                dom.rescale(col)
            except InputError as exc:
                raise InputError(f"column {name!r}: {exc}") from None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eta, flags = predict(fit, spec, x)
    _write_csv_lines(args.out, "prediction,out_of_range",
                     (f"{value!r},{'true' if flag else 'false'}"
                      for value, flag in zip(eta.tolist(), flags.tolist())))
    n_rows = len(raw_rows)
    print(f"{n_rows} prediction{'s' if n_rows != 1 else ''} written to {args.out}")
    return 0


def run_simulate(args) -> int:
    if args.scenario not in SCENARIOS:
        raise InputError(f"unknown scenario {args.scenario!r};"
                         f" choose from {sorted(SCENARIOS)}")
    sim = gen_data(args.scenario, args.n, args.snr, seed=args.seed)
    header = [f"x{j + 1}" for j in range(sim.dataset.d)] + ["y"]
    columns = [sim.dataset.x, sim.dataset.y]
    if args.with_truth:
        header.append("eta")
        columns.append(sim.eta)
    table = np.column_stack(columns)
    rows = (row for lo in range(0, sim.n, CSV_WRITE_LINES)
            for row in table[lo:lo + CSV_WRITE_LINES].tolist())
    _write_csv_lines(args.out, ",".join(header), (",".join(map(repr, row)) for row in rows))
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
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise InputError(f"unknown methods {bad}; choose from {METHODS}")
    config = _config_from_args(args)
    records = []
    for scenario in scenarios:
        for n in ns:
            for snr in snrs:
                records.extend(run_benchmark(
                    scenario, n, snr, methods, args.replicates, seed=args.seed,
                    config=config, benchmark_max_iter=args.benchmark_max_iter))
    _write_csv_lines(
        args.out, "scenario,n,snr,method,replicate,loss,log_re,wall_time_seconds",
        (f"{r.scenario},{r.n},{r.snr!r},{r.method},{r.replicate},"
         f"{r.loss!r},{r.log_re!r},{r.wall_time_seconds!r}" for r in records))
    cells: dict[tuple, list] = {}
    for r in records:
        cells.setdefault((r.scenario, r.n, r.snr, r.method), []).append(r)
    summary = _summary_path(args.out)
    _write_csv_lines(
        summary, "scenario,n,snr,method,replicates,median_log_re,median_wall_time_seconds",
        (f"{scenario},{n},{snr!r},{method},{len(group)},"
         f"{float(np.median([r.log_re for r in group]))!r},"
         f"{float(np.median([r.wall_time_seconds for r in group]))!r}"
         for (scenario, n, snr, method), group
         in sorted(cells.items(), key=lambda item: item[0])))
    print(f"{len(records)} rows written to {args.out}; summary in {summary}")
    return 0


def _add_config_arguments(parser):
    parser.add_argument("--b-coef", type=float, default=50.0,
                        help="subsample size coefficient b = round(coef * n^{1/4})")
    parser.add_argument("--subsamples", type=int, default=5)
    parser.add_argument("--r", type=float, default=3.0, help="rate order")
    parser.add_argument("--p", default="auto",
                        help="smoothness index in [1,2], or 'auto' to estimate")
    parser.add_argument("--order-c", type=float, default=1.0,
                        help="constant for the order-based method")
    parser.add_argument("--basis-coef", type=float, default=10.0,
                        help="basis count rule q = round(coef * n^exp)")
    parser.add_argument("--basis-exp", type=float, default=2.0 / 9.0)
    parser.add_argument("--gcv-max-iter", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for subsample fits"
                             " (default: SPANOVA_JOBS or all cores); each worker"
                             " runs BLAS at cpu_count // workers threads")


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
