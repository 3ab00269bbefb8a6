"""Benchmark workloads: set-up, one round of operations, correctness gate.

Each workload is a closed loop with one caller: one selection, fit, predict
or command at a time, in this process.  The only other processes are the
subsample pool that ``asp-u`` starts itself.  A round runs the workload's
operations once, timing each call from outside; the benchmark repeats
rounds on the same inputs and reports medians.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import spanova
from spanova import cli
from spanova.simulate import SCENARIOS

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Tolerances of the reference comparison at the default seed.  They admit
# last-bit differences between BLAS thread counts, not a different optimum.
NLAM_TOL = 0.02
LOSS_RTOL = 0.02
# predict() at the training rows must reproduce fit.fitted to this relative
# accuracy (both evaluate the same coefficients on the same rows).
PREDICT_RTOL = 1e-8
# full_gcv starts from skip and accepts only strict improvements, so its
# final score is no higher than skip's; this slack covers the two solve
# paths (stacked QR inside the search, Cholesky in fit_model) disagreeing.
GCV_SCORE_RTOL = 1e-6
SNR = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    n: int
    n_holdout: int
    kind: str = "api"
    methods: tuple[str, ...] = ("gcv", "skip", "order")
    gcv_max_iter: int = 30
    # subsample workers in the timed runs; None is the program's default
    jobs: int | None = None


# The work of a run must not depend on the seed, or the spread across seeds
# comes from the data instead of the code: full gcv converged in 3-6
# iterations on tall-m1 and subsample fits in 3-9, so both searches are
# capped below that (every seed reaches the cap).  cli-asp-m1 is timed with
# one worker: under the default pool two processes each run two OpenBLAS
# threads on a 2-CPU machine, and the same command on the same data took
# 11.8-15.4 s.  The traced run profiles that default pool.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="tall-m1",
            why=("n >> p: stacked QRs in gcv._exact_score dominate gcv, so "
                 "compress-once scoring shows here; order isolates kernel assembly"),
            scenario="m1", n=10000, n_holdout=10000, gcv_max_iter=2),
        Workload(
            name="wide-m4",
            why=("p = M + S q > n with S = 87 terms: compression is bypassed and "
                 "DesignBlocks.combine carries much of gcv; incremental combine shows here"),
            scenario="m4", n=2000, n_holdout=2000, gcv_max_iter=1),
        Workload(
            name="cli-asp-m1",
            why=("the user's path: spanova fit --method asp-u and spanova predict on "
                 "20000-row CSVs; subsample fits, CSV ingest and writes, no search on all rows"),
            scenario="m1", n=20000, n_holdout=20000, kind="cli", methods=("asp-u",),
            gcv_max_iter=3, jobs=1),
    )
}

# Sizes for the benchmark's own smoke tests.
TINY = {"tall-m1": (400, 200), "wide-m4": (200, 100), "cli-asp-m1": (400, 200)}

CLI_MODELS = {"m1": "1,2,1:2"}


def sized(workload: Workload, tiny: bool) -> Workload:
    if not tiny:
        return workload
    n, n_holdout = TINY[workload.name]
    return replace(workload, n=n, n_holdout=n_holdout)


def holdout_seed(seed: int) -> int:
    return seed + 1_000_003


class Context:
    """Inputs of one workload, made from the seed during set-up."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, jobs: int | None):
        self.workload = workload
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.spec = SCENARIOS[workload.scenario].spec
        self.config = spanova.AspConfig(gcv_max_iter=workload.gcv_max_iter, seed=seed,
                                        jobs=jobs)
        self.jobs = jobs
        self.sim = spanova.gen_data(workload.scenario, workload.n, SNR, seed=seed)
        self.hold = spanova.gen_data(workload.scenario, workload.n_holdout, SNR,
                                     seed=holdout_seed(seed))
        self.basis = spanova.full_sample_basis(workload.n, self.spec.null_dim, self.config)
        if workload.kind == "cli":
            self.work_dir.mkdir(parents=True, exist_ok=True)
            self.train_csv = self.work_dir / "train.csv"
            self.holdout_csv = self.work_dir / "holdout.csv"
            _write_csv(self.train_csv, self.sim.dataset.x, self.sim.dataset.y)
            _write_csv(self.holdout_csv, self.hold.dataset.x, None)


def _write_csv(path: Path, x: np.ndarray, y: np.ndarray | None):
    header = [f"x{j + 1}" for j in range(x.shape[1])]
    table = x
    if y is not None:
        header.append("y")
        table = np.column_stack([x, y])
    np.savetxt(path, table, delimiter=",", header=",".join(header), comments="",
               fmt="%.17g")


def setup(workload: Workload, seed: int, work_dir: Path, jobs: int | None):
    """Build the inputs; returns (context, seconds)."""
    t0 = time.perf_counter()
    ctx = Context(workload, seed, work_dir, jobs)
    return ctx, time.perf_counter() - t0


def load_reference(workload: Workload):
    """Reference selections at the default seed, or None for other sizes."""
    if not REFERENCE_FILE.exists():
        return None
    with open(REFERENCE_FILE) as handle:
        doc = json.load(handle)
    ref = doc["workloads"].get(workload.name)
    if ref is None or ref["n"] != workload.n:
        return None
    return ref["methods"]


class Round:
    """Timings and gate findings of one round."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.selected: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[str] = set()

    def fail(self, op: str, what: str):
        self.failed_ops.add(op)
        self.failures.append(f"{op}: {what}")

    @property
    def model_s(self) -> float:
        """Time from data to fitted models: every selection and fit."""
        return sum(sum(v) for k, v in self.times.items()
                   if k.startswith(("select.", "fit.")) or k == "fit_cmd")

    @property
    def total_s(self) -> float:
        return sum(sum(v) for v in self.times.values())


def _timed(rnd: Round, op: str, tracer, fn, *args, **kwargs):
    rnd.attempted += 1
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.run_op(op, fn, *args, **kwargs)
    except Exception:
        rnd.fail(op, f"raised\n{traceback.format_exc()}")
        return None
    rnd.times.setdefault(op, []).append(time.perf_counter() - t0)
    return result


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _check_reference(rnd: Round, ctx: Context, op: str, method: str, log10_nlam: float,
                     loss: float):
    if ctx.seed != REFERENCE_SEED:
        return
    ref = load_reference(ctx.workload)
    if ref is None or method not in ref:
        return
    want = ref[method]
    if abs(log10_nlam - want["log10_nlam"]) > NLAM_TOL:
        rnd.fail(op, f"log10_nlam {log10_nlam:.6f} vs reference "
                 f"{want['log10_nlam']:.6f} (tol {NLAM_TOL})")
    if abs(loss - want["loss"]) > LOSS_RTOL * want["loss"]:
        rnd.fail(op, f"loss {loss:.6g} vs reference {want['loss']:.6g} "
                 f"(rtol {LOSS_RTOL})")


def api_round(ctx: Context, tracer=None, full_gate: bool = True) -> Round:
    """Select with each method, fit at the selection, predict the holdout."""
    rnd = Round()
    ds, spec = ctx.sim.dataset, ctx.spec
    selectors = {"gcv": spanova.gcv_select, "skip": spanova.skip_selection,
                 "order": spanova.order_selection}
    fits = {}
    for method in ctx.workload.methods:
        sel = _timed(rnd, f"select.{method}", tracer, selectors[method], ds, spec, ctx.config)
        if sel is None:
            continue
        fit = _timed(rnd, f"fit.{method}", tracer, spanova.fit_model, ds, spec, sel.params,
                     basis=ctx.basis)
        if fit is None:
            continue
        out = _timed(rnd, f"predict.{method}", tracer, spanova.predict, fit, spec,
                     ctx.hold.dataset.x)
        if out is None:
            continue
        fits[method] = fit
        params = sel.params
        if not (np.isfinite(params.log10_nlam) and np.isfinite(params.log10_theta).all()):
            rnd.fail(f"select.{method}", "non-finite selected parameters")
        if not np.isfinite(fit.fitted).all() or not np.isfinite(out[0]).all():
            rnd.fail(f"fit.{method}", "non-finite fitted or predicted values")
            continue
        loss = spanova.loss(fit.fitted, ctx.sim.eta)
        rnd.selected[method] = {"log10_nlam": params.log10_nlam, "loss": loss}
        if full_gate:
            at_train, _ = spanova.predict(fit, spec, ds.x)
            err = _rel_err(at_train, fit.fitted)
            if not err <= PREDICT_RTOL:
                rnd.fail(f"fit.{method}", f"predict at the training rows differs from "
                         f"fit.fitted by {err:.3g} relative (tol {PREDICT_RTOL})")
            _check_reference(rnd, ctx, f"select.{method}", method, params.log10_nlam, loss)
    if full_gate and "gcv" in fits and "skip" in fits:
        g, s = fits["gcv"].gcv, fits["skip"].gcv
        if not g <= s * (1.0 + GCV_SCORE_RTOL):
            rnd.fail("select.gcv", f"gcv score {g:.9g} above skip score {s:.9g} "
                     "on the same basis")
    return rnd


def _read_column(path: Path, column: str) -> np.ndarray:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return np.array([float(row[column]) for row in reader])


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def cli_round(ctx: Context, tracer=None, full_gate: bool = True) -> Round:
    """``spanova fit --method asp-u`` then ``spanova predict`` on the holdout."""
    rnd = Round()
    wd = ctx.work_dir
    fit_json, fitted_csv, pred_csv = wd / "fit.json", wd / "fitted.csv", wd / "pred.csv"
    fit_argv = ["fit", "--data", str(ctx.train_csv), "--response", "y",
                "--model", CLI_MODELS[ctx.workload.scenario], "--method", "asp-u",
                "--seed", str(ctx.seed), "--gcv-max-iter", str(ctx.workload.gcv_max_iter),
                "--out", str(fit_json),
                "--fitted-out", str(fitted_csv)]
    if ctx.jobs is not None:
        fit_argv += ["--jobs", str(ctx.jobs)]
    for op, argv in (("fit_cmd", fit_argv),
                     ("predict_cmd", ["predict", "--fit", str(fit_json),
                                      "--data", str(ctx.holdout_csv), "--out", str(pred_csv)])):
        rc = _timed(rnd, op, tracer, _quiet, cli.main, argv)
        if rc != 0:
            if rc is not None:  # None: it raised, already recorded
                rnd.fail(op, f"spanova {argv[0]} exited with {rc}")
            return rnd
    fitted = _read_column(fitted_csv, "fitted")
    pred = _read_column(pred_csv, "prediction")
    with open(fit_json) as handle:
        doc = json.load(handle)
    log10_nlam = float(doc["fit"]["log10_nlam"])
    theta = np.asarray(doc["fit"]["theta"], dtype=float)
    if not (math.isfinite(log10_nlam) and np.isfinite(theta).all() and (theta > 0).all()):
        rnd.fail("fit_cmd", "non-finite selected parameters in fit.json")
    if fitted.shape != (ctx.workload.n,) or not np.isfinite(fitted).all():
        rnd.fail("fit_cmd", f"fitted.csv has {fitted.size} rows, want {ctx.workload.n} finite")
        return rnd
    if pred.shape != (ctx.workload.n_holdout,) or not np.isfinite(pred).all():
        rnd.fail("predict_cmd",
                 f"pred.csv has {pred.size} rows, want {ctx.workload.n_holdout} finite")
    loss = spanova.loss(fitted, ctx.sim.eta)
    rnd.selected["asp-u"] = {"log10_nlam": log10_nlam, "loss": loss}
    if full_gate:
        train_pred = wd / "train_pred.csv"
        rc = _quiet(cli.main, ["predict", "--fit", str(fit_json),
                               "--data", str(ctx.train_csv), "--out", str(train_pred)])
        if rc != 0:
            rnd.fail("fit_cmd", f"spanova predict on the training rows exited with {rc}")
        else:
            err = _rel_err(_read_column(train_pred, "prediction"), fitted)
            if not err <= PREDICT_RTOL:
                rnd.fail("fit_cmd", f"predict at the training rows differs from "
                         f"fitted.csv by {err:.3g} relative (tol {PREDICT_RTOL})")
        _check_reference(rnd, ctx, "fit_cmd", "asp-u", log10_nlam, loss)
    return rnd


def run_round(ctx: Context, tracer=None, full_gate: bool = True) -> Round:
    fn = cli_round if ctx.workload.kind == "cli" else api_round
    return fn(ctx, tracer, full_gate)


def run_rounds(ctx: Context, seconds: float, tracer=None, gate_first: bool = True):
    """Repeat rounds until ``seconds`` have passed; always at least one."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(ctx, tracer, full_gate=gate_first and not rounds))
        if time.perf_counter() - t0 >= seconds:
            return rounds


def median_of(rounds, prefix) -> tuple[float, int]:
    """Median over every call whose operation starts with ``prefix``."""
    values = [v for r in rounds for k, vs in r.times.items() if k.startswith(prefix)
              for v in vs]
    return (statistics.median(values), len(values)) if values else (float("nan"), 0)
