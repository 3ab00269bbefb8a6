"""Outside-in layer trace for the benchmark.

Wraps spanova functions and methods from outside the package, records one
span per call (name, start, end, parent) and a few computed work counts, and
turns them into per-layer metrics.  Nothing under ``src/`` is edited: a
function is replaced in every spanova module (and every dict, such as
``simulate.SELECTORS``) that holds a reference to it, so ``from x import y``
call sites see the wrapper too.

Subsample fits run in worker processes forked from the traced process, so
the wrappers run there as well.  Forked workers exit without ``atexit``, so
a worker writes the spans it recorded to a spool file each time it finishes
``asp._fit_subsample``; the parent merges the spool files afterwards.
Span times from workers add to the same per-layer totals, so on a workload
with a pool those totals are time summed over processes, not wall time.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, defining module, attribute path).  A target whose attribute no
# longer exists is reported as missing instead of failing the run, so the
# trace survives refactors that remove or rename internals.
TARGETS = (
    ("kernels.term_gram", "spanova.kernels", "term_gram"),
    ("solver.assemble_blocks", "spanova.solver", "assemble_blocks"),
    ("solver.combine", "spanova.solver", "DesignBlocks.combine"),
    ("solver.compiled_design", "spanova.solver", "CompiledDesign.__init__"),
    ("solver.fit_model", "spanova.solver", "fit_model"),
    ("solver.svd_fallback", "spanova.solver", "_stacked_fit"),
    ("solver.predict", "spanova.solver", "predict"),
    ("gcv.exact_score", "spanova.gcv", "_exact_score"),
    ("gcv.profile_build", "spanova.gcv", "LambdaProfile.__init__"),
    ("gcv.profile_score", "spanova.gcv", "LambdaProfile.score"),
    ("gcv.golden_minimize", "spanova.gcv", "golden_minimize"),
    ("gcv.full_gcv", "spanova.gcv", "full_gcv"),
    ("gcv.skip_select", "spanova.gcv", "skip_select"),
    ("asp.subsample_fits", "spanova.asp", "_run_subsample_fits"),
    ("asp.fit_subsample", "spanova.asp", "_fit_subsample"),
    ("asp.estimate_p", "spanova.asp", "estimate_p"),
    ("select.gcv", "spanova.asp", "gcv_select"),
    ("select.skip", "spanova.asp", "skip_selection"),
    ("select.order", "spanova.asp", "order_selection"),
    ("select.asp-u", "spanova.asp", "asp_uniform"),
    ("cli.ingest", "spanova.cli", "ingest"),
    ("cli.run_fit", "spanova.cli", "run_fit"),
    ("cli.load_fit", "spanova.cli", "_load_fit_document"),
    ("cli.run_predict", "spanova.cli", "run_predict"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.  Each entry is
# (metric, unit, spans whose wrapping it needs).
LAYER_METRICS = (
    ("kernels.term_gram.calls", "count", ("kernels.term_gram",)),
    ("kernels.term_gram.s", "s", ("kernels.term_gram",)),
    ("kernels.term_gram.cells", "count", ("kernels.term_gram",)),
    ("solver.assemble_blocks.calls", "count", ("solver.assemble_blocks",)),
    ("solver.assemble_blocks.s", "s", ("solver.assemble_blocks",)),
    ("solver.combine.calls", "count", ("solver.combine",)),
    ("solver.combine.s", "s", ("solver.combine",)),
    ("solver.compiled_design.calls", "count", ("solver.compiled_design",)),
    ("solver.compiled_design.s", "s", ("solver.compiled_design",)),
    ("solver.fit_model.calls", "count", ("solver.fit_model",)),
    ("solver.fit_model.s", "s", ("solver.fit_model",)),
    ("solver.svd_fallback.calls", "count", ("solver.svd_fallback",)),
    ("solver.predict.s", "s", ("solver.predict",)),
    ("gcv.exact_score.calls", "count", ("gcv.exact_score",)),
    ("gcv.exact_score.s", "s", ("gcv.exact_score",)),
    ("gcv.exact_score.rows", "count", ("gcv.exact_score",)),
    ("gcv.exact_score.gflop", "gflop", ("gcv.exact_score",)),
    ("gcv.profile_build.calls", "count", ("gcv.profile_build",)),
    ("gcv.profile_build.s", "s", ("gcv.profile_build",)),
    ("gcv.profile_score.calls", "count", ("gcv.profile_score",)),
    ("gcv.profile_score.s", "s", ("gcv.profile_score",)),
    ("gcv.golden_minimize.calls", "count", ("gcv.golden_minimize",)),
    ("gcv.golden_minimize.s", "s", ("gcv.golden_minimize",)),
    ("gcv.full_gcv.s", "s", ("gcv.full_gcv",)),
    ("gcv.full_gcv.iterations", "count", ("gcv.full_gcv",)),
    ("gcv.skip_select.s", "s", ("gcv.skip_select",)),
    ("asp.subsample_fits.s", "s", ("asp.subsample_fits",)),
    ("asp.subsample_fits.attempted", "count", ("asp.subsample_fits",)),
    ("asp.subsample_fits.dropped", "count", ("asp.subsample_fits",)),
    ("asp.fit_subsample.median_s", "s", ("asp.fit_subsample",)),
    ("asp.fit_subsample.sum_s", "s", ("asp.fit_subsample",)),
    ("asp.pool.busy_frac", "frac", ("asp.fit_subsample", "asp.subsample_fits")),
    ("asp.estimate_p.s", "s", ("asp.estimate_p",)),
    ("cli.ingest.s", "s", ("cli.ingest",)),
    ("cli.run_fit.self_s", "s", ("cli.run_fit",)),
    ("cli.load_fit.s", "s", ("cli.load_fit",)),
    ("cli.run_predict.self_s", "s", ("cli.run_predict",)),
    ("share.exact_score_of_gcv", "frac", ("gcv.exact_score", "select.gcv")),
    ("share.exact_combine_of_gcv", "frac",
     ("gcv.exact_score", "solver.combine", "select.gcv")),
    ("share.subsample_fits_of_asp", "frac", ("asp.subsample_fits", "select.asp-u")),
)


def _rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _term_gram_counts(result, args, kwargs):
    # computed: one kernel entry per (row, basis row) pair
    return {"cells": _rows(args[2]) * _rows(args[3])}


def _exact_score_counts(result, args, kwargs):
    """Computed flops of one stacked-QR score (not measured).

    The stack has r = n + q rows and c = M + q columns.  A Householder QR
    with explicit reduced Q costs about 4rc^2 - 4c^3/3 flops, the
    triangular solve for tr(A) about n c^2, the products with y and beta
    about 6nc.
    """
    design = args[0]
    r = design.n + design.nq
    c = design.m + design.nq
    flop = 4.0 * r * c * c - 4.0 * c**3 / 3.0 + design.n * c * c + 6.0 * design.n * c
    return {"rows": r, "gflop": flop / 1e9}


def _full_gcv_counts(result, args, kwargs):
    return {"iterations": result.iterations}


def _subsample_fits_counts(result, args, kwargs):
    sizes, config = args[2], args[3]
    return {
        "attempted": len(sizes),
        "dropped": result[1],
        # the pool size the program uses: min(worker_count, jobs)
        "workers": min(config.worker_count, len(sizes)),
    }


COUNTERS = {
    "kernels.term_gram": _term_gram_counts,
    "gcv.exact_score": _exact_score_counts,
    "gcv.full_gcv": _full_gcv_counts,
    "asp.subsample_fits": _subsample_fits_counts,
}


class Tracer:
    """Spans and counts recorded by the installed wrappers.

    A span is a dict with name, start, end, parent (index into ``spans`` or
    None), op (the benchmark operation it ran under) and, for spans merged
    from worker processes, ``worker`` = True.
    """

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.stack: list[int] = []
        self.op: str | None = None
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _enter_process(self):
        """In a forked worker, drop the state copied from the parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.counts, self.stack = [], {}, []
            self.op = "worker"

    def begin(self, name: str) -> int:
        self._enter_process()
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self.op})
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int, counts: dict | None = None):
        self.spans[idx]["end"] = time.perf_counter()
        self.stack.pop()
        for key, value in (counts or {}).items():
            self.counts[(idx, key)] = float(value)

    def run_op(self, op: str, fn, *args, **kwargs):
        """Run one benchmark operation with its spans tagged ``op``."""
        self.op = op
        try:
            return fn(*args, **kwargs)
        finally:
            self.op = None

    def flush_worker(self):
        """Write this worker's spans to its spool file and forget them."""
        if not self.spans:
            return
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for idx, span in enumerate(self.spans):
                counts = {k: v for (i, k), v in self.counts.items() if i == idx}
                # parents as offsets, so batches from one worker can be appended
                back = None if span["parent"] is None else idx - span["parent"]
                handle.write(json.dumps({**span, "parent": back, "counts": counts}) + "\n")
            handle.flush()
        self.spans, self.counts, self.stack = [], {}, []

    def merge_workers(self):
        """Fold worker spool files into this tracer, then delete them."""
        if not self.spool_dir.is_dir():
            return
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with open(path) as handle:
                records = [json.loads(line) for line in handle if line.strip()]
            for rec in records:
                counts = rec.pop("counts")
                idx = len(self.spans)
                if rec["parent"] is not None:
                    rec["parent"] = idx - rec["parent"]
                rec["worker"] = True
                self.spans.append(rec)
                for key, value in counts.items():
                    self.counts[(idx, key)] = value
            path.unlink()

    # -- installation ----------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        flush = name == "asp.fit_subsample"
        parent_pid = self.pid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(result, args, kwargs)
                return result
            finally:
                self.end(idx, counts)
                if flush and os.getpid() != parent_pid:
                    self.flush_worker()

        return wrapper

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "spanova" or key.startswith("spanova."))]
        for name, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            owner, attr = module, path
            if module is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner is not module:
                # a method: replacing it on the class reaches every caller
                self._replace(owner, attr, original, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)
                        elif isinstance(value, dict):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is original:
                                    value[dkey] = wrapper
                                    self.installed.append((value, dkey, original))

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.installed.clear()

    # -- metrics ---------------------------------------------------------

    def _by_name(self, name: str):
        return [i for i, s in enumerate(self.spans) if s["name"] == name and s["end"] is not None]

    def _duration(self, idx: int) -> float:
        span = self.spans[idx]
        return span["end"] - span["start"]

    def _count(self, name: str, key: str) -> float:
        return sum(self.counts.get((i, key), 0.0) for i in self._by_name(name))

    def _total(self, name: str, op: str | None = None) -> float:
        return sum(self._duration(i) for i in self._by_name(name)
                   if op is None or self.spans[i]["op"] == op)

    def _self_time(self, name: str) -> float:
        """Span time minus the time of its direct child spans."""
        children = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span["parent"] is not None and span["end"] is not None:
                children[span["parent"]] += self._duration(i)
        return sum(self._duration(i) - children[i] for i in self._by_name(name))

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round; shares are time fractions."""
        per = 1.0 / max(rounds, 1)
        worker_fits = [self._duration(i) for i in self._by_name("asp.fit_subsample")]
        pool_capacity = sum(self._duration(i) * self.counts.get((i, "workers"), 1.0)
                            for i in self._by_name("asp.subsample_fits"))
        gcv_s = self._total("select.gcv")
        asp_s = self._total("select.asp-u")

        def frac(num, den):
            return num / den if den > 0 else 0.0

        values = {
            "kernels.term_gram.cells": self._count("kernels.term_gram", "cells") * per,
            "gcv.exact_score.rows": self._count("gcv.exact_score", "rows") * per,
            "gcv.exact_score.gflop": self._count("gcv.exact_score", "gflop") * per,
            "gcv.full_gcv.iterations": self._count("gcv.full_gcv", "iterations") * per,
            "asp.subsample_fits.attempted":
                self._count("asp.subsample_fits", "attempted") * per,
            "asp.subsample_fits.dropped": self._count("asp.subsample_fits", "dropped") * per,
            "asp.fit_subsample.median_s":
                statistics.median(worker_fits) if worker_fits else 0.0,
            "asp.fit_subsample.sum_s": sum(worker_fits) * per,
            "asp.pool.busy_frac": frac(sum(worker_fits), pool_capacity),
            "cli.run_fit.self_s": self._self_time("cli.run_fit") * per,
            "cli.run_predict.self_s": self._self_time("cli.run_predict") * per,
            "share.exact_score_of_gcv":
                frac(self._total("gcv.exact_score", "select.gcv"), gcv_s),
            "share.exact_combine_of_gcv":
                frac(self._total("gcv.exact_score", "select.gcv")
                     + self._total("solver.combine", "select.gcv"), gcv_s),
            "share.subsample_fits_of_asp":
                frac(self._total("asp.subsample_fits"), asp_s),
        }
        out = {}
        for metric, unit, needs in LAYER_METRICS:
            if any(n in self.missing for n in needs):
                out[metric] = {"value": 0, "unit": unit, "missing": True}
                continue
            if metric in values:
                value = values[metric]
            else:
                span, kind = metric.rsplit(".", 1)
                if kind == "calls":
                    value = len(self._by_name(span)) * per
                else:
                    value = self._total(span) * per
            out[metric] = {"value": value, "unit": unit}
        return out
