#!/usr/bin/env python3
"""spanova benchmark: one workload per run, every metric with its unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tall-m1 --seed 1 --seconds 20 --trace 0

The program under test is ``src/spanova`` of the same checkout; the run
fails (exit 2, no result) when it is not there.  Before importing it the
harness clears OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS and
SPANOVA_JOBS, so spanova runs with the BLAS threading and worker count a
user gets by default, whatever the caller's shell sets.

Output: a ``machine`` line (CPU, BLAS threads, workers, versions), a
``report`` line with every end-to-end metric of the workload (per-method
times with sample counts, losses, failed fraction, memory), then, last, one
JSON object with the gated metrics: the ``end_to_end`` list of
BENCHMARK.json with ``--trace 0``, the ``per_layer`` list with ``--trace 1``.
The exit code is 0 only when every operation passed the correctness gate.

``--trace 1`` runs untraced rounds for half the time and traced rounds for
the other half (the difference of their round times is the tracing
overhead), then the same workload once more in a child process with one
BLAS thread and one worker as an ungated baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLEARED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SPANOVA_JOBS")
SETUP_SAMPLES = 2
CHILD_TIMEOUT_S = 170

# predict_s stays in the report but is not gated: within one run all predict
# calls are either fast or about 2.4x slower (process-level), so its spread
# across runs reached 1.26 on wide-m4 and 0.15 on the other workloads.
END_TO_END = (("setup_s", "s"), ("model_s", "s"), ("peak_rss_mb", "MB"))
TRACE_EXTRAS = (("trace.overhead_s", "s"), ("trace.overhead_frac", "frac"),
                ("trace.rounds", "count"), ("single_thread.model_s", "s"),
                ("single_thread.predict_s", "s"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the benchmark's own tests")
    parser.add_argument("--single-thread", action="store_true",
                        help="one BLAS thread and one worker (the traced run's baseline)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (samples of setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def prepare_env(single_thread: bool) -> dict:
    """Clear the thread and worker settings; returns what was cleared."""
    cleared = {k: os.environ.pop(k) for k in CLEARED_ENV if k in os.environ}
    if single_thread:
        for key in CLEARED_ENV[:3]:
            os.environ[key] = "1"
    return cleared


def import_program() -> float:
    """Import this checkout's spanova; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "spanova" / "__init__.py").is_file():
        print(f"benchmark: no program source at {src / 'spanova'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import spanova
    elapsed = time.perf_counter() - t0
    if Path(spanova.__file__).resolve().parent != (src / "spanova").resolve():
        print(f"benchmark: imported spanova from {spanova.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return elapsed


def _child(args, *extra) -> dict | None:
    """Run this script in a child process; returns its last stdout line,
    with its report line under ``report``."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), *extra] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"benchmark: child {extra} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return None
    out["returncode"] = proc.returncode
    out["report"] = next((json.loads(x[len("report "):]) for x in lines
                          if x.startswith("report ")), None)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return out


def _metric(value, unit, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def round_metrics(wl, rounds) -> dict:
    """Timing metrics of a list of rounds, as medians with sample counts.

    ``model_s`` is the median over rounds of the time from data to fitted
    models (every selection plus one fit each, or the ``spanova fit``
    command); ``predict_s`` the median over predict calls or commands.
    """
    from workloads import median_of

    def med(prefix):
        value, samples = median_of(rounds, prefix)
        return _metric(value, "s", samples)

    out = {"model_s": _metric(statistics.median(r.model_s for r in rounds), "s",
                              len(rounds)),
           "predict_s": med("predict")}
    if wl.kind == "cli":
        out["fit_cmd_s"] = med("fit_cmd")
        out["predict_cmd_s"] = med("predict_cmd")
    else:
        for m in wl.methods:
            out[f"select_s.{m}"] = med(f"select.{m}")
        out["fit_s"] = med("fit.")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = prepare_env(args.single_thread)
    import_s = import_program()

    import layers
    import machine
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.sized(workloads.WORKLOADS[args.workload], args.tiny)
    # timed runs use the workload's worker count; the traced run profiles
    # the program's default; the single-thread baseline uses one worker
    jobs = 1 if args.single_thread else None if args.trace else wl.jobs
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    try:
        ctx, data_s = workloads.setup(wl, args.seed, work, jobs)
        if args.setup_only:
            print(json.dumps({"setup_s": import_s + data_s}))
            return 0
        return _run(args, wl, ctx, import_s + data_s, cleared, jobs, layers, machine,
                    workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, ctx, setup_s, cleared, jobs, layers, machine, workloads) -> int:
    setup_samples = [setup_s]
    attempted, failed, failures = 0, 0, []
    if not (args.trace or args.single_thread):
        for _ in range(SETUP_SAMPLES - 1):
            attempted += 1
            child = _child(args, "--setup-only")
            if child is None or child["returncode"] != 0:
                failed += 1
                failures.append("setup: child set-up failed")
            else:
                setup_samples.append(child["setup_s"])

    phase_s = args.seconds / 2 if args.trace else args.seconds
    rounds = workloads.run_rounds(ctx, phase_s)
    layer, traced = {}, []
    if args.trace:
        tracer = layers.Tracer(ctx.work_dir / "spool")
        tracer.install()
        try:
            traced = workloads.run_rounds(ctx, phase_s, tracer, gate_first=False)
        finally:
            tracer.uninstall()
        tracer.merge_workers()
        layer = tracer.layer_metrics(len(traced))

    for rnd in rounds + traced:
        attempted += rnd.attempted
        failed += len(rnd.failed_ops)
        failures += rnd.failures

    metrics = {"setup_s": _metric(statistics.median(setup_samples), "s", len(setup_samples))}
    metrics.update(round_metrics(wl, rounds))
    for method, sel in rounds[0].selected.items():
        metrics[f"loss.{method}"] = _metric(sel["loss"], "mse")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    if args.trace:
        plain_total = statistics.median(r.total_s for r in rounds)
        traced_total = statistics.median(r.total_s for r in traced)
        layer["trace.overhead_s"] = _metric(traced_total - plain_total, "s")
        layer["trace.overhead_frac"] = _metric((traced_total - plain_total) / plain_total,
                                               "frac")
        layer["trace.rounds"] = _metric(len(traced), "count")
        attempted += 1
        child = _child(args, "--seconds", "0", "--trace", "0", "--single-thread")
        if child is None or child["returncode"] != 0:
            failed += 1
            failures.append("single-thread baseline failed")
        else:
            attempted += child["attempted"] - 1
            failed += child["failed"]
        for name in ("model_s", "predict_s"):
            value = child["report"]["metrics"][name]["value"] if child else float("nan")
            layer[f"single_thread.{name}"] = _metric(value, "s")

    metrics["failed_frac"] = _metric(failed / attempted, "frac")
    print("machine " + json.dumps(machine.record(cleared, jobs)))
    report = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "n": wl.n,
        "n_holdout": wl.n_holdout, "seconds": args.seconds, "trace": args.trace,
        "single_thread": args.single_thread, "rounds": len(rounds),
        "metrics": metrics,
        "reference": {m: sel for m, sel in rounds[0].selected.items()},
        "failures": failures,
    }
    if args.trace:
        report["layers"] = layer
        report["missing_layers"] = tracer.missing
    print("report " + json.dumps(report))
    for text in failures:
        print(f"benchmark: FAILED {text}", file=sys.stderr)

    if args.trace:
        names = [m for m, _, _ in layers.LAYER_METRICS] + [m for m, _ in TRACE_EXTRAS]
        final = {m: layer[m] for m in names}
    else:
        final = {m: {"value": metrics[m]["value"], "unit": u} for m, u in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
