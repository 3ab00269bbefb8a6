"""The benchmark's own tests, on tiny inputs.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spanova  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


def _report(stdout: str) -> dict:
    line = next(x for x in stdout.splitlines() if x.startswith("report "))
    return json.loads(line[len("report "):])


def test_contract_lists_the_benchmark_metrics():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)
    layer_names = [(m, u) for m, u, _ in layers.LAYER_METRICS] + list(run.TRACE_EXTRAS)
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == layer_names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
        assert not got.get("missing")

    report = _report(proc.stdout)
    assert report["why"] == workloads.WORKLOADS[workload].why
    wl = workloads.WORKLOADS[workload]
    want = ["setup_s", "model_s", "predict_s", "peak_rss_mb", "failed_frac"]
    if wl.kind == "cli":
        want += ["fit_cmd_s", "predict_cmd_s", "loss.asp-u"]
    else:
        want += ["fit_s"]
        want += [f"select_s.{m}" for m in wl.methods] + [f"loss.{m}" for m in wl.methods]
    for name in want:
        assert report["metrics"][name]["unit"], name
    if trace and wl.kind == "cli":
        # worker-side spans came back from the forked pool
        layer = final["metrics"]
        assert layer["asp.fit_subsample.sum_s"]["value"] > 0
        assert 0 < layer["asp.pool.busy_frac"]["value"] <= 1.0
        assert layer["asp.subsample_fits.attempted"]["value"] == 5
    if trace and wl.kind == "api":
        assert final["metrics"]["gcv.exact_score.calls"]["value"] > 0
        assert final["metrics"]["share.exact_score_of_gcv"]["value"] > 0


def _tiny_context(name, tmp):
    wl = workloads.sized(workloads.WORKLOADS[name], tiny=True)
    ctx, _ = workloads.setup(wl, 5, tmp, None)
    return ctx


@pytest.fixture
def work_dir():
    path = ROOT / ".perfbench_work" / "test"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_corrupted_fit_trips_the_gate(monkeypatch, work_dir):
    ctx = _tiny_context("tall-m1", work_dir)
    assert not workloads.api_round(ctx).failures
    real_fit = spanova.fit_model

    def corrupted(*args, **kwargs):
        fit = real_fit(*args, **kwargs)
        return replace(fit, c=fit.c * (1.0 + 1e-3))

    monkeypatch.setattr(spanova, "fit_model", corrupted)
    rnd = workloads.api_round(ctx)
    assert any("predict at the training rows" in f for f in rnd.failures)
    assert {f"fit.{m}" for m in ctx.workload.methods} <= rnd.failed_ops


def test_corrupted_fit_makes_the_command_fail(monkeypatch, capsys):
    real_fit = spanova.fit_model

    def corrupted(*args, **kwargs):
        fit = real_fit(*args, **kwargs)
        return replace(fit, c=fit.c + 1e-3 * np.abs(fit.c).max())

    monkeypatch.setattr(spanova, "fit_model", corrupted)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    code = run.main(["--workload", "tall-m1", "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--tiny"])
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert final["correct"] is False and final["failed"] >= 3


def test_reference_mismatch_trips_the_gate(monkeypatch, work_dir):
    ctx = _tiny_context("tall-m1", work_dir)
    ctx.seed = workloads.REFERENCE_SEED
    monkeypatch.setattr(workloads, "load_reference", lambda wl: {
        "skip": {"log10_nlam": 5.0, "loss": 1.0}})
    rnd = workloads.api_round(ctx)
    assert any("vs reference" in f for f in rnd.failures)
    assert "select.skip" in rnd.failed_ops


def test_cli_gate_checks_fitted_rows(monkeypatch, work_dir):
    ctx = _tiny_context("cli-asp-m1", work_dir)
    assert not workloads.cli_round(ctx).failures
    real_read = workloads._read_column
    monkeypatch.setattr(workloads, "_read_column",
                        lambda path, col: real_read(path, col)[:-1])
    rnd = workloads.cli_round(ctx, full_gate=False)
    assert any("fitted.csv" in f for f in rnd.failures)


def test_missing_layer_is_reported_not_fatal(monkeypatch, work_dir):
    targets = tuple(t if t[0] != "gcv.exact_score" else
                    ("gcv.exact_score", "spanova.gcv", "_no_longer_here")
                    for t in layers.TARGETS)
    monkeypatch.setattr(layers, "TARGETS", targets)
    tracer = layers.Tracer(work_dir / "spool")
    tracer.install()
    try:
        ctx = _tiny_context("tall-m1", work_dir)
        rnd = workloads.api_round(ctx, tracer, full_gate=False)
    finally:
        tracer.uninstall()
    assert not rnd.failures
    assert tracer.missing == ["gcv.exact_score"]
    metrics = tracer.layer_metrics(1)
    assert metrics["gcv.exact_score.calls"]["missing"] is True
    assert metrics["share.exact_score_of_gcv"]["missing"] is True
    assert metrics["gcv.full_gcv.iterations"]["value"] > 0
    assert spanova.solver.fit_model is spanova.fit_model  # uninstalled


def test_fails_without_the_program_source():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run("--workload", "tall-m1", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
