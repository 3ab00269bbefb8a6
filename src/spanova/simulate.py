"""Benchmark scenarios, risk oracles, and the replication harness.

Seven synthetic regression functions (three univariate, four multivariate)
with their model specifications, plus the machinery to compare smoothing
parameter selection strategies on them: squared-error loss against the
true function, relative efficacy versus the full cross-validation
benchmark, and two independent oracles for the risk-optimal lambda.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft

from .asp import (
    AspConfig,
    SelectionResult,
    asp_asymptotic,
    asp_uniform,
    full_sample_basis,
    gcv_select,
    order_selection,
    skip_selection,
)
from .data import Dataset, unit_domains
from .kernels import ModelSpec, build_model, eval_bernoulli, full_two_way_model, main_effects_model
from .solver import demmler_reinsch, fit_model
from .util import InputError, derive_rng


@dataclass(frozen=True)
class Scenario:
    """A synthetic truth together with the model fitted to it."""

    identifier: str
    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    spec: ModelSpec


def _eval_u1(x):
    from scipy.stats import beta as beta_dist

    out = np.zeros_like(x[:, 0])
    for a, b in ((20.0, 5.0), (12.0, 12.0), (7.0, 30.0)):
        out += beta_dist.pdf(x[:, 0], a, b) / 3.0
    return out


def _eval_u2(x):
    t = x[:, 0]
    return 10.0 * np.sin(2.0 * np.pi * t) ** 2 * (t <= 0.5)


def _eval_u3(x):
    t = x[:, 0]
    return (10.0 * (-t + 2.0 * (t - 0.25)) * (t >= 0.25)
            + 2.0 * (-t + 0.75) * (t >= 0.75))


def _eval_m1(x):
    x1, x2 = x[:, 0], x[:, 1]
    norm = np.pi * 0.3 * 0.4
    bump1 = np.exp(-(x1 - 0.2) ** 2 / 0.09 - (x2 - 0.3) ** 2 / 0.16)
    bump2 = np.exp(-(x1 - 0.7) ** 2 / 0.09 - (x2 - 0.8) ** 2 / 0.16)
    return 0.75 / norm * bump1 + 0.45 / norm * bump2


def _poly_bump(t):
    return 1e6 * t**11 * (1.0 - t) ** 6


def _eval_m2(x):
    x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
    return (10.0 * np.sin(np.pi * x1) + np.exp(3.0 * x2)
            + _poly_bump(x3) + 1e4 * x3**3 * (1.0 - x3) ** 10)


def _eval_m3(x):
    x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
    return (10.0 * x2 + 10.0 * np.sin(np.pi * (x3 - x2))
            + 5.0 * np.cos(2.0 * np.pi * (x1 - x2)))


def _eval_m4(x):
    out = np.zeros_like(x[:, 0])
    for j in range(18):
        out += _poly_bump(x[:, j])
    for j in range(9):
        out += np.exp(3.0 * x[:, 2 * j] * x[:, 2 * j + 1])
    for j in range(6):
        a, b, c = x[:, 3 * j], x[:, 3 * j + 1], x[:, 3 * j + 2]
        out += 15.0 * np.sin(2.0 * np.pi * a) / (2.0 - np.sin(2.0 * np.pi * b * c))
    return out


def _m4_spec() -> ModelSpec:
    effects = [(j,) for j in range(18)]
    effects += [(2 * j, 2 * j + 1) for j in range(9)]
    effects += [(3 * j, 3 * j + 1, 3 * j + 2) for j in range(6)]
    return build_model(unit_domains(18), effects)


SCENARIOS: dict[str, Scenario] = {
    "u1": Scenario("u1", 1, _eval_u1, main_effects_model(unit_domains(1))),
    "u2": Scenario("u2", 1, _eval_u2, main_effects_model(unit_domains(1))),
    "u3": Scenario("u3", 1, _eval_u3, main_effects_model(unit_domains(1))),
    "m1": Scenario("m1", 2, _eval_m1, full_two_way_model(unit_domains(2))),
    "m2": Scenario("m2", 3, _eval_m2, main_effects_model(unit_domains(3))),
    "m3": Scenario("m3", 3, _eval_m3,
                   build_model(unit_domains(3), [(1,), (1, 2), (0, 1)])),
    "m4": Scenario("m4", 18, _eval_m4, _m4_spec()),
}


def get_scenario(identifier: str) -> Scenario:
    try:
        return SCENARIOS[identifier]
    except KeyError:
        raise InputError(
            f"unknown scenario {identifier!r}; choose from {sorted(SCENARIOS)}"
        ) from None


def check_cell(identifier: str, n: int, snr: float) -> Scenario:
    """The scenario of one (scenario, size, noise level) cell, whose size
    and noise level ``gen_data`` can draw; raises on any bad entry."""
    if n < 10:
        raise InputError("n must be at least 10")
    if not (snr > 0 and math.isfinite(snr)):
        raise InputError("snr must be positive and finite")
    return get_scenario(identifier)


def scenario_eval(identifier: str, rows) -> np.ndarray:
    """Evaluate a scenario's true function at one row or a matrix of rows."""
    scn = get_scenario(identifier)
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    if x.shape[1] != scn.dimension:
        raise InputError(
            f"scenario {identifier} expects {scn.dimension} columns, got {x.shape[1]}")
    if x.min() < 0.0 or x.max() > 1.0:
        raise InputError("scenario inputs must lie in [0, 1]")
    out = scn.evaluate(x)
    return out if np.asarray(rows).ndim > 1 else float(out[0])


@dataclass(frozen=True)
class SimulatedData:
    """One simulated sample with the truth kept alongside."""

    dataset: Dataset
    eta: np.ndarray
    sigma: float
    snr: float
    seed: int

    @property
    def n(self) -> int:
        return self.dataset.n


def gen_data(identifier: str, n: int, snr: float, seed: int = 0) -> SimulatedData:
    """Draw a uniform design, evaluate the truth, add calibrated noise.

    The noise level is sigma = sd{eta(x)}/snr, computed from the realized
    design points, so the empirical signal-to-noise ratio matches snr.
    """
    scn = check_cell(identifier, n, snr)
    rng = derive_rng(seed, 71)
    x = rng.uniform(size=(n, scn.dimension))
    eta = scn.evaluate(x)
    sigma = float(np.std(eta, ddof=1) / snr)
    y = eta + sigma * rng.standard_normal(n)
    dataset = Dataset.from_raw(x, y, unit_domains(scn.dimension))
    return SimulatedData(dataset=dataset, eta=eta, sigma=sigma, snr=float(snr),
                         seed=seed)


def loss(fitted, true_values) -> float:
    """Mean squared difference between fitted and true function values."""
    f = np.asarray(fitted, dtype=float)
    t = np.asarray(true_values, dtype=float)
    if f.shape != t.shape:
        raise InputError("fitted and true vectors must have equal length")
    return float(np.mean((f - t) ** 2))


def relative_efficacy(candidate_fitted, benchmark_fitted, true_values):
    """Ratio of squared estimation errors against a benchmark fit.

    Returns (re, log_re) where re is the candidate's sum of squared errors
    over the benchmark's and log_re its natural log; log_re <= 0 means the
    candidate is at least as accurate.
    """
    cand = loss(candidate_fitted, true_values)
    bench = loss(benchmark_fitted, true_values)
    if bench <= 0.0:
        raise InputError("benchmark loss is zero; relative efficacy undefined")
    re = cand / bench
    return re, float(np.log(re))


@dataclass(frozen=True)
class OracleResult:
    """Grid minimizer of the risk curve."""

    lam: float
    risks: np.ndarray
    lambdas: np.ndarray
    boundary: bool


def _risk_curve(values, h, eta_sq_tail, k_sq_tail, m, sigma, n, lam_grid):
    """Risk at each grid lambda from a (possibly truncated) eigensystem.

    values/h are the leading eigenvalues of the penalized-complement kernel
    and the truth's coordinates there; eta_sq_tail and k_sq_tail are the
    truth's and the kernel's squared mass beyond the truncation (zero when
    the system is complete).
    """
    risks = np.empty(len(lam_grid))
    floor = values[-1] if len(values) else 0.0
    for i, lam in enumerate(lam_grid):
        nl = n * lam
        shrink = nl / (values + nl)
        bias = np.sum((shrink * h) ** 2) + eta_sq_tail * (nl / (floor + nl)) ** 2
        var = np.sum((values / (values + nl)) ** 2) + k_sq_tail / nl**2
        risks[i] = (bias + sigma**2 * (m + var)) / n
    return risks


def _check_grid(lam_grid) -> np.ndarray:
    grid = np.asarray(lam_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InputError("lambda grid must be a vector with at least 2 points")
    if (grid <= 0).any() or (np.diff(grid) <= 0).any():
        raise InputError("lambda grid must be positive and increasing")
    return grid


def oracle_lambda(t, k_full, true_eta, sigma, lam_grid) -> OracleResult:
    """Risk-minimizing lambda on a grid, via the full eigendecomposition.

    The risk is the expected loss under the linear smoother:
    n^{-1}||(I - A)eta||^2 + n^{-1} sigma^2 tr(A^2).  One decomposition
    serves every grid point.
    """
    grid = _check_grid(lam_grid)
    t = np.asarray(t, dtype=float)
    eta = np.asarray(true_eta, dtype=float)
    n, m = t.shape
    system = demmler_reinsch(t, k_full)
    h = system.z.T @ eta
    # ascending eigenvalues: flip so the tail convention of _risk_curve holds
    values = system.values[::-1]
    h = h[::-1]
    risks = _risk_curve(values, h, 0.0, 0.0, m, sigma, n, grid)
    best = int(np.argmin(risks))
    return OracleResult(lam=float(grid[best]), risks=risks, lambdas=grid,
                        boundary=best in (0, len(grid) - 1))


def oracle_lambda_midgrid(n: int, eta_fn, sigma: float, lam_grid,
                          n_eigs: int = 160) -> OracleResult:
    """Risk-minimizing lambda for a cubic spline on the size-n midpoint grid.

    On the grid x_i = (i - 1/2)/n the cubic-spline kernel matrix is a
    rank-one update of a circulant, so products cost O(n log n) and the
    leading eigenpairs come from a Lanczos iteration instead of a dense
    decomposition.  The truncated bias and variance tails are bounded by
    the leftover spectral mass, which the grid's Frobenius identity gives
    exactly; both corrections are included in the risk curve.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    grid = _check_grid(lam_grid)
    if not 1 <= n_eigs < n - 2:
        raise InputError("n_eigs must be in [1, n - 3]")
    x = (np.arange(n) + 0.5) / n
    eta = np.asarray(eta_fn(x), dtype=float)
    v = eval_bernoulli(2, x)
    c_row = -eval_bernoulli(4, np.arange(n) / n)
    ch = rfft(c_row)

    def circ(w):
        return irfft(ch * rfft(w), n)

    t = np.column_stack([np.ones(n), x - 0.5])
    u, _ = np.linalg.qr(t)

    def proj(w):
        return w - u @ (u.T @ w)

    def kernel_apply(w):
        return v * (v @ w) + circ(w)

    op = LinearOperator((n, n), matvec=lambda w: proj(kernel_apply(proj(w))),
                        dtype=float)
    start = proj(np.sin(2.0 * np.pi * x) + np.cos(4.0 * np.pi * x) + x**3)
    values, vecs = eigsh(op, k=n_eigs, which="LA", v0=start)
    order = np.argsort(values)[::-1]
    values, vecs = values[order], vecs[:, order]
    eta_p = proj(eta)
    h = vecs.T @ eta_p
    eta_sq_tail = max(float(eta_p @ eta_p - h @ h), 0.0)
    # || P K P ||_F^2 without forming K: rank-one plus circulant parts
    k_f2 = float((v @ v) ** 2 + 2.0 * (v @ circ(v)) + n * (c_row @ c_row))
    ku = np.column_stack([kernel_apply(u[:, j]) for j in range(u.shape[1])])
    utku = u.T @ ku
    pkp_f2 = k_f2 - 2.0 * float(np.sum(ku * ku)) + float(np.sum(utku * utku))
    k_sq_tail = max(pkp_f2 - float(values @ values), 0.0)
    risks = _risk_curve(values, h, eta_sq_tail, k_sq_tail, t.shape[1], sigma,
                        n, grid)
    best = int(np.argmin(risks))
    return OracleResult(lam=float(grid[best]), risks=risks, lambdas=grid,
                        boundary=best in (0, len(grid) - 1))


def _spectral_constant(m: int) -> float:
    """k_m = (1/pi) * integral of (1 + t^{2m})^{-2} over [0, inf), in closed form."""
    return (2 * m - 1) / (4 * m * m * math.sin(math.pi / (2 * m)))


def analytic_lambda_periodic(m: int, sigma_sq: float, eta_norm_sq: float,
                             n: int) -> float:
    """Asymptotically risk-optimal lambda for an order-m periodic spline.

    lambda = {(k_m / 4m) sigma^2 / ||eta^(2m)||^2}^{2m/(4m+1)} n^{-2m/(4m+1)}
    with k_m = (1/pi) * integral of (1 + t^{2m})^{-2} over [0, inf).
    """
    if m not in (1, 2, 3):
        raise InputError("order m must be 1, 2, or 3")
    if eta_norm_sq <= 0:
        raise InputError("the truth's derivative norm must be positive")
    if sigma_sq <= 0 or n < 1:
        raise InputError("need sigma_sq > 0 and n >= 1")
    expo = 2.0 * m / (4.0 * m + 1.0)
    k_m = _spectral_constant(m)
    return (k_m / (4.0 * m) * sigma_sq / eta_norm_sq) ** expo * float(n) ** (-expo)


SELECTORS: dict[str, Callable] = {
    "gcv": gcv_select,
    "skip": skip_selection,
    "asp-u": asp_uniform,
    "asp-a": asp_asymptotic,
    "order": order_selection,
}


@dataclass(frozen=True)
class BenchRecord:
    """One method's result on one replicate, ready for CSV emission."""

    scenario: str
    n: int
    snr: float
    method: str
    replicate: int
    loss: float
    log_re: float
    wall_time_seconds: float


def run_benchmark(identifier: str, n: int, snr: float, methods, replicates: int,
                  seed: int = 0, config: AspConfig = AspConfig(),
                  benchmark_max_iter: int | None = None) -> list[BenchRecord]:
    """Compare selection strategies against the cross-validation benchmark.

    Runs ``replicates`` independent datasets; on each, every requested
    method selects smoothing parameters, the model is refit at the selected
    values on a shared basis, and the loss at the design points is compared
    to the full cross-validation fit.  ``benchmark_max_iter`` caps the
    benchmark's iterations (the high-dimensional scenario uses 1).  The
    reported time is the selection time; rows come back in replicate-major
    order with the benchmark row (log_re = 0) first.
    """
    scn = check_cell(identifier, n, snr)
    unknown = [m for m in methods if m not in SELECTORS]
    if unknown:
        raise InputError(f"unknown methods {unknown}; choose from {list(SELECTORS)}")
    if replicates < 1:
        raise InputError("replicates must be positive")
    if benchmark_max_iter is not None and benchmark_max_iter < 1:
        raise InputError(f"benchmark_max_iter must be at least 1, got {benchmark_max_iter}")
    records: list[BenchRecord] = []
    for rep in range(replicates):
        rep_seed = int(derive_rng(seed, 81, rep).integers(2**31))
        data = gen_data(identifier, n, snr, seed=rep_seed)
        rep_cfg = replace(config, seed=rep_seed)
        bench_cfg = rep_cfg if benchmark_max_iter is None else replace(
            rep_cfg, gcv_max_iter=benchmark_max_iter)
        basis = full_sample_basis(n, scn.spec.null_dim, rep_cfg)

        def refit(sel: SelectionResult):
            return fit_model(data.dataset, scn.spec, sel.params, basis=basis)

        bench_sel = gcv_select(data.dataset, scn.spec, bench_cfg)
        bench_fit = refit(bench_sel)
        bench_loss = loss(bench_fit.fitted, data.eta)
        records.append(BenchRecord(
            scenario=identifier, n=n, snr=float(snr), method="gcv",
            replicate=rep, loss=bench_loss, log_re=0.0,
            wall_time_seconds=bench_sel.seconds))
        for name in methods:
            if name == "gcv":
                continue
            sel = SELECTORS[name](data.dataset, scn.spec, rep_cfg)
            fit = refit(sel)
            _, log_re = relative_efficacy(fit.fitted, bench_fit.fitted, data.eta)
            records.append(BenchRecord(
                scenario=identifier, n=n, snr=float(snr), method=name,
                replicate=rep, loss=loss(fit.fitted, data.eta), log_re=log_re,
                wall_time_seconds=sel.seconds))
    return records
