"""Smoothing-parameter selection by subsampling and rate extrapolation.

The expensive cross-validation search runs on small random subsamples; the
selected parameter is then carried to the full sample along the asymptotic
decay law lambda ~ C n^{-r/(pr+1)}:

    lambda_full = lambda_sub(b) * (n / b)^{-r/(pr+1)},   theta unchanged.

``asp_uniform`` uses one subsample size with a default rate order r and a
data-driven choice of p;  ``asp_asymptotic`` fits (C, gamma) from a ladder
of subsample sizes and extrapolates lambda = C n^{-gamma} directly.  The
order-based baseline skips estimation entirely and uses the rate law with
pre-specified constants.  Full-sample GCV and skip selection are wrapped in
the same result type so the strategies can be benchmarked uniformly.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .gcv import GcvResult, full_gcv, gcv_score, skip_select
from .kernels import ModelSpec
from .solver import (
    BasisSelection,
    SmoothingParams,
    assemble_blocks,
    basis_count,
    null_design,
    part_traces,
    select_basis,
)
from .util import InputError, NumericalError, derive_rng, round_half_up


@dataclass(frozen=True)
class AspConfig:
    """Tuning constants of the subsample-extrapolation selectors."""

    b_coef: float = 50.0
    b_exp: float = 0.25
    b_max_coef: float = 120.0
    n_sizes: int = 10
    n_subsamples: int = 5
    b_factor: float = 2.0
    r_default: float = 3.0
    p_default: float = 1.0
    order_c: float = 1.0
    basis_coef: float = 10.0
    basis_exp: float = 2.0 / 9.0
    estimate_smoothness: bool = True
    gcv_max_iter: int = 30
    gcv_tol: float = 1e-5
    seed: int = 0
    jobs: int | None = None

    def __post_init__(self):
        if self.b_coef <= 0 or self.b_max_coef < self.b_coef:
            raise InputError("subsample coefficients must satisfy 0 < b_coef <= b_max_coef")
        if self.n_sizes < 2:
            raise InputError("asymptotic sampling needs at least 2 sizes")
        if self.n_subsamples < 1:
            raise InputError("n_subsamples must be positive")
        if not 1.0 <= self.p_default <= 2.0 or self.r_default <= 1.0:
            raise InputError("need p in [1, 2] and r > 1")
        if self.b_factor < 1.0:
            raise InputError("b_factor must be at least 1")

    @property
    def worker_count(self) -> int:
        if self.jobs is not None:
            return max(1, int(self.jobs))
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log lambda = log C - gamma log b."""

    c: float
    gamma: float
    r: float
    p: float
    rss: float
    clamped: bool = False

    def __post_init__(self):
        if self.c <= 0:
            raise InputError("rate constant must be positive")
        if not 1.0 / 3.0 <= self.gamma < 1.0:
            raise InputError("gamma outside [1/3, 1)")


@dataclass(frozen=True)
class SubsampleFit:
    """One subsample's cross-validated smoothing parameters."""

    size: int
    lam: float
    theta: tuple[float, ...]
    score: float
    converged: bool


@dataclass(frozen=True)
class SelectionResult:
    """Chosen full-sample smoothing parameters plus provenance of the choice."""

    method: str
    params: SmoothingParams
    lambda_full: float
    theta: tuple[float, ...]
    n: int
    subsample_size: int | None = None
    lambda_sub: float | None = None
    p: float | None = None
    r: float | None = None
    rate: RateFit | None = None
    fits: tuple[SubsampleFit, ...] = ()
    seconds: float = 0.0
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lambda_full <= 0:
            raise InputError("selected lambda must be positive")
        if any(v <= 0 for v in self.theta):
            raise InputError("selected theta must be positive")


def rate_exponent(r: float, p: float) -> float:
    """The decay exponent gamma = r/(pr + 1)."""
    if r <= 1.0 or not 1.0 <= p <= 2.0:
        raise InputError(f"need r > 1 and p in [1, 2], got r={r}, p={p}")
    return r / (p * r + 1.0)


def order_based(n: int, r: float, p: float, c: float = 1.0) -> float:
    """Rate-law smoothing parameter lambda = C n^{-r/(pr+1)}."""
    if n < 1:
        raise InputError("n must be at least 1")
    if c <= 0:
        raise InputError("C must be positive")
    return c * float(n) ** (-rate_exponent(r, p))


def extrapolate_lambda(lambda_sub: float, n: int, b: int, r: float, p: float) -> float:
    """Carry a subsample-selected lambda to the full sample size."""
    if lambda_sub <= 0 or b < 1 or n < b:
        raise InputError("need lambda_sub > 0 and 1 <= b <= n")
    return lambda_sub * (n / b) ** (-rate_exponent(r, p))


def subsample_size(n: int, config: AspConfig = AspConfig(), null_dim: int = 0) -> int:
    """Default subsample size b = round(b_coef * n^{1/4}), clamped to [M+10, n]."""
    lo = null_dim + 10
    if n < lo:
        raise InputError(f"n={n} too small for a subsample of at least {lo}")
    b = round_half_up(config.b_coef * float(n) ** config.b_exp)
    return min(max(b, lo), n)


def _subsample_basis_count(b: int, null_dim: int, config: AspConfig) -> int:
    q = round_half_up(config.basis_coef * float(b) ** config.basis_exp)
    return min(max(q, null_dim + 1), b)


def _draw_subsample(dataset: Dataset, spec: ModelSpec, b: int, config: AspConfig,
                    stream) -> tuple[Dataset, BasisSelection]:
    """The b rows and the basis rows of one subsample fit."""
    rng = derive_rng(config.seed, *stream)
    rows = np.sort(rng.choice(dataset.n, size=b, replace=False))
    q = _subsample_basis_count(b, spec.null_dim, config)
    basis = BasisSelection(indices=rng.choice(b, size=q, replace=False))
    return dataset.take(rows), basis


def _check_response(dataset: Dataset) -> None:
    """Raise unless y varies: a constant response leaves GCV nothing to fit."""
    if dataset.y.size and (dataset.y == dataset.y[0]).all():
        raise InputError("response is constant; no smoothing parameter can be selected")


def _fit_subsample(args):
    """Cross-validate one subsample; module-level so worker processes can run it."""
    sub, spec, basis, config = args
    blocks = assemble_blocks(sub, spec, basis)
    res = full_gcv(blocks, sub.y, max_iter=config.gcv_max_iter, tol=config.gcv_tol)
    lam = res.params.nlam / sub.n
    return SubsampleFit(size=sub.n, lam=lam, theta=tuple(res.params.theta),
                        score=res.score, converged=res.converged)


# Thread-count entry points of the OpenBLAS copies bundled with numpy
# (64-bit integer interface) and with scipy; threadpoolctl calls the same ones.
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> dict:
    """(getter, setter) of each loaded OpenBLAS copy, keyed by file name.

    Loaded libraries are read from /proc/self/maps; where that file does not
    exist nothing is found, and thread counts are left as they are.  The
    lookup runs once per process (both copies are loaded with spanova), and
    forked workers inherit its result.
    """
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle}
    except OSError:
        return {}
    controls = {}
    for path in sorted(paths):
        name = os.path.basename(path)
        if "openblas" not in name.lower():
            continue
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_API:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            controls[name] = (getter, setter)
            break
    return controls


def _cap_blas_threads(limit: int) -> None:
    """Lower every loaded OpenBLAS copy to at most ``limit`` threads."""
    for getter, setter in _openblas_thread_controls().values():
        if getter() > limit:
            setter(limit)


@contextmanager
def _capped_blas_threads(limit: int):
    """Run the block with every loaded OpenBLAS copy at most ``limit`` threads.

    The counts it lowered are restored on exit.
    """
    saved = [(getter(), setter) for getter, setter in _openblas_thread_controls().values()]
    for count, setter in saved:
        if count > limit:
            setter(limit)
    try:
        yield
    finally:
        for count, setter in saved:
            if count > limit:
                setter(count)


def _pool_blas_threads(workers: int) -> int:
    """BLAS threads per process when ``workers`` processes share the CPUs."""
    return max(1, (os.cpu_count() or 1) // workers)


def _subsample_pool(workers: int) -> ProcessPoolExecutor:
    """Process pool for the subsample fits.

    Callers hold ``_capped_blas_threads(_pool_blas_threads(workers))`` while
    the pool runs, so forked workers inherit cpu_count // workers BLAS
    threads and the pool does not run more threads than there are CPUs.  A
    forked worker that lowered its own count would restart OpenBLAS's thread
    server, whose new threads spin for about 0.1 s against the first fit;
    the initializer applies the cap only where workers are not forked.
    """
    return ProcessPoolExecutor(max_workers=workers, initializer=_cap_blas_threads,
                               initargs=(_pool_blas_threads(workers),))


def _run_subsample_fits(dataset, spec, sizes, config, stream_tag):
    """Fit all requested subsamples, in parallel when configured.

    Returns (fits, dropped) where failed subsamples are dropped; ordering
    follows the request list so the reduction is deterministic.  Rows are
    drawn here, so a worker receives its b rows and not the whole dataset.
    """
    jobs = []
    for k, b in enumerate(sizes):
        sub, basis = _draw_subsample(dataset, spec, b, config, (stream_tag, k))
        jobs.append((sub, spec, basis, config))
    workers = min(config.worker_count, len(jobs))
    results: list[SubsampleFit | None] = []
    if workers > 1:
        with _subsample_pool(workers) as pool:
            futures = [pool.submit(_fit_subsample, j) for j in jobs]
            for fut in futures:
                try:
                    results.append(fut.result())
                except (NumericalError, InputError):
                    results.append(None)
    else:
        for j in jobs:
            try:
                results.append(_fit_subsample(j))
            except (NumericalError, InputError):
                results.append(None)
    fits = tuple(r for r in results if r is not None)
    return fits, len(jobs) - len(fits)


def _log_median(values) -> float:
    return float(np.exp(np.median(np.log(np.asarray(values, dtype=float)))))


def _aggregate(fits):
    lam = _log_median([f.lam for f in fits])
    theta_mat = np.log(np.array([f.theta for f in fits], dtype=float))
    theta = tuple(np.exp(np.median(theta_mat, axis=0)))
    return lam, theta


def estimate_p(dataset: Dataset, spec: ModelSpec, lambda_sub: float, theta,
               b: int, config: AspConfig = AspConfig()) -> int:
    """Pick p in {1, 2} by scoring the extrapolated lambda on a larger subsample.

    A subsample of size B = b_factor*b (capped at n) is scored at
    lambda_p = lambda_sub * (B/b)^{-r/(pr+1)} for both candidate p values,
    with theta held fixed; the smaller score wins and ties go to p = 1.
    """
    big = min(int(round(config.b_factor * b)), dataset.n)
    rng = derive_rng(config.seed, 31)
    rows = np.sort(rng.choice(dataset.n, size=big, replace=False))
    sub = dataset.take(rows)
    q = _subsample_basis_count(big, spec.null_dim, config)
    basis = BasisSelection(indices=rng.choice(big, size=q, replace=False))
    blocks = assemble_blocks(sub, spec, basis)
    k, qmat = blocks.combine(np.asarray(theta, dtype=float))
    best_p, best_score = 1, np.inf
    for p in (1, 2):
        lam_p = extrapolate_lambda(lambda_sub, big, b, config.r_default, p)
        score = gcv_score(blocks.t, k, qmat, sub.y, big * lam_p)
        # strict inequality: ties keep the earlier (smaller) p
        if score < best_score:
            best_p, best_score = p, score
    return best_p


def asp_uniform(dataset: Dataset, spec: ModelSpec,
                config: AspConfig = AspConfig()) -> SelectionResult:
    """Uniform-subsampling selection with rate extrapolation.

    Runs the iterative cross-validation on ``n_subsamples`` uniform
    subsamples of size b, aggregates lambda and theta by log-scale medians,
    estimates p, and extrapolates lambda to the full sample size at the
    default rate order r.
    """
    t0 = time.perf_counter()
    _check_response(dataset)
    flags: list[str] = []
    b = subsample_size(dataset.n, config, spec.null_dim)
    workers = min(config.worker_count, config.n_subsamples)
    # The cap covers the pool and estimate_p, whose 2b-row problem is as
    # small as the fits.  Forking stops the caller's OpenBLAS threads; the
    # ones restarted when the cap is lifted spin for about 0.1 s, and that
    # cost falls on the caller's next BLAS work.
    with _capped_blas_threads(_pool_blas_threads(workers)):
        fits, dropped = _run_subsample_fits(
            dataset, spec, [b] * config.n_subsamples, config, 21)
        if dropped:
            flags.append(f"subsamples-dropped:{dropped}")
        if len(fits) < min(2, config.n_subsamples):
            raise NumericalError("too few subsample fits survived")
        lam_sub, theta = _aggregate(fits)
        if config.estimate_smoothness and dataset.n > b:
            p = float(estimate_p(dataset, spec, lam_sub, theta, b, config))
        else:
            p = config.p_default
    r = config.r_default
    lam_full = extrapolate_lambda(lam_sub, dataset.n, b, r, p)
    params = SmoothingParams.from_values(dataset.n * lam_full, theta)
    return SelectionResult(
        method="asp-u", params=params, lambda_full=lam_full, theta=theta,
        n=dataset.n, subsample_size=b, lambda_sub=lam_sub, p=p, r=r,
        fits=fits, seconds=time.perf_counter() - t0, flags=tuple(flags))


def fit_rate(sizes, lambdas) -> RateFit:
    """Fit lambda(b) = C b^{-gamma} by least squares on the log scale.

    gamma is clamped to the range [1/3, 1) induced by p in [1, 2], r > 1;
    when the clamp binds, C is refit at the clamped slope.  A representative
    (r, p) pair on the gamma level set is reported: r = 3 with p solved when
    that lands in [1, 2], otherwise the binding p boundary with r solved.
    """
    sizes = np.asarray(sizes, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if sizes.shape != lambdas.shape or sizes.ndim != 1 or sizes.size < 2:
        raise InputError("need at least two (size, lambda) pairs")
    if (sizes <= 0).any() or (lambdas <= 0).any():
        raise InputError("sizes and lambdas must be positive")
    log_b = np.log(sizes)
    log_l = np.log(lambdas)
    design = np.column_stack([np.ones_like(log_b), -log_b])
    (log_c, gamma), *_ = np.linalg.lstsq(design, log_l, rcond=None)
    clamped = False
    lo, hi = 1.0 / 3.0, 1.0 - 1e-6
    if gamma < lo or gamma > hi:
        gamma = min(max(float(gamma), lo), hi)
        log_c = float(np.mean(log_l + gamma * log_b))
        clamped = True
    resid = log_l - (log_c - gamma * log_b)
    gamma = float(gamma)
    if 3.0 / 7.0 <= gamma <= 3.0 / 4.0:
        r, p = 3.0, 1.0 / gamma - 1.0 / 3.0
    elif gamma > 3.0 / 4.0:
        r, p = gamma / (1.0 - gamma), 1.0
    else:
        r, p = gamma / (1.0 - 2.0 * gamma), 2.0
    return RateFit(c=float(np.exp(log_c)), gamma=gamma, r=r, p=p,
                   rss=float(resid @ resid), clamped=clamped)


def asp_asymptotic(dataset: Dataset, spec: ModelSpec,
                   config: AspConfig = AspConfig()) -> SelectionResult:
    """Multi-size subsampling: fit the decay law, extrapolate along it.

    Subsample sizes are log-spaced between round(b_coef n^{1/4}) and
    round(b_max_coef n^{1/4}); each size contributes the log-median lambda
    over ``n_subsamples`` draws.  theta comes from the largest size.
    """
    t0 = time.perf_counter()
    _check_response(dataset)
    flags: list[str] = []
    lo = subsample_size(dataset.n, config, spec.null_dim)
    hi_cfg = replace(config, b_coef=config.b_max_coef)
    hi = subsample_size(dataset.n, hi_cfg, spec.null_dim)
    if hi <= lo:
        raise InputError("size ladder is degenerate; sample too small")
    raw = np.geomspace(lo, hi, config.n_sizes)
    sizes = sorted({int(round_half_up(v)) for v in raw})
    if len(sizes) < 2:
        raise InputError("size ladder collapsed to one size")
    per_size_lam: list[float] = []
    kept_sizes: list[int] = []
    all_fits: list[SubsampleFit] = []
    top_fits: tuple[SubsampleFit, ...] = ()
    # one cap for the whole ladder: restoring the caller's counts between
    # sizes would restart its thread server every time
    workers = min(config.worker_count, config.n_subsamples)
    with _capped_blas_threads(_pool_blas_threads(workers)):
        for idx, b in enumerate(sizes):
            fits, dropped = _run_subsample_fits(
                dataset, spec, [b] * config.n_subsamples, config, 41 + idx)
            if dropped:
                flags.append(f"subsamples-dropped:{b}:{dropped}")
            if not fits:
                continue
            lam, _ = _aggregate(fits)
            per_size_lam.append(lam)
            kept_sizes.append(b)
            all_fits.extend(fits)
            top_fits = fits
    if len(kept_sizes) < 2:
        raise NumericalError("too few subsample sizes survived")
    rate = fit_rate(kept_sizes, per_size_lam)
    if rate.clamped:
        flags.append("gamma-clamped")
    _, theta = _aggregate(top_fits)
    lam_full = rate.c * float(dataset.n) ** (-rate.gamma)
    params = SmoothingParams.from_values(dataset.n * lam_full, theta)
    return SelectionResult(
        method="asp-a", params=params, lambda_full=lam_full, theta=theta,
        n=dataset.n, subsample_size=kept_sizes[-1],
        lambda_sub=per_size_lam[-1], p=rate.p, r=rate.r, rate=rate,
        fits=tuple(all_fits), seconds=time.perf_counter() - t0,
        flags=tuple(flags))


def full_sample_basis(n: int, null_dim: int, config: AspConfig = AspConfig()) -> BasisSelection:
    """The basis-row draw shared by every full-sample selection and fit."""
    q = min(max(basis_count(n, coef=config.basis_coef, exp=config.basis_exp),
                null_dim + 1), n)
    return select_basis(n, q, seed=config.seed)


def gcv_select(dataset: Dataset, spec: ModelSpec,
               config: AspConfig = AspConfig()) -> SelectionResult:
    """Full-sample iterative cross-validation wrapped as a selection result."""
    t0 = time.perf_counter()
    _check_response(dataset)
    basis = full_sample_basis(dataset.n, spec.null_dim, config)
    blocks = assemble_blocks(dataset, spec, basis)
    res = full_gcv(blocks, dataset.y, max_iter=config.gcv_max_iter, tol=config.gcv_tol)
    lam = res.params.nlam / dataset.n
    return SelectionResult(
        method="gcv", params=res.params, lambda_full=lam,
        theta=tuple(res.params.theta), n=dataset.n,
        seconds=time.perf_counter() - t0, flags=res.flags)


def skip_selection(dataset: Dataset, spec: ModelSpec,
                   config: AspConfig = AspConfig()) -> SelectionResult:
    """Full-sample starting-value selection wrapped as a selection result."""
    t0 = time.perf_counter()
    _check_response(dataset)
    basis = full_sample_basis(dataset.n, spec.null_dim, config)
    blocks = assemble_blocks(dataset, spec, basis)
    res = skip_select(blocks, dataset.y)
    lam = res.params.nlam / dataset.n
    return SelectionResult(
        method="skip", params=res.params, lambda_full=lam,
        theta=tuple(res.params.theta), n=dataset.n,
        seconds=time.perf_counter() - t0, flags=res.flags)


def order_selection(dataset: Dataset, spec: ModelSpec,
                    config: AspConfig = AspConfig()) -> SelectionResult:
    """Order-based baseline: rate-law lambda, trace-normalized theta.

    Runs the input checks of ``assemble_blocks`` but builds no kernel block.
    """
    t0 = time.perf_counter()
    basis = full_sample_basis(dataset.n, spec.null_dim, config)
    null_design(dataset, spec, basis)
    lam = order_based(dataset.n, config.r_default, config.p_default, config.order_c)
    theta = tuple(1.0 / part_traces(dataset, spec))
    params = SmoothingParams.from_values(dataset.n * lam, theta)
    return SelectionResult(
        method="order", params=params, lambda_full=lam, theta=theta,
        n=dataset.n, p=config.p_default, r=config.r_default,
        seconds=time.perf_counter() - t0)
