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
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack

from .data import Dataset
from .gcv import _check_response, full_gcv, scores_at, skip_select
from .kernels import ModelSpec
from .solver import (
    BasisSelection,
    SmoothingParams,
    basis_count,
    null_design,
    part_traces,
    select_basis,
)
from .util import InputError, NumericalError, derive_rng, round_half_up

# p where AspConfig.p is None but nothing estimates it (order; asp-u with b = n)
P_UNESTIMATED = 1.0


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    reports one (under ``taskset -c 0`` that is one CPU, whatever the
    machine has), the machine's count elsewhere."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class AspConfig:
    """Tuning constants of the subsample-extrapolation selectors; ``p`` None estimates p."""

    b_coef: float = 50.0
    b_max_coef: float = 120.0
    n_sizes: int = 10
    n_subsamples: int = 5
    b_factor: float = 2.0
    r_default: float = 3.0
    p: float | None = None
    order_c: float = 1.0
    basis_coef: float = 10.0
    basis_exp: float = 2.0 / 9.0
    gcv_max_iter: int = 30
    seed: int = 0
    jobs: int | None = None

    def __post_init__(self):
        for name in ("b_coef", "b_max_coef", "b_factor", "r_default", "p", "order_c",
                     "basis_coef", "basis_exp"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if self.b_coef <= 0 or self.b_max_coef < self.b_coef:
            raise InputError("subsample coefficients must satisfy 0 < b_coef <= b_max_coef")
        if self.n_sizes < 2:
            raise InputError("asymptotic sampling needs at least 2 sizes")
        if self.n_subsamples < 1:
            raise InputError("n_subsamples must be positive")
        if self.gcv_max_iter < 1:
            raise InputError(f"gcv_max_iter must be at least 1, got {self.gcv_max_iter}")
        if self.jobs is not None and self.jobs < 1:
            raise InputError(f"jobs must be at least 1, got {self.jobs}")
        if not (self.p is None or 1.0 <= self.p <= 2.0) or self.r_default <= 1.0:
            raise InputError("need p in [1, 2] and r > 1")
        if self.b_factor < 1.0:
            raise InputError("b_factor must be at least 1")
        for name in ("order_c", "basis_coef"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("basis_exp", "seed"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def worker_count(self) -> int:
        if self.jobs is not None:
            return int(self.jobs)
        return available_cpus()


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log lambda = log C - gamma log b.

    ``gamma_se`` is the standard error of the unclamped least-squares
    slope, sqrt(s^2 / sum (log b - mean log b)^2) with s^2 its residual
    sum of squares over k - 2 degrees of freedom; None below 3 sizes.
    """

    c: float
    gamma: float
    r: float
    p: float
    rss: float
    clamped: bool = False
    gamma_se: float | None = None

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
    flags: tuple[str, ...] = ()


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
    dropped: tuple[str, ...] = ()

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
    b = round_half_up(config.b_coef * float(n) ** 0.25)
    return min(max(b, lo), n)


def _basis_size(n: int, null_dim: int, config: AspConfig) -> int:
    """Basis rows for n fitted rows: ``basis_count``, clamped to [M + 1, n]."""
    q = basis_count(n, coef=config.basis_coef, exp=config.basis_exp)
    return min(max(q, null_dim + 1), n)


def _draw_subsample(dataset: Dataset, spec: ModelSpec, b: int, config: AspConfig,
                    stream) -> tuple[Dataset, BasisSelection]:
    """The b rows and the basis rows of one subsample fit."""
    rng = derive_rng(config.seed, *stream)
    rows = np.sort(rng.choice(dataset.n, size=b, replace=False))
    q = _basis_size(b, spec.null_dim, config)
    basis = BasisSelection(indices=rng.choice(b, size=q, replace=False))
    return dataset.take(rows), basis


def _fit_subsample(args) -> SubsampleFit | str:
    """Cross-validate one subsample; module-level so worker processes can run it.

    When the subsample's input or numerics fail, returns the exception's
    text instead, and the caller drops the subsample.
    """
    sub, spec, basis, config = args
    try:
        res = full_gcv(sub, spec, basis, max_iter=config.gcv_max_iter)
    except (NumericalError, InputError) as exc:
        return f"b={sub.n}: {type(exc).__name__}: {exc}"
    lam = res.params.nlam / sub.n
    return SubsampleFit(size=sub.n, lam=lam, theta=tuple(res.params.theta),
                        score=res.score, converged=res.converged, flags=res.flags)


@functools.cache
def _openblas_thread_controls() -> dict:
    """(getter, setter) of numpy's and scipy's OpenBLAS copies, keyed by module name.

    Each copy's thread-count entry points (threadpoolctl calls the same
    ones; numpy's copy has the 64-bit integer interface) are looked up on
    the extension module that calls that copy, and the dynamic loader
    resolves them within that module's own dependencies.  A module whose
    BLAS lacks them is left out, and its thread count is left as it is.
    The lookup runs once per process, and forked workers inherit its result.
    """
    controls = {}
    for module, suffix in ((_umath_linalg, "64_"), (_flapack, "")):
        lib = ctypes.CDLL(module.__file__)
        getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        if getter is None or setter is None:
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        controls[module.__name__] = (getter, setter)
    return controls


def _cap_blas_threads(limit: int) -> list:
    """Lower every loaded OpenBLAS copy to at most ``limit`` threads.

    Returns the (count, setter) pair of each copy it lowered.
    """
    lowered = []
    for getter, setter in _openblas_thread_controls().values():
        count = getter()
        if count > limit:
            setter(limit)
            lowered.append((count, setter))
    return lowered


@contextmanager
def _fit_map(config: AspConfig, n_fits: int):
    """The map that runs ``n_fits`` subsample fits inside the block.

    One worker (``min(worker_count, n_fits)``) gets the builtin ``map``,
    and no BLAS thread count is read or set.  More workers share one
    process pool.  This process's OpenBLAS copies are lowered to
    ``available_cpus() // workers`` threads before the pool forks, so the workers
    inherit the cap; a worker that lowered its own count would restart
    OpenBLAS's thread server, whose new threads spin for about 0.1 s
    against the first fit, so the initializer changes a count only in
    workers that are not forked.  On exit, by an exception too, the pool
    shuts down and the lowered counts are restored.  The pool module is
    imported here, so ``import spanova`` and one-worker runs load neither
    it nor ``multiprocessing``.
    """
    workers = min(config.worker_count, n_fits)
    if workers <= 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor

    limit = max(1, available_cpus() // workers)
    lowered = _cap_blas_threads(limit)
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_cap_blas_threads,
                                 initargs=(limit,)) as pool:
            yield pool.map
    finally:
        for count, setter in lowered:
            setter(count)


def _run_subsample_fits(dataset, spec, sizes, config, stream_tag, fit_map):
    """Fit one subsample per entry of ``sizes`` through ``fit_map`` (``_fit_map``).

    Job j draws stream (stream_tag + j // n_subsamples, j % n_subsamples).
    Returns (fits, dropped, errors): failed subsamples are dropped, the rest
    keep the request order, and ``errors`` holds the exception text of each
    dropped fit that gave one.  A worker receives its b rows, not the whole
    dataset.
    """
    per = config.n_subsamples
    jobs = []
    for j, b in enumerate(sizes):
        sub, basis = _draw_subsample(dataset, spec, b, config,
                                     (stream_tag + j // per, j % per))
        jobs.append((sub, spec, basis, config))
    results = list(fit_map(_fit_subsample, jobs))
    fits = tuple(r for r in results if isinstance(r, SubsampleFit))
    errors = tuple(r for r in results if isinstance(r, str))
    return fits, len(jobs) - len(fits), errors


def _boundary_flags(fits) -> list[str]:
    """``subsample-lambda-boundary:k`` when k subsample searches ended on the nlam boundary."""
    hits = sum("lambda-boundary" in f.flags for f in fits)
    return [f"subsample-lambda-boundary:{hits}"] if hits else []


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

    A subsample of size B = b_factor*b (capped at n), drawn as a subsample
    fit draws its rows and basis, is scored at
    lambda_p = lambda_sub * (B/b)^{-r/(pr+1)} for both candidate p values,
    with theta held fixed; the smaller score wins and ties go to p = 1.
    Both scores are read from one design of the B rows (``gcv.scores_at``).
    """
    big = min(round_half_up(config.b_factor * b), dataset.n)
    sub, basis = _draw_subsample(dataset, spec, big, config, (31,))
    nlams = [big * extrapolate_lambda(lambda_sub, big, b, config.r_default, p) for p in (1, 2)]
    best_p, best_score = 1, np.inf
    for p, score in zip((1, 2), scores_at(sub, spec, basis, theta, nlams)):
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
    # The block covers estimate_p, whose 2b-row problem is as small as the
    # fits, so it runs under the pool's BLAS cap.  Forking stops the
    # caller's OpenBLAS threads; the ones restarted when the cap is lifted
    # spin for about 0.1 s, and that cost falls on the caller's next BLAS
    # work, after asp-u returns.
    with _fit_map(config, config.n_subsamples) as fit_map:
        fits, dropped, errors = _run_subsample_fits(
            dataset, spec, [b] * config.n_subsamples, config, 21, fit_map)
        if dropped:
            flags.append(f"subsamples-dropped:{dropped}")
        if len(fits) < min(2, config.n_subsamples):
            raise NumericalError("too few subsample fits survived: " + "; ".join(errors))
        flags += _boundary_flags(fits)
        lam_sub, theta = _aggregate(fits)
        p = P_UNESTIMATED if config.p is None else config.p
        if config.p is None and dataset.n > b:
            p = float(estimate_p(dataset, spec, lam_sub, theta, b, config))
    r = config.r_default
    lam_full = extrapolate_lambda(lam_sub, dataset.n, b, r, p)
    params = SmoothingParams.from_values(dataset.n * lam_full, theta)
    return SelectionResult(
        method="asp-u", params=params, lambda_full=lam_full, theta=theta,
        n=dataset.n, subsample_size=b, lambda_sub=lam_sub, p=p, r=r,
        fits=fits, seconds=time.perf_counter() - t0, flags=tuple(flags), dropped=errors)


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
    gamma_se = None
    if sizes.size >= 3:
        resid = log_l - (log_c - gamma * log_b)
        centered = log_b - log_b.mean()
        gamma_se = float(np.sqrt(resid @ resid / (sizes.size - 2) / (centered @ centered)))
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
                   rss=float(resid @ resid), clamped=clamped, gamma_se=gamma_se)


def asp_asymptotic(dataset: Dataset, spec: ModelSpec,
                   config: AspConfig = AspConfig()) -> SelectionResult:
    """Multi-size subsampling: fit the decay law, extrapolate along it.

    Subsample sizes are log-spaced between round(b_coef n^{1/4}) and
    round(b_max_coef n^{1/4}); each size contributes the log-median lambda
    over ``n_subsamples`` draws.  theta comes from the largest size.  One
    pool fits every draw of the ladder.
    """
    t0 = time.perf_counter()
    _check_response(dataset)
    lo = subsample_size(dataset.n, config, spec.null_dim)
    hi_cfg = replace(config, b_coef=config.b_max_coef)
    hi = subsample_size(dataset.n, hi_cfg, spec.null_dim)
    if hi <= lo:
        raise InputError("size ladder is degenerate; sample too small")
    raw = np.geomspace(lo, hi, config.n_sizes)
    sizes = sorted({int(round_half_up(v)) for v in raw})
    per = config.n_subsamples
    ladder = [b for b in sizes for _ in range(per)]
    with _fit_map(config, len(ladder)) as fit_map:
        fits, _, errors = _run_subsample_fits(dataset, spec, ladder, config, 41, fit_map)
    by_size = {b: [f for f in fits if f.size == b] for b in sizes}
    flags = [f"subsamples-dropped:{b}:{per - len(group)}"
             for b, group in by_size.items() if len(group) < per]
    flags += _boundary_flags(fits)
    kept_sizes = [b for b in sizes if by_size[b]]
    if len(kept_sizes) < 2:
        raise NumericalError("too few subsample sizes survived: " + "; ".join(errors))
    per_size_lam = [_aggregate(by_size[b])[0] for b in kept_sizes]
    rate = fit_rate(kept_sizes, per_size_lam)
    if rate.clamped:
        flags.append("gamma-clamped")
    _, theta = _aggregate(by_size[kept_sizes[-1]])
    lam_full = rate.c * float(dataset.n) ** (-rate.gamma)
    params = SmoothingParams.from_values(dataset.n * lam_full, theta)
    return SelectionResult(
        method="asp-a", params=params, lambda_full=lam_full, theta=theta,
        n=dataset.n, subsample_size=kept_sizes[-1],
        lambda_sub=per_size_lam[-1], p=rate.p, r=rate.r, rate=rate,
        fits=fits, seconds=time.perf_counter() - t0,
        flags=tuple(flags), dropped=errors)


def full_sample_basis(n: int, null_dim: int, config: AspConfig = AspConfig()) -> BasisSelection:
    """The basis-row draw shared by every full-sample selection and fit."""
    return select_basis(n, _basis_size(n, null_dim, config), seed=config.seed)


def _full_sample_search(method: str, search, dataset: Dataset, spec: ModelSpec,
                        config: AspConfig) -> SelectionResult:
    """Run ``search(dataset, spec, basis)`` on the full-sample basis as a selection result."""
    t0 = time.perf_counter()
    basis = full_sample_basis(dataset.n, spec.null_dim, config)
    res = search(dataset, spec, basis)
    return SelectionResult(
        method=method, params=res.params, lambda_full=res.params.nlam / dataset.n,
        theta=tuple(res.params.theta), n=dataset.n,
        seconds=time.perf_counter() - t0, flags=res.flags)


def gcv_select(dataset: Dataset, spec: ModelSpec,
               config: AspConfig = AspConfig()) -> SelectionResult:
    """Full-sample iterative cross-validation wrapped as a selection result."""
    search = functools.partial(full_gcv, max_iter=config.gcv_max_iter)
    return _full_sample_search("gcv", search, dataset, spec, config)


def skip_selection(dataset: Dataset, spec: ModelSpec,
                   config: AspConfig = AspConfig()) -> SelectionResult:
    """Full-sample starting-value selection wrapped as a selection result."""
    return _full_sample_search("skip", skip_select, dataset, spec, config)


def order_selection(dataset: Dataset, spec: ModelSpec,
                    config: AspConfig = AspConfig()) -> SelectionResult:
    """Order-based baseline: rate-law lambda, trace-normalized theta.

    Runs the input checks of the design builders, whose rank check reads
    T's rows chunk by chunk, so it forms neither T whole nor a kernel block.
    """
    t0 = time.perf_counter()
    basis = full_sample_basis(dataset.n, spec.null_dim, config)
    null_design(dataset, spec, basis)
    p = P_UNESTIMATED if config.p is None else config.p
    lam = order_based(dataset.n, config.r_default, p, config.order_c)
    theta = tuple(1.0 / part_traces(dataset, spec))
    params = SmoothingParams.from_values(dataset.n * lam, theta)
    return SelectionResult(
        method="order", params=params, lambda_full=lam, theta=theta,
        n=dataset.n, p=p, r=config.r_default,
        seconds=time.perf_counter() - t0)
