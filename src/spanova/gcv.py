"""Smoothing-parameter selection by generalized cross-validation.

The score is G = n^{-1} ||(I - A)y||^2 / [n^{-1} tr(I - A)]^2.  Three entry
points cover the selection strategies:

* ``minimize_lambda``: one-dimensional search in nlam at fixed theta.
* ``skip_select``: the two-step starting-value algorithm; its output can be
  used directly, skipping the iterative refinement.
* ``full_gcv``: skip initialization followed by alternating coordinate
  updates of log theta and re-minimization in nlam.

The nlam profile at fixed theta takes one R-only QR of [T, K L^{-T}, y]
(Q_r = LL') and one SVD of its q x q kernel block, after which every score
is an O(q) sum (``LambdaProfile``); the official ``gcv_score`` and every
accepted state use the solver's stacked-QR fit, so the two paths can be
cross-checked.

``full_gcv`` first compresses the n rows to p = M + S q rows
(``DesignBlocks.compress``), so every exact score, profile and theta trial
of its search, skip's included, costs the same at any n; its coordinate
sweep moves K(theta) and Q(theta) one block at a time.  The search's
factorizations, solves and row products run on scipy's LAPACK and BLAS
(see ``solver``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .solver import (CompiledDesign, DesignBlocks, SmoothingParams, _dot, _r_factor,
                     _stacked_fit, gcv_from_fit)
from .util import InputError, NumericalError

LOG_NLAM_LO = -12.0
LOG_NLAM_HI = 3.0
LAMBDA_TOL = 1e-4
COARSE_STEP = 0.25
GOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GcvResult:
    """Outcome of a selection run.

    ``score_trace`` records the score of each accepted state, so it is
    nonincreasing for the iterative algorithms; intermediate scaffolding
    (e.g. the first skip stage) is not an accepted state.
    """

    params: SmoothingParams
    score: float
    iterations: int
    converged: bool
    score_trace: tuple[float, ...]
    flags: tuple[str, ...] = ()


def golden_minimize(score, lo: float = LOG_NLAM_LO, hi: float = LOG_NLAM_HI,
                    tol: float = LAMBDA_TOL, coarse_step: float = COARSE_STEP):
    """Minimize a function on [lo, hi]: coarse scan, then golden section.

    ``score`` is evaluated elementwise over an array of points.  The coarse
    scan scores its whole evenly spaced grid in one call to locate the best
    basin; golden section then refines inside the neighboring interval, one
    point per call, to absolute tolerance ``tol``.  Returns
    (x, score(x), hit_boundary).  Raises when every evaluation is non-finite.
    """
    if not lo < hi:
        raise InputError("empty search interval")
    n_cells = max(1, int(round((hi - lo) / coarse_step)))
    grid = np.linspace(lo, hi, n_cells + 1)
    vals = np.asarray(score(grid), dtype=float)
    if not np.isfinite(vals).any():
        raise NumericalError("score is non-finite over the whole search range")
    i = int(np.nanargmin(np.where(np.isfinite(vals), vals, np.inf)))
    best_x, best_f = float(grid[i]), float(vals[i])
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, len(grid) - 1)])
    x1 = b - GOLD * (b - a)
    x2 = a + GOLD * (b - a)
    f1, f2 = score(x1), score(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLD * (b - a)
            f1 = score(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLD * (b - a)
            f2 = score(x2)
    for x, f in ((x1, f1), (x2, f2), ((a + b) / 2, score((a + b) / 2))):
        if np.isfinite(f) and f < best_f:
            best_x, best_f = float(x), float(f)
    hit_boundary = best_x <= lo + tol or best_x >= hi - tol
    return best_x, best_f, hit_boundary


class LambdaProfile:
    """GCV score as a function of nlam at fixed theta.

    With Q_r = LL' and a = L'c the fit is a ridge regression on
    [T, K L^{-T}].  One R-only QR of [T, K L^{-T}, y], the factor the
    compression and ``_stacked_fit`` take, gives

        R = [[R_TT, R_TK, r_Ty], [0, R_KK, r_Ky], [0, 0, rho]],

    and one SVD R_KK = U diag(s) V' with g = U'r_Ky reduces every score to
    O(q) sums of nonnegative terms, with no solve:

        rss(nlam) = rho^2 + rss_offset + sum (nlam/(s^2 + nlam))^2 g^2,
        tr A(nlam) = M + sum s^2/(s^2 + nlam).

    K'K is never formed, so a rank-deficient K costs no accuracy.
    """

    def __init__(self, design: CompiledDesign):
        self.design = design
        n, m, p = design.n, design.m, design.m + design.nq
        try:
            self.l_chol = sla.cholesky(design.q_r, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("penalty matrix is not positive definite") from exc
        # zero rows pad the stack to a square R; K is whitened in place
        stack = np.zeros((max(n, p + 1), p + 1), order="F")
        stack[:n, :m] = design.t
        stack[:n, m:p] = design.k
        stack[:n, p] = design.y
        sla.blas.dtrsm(1.0, self.l_chol, stack[:, m:p], side=1, lower=1, trans_a=1,
                       overwrite_b=1)
        self.r = r = _r_factor(stack)
        if (np.diag(r)[:m] == 0.0).any():
            raise NumericalError("null design is rank deficient")
        try:
            u, self.s, self.vt = sla.svd(r[m:p, m:p], check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("profile SVD did not converge") from exc
        self.s2 = self.s * self.s
        self.g = _dot(u.T, r[m:p, p])
        self.rss_floor = float(r[p, p]) ** 2 + design.rss_offset

    def score(self, log10_nlam):
        """GCV score at nlam = 10**log10_nlam, elementwise over an array."""
        des = self.design
        x = np.asarray(log10_nlam, dtype=float)
        nlam = 10.0 ** x.reshape(-1, 1)
        shrink = nlam / (self.s2 + nlam)
        rss = self.rss_floor + ((shrink * self.g) ** 2).sum(axis=1)
        trace_a = des.m + (self.s2 / (self.s2 + nlam)).sum(axis=1)
        denom = (des.n_obs - trace_a) / des.n_obs
        out = np.divide(rss / des.n_obs, denom * denom, out=np.full_like(rss, np.inf),
                        where=denom > 0.0)
        return out.reshape(x.shape)

    def coefficients(self, nlam: float) -> tuple[np.ndarray, np.ndarray]:
        """(d, c) at nlam: a = V diag(s/(s^2 + nlam)) g, c = L^{-T} a."""
        m, r = self.design.m, self.r
        a = _dot(self.vt.T, self.s / (self.s2 + nlam) * self.g)
        c = sla.solve_triangular(self.l_chol, a, trans="T", lower=True, check_finite=False)
        d = sla.solve_triangular(r[:m, :m], r[:m, -1] - _dot(r[:m, m:-1], a),
                                 lower=False, check_finite=False)
        return d, c


def _exact_score(design: CompiledDesign, nlam: float) -> float:
    """Score from the solver's stacked-QR fit; +inf on numerical failure."""
    try:
        _, _, fitted, trace_a = _stacked_fit(design, nlam)
    except NumericalError:
        return float("inf")
    resid = design.y - fitted
    return gcv_from_fit(float(resid @ resid) + design.rss_offset, trace_a, design.n_obs)


def gcv_score(t, k, q, y, params) -> float:
    """GCV score for pre-assembled (T, K, Q) at ``params``.

    K and Q must already carry the theta weighting; only the nlam component
    of ``params`` is read (a bare positive number is accepted too).
    Returns +inf when the effective degrees of freedom reach n.
    """
    nlam = params.nlam if isinstance(params, SmoothingParams) else float(params)
    if nlam <= 0:
        raise InputError("nlam must be positive")
    return _exact_score(CompiledDesign(t, k, q, y), nlam)


def minimize_lambda(t, k, q, y, theta=1.0) -> GcvResult:
    """Golden-section GCV minimization in log10(nlam) on [-12, 3] at fixed theta.

    ``theta`` is bookkeeping only: K and Q are used as given.  A minimum on
    the bracket boundary is returned with ``converged=False``.
    """
    design = CompiledDesign(t, k, q, y)
    profile = LambdaProfile(design)
    x, _, hit_boundary = golden_minimize(profile.score)
    score = _exact_score(design, 10.0 ** x)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    params = SmoothingParams(x, tuple(float(v) for v in np.log10(theta)))
    return GcvResult(params=params, score=score, iterations=1,
                     converged=not hit_boundary, score_trace=(score,),
                     flags=("lambda-boundary",) if hit_boundary else ())


def _design(blocks: DesignBlocks, y: np.ndarray, k: np.ndarray, q: np.ndarray):
    return CompiledDesign(blocks.t, k, q, y, blocks.n_obs, blocks.rss_offset)


def _profile_at(blocks: DesignBlocks, y: np.ndarray, theta: np.ndarray):
    design = _design(blocks, y, *blocks.combine(theta))
    return design, LambdaProfile(design)


def skip_stage_one(blocks: DesignBlocks, y: np.ndarray):
    """First skip stage: trace-normalized theta, nlam search, coefficients.

    Returns (theta_1, log10_nlam, c) so the second-stage arithmetic can be
    reproduced externally.
    """
    y = np.asarray(y, dtype=float)
    if (blocks.part_traces <= 0).any():
        raise NumericalError("a kernel block has nonpositive trace")
    theta1 = 1.0 / blocks.part_traces
    _, profile1 = _profile_at(blocks, y, theta1)
    x1, _, _ = golden_minimize(profile1.score)
    _, c = profile1.coefficients(10.0 ** x1)
    return theta1, x1, c


def skip_select(blocks: DesignBlocks, y: np.ndarray) -> GcvResult:
    """Two-step starting-value selection.

    Step 1: theta_delta = 1/tr(R_delta) over the fitted rows, minimize the
    score in nlam and extract c.  Step 2: theta_delta0 =
    theta_delta^2 c'Q_delta c, then minimize in nlam again.  A zero
    quadratic form is floored at 1e-12 of the largest weight and flagged.

    theta_0 scales with y^2, while the nlam window is fixed, so step 2
    searches at theta_0 pinned to geometric mean 1 (the score depends on
    nlam/theta only) and reports nlam on theta_0's own scale.
    """
    y = np.asarray(y, dtype=float)
    flags: list[str] = []
    theta1, _, c = skip_stage_one(blocks, y)
    quad = np.array([c @ qp @ c for qp in blocks.q_parts])
    theta0 = theta1**2 * quad
    top = theta0.max()
    if top <= 0.0:
        flags.append("theta-degenerate")
        theta0 = theta1
    elif (theta0 <= 0.0).any():
        flags.append("theta-floor")
        theta0 = np.where(theta0 > 0.0, theta0, 1e-12 * top)
    shift = float(np.mean(np.log10(theta0)))
    design2, profile2 = _profile_at(blocks, y, theta0 * 10.0 ** (-shift))
    x2, _, hit_boundary = golden_minimize(profile2.score)
    score = _exact_score(design2, 10.0 ** x2)
    if hit_boundary:
        flags.append("lambda-boundary")
    params = SmoothingParams(x2 + shift, tuple(float(v) for v in np.log10(theta0)))
    return GcvResult(params=params, score=score, iterations=2,
                     converged=not hit_boundary, score_trace=(score,),
                     flags=tuple(flags))


def full_gcv(blocks: DesignBlocks, y: np.ndarray, max_iter: int = 30,
             tol: float = 1e-5) -> GcvResult:
    """Iterative multi-theta GCV minimization.

    Starts from ``skip_select``; each iteration takes one quasi-Newton step
    per log10(theta_delta) coordinate with nlam held fixed (central
    differences, step clamped to one decade, uphill proposals rejected
    after two backtracks), then re-minimizes over nlam.  Stops when the
    relative score improvement falls below ``tol``.  The accepted-state
    score trace is nonincreasing by construction.

    The objective is invariant under (theta, nlam) -> (s theta, s nlam),
    so only nlam/theta_delta is identified.  The redundant scale is pinned
    to geometric-mean theta = 1 after the init and after every coordinate
    sweep; otherwise a drifting common scale can push the optimum of the
    identified coordinates outside the fixed nlam search window.

    The rows are compressed once (``DesignBlocks.compress``), and each
    theta trial moves K and Q by one block (``DesignBlocks.reweight``), so a
    trial costs O(pq) plus a (p + q)-row QR whatever n and S are.
    """
    blocks, y = blocks.compress(y)
    init = skip_select(blocks, y)
    s = blocks.n_penalized
    theta = init.params.theta.copy()
    log_nlam = init.params.log10_nlam
    score = init.score
    # boundary hits are reported for full_gcv's own nlam searches only
    flags = set(init.flags) - {"lambda-boundary"}
    trace = [score]
    h = 0.1

    def pin_scale():
        nonlocal theta, log_nlam
        shift = float(np.mean(np.log10(theta)))
        theta = theta * 10.0 ** (-shift)
        log_nlam -= shift

    pin_scale()

    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        nlam = 10.0 ** log_nlam
        # coordinate sweep at fixed nlam, K and Q moved one block per trial
        k, q = blocks.combine(theta)
        for delta in range(s):
            lt0 = math.log10(theta[delta])

            def eval_at(lt):
                trial = blocks.reweight(k, q, delta, 10.0 ** lt - theta[delta])
                return _exact_score(_design(blocks, y, *trial), nlam)

            f_plus = eval_at(lt0 + h)
            f_minus = eval_at(lt0 - h)
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                continue
            grad = (f_plus - f_minus) / (2 * h)
            curv = (f_plus - 2 * score + f_minus) / h**2
            if curv > 0:
                step = float(np.clip(-grad / curv, -1.0, 1.0))
            else:
                step = -math.copysign(1.0, grad)
            if abs(step) < 1e-8:
                continue
            for trial_step in (step, step / 2, step / 4):
                f_try = eval_at(lt0 + trial_step)
                if f_try < score:
                    new = 10.0 ** (lt0 + trial_step)
                    k, q = blocks.reweight(k, q, delta, new - theta[delta])
                    theta[delta] = new
                    score = f_try
                    break
        # nlam search at the updated theta, on the pinned scale
        pin_scale()
        design, profile = _profile_at(blocks, y, theta)
        x, _, hit_boundary = golden_minimize(profile.score)
        cand = _exact_score(design, 10.0 ** x)
        if cand < score:
            log_nlam = x
            score = cand
            if hit_boundary:
                flags.add("lambda-boundary")
        prev = trace[-1]
        trace.append(score)
        if prev - score < tol * max(abs(prev), 1e-300):
            converged = True
            break

    params = SmoothingParams(log_nlam, tuple(float(v) for v in np.log10(theta)))
    return GcvResult(params=params, score=score, iterations=iterations,
                     converged=converged, score_trace=tuple(trace),
                     flags=tuple(sorted(flags)))
