"""Smoothing-parameter selection by generalized cross-validation.

The score is G = n^{-1} ||(I - A)y||^2 / [n^{-1} tr(I - A)]^2.  Three entry
points cover the selection strategies:

* ``minimize_lambda``: one-dimensional search in nlam at fixed theta.
* ``skip_search`` (``skip_select`` on the rows): the two-step
  starting-value algorithm; its output can be used directly, skipping the
  iterative refinement.
* ``full_gcv``: skip initialization followed by alternating coordinate
  updates of log theta and re-minimization in nlam.

Scores and fits are split as in Wood (2004), with T absorbed once: every
design holds T as [R_T; 0] (``solver.CompiledDesign``; ``gcv_score`` and
``minimize_lambda`` compress [T, K, y] first, as the fit does), so every
factorization factors the K and y columns only.  The nlam scan at fixed
theta scores a reduced profile, one R-only QR of [K_perp L^{-T}, y_perp]
(Q_r = LL'; the design's own stack and factor) and one SVD of its q x q
kernel block, after which every score is an O(q) sum (``LambdaProfile``),
and the scan's minimum is the score of record.  Every theta trial,
``gcv_score`` and skip's coefficients go through the solver's stacked QR
(``solver._complement_solve``), with the residual read from the
complement rows.

``skip_select``, ``full_gcv`` and ``scores_at`` take the rows (dataset,
model, basis) and build their own designs.  ``full_gcv`` runs on the
blocks of ``solver.compressed_blocks``, the one place that chooses
whether to stream: where p + 1 < n, the n rows compressed to p + 1 rows,
p = M + S q, without any per-term n-row block, so every exact score,
profile and theta trial of its search, skip's included, costs the same at
any n; otherwise the n rows rotated by T's QR.  A search's designs come from one
source's ``design_at(theta)``: ``full_gcv``'s blocks (``solver.DesignBlocks``),
or, for ``skip_select`` and ``scores_at``, the rows (``solver.DesignRows``),
compressing [T, K(theta), y] (M + q + 1 columns) as they stream.
The search's factorizations, solves and row products run on scipy's
LAPACK and BLAS (see ``solver``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .data import Dataset
from .kernels import ModelSpec
from .solver import (BasisSelection, CompiledDesign, DesignBlocks, DesignRows, SmoothingParams,
                     _checked_design, _complement_solve, _design_gcv, _dot, _gcv_value,
                     _r_factor, compressed_blocks, part_traces)
from .util import InputError, NumericalError

LOG_NLAM_LO = -12.0
LOG_NLAM_HI = 3.0
LAMBDA_TOL = 1e-4
COARSE_STEP = 0.25
# full_gcv stops when an iteration improves the score by less than this, relatively
SCORE_TOL = 1e-5
# The spread (max - min) a searched response may have: scores square y and skip's
# theta_0 scales with y^2 (on m1, y * 1e155 and y * 1e-160 overflowed them)
RESPONSE_SPREAD = (1e-120, 1e120)
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


def at_window_edge(log10_nlam: float) -> bool:
    """The nlam-window rule: log10 nlam within LAMBDA_TOL of [-12, 3]'s edge, or beyond it."""
    return not LOG_NLAM_LO + LAMBDA_TOL < log10_nlam < LOG_NLAM_HI - LAMBDA_TOL


def golden_minimize(score):
    """Minimize a score of log10(nlam) on [-12, 3]: coarse scan, then golden section.

    ``score`` is evaluated elementwise over an array of points.  The coarse
    scan scores its whole grid, COARSE_STEP apart, in one call to locate the
    best basin; golden section then refines inside the neighboring
    interval, one point per call, to absolute tolerance LAMBDA_TOL.  Returns
    (x, score(x)).  Raises when every evaluation is non-finite.
    """
    lo, hi, tol = LOG_NLAM_LO, LOG_NLAM_HI, LAMBDA_TOL
    n_cells = int(round((hi - lo) / COARSE_STEP))
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
    return best_x, best_f


class LambdaProfile:
    """GCV score as a function of nlam at fixed theta; it only scores.

    With Q_r = LL' and a = L'c the fit is a ridge regression on K L^{-T},
    and T is absorbed (``solver.CompiledDesign``): the null directions are
    fitted exactly, and the rest of the problem lives in the complement
    rows.  One R-only QR of [K_perp L^{-T}, y_perp], q + 1 columns, gives

        R = [[R_KK, r_Ky], [0, rho]],

    and one SVD R_KK = U diag(s) V' with g = U'r_Ky reduces every score to
    O(q) sums of nonnegative terms, with no solve:

        rss(nlam) = rho^2 + sum (nlam/(s^2 + nlam))^2 g^2,
        tr A(nlam) = M + sum s^2/(s^2 + nlam).

    K'K is never formed, so a rank-deficient K costs no accuracy.  Only
    s^2, g, the rss floor and the design are kept; the coefficients at a
    chosen nlam come from ``solver._complement_solve``.
    """

    def __init__(self, design: CompiledDesign):
        self.design = design
        q = design.nq
        # the solve's stack, penalty rows left zero; K is whitened in place
        stack = design.stack()
        sla.blas.dtrsm(1.0, design.penalty_factor, stack[:, :q], side=1, lower=1, trans_a=1,
                       overwrite_b=1)
        r = _r_factor(stack)
        try:
            u, s, _ = sla.svd(r[:q, :q], check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("profile SVD did not converge") from exc
        self.s2 = s * s
        self.g = _dot(u.T, r[:q, q])
        self.rss_floor = float(r[q, q]) ** 2

    def score(self, log10_nlam):
        """GCV score at nlam = 10**log10_nlam, elementwise over an array."""
        des = self.design
        x = np.asarray(log10_nlam, dtype=float)
        nlam = 10.0 ** x.reshape(-1, 1)
        shrink = nlam / (self.s2 + nlam)
        rss = self.rss_floor + ((shrink * self.g) ** 2).sum(axis=1)
        trace_a = des.m + (self.s2 / (self.s2 + nlam)).sum(axis=1)
        return _gcv_value(rss, trace_a, des.n_obs).reshape(x.shape)


def _scan(design: CompiledDesign) -> tuple[float, float]:
    """(log10 nlam, score) at the minimum of ``design``'s nlam profile."""
    return golden_minimize(LambdaProfile(design).score)


def _search_result(log_nlam, shift, theta, trace, iterations, flags=(), converged=None):
    """A search's result from its final state: pinned log10 nlam, the shift taken
    out of ``theta`` to pin it, and the score trace.  ``at_window_edge(log_nlam)``
    alone sets ``lambda-boundary``, and ``converged`` where that is None (a scan)."""
    edge = at_window_edge(log_nlam)
    flags = {f for f in flags if f != "lambda-boundary"} | ({"lambda-boundary"} if edge else set())
    return GcvResult(SmoothingParams(log_nlam + shift, tuple(np.log10(theta).tolist())),
                     trace[-1], iterations, not edge if converged is None else converged,
                     tuple(trace), tuple(sorted(flags)))


def _exact_score(design: CompiledDesign, nlam: float) -> float:
    """Score from the solver's stacked QR; +inf on numerical failure.

    Needs neither d nor the fitted values: the residual lies in the
    complement rows, y_perp - K_perp c.
    """
    try:
        c, trace_a = _complement_solve(design, nlam)
    except NumericalError:
        return float("inf")
    return _design_gcv(design, c, trace_a)


def gcv_score(t, k, q, y, params) -> float:
    """GCV score for pre-assembled (T, K, Q) at ``params``.

    K and Q must already carry the theta weighting; only the nlam component
    of ``params`` is read (a bare positive number is accepted too).
    Returns +inf when the effective degrees of freedom reach n.
    """
    nlam = params.nlam if isinstance(params, SmoothingParams) else float(params)
    return _exact_score(_checked_design(t, k, q, y), nlam)


def scores_at(dataset: Dataset, spec: ModelSpec, basis: BasisSelection, theta,
              nlams) -> list[float]:
    """Exact scores at each of ``nlams`` on one design of the rows at ``theta`` (``design_at``)."""
    design = DesignRows(dataset, spec, basis).design_at(theta)
    return [_exact_score(design, nlam) for nlam in nlams]


def minimize_lambda(t, k, q, y, theta=1.0) -> GcvResult:
    """Golden-section GCV minimization in log10(nlam) on [-12, 3] at fixed theta.

    ``theta`` is bookkeeping only: K and Q are used as given.  A minimum on
    the window's edge is returned with ``converged=False``.
    """
    x, score = _scan(_checked_design(t, k, q, y))
    return _search_result(x, 0.0, np.atleast_1d(theta), (score,), 1)


def _check_response(dataset: Dataset) -> None:
    """Raise unless y varies, by a spread inside RESPONSE_SPREAD."""
    spread = float(dataset.y.max()) - float(dataset.y.min()) if dataset.y.size else 1.0
    if spread == 0.0:
        raise InputError("response is constant; no smoothing parameter can be selected")
    if not RESPONSE_SPREAD[0] <= spread <= RESPONSE_SPREAD[1]:
        raise InputError(f"response spread (max - min) is {spread:.3g}, outside"
                         f" [{RESPONSE_SPREAD[0]:g}, {RESPONSE_SPREAD[1]:g}]; rescale y")


def _pinned_scale(theta: np.ndarray) -> tuple[np.ndarray, float]:
    """theta at geometric mean 1, and the log10 shift taken out, which log10 nlam loses too."""
    shift = float(np.mean(np.log10(theta)))
    return theta * 10.0 ** (-shift), shift


def _stage_one(source, part_traces: np.ndarray):
    """First skip stage on ``source``'s designs: trace-normalized theta, nlam scan, coefficients.

    The profile scan picks nlam; c comes from the stacked QR's complement
    solve there (``_complement_solve``), which needs no d.  Returns (theta_1, c).
    """
    if (part_traces <= 0).any():
        raise NumericalError("a kernel block has nonpositive trace")
    theta1 = 1.0 / part_traces
    design1 = source.design_at(theta1)
    c, _ = _complement_solve(design1, 10.0 ** _scan(design1)[0])
    return theta1, c


def skip_search(source, part_traces: np.ndarray) -> GcvResult:
    """Two-step starting-value selection on the designs of one source.

    ``source.design_at(theta)`` returns the ``CompiledDesign`` of
    [T, K(theta), y] with Q(theta) = sum_delta theta_delta Q_delta, from
    ``source.q_parts``: blocks held in memory (``full_gcv``'s start) or
    the n rows streamed (``skip_select``); the arithmetic is the same.

    Step 1: theta_delta = 1/tr(R_delta) over the fitted rows, minimize the
    score in nlam and extract c.  Step 2: theta_delta0 =
    theta_delta^2 c'Q_delta c, then minimize in nlam again.  A zero
    quadratic form is floored at 1e-12 of the largest weight and flagged.

    theta_0 scales with y^2, while the nlam window is fixed, so step 2
    searches at theta_0 pinned to geometric mean 1 (the score depends on
    nlam/theta only) and reports nlam on theta_0's own scale.
    """
    flags: list[str] = []
    theta1, c = _stage_one(source, part_traces)
    quad = np.array([c @ qp @ c for qp in source.q_parts])
    theta0 = theta1**2 * quad
    top = theta0.max()
    if top <= 0.0:
        flags.append("theta-degenerate")
        theta0 = theta1
    elif (theta0 <= 0.0).any():
        flags.append("theta-floor")
        theta0 = np.where(theta0 > 0.0, theta0, 1e-12 * top)
    pinned, shift = _pinned_scale(theta0)
    x2, score = _scan(source.design_at(pinned))
    return _search_result(x2, shift, theta0, (score,), 2, flags)


def skip_select(dataset: Dataset, spec: ModelSpec, basis: BasisSelection) -> GcvResult:
    """``skip_search`` on the rows, whatever their shape.

    Each of its two designs compresses [T, K(theta), y], M + q + 1
    columns, streamed from the rows chunk by chunk
    (``solver.DesignRows.design_at``), so no per-term n-row block exists.
    """
    _check_response(dataset)
    return skip_search(DesignRows(dataset, spec, basis), part_traces(dataset, spec))


def _trial(blocks: DesignBlocks, design: CompiledDesign, delta: int, dw: float) -> CompiledDesign:
    """The design where theta_delta moves by ``dw`` from ``design``'s, on ``blocks``.

    K + dw K_delta is formed in one allocation, and Q + dw Q_delta from the
    design's unridged Q.
    """
    k_trial = np.multiply(dw, blocks.k_parts[delta])
    k_trial += design.k
    return CompiledDesign(blocks.t, k_trial, design.q + dw * blocks.q_parts[delta], blocks.y,
                          blocks.n_obs)


def full_gcv(dataset: Dataset, spec: ModelSpec, basis: BasisSelection,
             max_iter: int = 30) -> GcvResult:
    """Iterative multi-theta GCV minimization on the rows.

    Starts from ``skip_search`` on the search's blocks; each iteration
    takes one quasi-Newton step per log10(theta_delta) coordinate with nlam
    held fixed (central differences, step clamped to one decade, uphill
    proposals rejected after two backtracks), then re-minimizes over nlam.
    Stops when the relative score improvement falls below SCORE_TOL, or
    after ``max_iter`` iterations, flagged ``iteration-cap``.  The
    accepted-state score trace is nonincreasing by construction.

    The objective is invariant under (theta, nlam) -> (s theta, s nlam),
    so only nlam/theta_delta is identified.  The redundant scale is pinned
    to geometric-mean theta = 1 after the init and after every coordinate
    sweep; otherwise a drifting common scale can push the optimum of the
    identified coordinates outside the fixed nlam search window.

    The blocks are built on entry by ``solver.compressed_blocks``, which
    compresses the rows where p + 1 < n and otherwise rotates the n rows
    by T's QR, so T is [R_T; 0] either way.  The search holds one design,
    replaced by each accepted trial and each nlam profile's, and a trial is
    the design of K + w K_delta from it (``_trial``), so it costs O(pq)
    plus a QR of p + 1 - M + q rows and q + 1 columns, whatever n is.
    Theta trials are scored by that stacked QR and nlam searches by the
    profile; the two agree to about 1e-12 relative, so only a near-exact
    tie between a trial and a search minimum could be decided either way.
    """
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter}")
    _check_response(dataset)
    blocks = compressed_blocks(dataset, spec, basis)
    init = skip_search(blocks, part_traces(dataset, spec))
    theta, shift = _pinned_scale(init.params.theta)
    log_nlam = init.params.log10_nlam - shift
    score = init.score
    trace = [score]
    h = 0.1
    design = blocks.design_at(theta)

    converged = False
    for iterations in range(1, max_iter + 1):
        nlam = 10.0 ** log_nlam
        # coordinate sweep at fixed nlam, K and Q moved one block per trial
        for delta in range(blocks.n_penalized):
            lt0 = math.log10(theta[delta])

            def eval_at(lt):
                trial = _trial(blocks, design, delta, 10.0 ** lt - theta[delta])
                return _exact_score(trial, nlam), trial

            f_plus = eval_at(lt0 + h)[0]
            f_minus = eval_at(lt0 - h)[0]
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
                f_try, trial = eval_at(lt0 + trial_step)
                if f_try < score:
                    design = trial
                    theta[delta] = 10.0 ** (lt0 + trial_step)
                    score = f_try
                    break
        # nlam search at the updated theta, on the pinned scale; its design starts the next sweep
        theta, shift = _pinned_scale(theta)
        log_nlam -= shift
        design = blocks.design_at(theta)
        x, cand = _scan(design)
        if cand < score:
            log_nlam = x
            score = cand
        prev = trace[-1]
        trace.append(score)
        if prev - score < SCORE_TOL * max(abs(prev), 1e-300):
            converged = True
            break
    flags = init.flags if converged else (*init.flags, "iteration-cap")
    return _search_result(log_nlam, 0.0, theta, trace, iterations, flags, converged)
