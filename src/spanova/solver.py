"""Penalized least-squares solver for tensor-product ANOVA models.

The estimate is eta(x) = sum_j d_j phi_j(x) + sum_i c_i R_theta(z_i, x) with
phi_j the null-basis functions, z_i a random subset of q observed rows and
R_theta = sum_delta theta_delta R_delta.  Coefficients minimize

    ||y - T d - K c||^2 + nlam * c' Q c

where T is the n x M null design, K the n x q kernel design and Q the q x q
kernel Gram at the basis rows.  With q = n and basis rows equal to the data
this reproduces the classic full-rank smoothing-spline solution; with q < n
it is the random-basis approximation whose cost per smoothing-parameter
choice is O(n q^2).

Every fit and score solves the problem in its stacked least-squares form:
[y; 0] on [[T, K]; [0, sqrt(nlam) L']] with Q_r = LL' (Q_r carries a small
stabilizing ridge), by one triangular factor R of a QR factorization, at the
square root of the normal equations' condition number.  The effective
degrees of freedom tr(A) come from the same R.

A selection scores many (theta, nlam) on one response, so it first
compresses the n rows: one QR of [T, K_1 ... K_S, y] (p + 1 columns,
p = M + S q), built over row chunks, leaves p rows [R_T, R_1 ... R_S | f]
with the same cross products, and y'y - f'f = rho^2 with rho R's last
diagonal entry.  Every score on the compressed blocks adds rho^2 to its
residual sum of squares and divides by the observation count, so it equals
the n-row score while its cost no longer depends on n.

The QRs, solves, SVDs and row products of the fit and the search run on
scipy's LAPACK and BLAS (``_dot``), not numpy's.  Each package bundles its
own OpenBLAS, and at two threads calls that alternate between the two
copies stall each other.  Measured on a 2-CPU machine next to a scipy QR,
T d + K c on 20000 rows took 5 ms through numpy and 0.6 ms through scipy's
dgemv.  Products too small to start BLAS threads stay with numpy.

Callers keep the default BLAS thread count; only the subsample pool caps
it (``asp._capped_blas_threads``).  On a 2-CPU machine, compressing 20000
rows of a two-way model (p = 389) took 0.22-0.27 s at two threads and
0.30-0.37 s at one, and kernel assembly, elementwise numpy without BLAS,
took 0.09-0.19 s at either.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .data import Dataset
from .kernels import ModelSpec, null_basis_matrix, term_gram_diag, term_grams
from .util import InputError, NumericalError, derive_rng, round_half_up

# Relative size of the ridge added to Q before factorization.
RIDGE_SCALE = 1e-10
# Rows of [T, K_1 ... K_S, y] formed at once while compressing.
COMPRESS_CHUNK = 2048
# Block size of the compact-WY QR.
QR_BLOCK = 32


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing parameters on log scale: one nlam, one theta per term."""

    log10_nlam: float
    log10_theta: tuple[float, ...]

    def __post_init__(self):
        if not np.isfinite(self.log10_nlam):
            raise InputError("log10_nlam must be finite")
        if any(not np.isfinite(v) for v in self.log10_theta):
            raise InputError("log10_theta entries must be finite")

    @property
    def nlam(self) -> float:
        return 10.0 ** self.log10_nlam

    @property
    def theta(self) -> np.ndarray:
        return 10.0 ** np.asarray(self.log10_theta, dtype=float)

    @classmethod
    def from_values(cls, nlam: float, theta) -> "SmoothingParams":
        theta = np.asarray(theta, dtype=float)
        if nlam <= 0 or (theta <= 0).any():
            raise InputError("nlam and theta must be positive")
        return cls(float(np.log10(nlam)), tuple(float(v) for v in np.log10(theta)))


@dataclass(frozen=True)
class BasisSelection:
    """Indices of the rows used as kernel basis points."""

    indices: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise InputError("basis selection needs a nonempty index vector")
        if np.unique(idx).size != idx.size:
            raise InputError("basis indices must be distinct")
        object.__setattr__(self, "indices", np.sort(idx))

    @property
    def q(self) -> int:
        return self.indices.size


def basis_count(n: int, coef: float = 10.0, exp: float = 2.0 / 9.0) -> int:
    """Default basis-size rule q = round(coef * n^exp)."""
    if n < 1 or coef <= 0:
        raise InputError("basis count needs n >= 1 and coef > 0")
    return round_half_up(coef * float(n) ** exp)


def select_basis(n: int, q: int, seed: int | None = None) -> BasisSelection:
    """Draw q basis rows uniformly without replacement from n rows."""
    if not 1 <= q <= n:
        raise InputError(f"basis size {q} outside [1, {n}]")
    rng = derive_rng(0 if seed is None else seed, 11)
    idx = rng.choice(n, size=q, replace=False)
    return BasisSelection(indices=idx, seed=seed)


@dataclass
class DesignBlocks:
    """Per-term design blocks for one dataset and basis selection.

    Everything here is independent of the smoothing parameters, so a fit can
    reuse the blocks across theta and nlam choices.  ``part_traces`` holds
    sum_i R_delta(x_i, x_i) over the fitted rows, used by the starting-value
    algorithm.  Blocks from ``compress`` hold p rows for n_obs observations,
    and rss_offset is the part of the residual sum of squares that no
    smoothing parameter can reach.
    """

    t: np.ndarray
    k_parts: tuple[np.ndarray, ...]
    q_parts: tuple[np.ndarray, ...]
    part_traces: np.ndarray
    basis: BasisSelection
    basis_rows: np.ndarray
    n_obs: int | None = None
    rss_offset: float = 0.0

    def __post_init__(self):
        if self.n_obs is None:
            self.n_obs = self.t.shape[0]

    @property
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def n_null(self) -> int:
        return self.t.shape[1]

    @property
    def q(self) -> int:
        return self.basis.q

    @property
    def n_penalized(self) -> int:
        return len(self.k_parts)

    def combine(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Weighted kernel design and penalty, K(theta) and Q(theta)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_penalized,):
            raise InputError(f"theta must have length {self.n_penalized}")
        k = theta[0] * self.k_parts[0]
        q = theta[0] * self.q_parts[0]
        for w, kp, qp in zip(theta[1:], self.k_parts[1:], self.q_parts[1:]):
            k += w * kp
            q += w * qp
        return k, q

    def reweight(self, k, q, delta: int, dw: float) -> tuple[np.ndarray, np.ndarray]:
        """K and Q after theta_delta moves by ``dw``, from K(theta), Q(theta).

        Costs one block instead of the S blocks of ``combine``.
        """
        return k + dw * self.k_parts[delta], q + dw * self.q_parts[delta]

    def compress(self, y) -> tuple["DesignBlocks", np.ndarray]:
        """Blocks and response reduced to p = M + S q rows by one QR.

        The triangular factor R of [T, K_1 ... K_S, y] is accumulated by
        factoring R stacked on the next COMPRESS_CHUNK rows, in one buffer
        reused for every chunk (zero rows pad the last one), so the
        n x (p + 1) matrix is never formed.  R's first p rows replace T,
        each K_delta and y; the square of its last diagonal entry becomes
        rss_offset.  Returns the blocks and y unchanged when p + 1 >= n,
        where there is nothing to gain.
        """
        y = np.asarray(y, dtype=float)
        n, m, q = self.n, self.n_null, self.q
        if y.shape != (n,):
            raise InputError(f"y must have one entry per row ({n})")
        p = m + self.n_penalized * q
        if p + 1 >= n:
            return self, y
        chunk = min(COMPRESS_CHUNK, n)
        stack = np.empty((p + 1 + chunk, p + 1), order="F")
        r = np.zeros((p + 1, p + 1))
        for lo in range(0, n, chunk):
            rows = stack[p + 1:p + 1 + min(chunk, n - lo)]
            stack[:p + 1] = r
            rows[:, :m] = self.t[lo:lo + chunk]
            for j, kp in enumerate(self.k_parts):
                rows[:, m + j * q:m + (j + 1) * q] = kp[lo:lo + chunk]
            rows[:, p] = y[lo:lo + chunk]
            stack[p + 1 + rows.shape[0]:] = 0.0
            r = _r_factor(stack)
        k_parts = tuple(r[:p, m + j * q:m + (j + 1) * q]
                        for j in range(self.n_penalized))
        blocks = replace(self, t=r[:p, :m], k_parts=k_parts,
                         rss_offset=self.rss_offset + float(r[p, p]) ** 2)
        return blocks, r[:p, p]


def _r_factor(stack: np.ndarray) -> np.ndarray:
    """Upper-triangular factor of a Householder QR of ``stack`` (overwritten).

    Only its top min(rows, columns) rows are read out of LAPACK's output.
    dgeqrt (compact-WY blocks) rather than dgeqrf: on these tall, narrow
    stacks it ran 1.3-5x faster, most at two OpenBLAS threads.
    """
    top = min(stack.shape)
    a, _, info = sla.lapack.dgeqrt(min(QR_BLOCK, top), stack, overwrite_a=True)
    if info != 0:
        raise NumericalError(f"solver: QR failed (LAPACK info {info})")
    return np.triu(a[:top])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b by scipy's BLAS, for 2-D a and 1-D or 2-D b.

    Each operand goes in as whichever of itself or its transpose is
    F-contiguous, with the matching transpose flag, so f2py copies no
    contiguous operand.
    """
    a_arg, trans_a = (a, 0) if a.flags.f_contiguous else (a.T, 1)
    if b.ndim == 1:
        return sla.blas.dgemv(1.0, a_arg, b, trans=trans_a)
    b_arg, trans_b = (b, 0) if b.flags.f_contiguous else (b.T, 1)
    return sla.blas.dgemm(1.0, a_arg, b_arg, trans_a=trans_a, trans_b=trans_b)


def null_design(dataset: Dataset, spec: ModelSpec, basis: BasisSelection) -> np.ndarray:
    """Null design T after the checks that make a fit well posed."""
    if spec.n_penalized == 0:
        raise InputError("model has no penalized terms; nothing to smooth")
    m = spec.null_dim
    if dataset.n < m + 1:
        raise InputError(f"need at least {m + 1} rows to fit {m} null coefficients")
    if basis.q <= m:
        raise InputError(f"basis size {basis.q} must exceed the null dimension {m}")
    if basis.indices[-1] >= dataset.n:
        raise InputError("basis indices exceed the dataset")
    t = null_basis_matrix(spec, dataset.x)
    if np.linalg.matrix_rank(t) < m:
        raise InputError("null basis is rank deficient on this sample")
    return t


def part_traces(dataset: Dataset, spec: ModelSpec) -> np.ndarray:
    """sum_i R_delta(x_i, x_i) over the rows, one entry per penalized term."""
    return np.array([float(term_gram_diag(term, spec.domains, dataset.x).sum())
                     for term in spec.penalized_terms])


def assemble_blocks(dataset: Dataset, spec: ModelSpec, basis: BasisSelection) -> DesignBlocks:
    """Build T and the per-term K_delta, Q_delta blocks.

    Raises if the null design is rank deficient (for example a constant
    predictor column duplicating the intercept) or the sample cannot
    identify the null space.
    """
    t = null_design(dataset, spec, basis)
    z = dataset.x[basis.indices]
    terms = spec.penalized_terms
    return DesignBlocks(
        t=t,
        k_parts=tuple(term_grams(terms, spec.domains, dataset.x, z)),
        q_parts=tuple((qb + qb.T) / 2.0 for qb in term_grams(terms, spec.domains, z, z)),
        part_traces=part_traces(dataset, spec),
        basis=basis,
        basis_rows=z.copy(),
    )


def assemble(dataset: Dataset, spec: ModelSpec, basis: BasisSelection, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble (T, K, Q) for one theta: the inputs of the penalized solve."""
    blocks = assemble_blocks(dataset, spec, basis)
    k, q = blocks.combine(theta)
    return blocks.t, k, q


class CompiledDesign:
    """Validated inputs (T, K, Q_r, y) of one penalized solve.

    Q_r is Q plus a ridge of RIDGE_SCALE times its mean diagonal, so its
    Cholesky factor exists when Q is only semidefinite.  ``n`` is the row
    count of the system; on compressed blocks the scores divide by
    ``n_obs`` observations and add ``rss_offset`` to the residual sum of
    squares (see ``DesignBlocks.compress``).
    """

    def __init__(self, t: np.ndarray, k: np.ndarray, q: np.ndarray, y: np.ndarray,
                 n_obs: int | None = None, rss_offset: float = 0.0):
        t = np.asarray(t, dtype=float)
        k = np.asarray(k, dtype=float)
        q = np.asarray(q, dtype=float)
        y = np.asarray(y, dtype=float)
        n, m = t.shape
        if k.shape[0] != n or y.shape != (n,):
            raise InputError("T, K and y row counts disagree")
        nq = k.shape[1]
        if q.shape != (nq, nq):
            raise InputError("Q must be square with K's column count")
        if not np.allclose(q, q.T, atol=1e-10, rtol=0.0):
            raise InputError("Q must be symmetric")
        self.t = t
        self.k = k
        self.y = y
        self.n = n
        self.n_obs = n if n_obs is None else int(n_obs)
        self.rss_offset = float(rss_offset)
        self.m = m
        self.nq = nq
        ridge = RIDGE_SCALE * np.trace(q) / nq
        self.q_r = q + ridge * np.eye(nq)


def _stacked_fit(design: CompiledDesign, nlam: float):
    """Penalized fit via one R-only QR of the augmented stacked system.

    With X = [[T, K]; [0, sqrt(nlam) L']] and Q_r = LL', the triangular
    factor of [X, [y; 0]] carries the rotated response in its last column,
    so beta comes from one triangular solve and no n-row orthogonal factor
    is formed.  Since
    R'R = X'X = [T K]'[T K] + nlam blockdiag(0, Q_r),
    tr(A) = (M + q) - nlam ||L' R_22^{-1}||_F^2 with R_22 the trailing
    q x q block of R.  Returns (d, c, fitted, trace_a).
    """
    if nlam <= 0 or not np.isfinite(nlam):
        raise InputError("nlam must be positive and finite")
    try:
        l_chol = sla.cholesky(design.q_r, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("solver: penalty matrix is not positive definite") from exc
    n, m, p = design.n, design.m, design.m + design.nq
    stack = np.zeros((n + design.nq, p + 1), order="F")
    stack[:n, :m] = design.t
    stack[:n, m:p] = design.k
    stack[:n, p] = design.y
    stack[n:, m:p] = float(nlam) ** 0.5 * l_chol.T
    r = _r_factor(stack)[:p]
    if np.abs(np.diag(r)).min() == 0.0:
        raise NumericalError(f"solver: singular stacked system (nlam={nlam:g})")
    beta = sla.solve_triangular(r[:, :p], r[:, p], lower=False, check_finite=False)
    d, c = beta[:m], beta[m:]
    fitted = _dot(design.t, d) + _dot(design.k, c)
    w = sla.solve_triangular(r[m:, m:p], l_chol, trans="T", lower=False,
                             check_finite=False)
    trace_a = p - float(nlam) * float((w * w).sum())
    return d, c, fitted, trace_a


def solve_penalized(t, k, q, y, nlam: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||y - T d - K c||^2 + nlam c'Qc; return (d, c)."""
    return _stacked_fit(CompiledDesign(t, k, q, y), nlam)[:2]


def hat_trace(t, k, q, nlam: float):
    """Return (tr A(nlam), apply_A) for the penalized smoother.

    ``apply_A`` maps a response vector to its fitted values by solving the
    same penalized problem with that response, so linearity and idempotence
    properties can be checked directly.
    """
    trace_a = _stacked_fit(CompiledDesign(t, k, q, np.zeros(np.shape(t)[0])), nlam)[3]
    return trace_a, lambda v: _stacked_fit(CompiledDesign(t, k, q, v), nlam)[2]


def gcv_from_fit(rss: float, trace_a: float, n: int) -> float:
    """Generalized cross-validation score from residual sum of squares."""
    denom = (n - trace_a) / n
    if denom <= 0.0:
        return float("inf")
    return (rss / n) / denom**2


@dataclass
class FitResult:
    """A fitted model: coefficients, effective degrees of freedom, score."""

    d: np.ndarray
    c: np.ndarray
    fitted: np.ndarray
    trace_a: float
    gcv: float
    params: SmoothingParams
    basis: BasisSelection
    basis_rows: np.ndarray


def fit_model(dataset: Dataset, spec: ModelSpec, params: SmoothingParams,
              basis: BasisSelection | None = None,
              blocks: DesignBlocks | None = None) -> FitResult:
    """Fit at fixed smoothing parameters; assembles blocks unless given.

    The stacked QR solve works at the square root of the normal equations'
    condition number, so any positive nlam yields a fit.
    """
    if blocks is None:
        if basis is None:
            raise InputError("fit_model needs a basis selection or prebuilt blocks")
        blocks = assemble_blocks(dataset, spec, basis)
    k, q = blocks.combine(params.theta)
    d, c, fitted, trace_a = _stacked_fit(CompiledDesign(blocks.t, k, q, dataset.y),
                                         params.nlam)
    resid = dataset.y - fitted
    score = gcv_from_fit(float(resid @ resid), trace_a, dataset.n)
    return FitResult(d=d, c=c, fitted=fitted, trace_a=trace_a, gcv=score,
                     params=params, basis=blocks.basis, basis_rows=blocks.basis_rows)


@dataclass
class EigenSystem:
    """Orthonormal complement basis Z of span(T) and eigenvalues of Z'KZ."""

    z: np.ndarray
    values: np.ndarray


def demmler_reinsch(t: np.ndarray, k_full: np.ndarray) -> EigenSystem:
    """Diagonalize the full-basis smoother on the complement of span(T).

    Returns Z (b x (b - M), orthonormal, Z'T = 0) and the ascending
    eigenvalues of Z' K Z, so that I - A(lam) = blam Z (D + blam I)^{-1} Z'
    with blam the penalty weight b * lam.  O(b^3); intended for validation
    problems, not production fits.
    """
    t = np.asarray(t, dtype=float)
    k_full = np.asarray(k_full, dtype=float)
    b, m = t.shape
    if k_full.shape != (b, b):
        raise InputError("K must be square over the same rows as T")
    qfull, r = np.linalg.qr(t, mode="complete")
    diag = np.abs(np.diag(r[:m, :m]))
    if diag.min() <= b * np.finfo(float).eps * max(diag.max(), 1.0):
        raise InputError("null basis is rank deficient; cannot form the complement")
    z0 = qfull[:, m:]
    w = z0.T @ k_full @ z0
    w = (w + w.T) / 2.0
    values, vecs = np.linalg.eigh(w)
    return EigenSystem(z=z0 @ vecs, values=values)


def predict(fit: FitResult, spec: ModelSpec, new_raw: np.ndarray,
            theta: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a fitted model at raw-scale rows.

    Continuous values outside the training range are clamped to the range
    boundary, flagged in the returned mask, and reported once via a warning.
    Unknown discrete levels raise.  Returns (predictions, out_of_range).
    """
    new_raw = np.atleast_2d(np.asarray(new_raw, dtype=float))
    if new_raw.shape[1] != spec.n_predictors:
        raise InputError(f"expected {spec.n_predictors} predictor columns")
    cols = []
    flags = np.zeros(new_raw.shape[0], dtype=bool)
    for j, dom in enumerate(spec.domains):
        scaled, mask = dom.rescale(new_raw[:, j])
        cols.append(scaled)
        flags |= mask
    if flags.any():
        warnings.warn(
            f"{int(flags.sum())} prediction row(s) outside the training range; clamped",
            stacklevel=2,
        )
    xs = np.column_stack(cols)
    if theta is None:
        theta = fit.params.theta
    eta = null_basis_matrix(spec, xs) @ fit.d
    for block, w in zip(term_grams(spec.penalized_terms, spec.domains, xs, fit.basis_rows),
                        theta):
        eta += w * (block @ fit.c)
        del block  # freed before the next term's block is formed
    return eta, flags
