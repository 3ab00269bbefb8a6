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

No selection needs the S per-term n x q blocks K_delta: each chunk's rows
of K_delta are formed from the kernel at those rows and folded into R
(``DesignRows``, ``compressed_blocks``), the chunked-QR construction of
Wood, Goude & Shaw (2015, "Generalized additive models for large data
sets"), so a selection holds O(p^2 + chunk p) doubles, not S n q.  Skip
compresses [T, K(theta), y] at each of its two thetas instead, M + q + 1
columns per pass.  Only where p + 1 >= n, with nothing to compress, are
the blocks formed over all n rows (``assemble_blocks``).  A fit at one
theta, ``predict`` and the p estimate form K(theta) =
sum_delta theta_delta K_delta directly (``kernel_design``),
COMPRESS_CHUNK rows at a time, so the refit holds about 2 n q doubles
(K(theta) and the stacked solve's copy).  Both equal the in-memory
blocks' results bit for bit.

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
# Rows formed at once: of [T, K_1 ... K_S, y] while compressing, and of
# K(theta) while a fit or a prediction forms it.
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
    return BasisSelection(indices=idx)


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
        theta = _theta_vector(theta, self.n_penalized)
        return _weighted_sum(theta, self.k_parts), _weighted_sum(theta, self.q_parts)

    def reweight(self, k, q, delta: int, dw: float) -> tuple[np.ndarray, np.ndarray]:
        """K and Q after theta_delta moves by ``dw``, from K(theta), Q(theta).

        Costs one block instead of the S blocks of ``combine``.
        """
        return k + dw * self.k_parts[delta], q + dw * self.q_parts[delta]

    def compress(self, y) -> tuple["DesignBlocks", np.ndarray]:
        """Blocks and response reduced to p = M + S q rows by one QR.

        The rows of [T, K_1 ... K_S, y] are read from the blocks held in
        memory and folded into R chunk by chunk (``_compress_rows``).  R's
        first p rows replace T, each K_delta and y; the square of its last
        diagonal entry adds to rss_offset.  Returns the blocks and y
        unchanged when p + 1 >= n, where there is nothing to gain.
        """
        y = np.asarray(y, dtype=float)
        n, m, q = self.n, self.n_null, self.q
        if y.shape != (n,):
            raise InputError(f"y must have one entry per row ({n})")
        p = m + self.n_penalized * q
        if p + 1 >= n:
            return self, y
        t, k_parts, rho2, f = _compress_rows(
            self.t, lambda lo, hi: (kp[lo:hi] for kp in self.k_parts), y,
            self.n_penalized, q)
        return replace(self, t=t, k_parts=k_parts, rss_offset=self.rss_offset + rho2), f


def _compress_rows(t: np.ndarray, kernel_rows, y: np.ndarray, n_blocks: int, q: int):
    """[T, K_1 ... K_B, y] reduced to p = M + B q rows by one chunked QR.

    ``kernel_rows(lo, hi)`` yields the B kernel blocks' rows lo .. hi, each
    q wide, in order.  The triangular factor R is accumulated by factoring
    R stacked on the next COMPRESS_CHUNK rows, in one buffer reused for
    every chunk (zero rows pad the last one), so the n x (p + 1) matrix is
    never formed.  The same rows in the same chunks give the same R bit for
    bit, wherever they come from.  Returns (T', (K_1' ... K_B'), rho^2, f):
    R's first p rows split by column, and the square of its last diagonal
    entry.
    """
    n, m = t.shape
    p = m + n_blocks * q
    chunk = min(COMPRESS_CHUNK, n)
    stack = np.empty((p + 1 + chunk, p + 1), order="F")
    r = np.zeros((p + 1, p + 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        rows = stack[p + 1:p + 1 + hi - lo]
        stack[:p + 1] = r
        rows[:, :m] = t[lo:hi]
        for j, kp in enumerate(kernel_rows(lo, hi)):
            rows[:, m + j * q:m + (j + 1) * q] = kp
        rows[:, p] = y[lo:hi]
        stack[p + 1 + hi - lo:] = 0.0
        r = _r_factor(stack)
    k_parts = tuple(r[:p, m + j * q:m + (j + 1) * q] for j in range(n_blocks))
    return r[:p, :m], k_parts, float(r[p, p]) ** 2, r[:p, p]


def _theta_vector(theta, n_penalized: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n_penalized,):
        raise InputError(f"theta must have length {n_penalized}")
    return theta


def _weighted_sum(theta: np.ndarray, parts, out: np.ndarray | None = None) -> np.ndarray:
    """sum_delta theta_delta parts_delta, accumulated in term order.

    ``parts`` may be a generator; the sum goes into ``out`` when given, and
    later terms are scaled in one reused buffer.  The operations and their
    order do not depend on where the parts come from, so a sum over blocks
    formed one row chunk at a time equals the same rows of the sum over
    whole blocks bit for bit.
    """
    scaled = None
    for i, (w, part) in enumerate(zip(theta, parts)):
        if i == 0:
            out = np.multiply(w, part, out=out)
        else:
            scaled = np.multiply(w, part, out=scaled)
            out += scaled
    return out


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
    """a @ b by scipy's dgemv, for 2-D a and 1-D b.

    a goes in as whichever of itself or its transpose is F-contiguous, with
    the matching transpose flag, so f2py copies no contiguous matrix.
    dgemv rejects a zero-row a, whose product is empty.
    """
    if a.shape[0] == 0:
        return np.zeros(0)
    a_arg, trans_a = (a, 0) if a.flags.f_contiguous else (a.T, 1)
    return sla.blas.dgemv(1.0, a_arg, b, trans=trans_a)


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
    # numpy.linalg.matrix_rank's rule, on scipy's LAPACK
    sv = sla.svdvals(t, check_finite=False)
    if (sv > sv.max() * max(t.shape) * np.finfo(float).eps).sum() < m:
        raise InputError("null basis is rank deficient on this sample")
    return t


def part_traces(dataset: Dataset, spec: ModelSpec) -> np.ndarray:
    """sum_i R_delta(x_i, x_i) over the rows, one entry per penalized term."""
    return np.array([float(term_gram_diag(term, spec.domains, dataset.x).sum())
                     for term in spec.penalized_terms])


def assemble_blocks(dataset: Dataset, spec: ModelSpec, basis: BasisSelection) -> DesignBlocks:
    """Build T and the per-term K_delta, Q_delta blocks over all n rows.

    Raises if the null design is rank deficient (for example a constant
    predictor column duplicating the intercept) or the sample cannot
    identify the null space.  The selections stream the rows instead where
    that pays (``compressed_blocks``, ``DesignRows``).
    """
    rows = DesignRows(dataset, spec, basis)
    return DesignBlocks(t=rows.t, k_parts=tuple(rows.kernel_rows(0, dataset.n)),
                        q_parts=rows.q_parts, part_traces=rows.part_traces, basis=basis)


class DesignRows:
    """The rows of [T, K_1 ... K_S, y] for one dataset and basis, formed on demand.

    Holds T, the basis rows, the penalty parts Q_delta and the part traces,
    after the checks of ``null_design``.  A kernel row block is formed from
    ``term_grams`` at the rows asked for, so compressing COMPRESS_CHUNK
    rows at a time needs O(p^2 + chunk p) memory and no per-term n-row
    block exists.
    """

    def __init__(self, dataset: Dataset, spec: ModelSpec, basis: BasisSelection):
        self.t = null_design(dataset, spec, basis)
        self.dataset, self.spec, self.basis = dataset, spec, basis
        self.z = dataset.x[basis.indices]
        self.q_parts = _penalty_parts(spec, self.z)
        self.part_traces = part_traces(dataset, spec)

    def kernel_rows(self, lo: int, hi: int):
        """Per-term kernel blocks K_delta at rows lo .. hi, in term order."""
        spec = self.spec
        return term_grams(spec.penalized_terms, spec.domains, self.dataset.x[lo:hi], self.z)

    def compress(self) -> tuple[DesignBlocks, np.ndarray]:
        """Blocks and response reduced to p = M + S q rows by one streamed QR.

        Equals ``assemble_blocks(...).compress(y)`` bit for bit: the chunks
        hold the same rows, and each kernel entry is formed by the same
        elementwise operations.
        """
        ds = self.dataset
        t, k_parts, rho2, f = _compress_rows(self.t, self.kernel_rows, ds.y,
                                             self.spec.n_penalized, self.basis.q)
        return DesignBlocks(t=t, k_parts=k_parts, q_parts=self.q_parts,
                            part_traces=self.part_traces, basis=self.basis,
                            n_obs=ds.n, rss_offset=rho2), f

    def design_at(self, theta) -> CompiledDesign:
        """Design of [T, K(theta), y] at one theta, compressed to M + q rows.

        K(theta) is formed chunk by chunk as in ``kernel_design``; the QR
        has M + q + 1 columns, not the p + 1 of ``compress``.
        """
        theta = _theta_vector(theta, self.spec.n_penalized)
        ds = self.dataset
        t, (k,), rho2, f = _compress_rows(
            self.t, lambda lo, hi: (_weighted_sum(theta, self.kernel_rows(lo, hi)),),
            ds.y, 1, self.basis.q)
        return CompiledDesign(t, k, _weighted_sum(theta, self.q_parts), f, ds.n, rho2)


def streams_rows(dataset: Dataset, spec: ModelSpec, basis: BasisSelection) -> bool:
    """Whether compressing to p + 1 = M + S q + 1 columns leaves fewer than n rows."""
    return spec.null_dim + spec.n_penalized * basis.q + 1 < dataset.n


def compressed_blocks(dataset: Dataset, spec: ModelSpec,
                      basis: BasisSelection) -> tuple[DesignBlocks, np.ndarray]:
    """``assemble_blocks(dataset, spec, basis).compress(dataset.y)``, streamed.

    When p + 1 < n the rows are compressed chunk by chunk
    (``DesignRows.compress``), bit-identical to the in-memory blocks'
    compression; otherwise the in-memory blocks and y are returned.
    """
    if not streams_rows(dataset, spec, basis):
        return assemble_blocks(dataset, spec, basis), dataset.y
    return DesignRows(dataset, spec, basis).compress()


def _penalty_parts(spec: ModelSpec, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Symmetrized per-term kernel Grams Q_delta at the basis rows."""
    return tuple((qb + qb.T) / 2.0 for qb in term_grams(spec.penalized_terms, spec.domains, z, z))


def kernel_design(spec: ModelSpec, x_rows: np.ndarray, z_rows: np.ndarray, theta) -> np.ndarray:
    """K(theta) = sum_delta theta_delta K_delta between two point sets.

    Formed COMPRESS_CHUNK rows at a time into one (n, m) array, so no
    per-term n-row block exists; the extra memory is a few chunk-row
    blocks.  Equals the same rows of ``DesignBlocks.combine``'s K bit for
    bit.
    """
    theta = _theta_vector(theta, spec.n_penalized)
    out = np.empty((x_rows.shape[0], z_rows.shape[0]))
    for lo in range(0, x_rows.shape[0], COMPRESS_CHUNK):
        rows = slice(lo, lo + COMPRESS_CHUNK)
        grams = term_grams(spec.penalized_terms, spec.domains, x_rows[rows], z_rows)
        _weighted_sum(theta, grams, out=out[rows])
    return out


def assemble(dataset: Dataset, spec: ModelSpec, basis: BasisSelection, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble (T, K(theta), Q(theta)) for one theta: the inputs of the penalized solve.

    Runs the checks of ``assemble_blocks`` but forms K(theta) directly
    (``kernel_design``), never the per-term blocks; the result equals
    ``assemble_blocks(...).combine(theta)`` bit for bit.
    """
    t = null_design(dataset, spec, basis)
    z = dataset.x[basis.indices]
    k = kernel_design(spec, dataset.x, z, theta)
    return t, k, _weighted_sum(np.asarray(theta, dtype=float), _penalty_parts(spec, z))


class CompiledDesign:
    """Inputs (T, K, Q_r, y) of one penalized solve, trusted as given.

    The public array-level entry points check shapes and Q's symmetry once
    (``_checked_design``); a search's trials and ``fit_model`` pass a Q
    that is a weighted sum of symmetrized parts, and skip the checks.

    Q_r is Q plus a ridge of RIDGE_SCALE times its mean diagonal, so its
    Cholesky factor exists when Q is only semidefinite.  ``n`` is the row
    count of the system; on compressed blocks the scores divide by
    ``n_obs`` observations and add ``rss_offset`` to the residual sum of
    squares (see ``DesignBlocks.compress``).
    """

    def __init__(self, t: np.ndarray, k: np.ndarray, q: np.ndarray, y: np.ndarray,
                 n_obs: int | None = None, rss_offset: float = 0.0):
        self.t, self.k, self.y = (np.asarray(a, dtype=float) for a in (t, k, y))
        self.n, self.m = self.t.shape
        self.nq = self.k.shape[1]
        self.n_obs = self.n if n_obs is None else int(n_obs)
        self.rss_offset = float(rss_offset)
        q = np.asarray(q, dtype=float)
        self.q_r = q + RIDGE_SCALE * np.trace(q) / self.nq * np.eye(self.nq)


def _checked_design(t, k, q, y) -> CompiledDesign:
    """``CompiledDesign`` of outside arrays, built after the checks it skips."""
    t, k, q, y = (np.asarray(a, dtype=float) for a in (t, k, q, y))
    if k.shape[0] != t.shape[0] or y.shape != t.shape[:1]:
        raise InputError("T, K and y row counts disagree")
    if q.shape != (k.shape[1],) * 2:
        raise InputError("Q must be square with K's column count")
    if not np.allclose(q, q.T, atol=1e-10, rtol=0.0):
        raise InputError("Q must be symmetric")
    return CompiledDesign(t, k, q, y)


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
    return _stacked_fit(_checked_design(t, k, q, y), nlam)[:2]


def hat_trace(t, k, q, nlam: float):
    """Return (tr A(nlam), apply_A) for the penalized smoother.

    ``apply_A`` maps a response vector to its fitted values by solving the
    same penalized problem with that response, so linearity and idempotence
    properties can be checked directly.
    """
    trace_a = _stacked_fit(_checked_design(t, k, q, np.zeros(np.shape(t)[0])), nlam)[3]
    return trace_a, lambda v: _stacked_fit(_checked_design(t, k, q, v), nlam)[2]


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
    basis_rows: np.ndarray


def fit_model(dataset: Dataset, spec: ModelSpec, params: SmoothingParams,
              basis: BasisSelection) -> FitResult:
    """Fit at fixed smoothing parameters on the given basis rows.

    ``assemble`` forms K(theta) directly, so no per-term block is built.
    The stacked QR works at the square root of the normal equations'
    condition number, so any positive nlam yields a fit.
    """
    t, k, q = assemble(dataset, spec, basis, params.theta)
    d, c, fitted, trace_a = _stacked_fit(CompiledDesign(t, k, q, dataset.y), params.nlam)
    resid = dataset.y - fitted
    score = gcv_from_fit(float(resid @ resid), trace_a, dataset.n)
    return FitResult(d=d, c=c, fitted=fitted, trace_a=trace_a, gcv=score,
                     params=params, basis_rows=dataset.x[basis.indices])


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


def predict(fit: FitResult, spec: ModelSpec,
            new_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a fitted model at raw-scale rows.

    Continuous values outside the training range are clamped to the range
    boundary, flagged in the returned mask, and reported once via a warning.
    Unknown discrete levels raise.  Returns (predictions, out_of_range).
    K(theta) c is summed over COMPRESS_CHUNK-row chunks of K(theta), so
    the kernel part needs memory for one chunk, not for all new rows.
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
    eta = _dot(null_basis_matrix(spec, xs), fit.d)
    for lo in range(0, xs.shape[0], COMPRESS_CHUNK):
        rows = slice(lo, lo + COMPRESS_CHUNK)
        eta[rows] += _dot(kernel_design(spec, xs[rows], fit.basis_rows, fit.params.theta),
                          fit.c)
    return eta, flags
