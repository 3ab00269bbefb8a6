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
square root of the normal equations' condition number.  T is absorbed
first, as in Gu & Wahba (1991) and Wood (2004), by a QR of [T, K, y] over
row chunks (``_compressed_design``): it leaves the M + q + 1 rows of its
triangular factor, [R_T, R_K | f], an orthogonal image of the n rows with
every cross product of [T, K, y], y'y included.  With T as [R_T; 0], the
rows below row M span the orthogonal complement of T, d is free to zero
the M rows above, and the QR factors only [K_perp, y_perp; sqrt(nlam) L', 0],
q + 1 columns instead of M + q + 1.  d follows by back-substitution
against R_T, and tr(A) from the same R.  A selection's search compresses
[T, K_1 ... K_S, y] instead, p + 1 columns with p = M + S q, to p + 1 rows
(``compressed_blocks``).  A compressed design differs from the n-row one
only in ``n_obs``, the observation count that its scores divide by, so
each score equals the n-row score while its cost no longer depends on n.

T is checked where it enters, by one rank rule (``_check_null_rank``):
``null_design`` checks a dataset's rows, ``_checked_design`` outside
arrays, and ``DesignBlocks.design_at`` that a search's T is [R_T; 0];
``CompiledDesign``, built at every theta trial, and ``NullQR`` check nothing.

No selection needs the S per-term n x q blocks K_delta: each chunk's rows
of K_delta are formed from the kernel at those rows and folded into R
(``DesignRows``), the chunked-QR construction of Wood, Goude & Shaw (2015,
"Generalized additive models for large data sets"), so a selection holds
its (p + 1 + chunk) x (p + 1) stack and then one (p + 1)^2 copy of R, not
S n q doubles.  Only a search where p + 1 >= n, with nothing to compress,
forms the blocks over all n rows, in one array that T's QR (``NullQR``)
rotates in place; ``compressed_blocks`` alone makes this choice
(``streams_rows``).  Rows of K(theta) = sum_delta theta_delta K_delta come
from one row source (``_kernel_rows``), one cache-sized tile at a time,
and T's from another (``_null_rows``), chunk by chunk: skip's two designs,
the p estimate's one and the refit (``fit_model``) compress
[T, K(theta), y], M + q + 1 columns, as the rows come
(``DesignRows.design_at``), and ``predict`` sums T d + K(theta) c tile by
tile, forming the refit's fitted values on their first read.  So only the
wide path's ``NullQR`` and the n-row reference ``assemble_blocks`` form T
whole, and no fit holds an n x q array.  Rows of T or of the kernel formed
in tiles or chunks equal the in-memory blocks' rows bit for bit.

The QRs, solves, SVDs and row products of the fit and the search run on
scipy's LAPACK and BLAS (``_dot``), not numpy's.  Each package bundles its
own OpenBLAS, and at two threads calls that alternate between the two
copies stall each other.  Measured on a 2-CPU machine next to a scipy QR,
T d + K c on 20000 rows took 5 ms through numpy and 0.6 ms through scipy's
dgemv.  Products too small to start BLAS threads stay with numpy.

Callers keep the default BLAS thread count; only a subsample pool of more
than one worker caps it (``asp._fit_map``).  On a 2-CPU machine, compressing 20000
rows of a two-way model (p = 389) took 0.22-0.27 s at two threads and
0.30-0.37 s at one, and kernel assembly, elementwise numpy without BLAS,
took 0.09-0.19 s at either.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .data import Dataset, rescale_columns
from .kernels import ModelSpec, null_basis_matrix, term_gram_diag, term_grams
from .util import InputError, NumericalError, derive_rng, round_half_up

# Relative size of the ridge added to Q before factorization.
RIDGE_SCALE = 1e-10
# Rows of [T, K_1 ... K_S, y] compressed at once, and the most rows of a kernel tile.
COMPRESS_CHUNK = 2048
# Block size of the compact-WY QR.
QR_BLOCK = 32
# Bytes of one kernel block's rows formed at once (a tile, within a chunk):
# term_grams' factor products over a tile stay in cache.
KERNEL_TILE_BYTES = 256 * 1024


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
    """Per-term design blocks and the response ``y`` in their rows, for one dataset and basis.

    Everything here is independent of the smoothing parameters, so a search
    builds its design at any theta from them (``design_at``).  Blocks from
    ``compressed_blocks`` may hold fewer rows than their n_obs observations.
    """

    t: np.ndarray
    k_parts: tuple[np.ndarray, ...]
    q_parts: tuple[np.ndarray, ...]
    y: np.ndarray
    basis: BasisSelection
    n_obs: int

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

    def design_at(self, theta) -> "CompiledDesign":
        """The design of [T, K(theta), y] and Q(theta); raises unless T reads [R_T; 0]."""
        if self.n < self.n_null or np.tril(self.t, -1).any():
            raise NumericalError("null design is not absorbed: T is not [R_T; 0]")
        return CompiledDesign(self.t, *self.combine(theta), self.y, self.n_obs)


def _rotated_blocks(null: "NullQR", kernel_rows, n: int, q: int, s: int) -> tuple[np.ndarray, ...]:
    """H' applied to S blocks of n rows and q columns, in one F-ordered array.

    ``kernel_rows(lo, hi)`` yields the S blocks' rows lo .. hi, as in
    ``_compress_rows``; they are copied in one tile (``_tiles``) at a time.
    The kernel factors that ``term_grams`` shares across a tile's blocks
    sit beside the whole array, so a tile also spans at most n/8 rows: on
    ``m4`` at 300 rows one tile of all rows took 1.59 S n q doubles.  One
    LAPACK call then rotates all the blocks at BLAS-3 speed, and they come
    back as column views, which a search's trials read by column.
    """
    out = np.empty((n, s * q), order="F")
    for a, b in _tiles(0, n, q, max_rows=-(-n // 8)):
        for j, kp in enumerate(kernel_rows(a, b)):
            out[a:b, j * q:(j + 1) * q] = kp
    out = null.rotate(out, overwrite=True)
    return tuple(out[:, j * q:(j + 1) * q] for j in range(s))


def _chunked_r(n: int, width: int, fill) -> np.ndarray:
    """Triangular factor R of an n x ``width`` matrix by one QR over row chunks.

    ``fill(out, lo, hi)`` writes the matrix's rows lo .. hi into ``out``;
    it is asked for COMPRESS_CHUNK rows at a time, in order.  R is
    accumulated in place in one (width + COMPRESS_CHUNK) x width stack: R
    stays in its top ``width`` rows (``_r_factor``) and each QR factors it
    with the next chunk's rows below (zero rows pad the last chunk), so the
    n-row matrix is never formed.  The same rows in the same chunks give
    the same R bit for bit, wherever they come from.  After the last chunk
    R is copied once, F-ordered, and the stack is dropped on return, so the
    peak is the stack plus one width^2 copy.
    """
    chunk = min(COMPRESS_CHUNK, n)
    stack = np.zeros((width + chunk, width), order="F")
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        fill(stack[width:width + hi - lo], lo, hi)
        stack[width + hi - lo:] = 0.0
        _r_factor(stack)
    return np.array(stack[:width], order="F")


def _compress_rows(null_rows, kernel_rows, y: np.ndarray, m: int, n_blocks: int, q: int):
    """[T, K_1 ... K_B, y] reduced to p + 1 rows by one chunked QR (``_chunked_r``), p = M + B q.

    ``null_rows(lo, hi)`` gives T's M columns at rows lo .. hi
    (``_null_rows``), and ``kernel_rows(lo, hi)`` yields the B kernel
    blocks' rows lo .. hi, each q wide, in order; the kernel rows are asked
    for one tile (``_tiles``) at a time.  n is y's length.
    Returns (T', (K_1' ... K_B'), f): column views of R, F-contiguous, as
    the searches' stacks and products read them.
    """
    p = m + n_blocks * q

    def fill(rows, lo, hi):
        rows[:, :m] = null_rows(lo, hi)
        for a, b in _tiles(lo, hi, q):
            for j, kp in enumerate(kernel_rows(a, b)):
                rows[a - lo:b - lo, m + j * q:m + (j + 1) * q] = kp
        rows[:, p] = y[lo:hi]

    r = _chunked_r(y.shape[0], p + 1, fill)
    return r[:, :m], tuple(r[:, m + j * q:m + (j + 1) * q] for j in range(n_blocks)), r[:, p]


def _tiles(lo: int, hi: int, q: int, max_rows: int | None = None):
    """(start, stop) of the row tiles of lo .. hi for q-column kernel rows.

    A tile holds about KERNEL_TILE_BYTES of one block, and at most
    COMPRESS_CHUNK rows, or ``max_rows`` if fewer.  Kernel entries are
    elementwise in the rows, so a block formed tile by tile equals the
    block formed at once bit for bit.  Tiles span multiples of 4 rows but
    the last, which spans 4 or more unless it is the only one: OpenBLAS's
    dgemv takes rows in fours, so ``predict``'s tile-by-tile K(theta) c
    then equals the product over all rows bit for bit.
    """
    step = min(COMPRESS_CHUNK, max_rows or COMPRESS_CHUNK, KERNEL_TILE_BYTES // (8 * q))
    stops = [*range(lo, hi, max(8, step - step % 4)), hi]
    if len(stops) > 2 and stops[-1] - stops[-2] < 4:
        stops[-2] -= 4
    return zip(stops, stops[1:])


def _theta_vector(theta, n_penalized: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n_penalized,):
        raise InputError(f"theta must have length {n_penalized}")
    return theta


def _weighted_sum(theta: np.ndarray, parts) -> np.ndarray:
    """sum_delta theta_delta parts_delta, accumulated in term order.

    ``parts`` may be a generator; later terms are scaled in one reused
    buffer.  The operations and their order do not depend on where the
    parts come from, so a sum over blocks formed one row chunk at a time
    equals the same rows of the sum over whole blocks bit for bit.
    """
    out = scaled = None
    for i, (w, part) in enumerate(zip(theta, parts)):
        if i == 0:
            out = np.multiply(w, part)
        else:
            scaled = np.multiply(w, part, out=scaled)
            out += scaled
    return out


def _r_factor(stack: np.ndarray) -> np.ndarray:
    """Upper-triangular factor of a Householder QR of ``stack``, computed in place.

    ``stack`` must be F-ordered float64, so LAPACK overwrites it.  R is its
    top min(rows, columns) rows, returned as a view into ``stack`` after
    their strict lower triangle (the reflectors) is zeroed through a
    boolean ``np.tri`` mask; the rows below still hold reflectors.
    dgeqrt (compact-WY blocks) rather than dgeqrf: on these tall, narrow
    stacks it ran 1.3-5x faster, most at two OpenBLAS threads.
    """
    top = min(stack.shape)
    a, _, info = sla.lapack.dgeqrt(min(QR_BLOCK, top), stack, overwrite_a=True)
    if info != 0:
        raise NumericalError(f"solver: QR failed (LAPACK info {info})")
    r = a[:top]
    r[np.tri(top, a.shape[1], -1, dtype=bool)] = 0.0
    return r


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


class NullQR:
    """T = H [R_T; 0] by one Householder QR, H = H_1 ... H_M.

    ``rotate`` applies H' to n-row arrays: the first M rows of H'K and H'y
    lie in span(T), the rest in its orthogonal complement.  Its one caller,
    ``compressed_blocks``, checks T by ``null_design`` first.
    """

    def __init__(self, t: np.ndarray):
        qr, tau, _, info = sla.lapack.dgeqrf(np.asarray(t, dtype=float))
        if info != 0:
            raise NumericalError(f"solver: QR of T failed (LAPACK info {info})")
        self.factor = (qr, tau)

    def triangle(self) -> np.ndarray:
        """T in the rotated rows, [R_T; 0]."""
        return np.triu(self.factor[0])

    def rotate(self, a, overwrite: bool = False) -> np.ndarray:
        """H'a for an n-row matrix or vector, F-ordered; rotates ``a`` itself when ``overwrite``.

        Use the returned array: ``a`` is rotated in place only when it is
        F-contiguous, and an F-ordered copy otherwise.  Every rotation
        takes the same LAPACK path, so equal inputs give equal outputs bit
        for bit, whether rotated in place or copied.
        """
        a = np.asarray(a, dtype=float)
        if not (overwrite and a.flags.f_contiguous):
            a = np.array(a, order="F")
        qr, tau = self.factor
        c = a.reshape(a.shape[0], -1, order="F")
        # dormqr's blocked path needs 64 work entries per column of c, plus its T factor
        out, _, info = sla.lapack.dormqr("L", "T", qr, tau, c, 64 * (c.shape[1] + 65),
                                         overwrite_c=1)
        if info != 0:
            raise NumericalError(f"solver: applying T's reflectors failed (LAPACK info {info})")
        return out.reshape(a.shape, order="F")


def _check_null_rows(n: int, m: int) -> None:
    """Raise unless T's n rows exceed its M columns."""
    if n < m + 1:
        raise InputError(f"need at least {m + 1} rows to fit {m} null coefficients")


def _check_null_rank(r_t: np.ndarray, n: int) -> None:
    """Raise unless T of n rows has rank M: ``numpy.linalg.matrix_rank``'s count of the singular
    values of ``r_t``, R_T from any QR of T, above max(n, M) eps times the largest."""
    m = r_t.shape[1]
    sv = sla.svdvals(r_t, check_finite=False)
    if (sv > sv.max(initial=0.0) * max(n, m) * np.finfo(float).eps).sum() < m:
        raise InputError("null basis is rank deficient on this sample")


def null_design(dataset: Dataset, spec: ModelSpec, basis: BasisSelection):
    """Null design T's row source (``_null_rows``), after the checks that make a fit well posed.

    Every fit and search on a dataset's rows checks T here, before any
    kernel row is formed; R_T comes from a chunked QR (``_chunked_r``).
    """
    if spec.n_penalized == 0:
        raise InputError("model has no penalized terms; nothing to smooth")
    m = spec.null_dim
    _check_null_rows(dataset.n, m)
    if basis.q <= m:
        raise InputError(f"basis size {basis.q} must exceed the null dimension {m}")
    if basis.indices[-1] >= dataset.n:
        raise InputError("basis indices exceed the dataset")
    rows = _null_rows(spec, dataset.x)
    _check_null_rank(_chunked_r(dataset.n, m, lambda out, lo, hi: np.copyto(out, rows(lo, hi))),
                     dataset.n)
    return rows


def part_traces(dataset: Dataset, spec: ModelSpec) -> np.ndarray:
    """sum_i R_delta(x_i, x_i) over the rows, one entry per penalized term."""
    return np.array([float(term_gram_diag(term, spec.domains, dataset.x).sum())
                     for term in spec.penalized_terms])


def assemble_blocks(dataset: Dataset, spec: ModelSpec, basis: BasisSelection) -> DesignBlocks:
    """T and the per-term K_delta, Q_delta blocks over all n rows, after ``null_design``'s checks.

    No selection calls it (they read the rows through ``DesignRows`` and
    ``compressed_blocks``); it is the n-row reference of their results.
    """
    rows = DesignRows(dataset, spec, basis)
    return DesignBlocks(t=rows.null_rows(0, dataset.n),
                        k_parts=tuple(rows.kernel_rows(0, dataset.n)),
                        q_parts=rows.q_parts, y=dataset.y, basis=basis, n_obs=dataset.n)


class DesignRows:
    """The rows of [T, K_1 ... K_S, y] for one dataset and basis, formed on demand.

    Holds T's row source ``null_rows`` (``null_design``, whose checks it
    runs), the basis rows and the penalty parts Q_delta.  Rows of T and of
    the kernel blocks are formed at the rows asked for, so compressing
    COMPRESS_CHUNK rows at a time needs O(p^2 + chunk p) memory and no
    n-row block, T's included, exists.
    """

    def __init__(self, dataset: Dataset, spec: ModelSpec, basis: BasisSelection):
        self.null_rows = null_design(dataset, spec, basis)
        self.dataset, self.spec, self.basis = dataset, spec, basis
        self.z = dataset.x[basis.indices]
        self.q_parts = _penalty_parts(spec, self.z)

    def kernel_rows(self, lo: int, hi: int):
        """Per-term kernel blocks K_delta at rows lo .. hi, in term order."""
        spec = self.spec
        return term_grams(spec.penalized_terms, spec.domains, self.dataset.x[lo:hi], self.z)

    def design_at(self, theta) -> CompiledDesign:
        """Design of [T, K(theta), y] at one theta, compressed to M + q + 1 rows.

        The QR reads T and K(theta) from their row sources (``_null_rows``,
        ``_kernel_rows``) one chunk or tile at a time, so neither is whole.
        """
        theta = _theta_vector(theta, self.spec.n_penalized)
        return _compressed_design(self.null_rows, self.spec.null_dim,
                                  _kernel_rows(self.spec, self.dataset.x, self.z, theta),
                                  _weighted_sum(theta, self.q_parts), self.dataset.y)


def streams_rows(dataset: Dataset, spec: ModelSpec, basis: BasisSelection) -> bool:
    """Whether compressing to p + 1 = M + S q + 1 columns leaves fewer than n rows."""
    return spec.null_dim + spec.n_penalized * basis.q + 1 < dataset.n


def compressed_blocks(dataset: Dataset, spec: ModelSpec, basis: BasisSelection) -> DesignBlocks:
    """The blocks and response of a search, with T brought to [R_T; 0].

    When p + 1 < n the rows of [T, K_1 ... K_S, y] are compressed to p + 1 rows
    chunk by chunk (``_compress_rows``), and no per-term n-row block
    exists.  Otherwise the blocks are formed over all n rows, copied into
    one array as each forms, and rotated there by the QR of T, formed whole
    (``NullQR``, ``_rotated_blocks``), so no second copy of the S blocks exists.
    """
    rows = DesignRows(dataset, spec, basis)
    s, q = spec.n_penalized, basis.q
    if streams_rows(dataset, spec, basis):
        t, k_parts, f = _compress_rows(rows.null_rows, rows.kernel_rows, dataset.y,
                                       spec.null_dim, s, q)
    else:
        null = NullQR(rows.null_rows(0, dataset.n))
        t, f = null.triangle(), null.rotate(dataset.y)
        k_parts = _rotated_blocks(null, rows.kernel_rows, dataset.n, q, s)
    return DesignBlocks(t=t, k_parts=k_parts, q_parts=rows.q_parts, y=f, basis=basis,
                        n_obs=dataset.n)


def _penalty_parts(spec: ModelSpec, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Symmetrized per-term kernel Grams Q_delta at the basis rows."""
    return tuple((qb + qb.T) / 2.0 for qb in term_grams(spec.penalized_terms, spec.domains, z, z))


def _null_rows(spec: ModelSpec, x_rows: np.ndarray):
    """The row source (lo, hi) -> T[lo:hi] of the null design at ``x_rows``.

    Null-basis entries are elementwise in the rows, so in any tiling the
    rows equal the same rows of T formed at once bit for bit.
    """
    return lambda lo, hi: null_basis_matrix(spec, x_rows[lo:hi])


def _kernel_rows(spec: ModelSpec, x_rows: np.ndarray, z_rows: np.ndarray, theta):
    """The row source (lo, hi) -> K(theta)[lo:hi] between two point sets.

    K(theta) = sum_delta theta_delta K_delta, the rows formed from
    ``term_grams`` at those rows alone, in one C-ordered array; read one
    tile (``_tiles``) at a time, in any tiling they equal the same rows of
    ``DesignBlocks.combine``'s K bit for bit.
    """
    theta = _theta_vector(theta, spec.n_penalized)
    return lambda lo, hi: _weighted_sum(
        theta, term_grams(spec.penalized_terms, spec.domains, x_rows[lo:hi], z_rows))


class CompiledDesign:
    """Inputs (T, K, Q_r, y) of one penalized solve, with T absorbed: T = [R_T; 0].

    The builders leave T in that form, so the first M rows of ``k`` and
    ``y`` lie in span(T) and the rest (K_perp, y_perp) in its complement.
    For any c, d solves R_T d = y_t - K_t c exactly on the first M rows, so
    the fit, its residual and tr(A) depend on the complement rows alone.
    Nothing is rotated or checked here, as every theta trial builds a
    design: T is checked where it enters (module docstring), and outside
    K, Q and y by the array entry points (``_checked_design``); a search's
    Q is a weighted sum of symmetrized parts.

    Q_r is Q plus a ridge of RIDGE_SCALE times its mean diagonal, so its
    Cholesky factor exists when Q (``q``, not copied) is semidefinite.  ``n``
    is the row count, and the scores divide by ``n_obs`` observations.
    """

    def __init__(self, t: np.ndarray, k: np.ndarray, q: np.ndarray, y: np.ndarray, n_obs: int):
        self.n, self.m = t.shape
        self.r_t = t[:self.m]
        self.k, self.y, self.nq = k, y, k.shape[1]
        self.n_obs = int(n_obs)
        self.q, self.q_r = q, _ridged(q)

    @functools.cached_property
    def penalty_factor(self) -> np.ndarray:
        """The lower Cholesky factor L of Q_r = LL', formed on first use."""
        # LAPACK directly: small trials spend more in scipy.linalg's wrappers
        lower, info = sla.lapack.dpotrf(self.q_r, lower=1, clean=1)
        if info != 0:
            raise NumericalError("solver: penalty matrix is not positive definite")
        return lower

    def stack(self) -> np.ndarray:
        """A fresh F-ordered (n - M + q) x (q + 1) array led by [K_perp, y_perp].

        Its last q rows, zero, are left for the penalty rows.
        """
        m, q = self.m, self.nq
        out = np.empty((self.n - m + q, q + 1), order="F")
        out[:self.n - m, :q] = self.k[m:]
        out[:self.n - m, q] = self.y[m:]
        out[self.n - m:] = 0.0
        return out

    def residual(self, c: np.ndarray) -> np.ndarray:
        """y_perp - K_perp c: the fit's residual in the complement rows."""
        return (self.y - _dot(self.k, c))[self.m:]


def _compressed_design(t, m: int, k, q: np.ndarray, y: np.ndarray) -> CompiledDesign:
    """The design of [T, K, y] compressed to M + q + 1 rows by ``_compress_rows``.

    ``t(lo, hi)`` and ``k(lo, hi)`` are row sources of T's M columns and
    of K (``_null_rows``, ``_kernel_rows``).  The design scores y's n rows.
    """
    t_r, (k_r,), f = _compress_rows(t, lambda lo, hi: (k(lo, hi),), y, m, 1, q.shape[0])
    return CompiledDesign(t_r, k_r, q, f, y.shape[0])


def _ridged(q) -> np.ndarray:
    """A copy of Q plus a ridge of RIDGE_SCALE times its mean diagonal."""
    out = np.array(q, dtype=float)
    out.flat[::out.shape[0] + 1] += RIDGE_SCALE * np.trace(out) / out.shape[0]
    return out


def _checked_design(t, k, q, y) -> CompiledDesign:
    """``_compressed_design`` of outside arrays, with the checks it skips; T's rank on its R_T."""
    t, k, q, y = (np.asarray(a, dtype=float) for a in (t, k, q, y))
    if k.shape[0] != t.shape[0] or y.shape != t.shape[:1]:
        raise InputError("T, K and y row counts disagree")
    if q.shape != (k.shape[1],) * 2:
        raise InputError("Q must be square with K's column count")
    if not np.allclose(q, q.T, atol=1e-10, rtol=0.0):
        raise InputError("Q must be symmetric")
    if not all(np.isfinite(a).all() for a in (t, k, y)):
        raise InputError("T, K and y must be finite")
    n, m = t.shape
    _check_null_rows(n, m)
    design = _compressed_design(lambda lo, hi: t[lo:hi], m, lambda lo, hi: k[lo:hi], q, y)
    _check_null_rank(design.r_t, n)
    return design


def _complement_solve(design, nlam: float) -> tuple[np.ndarray, float]:
    """c and tr(A) from one R-only QR of [K_perp, y_perp; sqrt(nlam) L', 0].

    With Q_r = LL', the triangular factor R of the stack carries the
    rotated response in its last column, so c comes from one triangular
    solve and no orthogonal factor is formed.  The stack has n - M + q rows
    and q + 1 columns.  Since R_KK'R_KK = K_perp'K_perp + nlam Q_r,
    tr(A) = M + q - nlam ||L' R_KK^{-1}||_F^2, the M null directions being
    fitted exactly.
    """
    if nlam <= 0 or not np.isfinite(nlam):
        raise InputError("nlam must be positive and finite")
    lower, q = design.penalty_factor, design.nq
    stack = design.stack()
    np.multiply(float(nlam) ** 0.5, lower.T, out=stack[-q:, :q])
    r = _r_factor(stack)
    c, info = sla.lapack.dtrtrs(r[:q, :q], r[:q, q])
    if info != 0:
        raise NumericalError(f"solver: singular stacked system (nlam={nlam:g})")
    w, _ = sla.lapack.dtrtrs(r[:q, :q], lower, trans=1)
    return c, design.m + q - float(nlam) * float((w * w).sum())


def _gcv_value(rss, trace_a, n_obs: int):
    """GCV (rss / n) / ((n - tr A) / n)^2 at n = ``n_obs``, elementwise; +inf where tr A >= n."""
    denom = (n_obs - trace_a) / n_obs
    return np.divide(rss / n_obs, denom * denom, out=np.full(np.shape(denom), np.inf),
                     where=denom > 0.0)


def _design_gcv(design, c: np.ndarray, trace_a: float) -> float:
    """GCV score of c from the complement rows' residual, over ``n_obs``."""
    resid = design.residual(c)
    return float(_gcv_value(float(resid @ resid), trace_a, design.n_obs))


def _stacked_fit(design: CompiledDesign, nlam: float):
    """Penalized fit via one R-only QR of the stacked system, T absorbed.

    c and tr(A) come from ``_complement_solve``; d from back-substitution,
    R_T d = y_t - K_t c.  The fitted values T d + K c are left to the
    caller, which holds T and K in their own rows.  Returns (d, c, trace_a).
    """
    c, trace_a = _complement_solve(design, nlam)
    m = design.m
    d = sla.solve_triangular(design.r_t, design.y[:m] - _dot(design.k, c)[:m], lower=False,
                             check_finite=False)
    return d, c, trace_a


def solve_penalized(t, k, q, y, nlam: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||y - T d - K c||^2 + nlam c'Qc; return (d, c)."""
    return _stacked_fit(_checked_design(t, k, q, y), nlam)[:2]


def hat_trace(t, k, q, nlam: float):
    """Return (tr A(nlam), apply_A) for the penalized smoother.

    ``apply_A`` maps a response vector to its fitted values T d + K c by
    solving the same penalized problem with that response, so linearity
    and idempotence properties can be checked directly.
    """
    t, k = np.asarray(t, dtype=float), np.asarray(k, dtype=float)

    def apply_a(v):
        d, c, _ = _stacked_fit(_checked_design(t, k, q, v), nlam)
        return _dot(t, d) + _dot(k, c)

    return _stacked_fit(_checked_design(t, k, q, np.zeros(t.shape[0])), nlam)[2], apply_a


def _no_training_rows() -> np.ndarray:
    raise InputError("this fit holds no training rows, so it has no fitted values;"
                     " evaluate it at given rows with predict")


@dataclass
class FitResult:
    """A fitted model: coefficients, effective degrees of freedom, score.

    ``fitted`` holds the fitted values T d + K(theta) c at the training
    rows, for the d and c the fit was built with: ``fit_model`` defers them
    (``_fitted`` is then a function that forms them) until the first read,
    which forms them by ``predict``'s tile loop and keeps them.  A copy made
    by ``dataclasses.replace`` keeps the original fit's values.  A fit built
    without training rows raises on reading ``fitted``.
    """

    d: np.ndarray
    c: np.ndarray
    trace_a: float
    gcv: float
    params: SmoothingParams
    basis_rows: np.ndarray
    _fitted: np.ndarray | Callable[[], np.ndarray] = field(
        default=_no_training_rows, repr=False, compare=False)

    @property
    def fitted(self) -> np.ndarray:
        if callable(self._fitted):
            self._fitted = self._fitted()
        return self._fitted


def fit_model(dataset: Dataset, spec: ModelSpec, params: SmoothingParams,
              basis: BasisSelection) -> FitResult:
    """Fit at fixed smoothing parameters on the given basis rows.

    [T, K(theta), y] is compressed chunk by chunk as the rows of T and
    K(theta) come from their sources (``DesignRows.design_at``), so neither
    T, a per-term block nor K(theta) is ever whole: the fit holds
    O(S q^2 + chunk q) doubles besides the data.  The score is ``gcv.gcv_score``'s on the same
    arrays.  The fitted values T d + K(theta) c take one more pass over
    the rows, made only when ``fitted`` is first read.  The stacked
    QR works at the square root of the normal equations' condition
    number, so any positive nlam yields a fit.
    """
    rows = DesignRows(dataset, spec, basis)
    design = rows.design_at(params.theta)
    d, c, trace_a = _stacked_fit(design, params.nlam)
    return FitResult(d=d, c=c, trace_a=trace_a, gcv=_design_gcv(design, c, trace_a),
                     params=params, basis_rows=rows.z,
                     _fitted=functools.partial(_eta, spec, dataset.x, rows.z, params.theta, d, c))


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
    _check_null_rank(r[:m], b)
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
    Unknown discrete levels and non-finite values raise.  Returns
    (predictions, out_of_range).  ``fit_model``'s ``fitted`` is formed by
    the same tile loop (``_eta``), so the predictions at the training rows
    equal it bit for bit.
    """
    xs, clamped = rescale_columns(spec.domains, np.atleast_2d(new_raw))
    flags = clamped.any(axis=1)
    if flags.any():
        warnings.warn(
            f"{int(flags.sum())} prediction row(s) outside the training range; clamped",
            stacklevel=2,
        )
    return _eta(spec, xs, fit.basis_rows, fit.params.theta, fit.d, fit.c), flags


def _eta(spec: ModelSpec, xs: np.ndarray, z: np.ndarray, theta, d: np.ndarray,
         c: np.ndarray) -> np.ndarray:
    """T d + K(theta) c at model-scale rows ``xs``, basis rows ``z``.

    T d and then K(theta) c are summed over tiles (``_tiles``) of their
    row sources (``_null_rows``, ``_kernel_rows``), so they need memory for
    one tile, not for all rows.  Each row of T d is its own length-M dot
    product, so the tiles give the bits of the product over all rows.  T's
    tiles, M columns wide, span up to COMPRESS_CHUNK rows: in the kernel's
    tiles (152 rows at q = 215), T d on m1 took 0.29 s per 10^6 rows, and
    0.04 s in 2048-row tiles, on a 2-CPU machine.
    """
    n = xs.shape[0]
    eta = np.empty(n)
    null_rows, kernel_rows = _null_rows(spec, xs), _kernel_rows(spec, xs, z, theta)
    for a, b in _tiles(0, n, d.shape[0]):
        eta[a:b] = _dot(null_rows(a, b), d)
    for a, b in _tiles(0, n, c.shape[0]):
        eta[a:b] += _dot(np.asfortranarray(kernel_rows(a, b)), c)
    return eta
