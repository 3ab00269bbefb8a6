"""Tensor-product kernels for smoothing-spline ANOVA models.

Continuous predictors live on [0, 1] and decompose into a constant part, a
linear (parametric) part spanned by k1, and a penalized smooth part with the
cubic-spline reproducing kernel built from scaled Bernoulli polynomials.
Discrete predictors live on {1, ..., K} and decompose into an averaging part
and a penalized contrast part.  An ANOVA term is a product of per-predictor
subspace choices; a model is a list of such terms split into an unpenalized
null basis and penalized terms, one smoothing weight per penalized term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .util import InputError

# Subspace labels. Continuous predictors expose {"00", "01", "1"}, discrete
# predictors expose {"0", "1"}; "00"/"0" never appear inside a term because a
# constant factor means the predictor is simply not involved.
LABEL_PARAMETRIC = "01"
LABEL_SMOOTH = "1"

CONTINUOUS = "continuous"
DISCRETE = "discrete"


def _k1(t):
    return t - 0.5


def _k2(t):
    s = t - 0.5
    return (s * s - 1.0 / 12.0) / 2.0


def _k4(t):
    s = t - 0.5
    s2 = s * s
    return (s2 * s2 - s2 / 2.0 + 7.0 / 240.0) / 24.0


_BERNOULLI = {1: _k1, 2: _k2, 4: _k4}


def eval_bernoulli(order: int, t):
    """Evaluate the scaled Bernoulli polynomial k_order on [0, 1].

    Parameters
    ----------
    order : int
        One of 1, 2 or 4: k1(t) = t - 1/2, k2 = (k1^2 - 1/12)/2 and
        k4 = (k1^4 - k1^2/2 + 7/240)/24.
    t : float or ndarray
        Points in [0, 1]; values outside signal unscaled input and are
        rejected.

    Returns
    -------
    float or ndarray
        Polynomial values, same shape as ``t``.
    """
    if order not in _BERNOULLI:
        raise InputError(f"unsupported Bernoulli order {order}; expected 1, 2 or 4")
    arr = np.asarray(t, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise InputError("Bernoulli polynomial argument outside [0, 1]; rescale inputs first")
    out = _BERNOULLI[order](arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


@dataclass(frozen=True)
class PredictorDomain:
    """Description of one predictor's domain and raw-to-model scaling.

    Continuous predictors record the raw [lo, hi] range that maps onto
    [0, 1]; discrete predictors record the tuple of raw level codes that map
    onto {1, ..., K}.
    """

    kind: str
    lo: float = 0.0
    hi: float = 1.0
    levels: tuple = ()

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise InputError(f"unknown predictor kind {self.kind!r}")
        if self.kind == CONTINUOUS:
            if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.hi <= self.lo:
                raise InputError("continuous domain needs finite lo < hi")
        else:
            if len(self.levels) < 2:
                raise InputError("discrete domain needs at least two levels")
            if len(set(self.levels)) != len(self.levels):
                raise InputError("discrete levels must be distinct")

    @classmethod
    def continuous(cls, lo: float = 0.0, hi: float = 1.0) -> "PredictorDomain":
        return cls(kind=CONTINUOUS, lo=float(lo), hi=float(hi))

    @classmethod
    def discrete(cls, levels) -> "PredictorDomain":
        if isinstance(levels, int):
            levels = tuple(range(1, levels + 1))
        return cls(kind=DISCRETE, levels=tuple(levels))

    @property
    def is_continuous(self) -> bool:
        return self.kind == CONTINUOUS

    @property
    def n_levels(self) -> int:
        if self.is_continuous:
            raise InputError("n_levels is only defined for discrete predictors")
        return len(self.levels)

    def rescale(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map raw values to model scale; return (scaled, out_of_range mask).

        Continuous values are min-max scaled and clamped to [0, 1]; the mask
        marks clamped entries.  Discrete values must match a known level.
        """
        values = np.asarray(values, dtype=float)
        if self.is_continuous:
            scaled = np.subtract(values, self.lo)
            scaled /= self.hi - self.lo
            mask = scaled < 0.0
            mask |= scaled > 1.0
            return np.clip(scaled, 0.0, 1.0, out=scaled), mask
        codes = np.full(values.shape, -1.0)
        for code, level in enumerate(self.levels, start=1):
            codes[values == level] = float(code)
        if (codes < 0).any():
            bad = sorted(set(values[codes < 0].tolist()))
            raise InputError(f"unknown discrete level(s) {bad}; known levels {list(self.levels)}")
        return codes, np.zeros(values.shape, dtype=bool)


@dataclass(frozen=True)
class AnovaTerm:
    """One ANOVA term: involved predictors with one subspace label each.

    ``delta`` is the 1-based index among the penalized terms; it owns the
    smoothing weight theta_delta.  Null-space terms have ``penalized=False``
    and no delta.
    """

    predictors: tuple[int, ...]
    labels: tuple[str, ...]
    penalized: bool
    delta: int | None = None

    def __post_init__(self):
        if not self.predictors:
            raise InputError("a term must involve at least one predictor")
        if len(self.predictors) != len(self.labels):
            raise InputError("predictors and labels must have equal length")
        if any(b <= a for a, b in zip(self.predictors, self.predictors[1:])):
            raise InputError("term predictors must be strictly increasing")
        if any(lab not in (LABEL_PARAMETRIC, LABEL_SMOOTH) for lab in self.labels):
            raise InputError(f"unknown subspace label in {self.labels}")
        if self.penalized and LABEL_SMOOTH not in self.labels:
            raise InputError("a penalized term must contain a smooth label")
        if self.penalized and self.delta is not None and self.delta < 1:
            raise InputError("delta indices are 1-based")


@dataclass(frozen=True)
class ModelSpec:
    """A fitted model's structure: domains, requested effects, derived terms."""

    domains: tuple[PredictorDomain, ...]
    effects: tuple[tuple[int, ...], ...]
    null_terms: tuple[AnovaTerm, ...] = field(default=())
    penalized_terms: tuple[AnovaTerm, ...] = field(default=())

    @property
    def n_predictors(self) -> int:
        return len(self.domains)

    @property
    def n_penalized(self) -> int:
        """Number of penalized terms S (one smoothing weight each)."""
        return len(self.penalized_terms)

    @property
    def null_dim(self) -> int:
        """Number of null-basis columns M, constant included."""
        return 1 + sum(_term_width(term, self.domains) for term in self.null_terms)


def _term_width(term: AnovaTerm, domains) -> int:
    """Column count a term contributes to the null basis."""
    width = 1
    for j in term.predictors:
        if not domains[j].is_continuous:
            width *= domains[j].n_levels - 1
    return width


def _expand_effects(domains, effects):
    """Canonicalize effects and expand them into per-subspace terms."""
    seen = set()
    canon = []
    for effect in effects:
        eff = tuple(sorted(int(j) for j in effect))
        if not eff:
            raise InputError("empty effect")
        if len(set(eff)) != len(eff):
            raise InputError(f"effect {effect} repeats a predictor")
        if eff[0] < 0 or eff[-1] >= len(domains):
            raise InputError(f"effect {effect} references an unknown predictor")
        if eff in seen:
            raise InputError(f"effect {effect} listed more than once")
        seen.add(eff)
        canon.append(eff)
    canon.sort(key=lambda e: (len(e), e))

    null_terms: list[AnovaTerm] = []
    penalized: list[AnovaTerm] = []
    for eff in canon:
        options = []
        for j in eff:
            if domains[j].is_continuous:
                options.append((LABEL_PARAMETRIC, LABEL_SMOOTH))
            else:
                options.append((LABEL_SMOOTH,))
        for labels in itertools.product(*options):
            if all(lab == LABEL_PARAMETRIC for lab in labels):
                null_terms.append(AnovaTerm(eff, labels, penalized=False))
            else:
                penalized.append(
                    AnovaTerm(eff, labels, penalized=True, delta=len(penalized) + 1)
                )
    return tuple(canon), tuple(null_terms), tuple(penalized)


def enumerate_terms(domains, effects) -> ModelSpec:
    """Expand requested effects into a full model specification.

    Each effect (a tuple of predictor indices) expands into the tensor
    product of its predictors' non-constant subspaces: {01, 1} for a
    continuous predictor, {1} for a discrete one.  The all-parametric
    combination joins the null basis; every other combination is penalized
    and gets the next delta index.  Effects are processed mains-first, then
    by index tuple, with label combinations in lexicographic order, so the
    delta numbering is deterministic.
    """
    domains = tuple(domains)
    canon, null_terms, penalized = _expand_effects(domains, effects)
    return ModelSpec(domains=domains, effects=canon, null_terms=null_terms,
                     penalized_terms=penalized)


# enumerate_terms is the contract name; build_model reads better at call sites
build_model = enumerate_terms


def main_effects_model(domains) -> ModelSpec:
    return build_model(domains, [(j,) for j in range(len(domains))])


def full_two_way_model(domains) -> ModelSpec:
    d = len(domains)
    effects = [(j,) for j in range(d)]
    effects += [(i, j) for i in range(d) for j in range(i + 1, d)]
    return build_model(domains, effects)


def cubic_kernel_part(label: str, x, x2):
    """Kernel of one continuous factor's subspace, on model scale.

    The parametric part is k1(x)k1(x2); the smooth part is the cubic-spline
    kernel k2(x)k2(x2) - k4(|x - x2|).
    """
    xa = np.asarray(x, dtype=float)
    xb = np.asarray(x2, dtype=float)
    for arr in (xa, xb):
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise InputError("kernel argument outside [0, 1]; rescale inputs first")
    if label == LABEL_PARAMETRIC:
        out = _k1(xa) * _k1(xb)
    elif label == LABEL_SMOOTH:
        out = _k2(xa) * _k2(xb) - _k4(np.abs(xa - xb))
    else:
        raise InputError(f"unknown continuous label {label!r}")
    return float(out) if out.ndim == 0 else out


def discrete_kernel_part(label: str, n_levels: int, x, x2):
    """Kernel of one discrete factor's subspace on levels {1, ..., K}.

    The averaging part is the constant 1/K; the contrast part is
    I(x == x2) - 1/K.
    """
    if n_levels < 2:
        raise InputError("discrete kernel needs at least two levels")
    xa = np.asarray(x)
    xb = np.asarray(x2)
    for arr in (xa, xb):
        vals = np.asarray(arr, dtype=float)
        if vals.size and ((vals != np.round(vals)).any() or vals.min() < 1 or vals.max() > n_levels):
            raise InputError(f"discrete kernel argument outside {{1, ..., {n_levels}}}")
    if label == "0":
        shape = np.broadcast_shapes(xa.shape, xb.shape)
        out = np.full(shape, 1.0 / n_levels)
    elif label == LABEL_SMOOTH:
        out = np.asarray((xa == xb).astype(float) - 1.0 / n_levels)
    else:
        raise InputError(f"unknown discrete label {label!r}")
    return float(out) if out.ndim == 0 else out


def term_kernel(term: AnovaTerm, domains, row, row2) -> float:
    """Evaluate one term's product kernel at a pair of points."""
    row = np.asarray(row, dtype=float)
    row2 = np.asarray(row2, dtype=float)
    val = 1.0
    for j, lab in zip(term.predictors, term.labels):
        if domains[j].is_continuous:
            val *= cubic_kernel_part(lab, row[j], row2[j])
        else:
            val *= discrete_kernel_part(lab, domains[j].n_levels, row[j], row2[j])
    return float(val)


def _basis_operand(first, second) -> np.ndarray:
    """The (2, m) F-ordered right operand [first; second] of ``_rank2``."""
    return np.asfortranarray(np.stack(np.broadcast_arrays(first, second)), dtype=float)


def _rank2(col: np.ndarray, second: float, operand: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j] = col_i operand[0, j] + second operand[1, j], by one scipy dgemm into ``out``.

    [x, 1] [1; -z] gives x_i - z_j and [a, 0] [b; 0] gives a_i b_j: each
    entry is exact products plus one rounding, so it equals
    ``np.subtract.outer``'s or ``np.multiply.outer``'s bit for bit, except
    that a zero product comes out +0.  ``out``, F- or C-contiguous float64,
    is written in place (beta 0, so its old entries are never read).  At
    tile size, m n k <= 65536, OpenBLAS runs the product on one thread.
    """
    if out.size == 0:
        return out
    rows = np.empty((col.shape[0], 2), order="F")
    rows[:, 0] = col
    rows[:, 1] = second
    if out.flags.f_contiguous:
        return sla.blas.dgemm(1.0, rows, operand, beta=0.0, c=out, overwrite_c=True)
    return sla.blas.dgemm(1.0, operand, rows, beta=0.0, c=out.T, trans_a=1, trans_b=1,
                          overwrite_c=True).T


def _factor_keys(terms) -> list[tuple[tuple[int, str], ...]]:
    """Each term's (predictor, label) factors, in predictor order."""
    return [tuple(zip(term.predictors, term.labels)) for term in terms]


def _basis_side(domain: PredictorDomain, label: str, zc: np.ndarray):
    """The basis points' side of one factor (``_gram_factor``), formed once per point set."""
    if not domain.is_continuous:
        return zc
    if label == LABEL_PARAMETRIC:
        return _basis_operand(_k1(zc), 0.0)
    return _basis_operand(1.0, -zc), _basis_operand(_k2(zc), 0.0)


def _gram_factor(domain: PredictorDomain, label: str, xc: np.ndarray, side,
                 out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """One predictor's kernel factor between two point sets, written into ``out``, shape (n, m).

    ``side`` is the basis points' ``_basis_side``; ``scratch``, of
    ``out``'s shape, is overwritten.  x_i - z_j and the outer products
    k1(x)k1(z) and k2(x)k2(z) are rank-2 dgemm products (``_rank2``), and
    the smooth factor k2(x)k2(z) - k4(|x - z|) then takes the operations
    of ``_k2`` and ``_k4`` on whole arrays, in the same order, so every
    factor equals that expression bit for bit, but for the sign of a zero
    product (``_rank2``).
    """
    if not domain.is_continuous:
        np.equal(xc[:, None], side, out=out)
        out -= 1.0 / domain.n_levels
        return out
    if label == LABEL_PARAMETRIC:
        return _rank2(_k1(xc), 0.0, side, out)
    difference, product = side
    s2 = _rank2(xc, 1.0, difference, out)
    np.abs(s2, out=s2)
    s2 -= 0.5
    s2 *= s2
    k4 = np.multiply(s2, s2, out=scratch)
    s2 *= 0.5  # the bits of s2 / 2 (both round the same real number), at a third of the time
    k4 -= s2
    k4 += 7.0 / 240.0
    k4 /= 24.0
    out = _rank2(_k2(xc), 0.0, product, s2)
    out -= k4
    return out


def term_grams(terms, domains, x_rows: np.ndarray, z_rows: np.ndarray):
    """Gram blocks of several terms between two point sets, in term order.

    Yields one (n, m) C-ordered block per term, each a fresh array the
    caller owns.  Every (predictor, label) factor is formed once and
    dropped after the last term that uses it, so terms that share factors
    (the interactions of a two-way model) cost one product per extra
    factor.  A block is the product of its factors in predictor order, so
    it equals ``term_gram`` bit for bit.
    """
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    z_rows = np.atleast_2d(np.asarray(z_rows, dtype=float))
    shape = (x_rows.shape[0], z_rows.shape[0])
    keys = _factor_keys(terms)
    last_use = {key: i for i, term_keys in enumerate(keys) for key in term_keys}
    scratch = np.empty(shape)
    factors = {}
    for i, term_keys in enumerate(keys):
        for j, lab in term_keys:
            if (j, lab) not in factors:
                side = _basis_side(domains[j], lab, z_rows[:, j])
                factors[j, lab] = _gram_factor(domains[j], lab, x_rows[:, j], side,
                                               np.empty(shape), scratch)
        first, *rest = term_keys
        block = factors.pop(first) if last_use[first] == i else factors[first].copy()
        for key in rest:
            block *= factors[key]
            if last_use[key] == i:
                del factors[key]
        yield block
        del block  # so the caller's reference is the only one while the next block forms


class KernelRows:
    """The row source (lo, hi) -> sum_t w_t R_t(x_i, z_j) at rows lo .. hi of ``x_rows``.

    For K(theta) the terms are a model's penalized terms and w is theta.
    ``tile(lo, hi)`` forms the rows in one F-ordered workspace, reused for
    every tile of a pass: one buffer per distinct (predictor, label)
    factor, one scratch and one sum, each a flat array viewed F-contiguous
    at the tile's height, so no factor, block or sum is allocated per tile
    and dgemm writes each product in place.  A tile's rows are valid until
    the next tile forms.  A plain ``(lo, hi)`` call forms the rows in a
    workspace of its own and returns its sum, an array the caller owns.

    Each term adds w_t (F_a F_b ...) into the sum, its factors multiplied
    in predictor order and the terms added in order, the operations of
    ``_weighted_sum(w, term_grams(...))`` in ``solver``, so the rows equal
    that sum's bit for bit; the basis points' side of every factor is
    formed once, here.
    """

    def __init__(self, terms, domains, x_rows: np.ndarray, z_rows: np.ndarray, weights):
        z_rows = np.atleast_2d(np.asarray(z_rows, dtype=float))
        self.x_rows, self.weights, self.m = x_rows, weights, z_rows.shape[0]
        self.keys = _factor_keys(terms)
        self.sides = {(j, lab): (domains[j], _basis_side(domains[j], lab, z_rows[:, j]))
                      for term_keys in self.keys for j, lab in term_keys}
        self._work = self._workspace(0)

    def _workspace(self, rows: int) -> dict:
        return {key: np.empty(rows * self.m) for key in [*self.sides, "scratch", "sum"]}

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        return self._form(lo, hi, self._workspace(hi - lo))

    def tile(self, lo: int, hi: int) -> np.ndarray:
        """The rows lo .. hi in the pass's workspace, valid until the next tile forms."""
        if self._work["sum"].size < (hi - lo) * self.m:
            self._work = self._workspace(hi - lo)
        return self._form(lo, hi, self._work)

    def _form(self, lo: int, hi: int, work: dict) -> np.ndarray:
        shape = (hi - lo, self.m)
        # a row slice of an F-ordered 2-D buffer is not contiguous, so dgemm would write a copy
        view = {key: flat[:shape[0] * shape[1]].reshape(shape, order="F")
                for key, flat in work.items()}
        scratch, out = view["scratch"], view["sum"]
        x = self.x_rows[lo:hi]
        factors = {(j, lab): _gram_factor(domain, lab, x[:, j], side, view[j, lab], scratch)
                   for (j, lab), (domain, side) in self.sides.items()}
        for i, (w, term_keys) in enumerate(zip(self.weights, self.keys)):
            first, *rest = (factors[key] for key in term_keys)
            if rest:
                block = np.multiply(first, rest[0], out=scratch)
                for factor in rest[1:]:
                    block *= factor
            else:
                block = first
            if i == 0:
                np.multiply(w, block, out=out)
            else:
                out += np.multiply(w, block, out=scratch)
        return out


def term_gram(term: AnovaTerm, domains, x_rows: np.ndarray, z_rows: np.ndarray) -> np.ndarray:
    """Gram block of one term between two point sets, shape (n, m).

    Vectorized equivalent of evaluating ``term_kernel`` pairwise.
    """
    return next(term_grams((term,), domains, x_rows, z_rows))


def term_gram_diag(term: AnovaTerm, domains, x_rows: np.ndarray) -> np.ndarray:
    """Diagonal of a term's Gram matrix at one point set, shape (n,)."""
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    out = np.ones(x_rows.shape[0])
    for j, lab in zip(term.predictors, term.labels):
        xc = x_rows[:, j]
        if domains[j].is_continuous:
            if lab == LABEL_PARAMETRIC:
                out *= _k1(xc) ** 2
            else:
                out *= _k2(xc) ** 2 - _k4(np.zeros_like(xc))
        else:
            k = domains[j].n_levels
            out *= 1.0 - 1.0 / k
    return out


def _null_factor_block(domain: PredictorDomain, label: str, col: np.ndarray) -> np.ndarray:
    """Columns one factor contributes to the null basis, shape (n, width)."""
    if domain.is_continuous:
        if label != LABEL_PARAMETRIC:
            raise InputError("continuous smooth components cannot enter the null basis")
        return _k1(col)[:, None]
    # Centered indicator contrasts, one column per level except the last.
    k = domain.n_levels
    cols = [(col == lvl).astype(float) - 1.0 / k for lvl in range(1, k)]
    return np.column_stack(cols)


def null_basis_matrix(spec: ModelSpec, x_rows: np.ndarray) -> np.ndarray:
    """Evaluate all null-space basis functions at the given rows.

    The first column is the constant 1; the remaining columns follow the
    model's null-term order, each term contributing the tensor product of
    its factors' parametric columns (k1 for continuous factors, centered
    indicator contrasts for discrete factors).
    """
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    n = x_rows.shape[0]
    blocks = [np.ones((n, 1))]
    for term in spec.null_terms:
        block = np.ones((n, 1))
        for j, lab in zip(term.predictors, term.labels):
            fac = _null_factor_block(spec.domains[j], lab, x_rows[:, j])
            # the width is explicit: reshape cannot infer -1 from zero rows
            block = (block[:, :, None] * fac[:, None, :]).reshape(
                n, block.shape[1] * fac.shape[1])
        blocks.append(block)
    return np.concatenate(blocks, axis=1)


def null_basis(spec: ModelSpec, row) -> np.ndarray:
    """Null-basis vector at a single point, length ``spec.null_dim``."""
    return null_basis_matrix(spec, np.asarray(row, dtype=float)[None, :])[0]
