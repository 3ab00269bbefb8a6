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


def _gram_factor(domain: PredictorDomain, label: str, xc: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """One predictor's kernel factor between two point sets, shape (n, m).

    The smooth factor k2(x)k2(z) - k4(|x - z|) is formed in two (n, m)
    buffers by the same operations, in the same order, as ``_k2`` and
    ``_k4`` on whole arrays, so it is bit-identical to that expression.
    """
    if not domain.is_continuous:
        out = np.equal.outer(xc, zc).astype(float)
        out -= 1.0 / domain.n_levels
        return out
    if label == LABEL_PARAMETRIC:
        return np.outer(_k1(xc), _k1(zc))
    s2 = np.subtract.outer(xc, zc)
    np.abs(s2, out=s2)
    s2 -= 0.5
    s2 *= s2
    k4 = np.multiply(s2, s2)
    s2 /= 2.0
    k4 -= s2
    k4 += 7.0 / 240.0
    k4 /= 24.0
    out = np.multiply.outer(_k2(xc), _k2(zc), out=s2)
    out -= k4
    return out


def term_grams(terms, domains, x_rows: np.ndarray, z_rows: np.ndarray):
    """Gram blocks of several terms between two point sets, in term order.

    Yields one (n, m) block per term, each a fresh array the caller owns.
    Every (predictor, label) factor is formed once and dropped after the
    last term that uses it, so terms that share factors (the interactions
    of a two-way model) cost one product per extra factor.  A block is the
    product of its factors in predictor order, so it equals ``term_gram``
    bit for bit.
    """
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    z_rows = np.atleast_2d(np.asarray(z_rows, dtype=float))
    keys = [tuple(zip(term.predictors, term.labels)) for term in terms]
    last_use = {key: i for i, term_keys in enumerate(keys) for key in term_keys}
    factors = {}
    for i, term_keys in enumerate(keys):
        for j, lab in term_keys:
            if (j, lab) not in factors:
                factors[j, lab] = _gram_factor(domains[j], lab, x_rows[:, j], z_rows[:, j])
        first, *rest = term_keys
        block = factors.pop(first) if last_use[first] == i else factors[first].copy()
        for key in rest:
            block *= factors[key]
            if last_use[key] == i:
                del factors[key]
        yield block
        del block  # so the caller's reference is the only one while the next block forms


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
