"""Model-scale datasets and raw-data conversion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import PredictorDomain
from .util import InputError


@dataclass
class Dataset:
    """Responses and predictors on model scale.

    Continuous columns lie in [0, 1]; discrete columns hold level codes
    1..K as floats.  ``domains`` keeps the raw-scale mapping so new data can
    be converted consistently at prediction time.
    """

    x: np.ndarray
    y: np.ndarray
    domains: tuple[PredictorDomain, ...]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2:
            raise InputError("x must be a 2-d array (n rows, d predictors)")
        if self.y.ndim != 1 or self.y.shape[0] != self.x.shape[0]:
            raise InputError("y must be 1-d with one entry per row of x")
        if self.x.shape[1] != len(self.domains):
            raise InputError("one domain per predictor column is required")
        if self.x.size and not np.isfinite(self.x).all():
            raise InputError("x contains non-finite values")
        if self.y.size and not np.isfinite(self.y).all():
            raise InputError("y contains non-finite values")
        for j, dom in enumerate(self.domains):
            col = self.x[:, j]
            if not col.size:
                continue
            if dom.is_continuous:
                if col.min() < 0.0 or col.max() > 1.0:
                    raise InputError(f"continuous column {j} outside [0, 1]; use Dataset.from_raw")
            else:
                k = dom.n_levels
                if (col != np.round(col)).any() or col.min() < 1 or col.max() > k:
                    raise InputError(f"discrete column {j} outside {{1, ..., {k}}}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_raw(cls, x_raw, y, domains, columns=None) -> "Dataset":
        """Convert raw-scale predictors using each domain's scaling; a
        continuous cell outside its domain's range is an input error.

        ``columns`` picks the predictor columns of ``x_raw``, as in
        ``rescale_columns``, so they need not be copied out of a wider table.
        """
        domains = tuple(domains)
        x, clamped = rescale_columns(domains, x_raw, columns)
        if clamped.any():
            j = int(clamped.any(axis=0).argmax())
            raise InputError(f"column {j} has values outside the declared range "
                             f"[{domains[j].lo}, {domains[j].hi}]")
        return cls(x=x, y=y, domains=domains)

    def take(self, indices) -> "Dataset":
        """Row subset, used for subsample fits."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(x=self.x[idx], y=self.y[idx], domains=self.domains)


def rescale_columns(domains, raw, columns=None) -> tuple[np.ndarray, np.ndarray]:
    """Raw-scale rows to model scale, predictor j by ``domains[j]``.

    Predictor j is column ``columns[j]`` of ``raw`` (default: column j).
    Returns (x, clamped): x C-ordered, one column per domain, and a mask of
    the continuous cells clamped into [0, 1].  A column count other than
    one per domain, a non-finite cell and an unknown discrete level are
    input errors; an unknown level's error carries its predictor index
    (``InputError.column``).
    """
    raw = np.asarray(raw, dtype=float)
    if columns is None:
        columns = range(raw.shape[1] if raw.ndim == 2 else 0)
    if raw.ndim != 2 or len(columns) != len(domains):
        raise InputError(f"expected rows of {len(domains)} predictor columns,"
                         f" got shape {raw.shape}")
    x = np.empty((raw.shape[0], len(domains)))
    clamped = np.zeros(x.shape, dtype=bool)
    for j, (dom, col) in enumerate(zip(domains, columns)):
        if not np.isfinite(raw[:, col]).all():
            raise InputError(f"predictor column {j} has a non-finite value")
        try:
            x[:, j], clamped[:, j] = dom.rescale(raw[:, col])
        except InputError as exc:
            exc.column = j
            raise
    return x, clamped


def unit_domains(d: int) -> tuple[PredictorDomain, ...]:
    """Continuous [0, 1] domains, for data generated on model scale."""
    return tuple(PredictorDomain.continuous(0.0, 1.0) for _ in range(d))
