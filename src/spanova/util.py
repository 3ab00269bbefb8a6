"""Shared error types and small numeric helpers."""

from __future__ import annotations

import numpy as np


class SpanovaError(Exception):
    """Base class for errors raised by this package."""


class InputError(SpanovaError, ValueError):
    """Invalid user input: bad shapes, out-of-range values, malformed files.

    ``column`` is the index of the predictor column at fault, where the
    error concerns one (``data.rescale_columns``).
    """

    column: int | None = None


class NumericalError(SpanovaError, ArithmeticError):
    """Numerical failure: singular systems, degenerate scores."""


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for (seed, path) that is stable across runs.

    The path elements act as a counter scheme: streams for different
    replicates, subsamples or stages never collide and do not depend on
    the order in which they are drawn.
    """
    if seed < 0:
        raise InputError("seed must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def round_half_up(x: float) -> int:
    """Round to the nearest integer with ties going up.

    Used for sample-size dependent counts so results do not depend on
    banker's rounding.
    """
    return int(np.floor(x + 0.5))
