"""Softmax and stochasticity predicates.

softmax_rows is the one masked softmax and softmax its one-row case; -inf
entries are mask sentinels that map to exact zeros, while every other
operation in the library rejects non-finite input.  An entirely masked row
has no distribution and raises DegenerateRowError rather than giving NaNs.
"""

from __future__ import annotations

import numpy as np

from .algebra import as_matrix, as_vector
from .errors import DegenerateRowError, NonFiniteError


def softmax(x) -> np.ndarray:
    """Stable softmax of a vector: softmax_rows of the one-row matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise ValueError(f"softmax expects a nonempty 1-D vector, got shape {x.shape}")
    return softmax_rows(x[None, :])[0]


def softmax_rows(E) -> np.ndarray:
    """softmax applied to each row of a matrix; rows come out stochastic.

    One masked exp over the whole matrix: each row is shifted by its own
    max, so -inf entries become exact zeros.  The row max is also the check,
    since it is NaN when the row holds a NaN, +inf when it holds +inf and no
    NaN, and -inf only when the row is entirely -inf.  The first bad row
    decides the error, as a row-by-row softmax would: NaN or +inf raises
    NonFiniteError (a ValueError), an all -inf row raises DegenerateRowError
    naming it (1-based).
    """
    E = np.asarray(E, dtype=float)
    if E.ndim != 2 or E.size == 0:
        raise ValueError(f"softmax_rows expects a nonempty 2-D matrix, got shape {E.shape}")
    top = E.max(axis=1, keepdims=True)
    bad = ~np.isfinite(top[:, 0])
    if bad.any():
        first = int(np.argmax(bad))
        if top[first, 0] == -np.inf:
            raise DegenerateRowError(f"row {first + 1} is entirely masked (-inf)")
        raise NonFiniteError(f"row {first + 1}: softmax entries must be finite or -inf")
    e = np.exp(E - top)
    return e / e.sum(axis=1, keepdims=True)


def is_stochastic_vector(x, tol: float = 1e-9) -> bool:
    """Entries >= -tol and total within tol of 1."""
    x = as_vector(x)
    return bool(np.all(x >= -tol) and abs(x.sum() - 1.0) <= tol)


def is_stochastic_matrix(A, tol: float = 1e-9) -> bool:
    """Every column is a stochastic vector (nonnegative, unit sum)."""
    A = as_matrix(A)
    return all(is_stochastic_vector(A[:, j], tol) for j in range(A.shape[1]))
