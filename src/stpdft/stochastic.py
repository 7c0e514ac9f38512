"""Softmax and stochasticity predicates.

softmax accepts -inf entries as mask sentinels (they map to exact zeros);
every other operation in the library rejects non-finite input.  Rows that
are entirely masked have no well-defined distribution and raise
DegenerateRowError rather than returning NaNs.
"""

from __future__ import annotations

import numpy as np

from .algebra import as_matrix, as_vector
from .errors import DegenerateRowError


def softmax(x) -> np.ndarray:
    """Stable softmax of a vector; -inf entries become exact zeros."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise ValueError(f"softmax expects a nonempty 1-D vector, got shape {x.shape}")
    if np.any(np.isnan(x)) or np.any(x == np.inf):
        raise ValueError("softmax entries must be finite or -inf")
    finite = x > -np.inf
    if not finite.any():
        raise DegenerateRowError("softmax of an all -inf row is undefined")
    out = np.zeros_like(x)
    shifted = x[finite] - x[finite].max()  # max-subtraction for stability
    e = np.exp(shifted)
    out[finite] = e / e.sum()
    return out


def softmax_rows(E) -> np.ndarray:
    """softmax applied to each row of a matrix; rows come out stochastic.

    One masked exp over the whole matrix: each row is shifted by its own
    max, so -inf entries become exact zeros.  The first bad row decides the
    error, as a row-by-row softmax would: NaN or +inf raises ValueError, an
    all -inf row raises DegenerateRowError naming it (1-based).
    """
    E = np.asarray(E, dtype=float)
    if E.ndim != 2 or E.size == 0:
        raise ValueError(f"softmax_rows expects a nonempty 2-D matrix, got shape {E.shape}")
    invalid = (np.isnan(E) | (E == np.inf)).any(axis=1)
    dead = ~(E > -np.inf).any(axis=1)
    if invalid.any() or dead.any():
        first = int(np.argmax(invalid | dead))
        if invalid[first]:
            raise ValueError("softmax entries must be finite or -inf")
        raise DegenerateRowError(f"row {first + 1} is entirely masked (-inf)")
    e = np.exp(E - E.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def is_stochastic_vector(x, tol: float = 1e-9) -> bool:
    """Entries >= -tol and total within tol of 1."""
    x = as_vector(x)
    return bool(np.all(x >= -tol) and abs(x.sum() - 1.0) <= tol)


def is_stochastic_matrix(A, tol: float = 1e-9) -> bool:
    """Every column is a stochastic vector (nonnegative, unit sum)."""
    A = as_matrix(A)
    return all(is_stochastic_vector(A[:, j], tol) for j in range(A.shape[1]))
