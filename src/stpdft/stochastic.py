"""The row softmax of attention.

softmax_rows is the one masked softmax; -inf entries are mask sentinels
that map to exact zeros, while every other operation in the library rejects
non-finite input.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRowError, NonFiniteError

# A shifted score at or below this is a dead lane: np.exp(x) is +0.0 for
# every x <= -745.1332191019412 (below ln 2**-1075), -inf included.
_EXP_CUT = -750.0


def softmax_rows(E) -> np.ndarray:
    """softmax applied to each row of a matrix; rows come out stochastic.

    Each row is shifted by its own max and exponentiated only where the
    shifted score is above _EXP_CUT; the other lanes are written as the +0.0
    exp gives there, so the bytes are those of np.exp(E - top) divided by
    its row sums.  A matrix with no dead lane takes the plain exp, since a
    masked exp that skips nothing is slower.  The row max is also the check,
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
    D = E - top
    live = D > _EXP_CUT
    e = np.exp(D, out=D) if live.all() else np.exp(D, out=np.zeros(D.shape), where=live)
    return np.divide(e, e.sum(axis=1, keepdims=True), out=e)
