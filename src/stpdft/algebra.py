"""Dimension-free matrix products and additions.

Ordinary matrix algebra requires inner dimensions to match.  The operators
here lift mismatched operands to a common size (the lcm of the mismatched
dimensions) via Kronecker expansion and then multiply or add:

    stp(A, B)             expand with identity blocks; grows the result
    dk_stp(A, B)          expand with all-ones blocks; keeps rows(A) x cols(B)
    weighted_dk_stp(A, B) dk_stp with the right expansion averaged, so
                          stochastic structure survives the product
    sta(x, y)             entrywise replication of vectors to the lcm length

All of them reduce to the ordinary product/sum when the shapes already
conform.  ``bridge_matrix(n, p)`` is the fixed middle factor that turns
dk_stp into an ordinary triple product: dk_stp(A, B) == A @ bridge @ B.
It is defined by lcm-sized Kronecker factors but built from interval
overlaps at its own n x p size, and every other bridge or projection matrix
rescales it; only the four operators above expand to the lcm.

Matrices are plain 2-D float ndarrays, vectors 1-D.  Every function is pure;
nothing here mutates its inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ShapeError, SizeBudgetError

# Intermediate element counts must stay below this; anything bigger is a
# construction error, never a silent wrap.
SIZE_BUDGET = 2**31 - 1

lcm = math.lcm


def _check_budget(*counts):
    total = 1
    for c in counts:
        total *= int(c)
    if total > SIZE_BUDGET:
        raise SizeBudgetError(
            f"intermediate size {total} exceeds the element budget {SIZE_BUDGET}"
        )
    return total


def as_matrix(A, name="matrix") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ShapeError(f"{name} must be 2-D with positive dims, got shape {A.shape}")
    return A


def as_vector(x, name="vector") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ShapeError(f"{name} must be 1-D with positive length, got shape {x.shape}")
    return x


def stp(A, B) -> np.ndarray:
    """Semi-tensor product of two matrices.

    With A m x n and B p x q and t = lcm(n, p):

        stp(A, B) = (A kron I_{t/n}) @ (B kron I_{t/p})

    shape (m*t/n) x (q*t/p).  Equals A @ B when n == p.  Associative and
    distributive over same-shape addition.
    """
    A = as_matrix(A, "stp left operand")
    B = as_matrix(B, "stp right operand")
    m, n = A.shape
    p, q = B.shape
    t = lcm(n, p)
    _check_budget(m * (t // n), q * (t // p))
    _check_budget(m * (t // n), t)
    _check_budget(t, q * (t // p))
    if n == p:
        return A @ B
    return np.kron(A, np.eye(t // n)) @ np.kron(B, np.eye(t // p))


def dk_stp(A, B) -> np.ndarray:
    """Dimension-keeping semi-tensor product: result is rows(A) x cols(B).

    (A kron ones_row(t/n)) @ (B kron ones_col(t/p)) with t = lcm(n, p);
    reduces to A @ B when the shapes conform.
    """
    A = as_matrix(A, "dk_stp left operand")
    B = as_matrix(B, "dk_stp right operand")
    m, n = A.shape
    p, q = B.shape
    t = lcm(n, p)
    _check_budget(m, t)
    _check_budget(t, q)
    if n == p:
        return A @ B
    return np.kron(A, np.ones((1, t // n))) @ np.kron(B, np.ones((t // p, 1)))


def bridge_matrix(n: int, p: int) -> np.ndarray:
    """The n x p middle factor with dk_stp(A, B) == A @ bridge_matrix(n, p) @ B.

    Equals (I_n kron ones_row(t/n)) @ (I_p kron ones_col(t/p)), t = lcm(n, p),
    whose entry (i, j) counts the k < t with k // (t/n) == i and
    k // (t/p) == j: the overlap of [i t/n, (i+1) t/n) and [j t/p, (j+1) t/p),
    computed here without any t-sized factor.  Entries are nonnegative
    integers, bridge(n, n) = I_n.
    """
    if n < 1 or p < 1:
        raise ShapeError(f"bridge_matrix dims must be positive, got ({n}, {p})")
    _check_budget(n, p)
    t = lcm(n, p)
    rows = np.arange(n)[:, None] * (t // n)
    cols = np.arange(p)[None, :] * (t // p)
    overlap = np.minimum(rows + t // n, cols + t // p) - np.maximum(rows, cols)
    return np.maximum(overlap, 0).astype(float)


def weighted_bridge_matrix(n: int, p: int) -> np.ndarray:
    """bridge_matrix(n, p) scaled by p/t; columns of the result sum to 1."""
    t = lcm(n, p)
    return bridge_matrix(n, p) / (t // p)


def weighted_dk_stp(A, B) -> np.ndarray:
    """dk_stp with the right-hand ones expansion replaced by its average.

    Equals A @ weighted_bridge_matrix(n, p) @ B, and maps a pair of
    stochastic operands (columnwise nonnegative, unit column sums) to a
    stochastic result.  Conforming shapes reduce to A @ B.
    """
    A = as_matrix(A, "weighted_dk_stp left operand")
    B = as_matrix(B, "weighted_dk_stp right operand")
    m, n = A.shape
    p, q = B.shape
    t = lcm(n, p)
    _check_budget(m, t)
    _check_budget(t, q)
    if n == p:
        return A @ B
    right = np.kron(B, np.ones((t // p, 1)) / (t // p))
    return np.kron(A, np.ones((1, t // n))) @ right


def sta(x, y, sign: int = 1) -> np.ndarray:
    """Semi-tensor addition (sign=+1) or subtraction (sign=-1) of vectors.

    Each entry of x is replicated t/len(x) times (likewise y) so both live
    in R^t, t = lcm of the lengths; the replicated vectors are then added or
    subtracted entrywise.  Commutative and associative for sign=+1.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    x = as_vector(x, "sta left operand")
    y = as_vector(y, "sta right operand")
    m, n = x.shape[0], y.shape[0]
    t = lcm(m, n)
    _check_budget(t)
    return np.repeat(x, t // m) + sign * np.repeat(y, t // n)


# --- exact-arithmetic twins -------------------------------------------------
#
# The bridge and projection matrices have rational entries by construction;
# golden-value tests compare them with zero tolerance.  These variants hold
# the same matrices as Fraction entries (object-dtype arrays).

_to_fraction = np.frompyfunc(Fraction, 1, 1)


def bridge_matrix_exact(n: int, p: int) -> np.ndarray:
    """bridge_matrix with Fraction entries (exact integer counts)."""
    return _to_fraction(bridge_matrix(n, p))
