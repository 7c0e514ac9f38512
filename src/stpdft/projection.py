"""Cross-dimensional inner-product space over vectors of any length.

Two vectors of lengths m and n are compared by replicating each up to the
common length t = lcm(m, n) and averaging the ordinary inner product:

    vinner(x, y) = <repeat(x, t/m), repeat(y, t/n)> / t

This makes a vector and its k-fold entrywise replication equivalent
(distance zero) and gives every space R^n a compatible norm.  Under that
geometry the closest point in R^n to a given x in R^m is a linear map of x,

    project(x, n) = proj_matrix(m, n) @ x,

whose rows are convex averages of source coordinates (each row sums to 1).
proj_matrix is n/t times ``algebra.bridge_matrix(n, m)``, so it is built
at its own n x m size; only vinner and vdist replicate to length t.
``nominal_add`` adds two vectors of any lengths inside a chosen R^r by
projecting both there first.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import as_vector, bridge_matrix, bridge_matrix_exact
from .errors import ShapeError

lcm = math.lcm


def vinner(x, y) -> float:
    """Replication-averaged inner product of vectors of any lengths."""
    x = as_vector(x)
    y = as_vector(y)
    m, n = len(x), len(y)
    t = lcm(m, n)
    return float(np.dot(np.repeat(x, t // m), np.repeat(y, t // n))) / t


def vnorm(x) -> float:
    """sqrt(vinner(x, x)); the all-ones vector has norm 1 at every length."""
    return math.sqrt(max(vinner(x, x), 0.0))


def vdist(x, y) -> float:
    """Norm of the replicated difference; zero iff x and y replicate equally."""
    x = as_vector(x)
    y = as_vector(y)
    t = lcm(len(x), len(y))
    return vnorm(np.repeat(x, t // len(x)) - np.repeat(y, t // len(y)))


def proj_matrix(m: int, n: int) -> np.ndarray:
    """n x m matrix of the least-distance map R^m -> R^n.

    Equals (n/t) (I_n kron ones_row(t/n)) (I_m kron ones_col(t/m)), t = lcm(m, n),
    i.e. (n/t) bridge_matrix(n, m): entry (i, j) is n/t times the overlap of
    [i t/n, (i+1) t/n) and [j t/m, (j+1) t/m).  proj_matrix(n, n) is the
    identity; target n = 1 yields the row of means; source m = 1 replicates
    the scalar.
    """
    if m < 1 or n < 1:
        raise ShapeError(f"proj_matrix dims must be positive, got ({m}, {n})")
    return (n / lcm(m, n)) * bridge_matrix(n, m)


def proj_matrix_exact(m: int, n: int) -> np.ndarray:
    """proj_matrix over Fraction entries; used by zero-tolerance golden tests."""
    return Fraction(n, lcm(m, n)) * bridge_matrix_exact(n, m)


def project(x, n: int) -> np.ndarray:
    """Closest vector in R^n to x under vdist: proj_matrix(len(x), n) @ x."""
    x = as_vector(x)
    if n == len(x):
        return x.copy()
    return proj_matrix(len(x), n) @ x


def nominal_add(x, y, r: int) -> np.ndarray:
    """Add x and y inside R^r: project(x, r) + project(y, r).

    Agrees with projecting the replicated sum: equals
    project(sta(x, y), r) for every pair of lengths.
    """
    return project(x, r) + project(y, r)
