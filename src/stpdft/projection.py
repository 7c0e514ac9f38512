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
at its own n x m size.  Nothing here replicates to length t either: the
replicated vectors are constant on the pieces of [0, t) where one entry of
x meets one entry of y, and those pieces are the nonzeros of
``algebra.bridge_band(m, n)``, at most m + n - 1 of them, so vinner and
vdist sum over the band instead.  ``project_batch`` resamples every
component of an addition form at once over the same band; single-vector
``project`` keeps the dense matrix, which is cheaper for one small pair.
``nominal_add`` adds two vectors of any lengths inside a chosen R^r by
projecting both there first.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import _check_budget, as_vector, bridge_band, bridge_matrix, bridge_matrix_exact
from .errors import ShapeError

lcm = math.lcm


def vinner(x, y) -> float:
    """Replication-averaged inner product of vectors of any lengths.

    Equal lengths give x @ y / m; otherwise the sum of x_i y_j w over the
    band (k, i, j, w) = bridge_band(m, n), divided by m n.
    """
    x = as_vector(x)
    y = as_vector(y)
    m, n = len(x), len(y)
    if m == n:
        return float(x @ y) / m
    _, i, j, w = bridge_band(m, n)
    return float(np.dot(x[i] * y[j], w)) / (m * n)


def vnorm(x) -> float:
    """sqrt(vinner(x, x)); the all-ones vector has norm 1 at every length."""
    return math.sqrt(max(vinner(x, x), 0.0))


def vdist(x, y) -> float:
    """Norm of the replicated difference; zero iff x and y replicate equally.

    Unequal lengths sum (x_i - y_j)^2 w over bridge_band(m, n), so a vector
    and its replication differ by exact zeros.
    """
    x = as_vector(x)
    y = as_vector(y)
    m, n = len(x), len(y)
    if m == n:
        return vnorm(x - y)
    _, i, j, w = bridge_band(m, n)
    d = x[i] - y[j]
    return math.sqrt(float(np.dot(d * d, w)) / (m * n))


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


def project_batch(P, dims_in, dims_out) -> np.ndarray:
    """Addition form of [project(x_k, dims_out[k])] for the components x_k of
    the addition form P with profile dims_in.

    Entry i of output k sums P[off_in[k] + j] * w / m_k over the band
    (k, i, j, w) of bridge_band(dims_out, dims_in), m_k = dims_in[k]; w / m
    is proj_matrix(m, n)[i, j] (n/t times the bridge entry w/gcd), so no
    dense matrix is built and the whole batch is one np.bincount, equal to
    per-component project up to roundoff.  Components whose length does not
    change are copied bit for bit, and an unchanged profile is a plain copy.
    """
    P = as_vector(P, "addition form")
    m = np.asarray(dims_in, dtype=np.int64)
    n = np.asarray(dims_out, dtype=np.int64)
    if m.ndim != 1 or m.shape != n.shape or len(m) < 1:
        raise ShapeError(f"profiles of {m.size} and {n.size} components do not pair up")
    if np.any(m < 1) or np.any(n < 1):
        raise ShapeError("projection dims must be positive")
    if len(P) != m.sum():
        raise ShapeError(
            f"addition form of length {len(P)} does not match dims summing to {m.sum()}"
        )
    same = m == n
    if same.all():
        return P.copy()
    _check_budget(int((m + n).sum()))  # a pair's band has at most m + n entries
    u = np.flatnonzero(~same)
    k, i, j, w = bridge_band(n[u], m[u])
    src = (np.cumsum(m) - m)[u][k] + j
    dst = (np.cumsum(n) - n)[u][k] + i
    out = np.bincount(dst, weights=P[src] * (w / m[u][k]), minlength=int(n.sum()))
    out[np.repeat(same, n)] = P[np.repeat(same, m)]
    return out


def nominal_add(x, y, r: int) -> np.ndarray:
    """Add x and y inside R^r: project(x, r) + project(y, r).

    Agrees with projecting the replicated sum: equals
    project(sta(x, y), r) for every pair of lengths.
    """
    return project(x, r) + project(y, r)
