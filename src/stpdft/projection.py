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
component of an addition form at once over the same band, and ``project``
is its one-component case.

A forward pass resamples the same profiles at every stage, so the index
plan of a resample depends only on the (input, output) profile pair and is
built once per pair: a bounded least-recently-used cache of a few plans,
keyed by the two profiles, holds read-only arrays (int32 indices, float64
coefficients) that every call only reads.  A plan and its reverse, such as
the pad to a nominal length and the unpad back, list the same band with
rows and columns swapped, so both are read from one band, kept in a
two-entry cache keyed by the profile pair in sorted order.  A profile whose
band exceeds the element budget raises before anything is cached.
``nominal_add`` adds two vectors of any lengths inside a chosen R^r by
projecting both there first.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .algebra import _check_budget, as_vector, bridge_band, bridge_matrix, bridge_matrix_exact, lcm
from .errors import ShapeError


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
    """Closest vector in R^n to x under vdist: proj_matrix(len(x), n) @ x,
    computed as project_batch of the one component, so no dense matrix is built."""
    x = as_vector(x)
    return project_batch(x, (len(x),), (n,))


def project_batch(P, dims_in, dims_out) -> np.ndarray:
    """Addition form of [project(x_k, dims_out[k])] for the components x_k of
    the addition form P with profile dims_in.

    Entry i of output k sums P[off_in[k] + j] * w / m_k over the band
    (k, i, j, w) of bridge_band(dims_out, dims_in), m_k = dims_in[k]; w / m
    is proj_matrix(m, n)[i, j] (n/t times the bridge entry w/gcd), so no
    dense matrix is built and the whole batch is one np.bincount, equal to
    proj_matrix(m, n) @ x_k up to roundoff.  Components whose length does not
    change are copied bit for bit, and an unchanged profile is a plain copy.
    The gather and scatter indices come from _resample_plan, built once per
    profile pair.
    """
    P = as_vector(P, "addition form")
    m = np.asarray(dims_in)
    n = np.asarray(dims_out)
    if m.ndim != 1 or m.shape != n.shape or len(m) < 1:
        raise ShapeError(f"profiles of {m.size} and {n.size} components do not pair up")
    if m.dtype.kind not in "iu" or n.dtype.kind not in "iu":  # never truncate a length
        raise TypeError(f"projection dims must be integers, got {m.dtype} and {n.dtype}")
    m, n = tuple(m.tolist()), tuple(n.tolist())
    if min(m) < 1 or min(n) < 1:
        raise ShapeError("projection dims must be positive")
    if len(P) != sum(m):
        raise ShapeError(
            f"addition form of length {len(P)} does not match dims summing to {sum(m)}"
        )
    if m == n:
        return P.copy()
    src, dst, coef, keep_in, keep_out = _resample_plan(m, n)
    out = np.bincount(dst, weights=P[src] * coef, minlength=len(keep_out))
    out[keep_out] = P[keep_in]
    return out


@functools.lru_cache(maxsize=4)
def _resample_plan(dims_in: tuple, dims_out: tuple):
    """Read-only (src, dst, coef, keep_in, keep_out) of project_batch for
    one pair of profiles: band entry e adds P[src[e]] * coef[e] to output
    entry dst[e] of every component whose length changes, and the masks
    pick the components copied unchanged.  All five are arrays of
    _resample_band, which the reverse plan shares.
    """
    if dims_in <= dims_out:
        src, dst, coef, _, keep_in, keep_out = _resample_band(dims_in, dims_out)
    else:
        dst, src, _, coef, keep_out, keep_in = _resample_band(dims_out, dims_in)
    return src, dst, coef, keep_in, keep_out


@functools.lru_cache(maxsize=2)
def _resample_band(dims_a: tuple, dims_b: tuple):
    """Read-only (idx_a, idx_b, coef_ab, coef_ba, keep_a, keep_b) of the band
    between two profiles, over the components k whose length differs: entry
    e of bridge_band(b_k, a_k), (k, i, j, w), joins entry j of component k in
    an addition form of profile a (index idx_a[e]) and entry i in one of
    profile b (idx_b[e]).  Resampling a to b adds coef_ab[e] = w / a_k of
    the first to the second, b to a coef_ba[e] = w / b_k of the second to
    the first; keep_a and keep_b mask the components of equal length.
    bridge_band(a_k, b_k) lists the same entries in the same order with i
    and j swapped, so the one band gives both plans bit for bit.  The band
    size passes the budget first, so a profile that raises is never cached;
    indices below the budget fit in int32.
    """
    a, b = np.array(dims_a), np.array(dims_b)
    _check_budget(int((a + b).sum()))  # a pair's band has at most a + b entries
    same = a == b
    u = np.flatnonzero(~same)
    k, i, j, w = bridge_band(b[u], a[u])
    band = (
        ((np.cumsum(a) - a)[u][k] + j).astype(np.int32),
        ((np.cumsum(b) - b)[u][k] + i).astype(np.int32),
        w / a[u][k],
        w / b[u][k],
        np.repeat(same, a),
        np.repeat(same, b),
    )
    for arr in band:
        arr.flags.writeable = False
    return band


def nominal_add(x, y, r: int) -> np.ndarray:
    """Add x and y inside R^r: project(x, r) + project(y, r).

    Agrees with projecting the replicated sum: equals
    project(sta(x, y), r) for every pair of lengths.
    """
    return project(x, r) + project(y, r)
