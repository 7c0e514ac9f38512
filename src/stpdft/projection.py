"""Cross-dimensional inner-product space over vectors of any length.

Two vectors of lengths m and n are compared by replicating each up to the
common length t = lcm(m, n) and averaging the ordinary inner product:

    vinner(x, y) = <repeat(x, t/m), repeat(y, t/n)> / t

This makes a vector and its k-fold entrywise replication equivalent
(distance zero) and gives every space R^n a compatible norm.  Under that
geometry the closest point in R^n to a given x in R^m is a linear map of x,

    project(x, n) = proj_matrix(m, n) @ x,

whose rows are convex averages of source coordinates (each row sums to 1).
Nothing is replicated to length t: the replicated vectors are constant on
the pieces of [0, t) where one entry of x meets one entry of y, the
nonzeros of ``algebra.bridge_band(m, n)``, and everything here sums over them.
The one-pair kernels (vinner, vdist, proj_matrix, project) read that band
from ``algebra._band``, memoised for the last pair.

This module owns the band plans: ``pair_band`` lays out the bands of many
component pairs as int32 indices, and the resample plan (``_resample_band``)
and the Gram plan (``_gram_layout``, ``_gram_plan``) are cached read-only per
pair of profiles, since every stage of a forward pass resamples and scores
the same profiles.  A band depends on its two lengths alone, and a ragged
batch draws its lengths from a bounded range, so its length pairs recur
from batch to batch even when its profile does not: ``pair_band`` reads
every band from one process-wide store keyed by unordered length pair,
which holds each pair once, up to ``_STORE_CAP`` band entries (about 4 MiB)
before it starts over, and builds only the pairs it lacks.
"""

from __future__ import annotations

import collections
import functools
import math
import threading
from fractions import Fraction

import numpy as np

from .algebra import (_band, _band_rows, _check_budget, _int64_lengths, _scatter_bridge,
                      as_lengths, as_vector, bridge_matrix_exact, lcm)
from .errors import ShapeError


def vinner(x, y) -> float:
    """Replication-averaged inner product of vectors of any lengths.

    Equal lengths give x @ y / m; otherwise the sum of x_i y_j w over the
    memoised band (i, j, w) of bridge_band(m, n) (algebra._band), over m n;
    no budget is checked, and the band stays held until another pair's call.
    """
    x = as_vector(x)
    y = as_vector(y)
    m, n = len(x), len(y)
    if m == n:
        return float(x @ y) / m
    i, j, w = _band(m, n)
    return float(np.dot(x[i] * y[j], w)) / (m * n)


def vnorm(x) -> float:
    """sqrt(vinner(x, x)); the all-ones vector has norm 1 at every length."""
    return math.sqrt(max(vinner(x, x), 0.0))


def vdist(x, y) -> float:
    """Norm of the replicated difference; zero iff x and y replicate equally.

    Unequal lengths sum (x_i - y_j)^2 w over the memoised bridge_band(m, n)
    (held as in vinner): a vector and its replication differ by exact zeros.
    """
    x = as_vector(x)
    y = as_vector(y)
    m, n = len(x), len(y)
    if m == n:
        return vnorm(x - y)
    i, j, w = _band(m, n)
    d = x[i] - y[j]
    return math.sqrt(float(np.dot(d * d, w)) / (m * n))


def proj_matrix(m: int, n: int) -> np.ndarray:
    """n x m matrix of the least-distance map R^m -> R^n.

    Equals (n/t) (I_n kron ones_row(t/n)) (I_m kron ones_col(t/m)), t = lcm(m, n),
    i.e. (n/t) bridge_matrix(n, m).  proj_matrix(n, n) is the identity;
    target n = 1 yields the row of means; source m = 1 replicates the scalar.
    """
    if m < 1 or n < 1:
        raise ShapeError(f"proj_matrix dims must be positive, got ({m}, {n})")
    return _scatter_bridge(n, m, lambda v: v * (n / lcm(m, n)))


def proj_matrix_exact(m: int, n: int) -> np.ndarray:
    """proj_matrix over Fraction entries; used by zero-tolerance golden tests."""
    return Fraction(n, lcm(m, n)) * bridge_matrix_exact(n, m)


def project(x, n: int) -> np.ndarray:
    """Closest vector in R^n to x under vdist: proj_matrix(len(x), n) @ x,
    with no dense matrix.  Equal lengths copy x; otherwise entry j sums
    x[i] * w / m over the memoised band (i, j, w) of bridge_band(m, n)
    (algebra._band, read after the budget check): the band, order and
    coefficients of project_batch of the one component, so the same bytes."""
    x = as_vector(x)
    (n,), m = as_lengths((n,), "output profile"), len(x)
    if m == n:
        return x.copy()
    _check_budget(m + n)  # the band has at most m + n entries
    i, j, w = _band(m, n)
    return np.bincount(j, weights=x.take(i) * (w / m), minlength=n)


def project_batch(P, dims_in, dims_out) -> np.ndarray:
    """Addition form of [project(x_k, dims_out[k])] for the components x_k of
    the addition form P with profile dims_in, with no dense matrix: entry i
    of output k sums P[off_in[k] + j] * w / m_k over the band (k, i, j, w) of
    bridge_band(dims_out, dims_in), m_k = dims_in[k], since w / m is
    proj_matrix(m, n)[i, j].  Components whose length does not change are
    copied bit for bit, and an unchanged profile is a plain copy.
    """
    P = as_vector(P, "addition form")
    m = as_lengths(dims_in, "input profile")
    n = as_lengths(dims_out, "output profile", count=len(m))
    if len(P) != sum(m):
        raise ShapeError(
            f"addition form of length {len(P)} does not match dims summing to {sum(m)}"
        )
    return P.copy() if m == n else _resample(P, m, n)


def pair_band(dims_x, dims_y, rows, cols):
    """Read-only (idx_x, idx_y, pair, w) of the bridge bands of the component
    pairs (rows[e], cols[e]) of two profiles: entry (k, i, j, w) of
    bridge_band(dims_x[rows], dims_y[cols]) gives pair = k, the overlap w and
    the indices idx_x = off_x[rows[k]] + i and idx_y = off_y[cols[k]] + j
    into addition forms of the two profiles, as int32: callers keep the
    addition forms below the element budget.

    Swap rule: pair_band(dims_y, dims_x, cols, rows) is (idx_y, idx_x, pair,
    w) bit for bit, because bridge_band(p, n) lists the entries of
    bridge_band(n, p) with i and j swapped, in the same order (both list the
    pieces of [0, n p) from left to right).  So a sum over the band of pair
    (b, a), computed from the band of (a, b) with the operands swapped, adds
    the same products in the same order and has the same bits.

    The bands come from one process-wide store of bands keyed by unordered
    length pair (n, p), n <= p, as n << 32 | p: both lengths are below 2**31,
    since an addition form passes the element budget.  A call finds all its
    pairs with one searchsorted, builds the pairs the store lacks with one
    _band_rows call, reads a pair with n > p as (j, i) by the swap rule, and
    gathers each array of its result from the store, so the pairs a fresh
    profile shares with earlier ones cost no build.  The store holds at most
    _STORE_CAP band entries; pair_band.cache_info() counts the listed pairs
    found (hits) and built (misses) and the entries held (currsize), and
    pair_band.cache_clear() empties the store.
    """
    dx, dy = _int64_lengths(np.asarray(dims_x), np.asarray(dims_y))
    n, p = dx[rows], dy[cols]
    swap, keys = n > p, np.minimum(n, p) << 32 | np.maximum(n, p)
    with _store_lock:
        (_, start, size, ij, w_all, _), at = _stored_bands(keys)
        size = size.take(at)
        take = (start.take(at) + size - size.cumsum()).repeat(size)
        take += np.arange(len(take))  # entry e of pair k is entry start[k] + e of the store
        w = w_all.take(take)
        flat, cap = ij.ravel(), len(w_all)  # flat[cap:] holds the columns j
        take += (cap * swap).repeat(size)
        idx_x = flat.take(take)
        take += (cap - 2 * cap * swap).repeat(size)
        idx_y = flat.take(take)
    idx_x += (dx.cumsum() - dx).astype(np.int32)[rows].repeat(size)
    idx_y += (dy.cumsum() - dy).astype(np.int32)[cols].repeat(size)
    band = idx_x, idx_y, np.arange(len(size), dtype=np.int32).repeat(size), w
    for arr in band:
        arr.flags.writeable = False
    return band


# pair_band's store holds at most this many band entries, 16 B each (int32 i
# and j, int64 w): about 4 MiB of arrays, allocated once and uninitialised,
# so a page takes memory only once an entry on it is written, and the store
# never copies itself to grow.  ragged_coprime's 1,035 length pairs take
# 76,540 entries.
_STORE_CAP = 1 << 18

# The keys, starts and sizes of a store that holds no pair: one sentinel key
# above every key of lengths below 2**31, so searchsorted stays in bounds.
_NO_PAIRS = (np.array([np.iinfo(np.int64).max]), np.zeros(1, np.int64), np.zeros(1, np.int64))


def _clear_store():
    """Empty the store: (keys, start, size, ij, w, used), the sorted keys of
    its pairs and each pair's first entry and entry count in ij (rows i, then
    columns j, int32) and w (int64), of _STORE_CAP entries, whose first used
    entries are written."""
    global _store
    with _store_lock:
        _store = (*_NO_PAIRS, np.empty((2, _STORE_CAP), np.int32),
                  np.empty(_STORE_CAP, np.int64), 0)
        _store_counts[:] = 0, 0


# pair_band reads and writes the store under the lock, since a store that
# starts over rewrites its arrays from the start.
_store_counts = [0, 0]  # hits, misses, in listed pairs
_store_lock = threading.Lock()
_clear_store()


def _stored_bands(keys):
    """(store, at): a store that holds the band of every pair in keys
    (n << 32 | p, n <= p) at store[0][at], counting the hits and misses."""
    store = _store
    at = store[0].searchsorted(keys)
    missing = store[0].take(at) != keys
    misses = int(np.count_nonzero(missing))
    _store_counts[0] += len(keys) - misses
    _store_counts[1] += misses
    if misses:
        store = _add_bands(keys, missing)
        at = store[0].searchsorted(keys)
    return store, at


def _add_bands(keys, missing):
    """The store with the pairs keys[missing] written after its used entries,
    published.  A store they would overflow starts over with the pairs of
    keys; if those overflow it too, the store is not changed and the call is
    served from arrays of its own."""
    global _store
    old_keys, start, size, ij, w, used = _store
    new = _distinct(keys[missing])
    n, p = new >> 32, new & 0xFFFFFFFF
    extra = int((n + p - np.gcd(n, p)).sum())
    if used + extra > len(w):
        (old_keys, start, size), used = _NO_PAIRS, 0
        new = _distinct(keys)
        n, p = new >> 32, new & 0xFFFFFFFF
        extra = int((n + p - np.gcd(n, p)).sum())
    kept = extra <= len(w)
    if not kept:
        ij, w = np.empty((2, extra), np.int32), np.empty(extra, np.int64)
    end = used + extra
    new_size, i, count, col0, w[used:end] = _band_rows(n, p)
    ij[0, used:end] = i.astype(np.int32).repeat(count)
    ij[1, used:end] = col0.astype(np.int32).repeat(count)  # col0 + e is column j of entry e
    ij[1, used:end] += np.arange(extra, dtype=np.int32)
    all_keys = np.concatenate((old_keys, new))
    order = all_keys.argsort(kind="stable")
    store = (all_keys[order], np.concatenate((start, used + new_size.cumsum() - new_size))[order],
             np.concatenate((size, new_size))[order], ij, w, end)
    if kept:
        _store = store
    return store


def _distinct(keys):
    """The distinct values of keys, sorted: np.unique's first call imports
    numpy.ma (about 1.7 MiB)."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


_StoreInfo = collections.namedtuple("StoreInfo", "hits misses maxsize currsize")
pair_band.cache_clear = _clear_store
pair_band.cache_info = lambda: _StoreInfo(*_store_counts, len(_store[4]), _store[5])


@functools.lru_cache(maxsize=2)
def _resample_band(dims_a: tuple, dims_b: tuple):
    """Read-only (idx_a, idx_b, coef_ab, coef_ba, keep_a, keep_b) of the
    resamples both ways between two profiles, dims_a < dims_b (the swap
    rule), over the pair_band of the components k whose length differs: a to
    b adds coef_ab[e] = w / a_k times entry idx_a[e] to entry idx_b[e], and b
    to a adds coef_ba[e] = w / b_k times entry idx_b[e] to entry idx_a[e];
    keep_a and keep_b mask the components of equal length.  The band size
    passes the budget first, so a profile that raises is never cached.
    """
    a, b = np.array(dims_a), np.array(dims_b)
    _check_budget((a + b).sum())  # a pair's band has at most a + b entries
    same = a == b
    u = np.flatnonzero(~same)
    idx_a, idx_b, pair, w = pair_band(dims_a, dims_b, u, u)
    band = (idx_a, idx_b, w / a[u].take(pair), w / b[u].take(pair), same.repeat(a), same.repeat(b))
    for arr in band:
        arr.flags.writeable = False
    return band


def _resample(P, dims_in, dims_out) -> np.ndarray:
    """project_batch(P, dims_in, dims_out) without its checks, for a float64
    P and profiles from as_lengths, except that an unchanged profile returns
    P itself: the identity resample proj_matrix(n, n) = I of the fixed-length
    path costs no copy.  The result may be P, so callers only read it."""
    if dims_in == dims_out:
        return P
    if dims_in < dims_out:
        src, dst, coef, _, keep_in, keep_out = _resample_band(dims_in, dims_out)
    else:
        dst, src, _, coef, keep_out, keep_in = _resample_band(dims_out, dims_in)
    out = np.bincount(dst, weights=P.take(src) * coef, minlength=len(keep_out))
    out[keep_out] = P[keep_in]
    return out


# A Gram plan lists one entry per band entry of every listed pair, in runs of
# whole pairs of at most this many entries (a longer pair forms a run of its
# own).  Only the last run applied is kept, so the band's working set stays
# near 10 MiB however many long pairs there are.
_BAND_CHUNK = 1 << 16


@functools.lru_cache(maxsize=1)
def _gram_layout(dims_x: tuple, dims_y: tuple):
    """(rows, cols, lcm, runs) of two profiles, memoised, arrays read-only:
    the pairs a Gram plan lists, row-major (for equal profiles only a <= b,
    by pair_band's swap rule), np.lcm.outer(dims_x, dims_y), and the
    listed-pair ranges [lo, hi) of the runs, from the band sizes
    n + p - gcd(n, p) of the listed pairs."""
    x, y = np.array(dims_x), np.array(dims_y)
    rows, cols = np.divmod(np.arange(len(x) * len(y)), len(y))
    if dims_x == dims_y:
        upper = rows <= cols
        rows, cols = rows[upper], cols[upper]
    lcm = np.lcm.outer(x, y)
    for a in (rows, cols, lcm):
        a.flags.writeable = False
    n, p = x[rows], y[cols]
    ends = np.cumsum(n + p - np.gcd(n, p))
    runs, lo = [], 0
    while lo < len(ends):
        start = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, start + _BAND_CHUNK, "right")), lo + 1)
        runs.append((lo, hi))
        lo = hi
    return rows, cols, lcm, tuple(runs)


@functools.lru_cache(maxsize=1)
def _gram_plan(dims_x: tuple, dims_y: tuple, lo: int, hi: int):
    """Read-only (src_x, src_y, pair, coef) of the listed pairs [lo, hi) of
    two profiles (_gram_layout), memoised: band entry e of their pair_band adds
    P[src_x[e]] * Q[src_y[e]] * coef[e] to the Gram entry of pair[e] before
    the division by the lcm; coef = w / gcd(m, n) is the integer bridge entry."""
    rows, cols = (a[lo:hi] for a in _gram_layout(dims_x, dims_y)[:2])
    src_x, src_y, pair, w = pair_band(dims_x, dims_y, rows, cols)
    g = np.gcd(np.asarray(dims_x)[rows], np.asarray(dims_y)[cols])
    coef = w / g.take(pair)  # exact: g divides w, and both are below 2**53
    coef.flags.writeable = False
    return src_x, src_y, pair, coef


def nominal_add(x, y, r: int) -> np.ndarray:
    """Add x and y inside R^r: project(x, r) + project(y, r).

    Agrees with projecting the replicated sum: equals
    project(sta(x, y), r) for every pair of lengths.
    """
    return project(x, r) + project(y, r)
