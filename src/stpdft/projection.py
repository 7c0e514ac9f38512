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
from ``algebra._band``, whose memo holds the bands of many pairs, least
recently used evicted first, apart from ``pair_band``'s store.

This module owns a length profile's arrays and the band plans.  ``_profile``
is the one record of a profile's lengths, offsets and shared length, which
every stage reads.  ``pair_band`` lays out the bands of many component pairs
from one process-wide store (its docstring states the store's design), and
the resample plan (``_resample_band``) and the Gram plan (``_gram_plan``,
applied by ``_gram``) are cached read-only per pair of profiles, since every
stage of a forward pass resamples and scores the same profiles.
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
    no budget is checked, and the band stays held until the memo evicts it
    (algebra._pair_band).
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
    (algebra._band, read after the budget check, so a failing pair is never
    held): the band, order and coefficients of project_batch of the one
    component, so the same bytes."""
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
    """Read-only (idx_x, idx_y, pair, v) of the bridge bands of the component
    pairs (rows[e], cols[e]) of two profiles: entry (k, i, j, w) of
    bridge_band(n, p), n = dims_x[rows[k]] and p = dims_y[cols[k]], gives
    pair = k, the indices idx_x = off_x[rows[k]] + i and idx_y =
    off_y[cols[k]] + j into addition forms of the two profiles, as int32
    (callers keep the addition forms below the element budget), and the
    integer bridge entry v = w // gcd(n, p) = bridge_matrix(n, p)[i, j] as
    float64, exact since w is below 2**53.

    Swap rule: pair_band(dims_y, dims_x, cols, rows) is (idx_y, idx_x, pair,
    v) bit for bit, because bridge_band(p, n) lists the entries of
    bridge_band(n, p) with i and j swapped, in the same order (both list the
    pieces of [0, n p) from left to right).  So a sum over the band of pair
    (b, a), computed from the band of (a, b) with the operands swapped, adds
    the same products in the same order and has the same bits.

    The store: a band depends on its two lengths alone, and a ragged batch
    draws its lengths from a bounded range, so its length pairs recur even
    when its profile does not.  So every band is read from one process-wide
    store keyed by unordered length pair (n, p), n <= p, as n << 32 | p (an
    addition form passes the element budget, so both are below 2**31),
    which holds each pair once, with v ready for the plans.  A call finds
    its pairs with one searchsorted, builds those the store lacks with one
    _band_rows call, gathers i, j and v with one take each and reads a pair
    with n > p as (j, i) by the swap rule, so a fresh profile's plans cost
    about one gather per array.  The store holds at most _STORE_CAP entries
    of 16 B (int32 i and j, float64 v), about 4 MiB allocated once and
    uninitialised, so it never copies itself to grow and a page takes memory
    once written; ragged_coprime's 1,035 length pairs take 76,540 entries.
    A call whose new pairs would overflow it starts it over with the call's
    pairs.  pair_band.cache_info() counts the listed pairs found (hits) and
    built (misses), the entries held (currsize) and the start-overs
    (restarts); pair_band.cache_clear() empties the store.
    """
    dx, dy = _int64_lengths(np.asarray(dims_x), np.asarray(dims_y))
    return _read_bands(_Profile(dx, _offsets(dx), None), _Profile(dy, _offsets(dy), None),
                       rows, cols)


def _read_bands(x, y, rows, cols):
    """pair_band of two profiles given as _Profile records (lengths and
    offsets are read)."""
    n, p = x.lengths[rows], y.lengths[cols]
    swap, keys = n > p, np.minimum(n, p) << 32 | np.maximum(n, p)
    with _store_lock:
        store = _store
        at = store[0].searchsorted(keys)
        misses = int(np.count_nonzero(store[0].take(at) != keys))
        _store_counts[0] += len(keys) - misses
        _store_counts[1] += misses
        if misses:
            store = _add_bands(keys)
            at = store[0].searchsorted(keys)
        _, end, size, ij, v_all, _ = store
        size = size.take(at)
        # Listed pair k's entries end at size.cumsum()[k] in the result and
        # at end[k] in the store, so result entry e is store entry
        # e + end[k] - size.cumsum()[k].
        take = (end.take(at) - size.cumsum()).repeat(size)
        take += np.arange(len(take))
        v = v_all.take(take)
        i, j = ij[0].take(take), ij[1].take(take)
    if swap.any():
        swapped = swap.repeat(size)
        i, j = np.where(swapped, j, i), np.where(swapped, i, j)
    i += x.offsets[rows].repeat(size)
    j += y.offsets[cols].repeat(size)
    band = i, j, np.arange(len(size), dtype=np.int32).repeat(size), v
    for arr in band:
        arr.flags.writeable = False
    return band


def _offsets(dims):
    """The int32 offsets of the components of int64 lengths dims in an
    addition form."""
    return (dims.cumsum() - dims).astype(np.int32)


_Profile = collections.namedtuple("Profile", "lengths offsets shared")


@functools.lru_cache(maxsize=4)
def _profile(dims: tuple) -> _Profile:
    """The _Profile record of a profile from as_lengths, memoised: read-only
    int64 lengths and int32 offsets in the addition form, and the length
    every component has, or None.  A pass reads at most three profiles
    (ragged_coprime 2, homogeneous 1, cli_small 3), so four hold a pass's
    profiles and the next pass's fresh one."""
    lengths = np.array(dims, np.int64)
    offsets = _offsets(lengths)
    lengths.flags.writeable = offsets.flags.writeable = False
    return _Profile(lengths, offsets, dims[0] if dims == (dims[0],) * len(dims) else None)


# pair_band's store holds at most this many band entries (see pair_band).
_STORE_CAP = 1 << 18

# The keys, ends and sizes of a store that holds no pair: one sentinel key
# above every key of lengths below 2**31, so searchsorted stays in bounds.
_NO_PAIRS = (np.array([np.iinfo(np.int64).max]), np.zeros(1, np.int64), np.zeros(1, np.int64))


def _clear_store():
    """Empty the store: (keys, end, size, ij, v, used), the sorted keys of
    its pairs, and where each pair's entries end and how many there are in
    ij (int32 rows i and j) and v (float64), of _STORE_CAP entries, whose
    first used entries are written."""
    global _store
    with _store_lock:
        _store = (*_NO_PAIRS, np.empty((2, _STORE_CAP), np.int32), np.empty(_STORE_CAP), 0)
        _store_counts[:] = 0, 0, 0


# pair_band reads and writes the store under the lock, since a store that
# starts over rewrites its arrays from the start.
_store_counts = [0, 0, 0]  # hits and misses, in listed pairs, and restarts
_store_lock = threading.Lock()
_clear_store()


def _add_bands(keys):
    """The store with the pairs of keys (n << 32 | p, n <= p) that it lacks
    written after its used entries, published.  A store they would overflow
    starts over with all the pairs of keys; if those overflow it too, the
    store is not changed and the call is served from arrays of its own.
    v = w // gcd(n, p) is exact."""
    global _store
    old_keys, end, size, ij, v, used = _store
    new = _distinct(keys)
    n, p = new >> 32, new & 0xFFFFFFFF
    g = np.gcd(n, p)
    new_size = n + p - g
    lacked = old_keys.take(old_keys.searchsorted(new)) != new
    restart = used + int(new_size[lacked].sum()) > len(v)
    if restart:
        (old_keys, end, size), used = _NO_PAIRS, 0
    else:
        new, n, p, g, new_size = (a[lacked] for a in (new, n, p, g, new_size))
    extra = int(new_size.sum())
    kept = extra <= len(v)
    if not kept:
        ij, v = np.empty((2, extra), np.int32), np.empty(extra)
    top = used + extra
    _, i, count, col0, w = _band_rows(n, p)
    ij[0, used:top] = i.astype(np.int32).repeat(count)
    ij[1, used:top] = col0.astype(np.int32).repeat(count)  # col0 + e is column j of entry e
    ij[1, used:top] += np.arange(extra, dtype=np.int32)
    w //= g.repeat(new_size)
    v[used:top] = w
    all_keys = np.concatenate((old_keys, new))
    order = all_keys.argsort(kind="stable")
    store = (all_keys[order], np.concatenate((end, used + new_size.cumsum()))[order],
             np.concatenate((size, new_size))[order], ij, v, top)
    if kept:
        _store = store
        _store_counts[2] += restart
    return store


def _distinct(keys):
    """The distinct values of keys, sorted: np.unique's first call imports
    numpy.ma (about 1.7 MiB)."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


_StoreInfo = collections.namedtuple("StoreInfo", "hits misses maxsize currsize restarts")
pair_band.cache_clear = _clear_store
pair_band.cache_info = lambda: _StoreInfo(*_store_counts[:2], len(_store[4]), _store[5],
                                          _store_counts[2])


@functools.lru_cache(maxsize=2)
def _resample_band(dims_a: tuple, dims_b: tuple):
    """Read-only (idx_a, idx_b, coef_ab, coef_ba, keep_a, keep_b) of the
    resamples both ways between two profiles, dims_a < dims_b (the swap
    rule), over the pair_band of the components k whose length differs: a to
    b adds coef_ab[e] = w / a_k times entry idx_a[e] to entry idx_b[e], and b
    to a adds coef_ba[e] = w / b_k times entry idx_b[e] to entry idx_a[e];
    keep_a and keep_b mask the components of equal length.  The band holds
    v = w / g, g = gcd(a_k, b_k), so coef_ab is v / (a_k / g): both are exact
    integers below 2**53, one correctly rounded division of the rational
    w / a_k, so the bits of w / a_k (and likewise for b).  The band size
    passes the budget first, so a profile that raises is never cached.
    """
    _check_budget(sum(dims_a) + sum(dims_b))  # a pair's band has at most a + b entries
    profile_a, profile_b = _profile(dims_a), _profile(dims_b)
    a, b = profile_a.lengths, profile_b.lengths
    same = a == b
    u = (~same).nonzero()[0]
    idx_a, idx_b, _, v = _read_bands(profile_a, profile_b, u, u)
    a_u, b_u = a[u], b[u]
    g = np.gcd(a_u, b_u)
    size = a_u + b_u - g  # the entries of each pair
    band = (idx_a, idx_b, v / (a_u // g).repeat(size), v / (b_u // g).repeat(size),
            same.repeat(a), same.repeat(b))
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
# own).  A plan of one run keeps its band; a longer one reads each run's band
# as it is applied and keeps none, so the band's working set stays near
# 10 MiB however many long pairs there are.
_BAND_CHUNK = 1 << 16


@functools.lru_cache(maxsize=1)
def _gram_plan(dims_x: tuple, dims_y: tuple):
    """(rows, cols, lcm, runs) of the Gram matrix of two profiles, memoised,
    arrays read-only: the pairs the plan lists, np.lcm.outer(dims_x, dims_y)
    and the runs (lo, hi, band) of the listed pairs [lo, hi), cut from the
    band sizes n + p - gcd(n, p) of the listed pairs; one run, with no size
    computed, when the listing fits one at max(dims_x) + max(dims_y) entries
    a pair.  The band of a plan's only run is its pair_band (src_x, src_y,
    pair, coef) as it is, since band entry e adds P[src_x[e]] * Q[src_y[e]] *
    coef[e] to the Gram entry of pair[e] before the division by the lcm,
    coef = v being the integer bridge entry; the runs of a longer plan hold
    None.  Unequal profiles list every pair, row-major.  Equal profiles list
    each unordered pair once, row-major over the components sorted (stably)
    by length, so shorter length first: _gram reads the other orientation by
    pair_band's swap rule, and pair_band reads no pair swapped.  Each Gram
    entry sums its own pair's band, so the listing order moves no bit."""
    x, y = _profile(dims_x), _profile(dims_y)
    if dims_x == dims_y:
        order = x.lengths.argsort(kind="stable")
        rows, cols = (order.take(a) for a in _upper_pairs(len(dims_x)))
    else:
        rows, cols = np.divmod(np.arange(len(dims_x) * len(dims_y)), len(dims_y))
    lcm = np.lcm.outer(x.lengths, y.lengths)
    for arr in (rows, cols, lcm):
        arr.flags.writeable = False
    runs = [(0, len(rows))]
    if len(rows) * (max(dims_x) + max(dims_y)) > _BAND_CHUNK:
        n, p = x.lengths[rows], y.lengths[cols]
        ends = np.cumsum(n + p - np.gcd(n, p))
        runs, lo = [], 0
        while lo < len(ends):
            start = ends[lo - 1] if lo else 0
            hi = max(int(np.searchsorted(ends, start + _BAND_CHUNK, "right")), lo + 1)
            runs.append((lo, hi))
            lo = hi
    band = _read_bands(x, y, rows, cols) if len(runs) == 1 else None
    return rows, cols, lcm, tuple((lo, hi, band) for lo, hi in runs)


@functools.lru_cache(maxsize=1)
def _upper_pairs(s: int):
    """The pairs a <= b of s components, row-major, as two read-only arrays."""
    a, b = np.divmod(np.arange(s * s), s)
    upper = a <= b
    pairs = a[upper], b[upper]
    for arr in pairs:
        arr.flags.writeable = False
    return pairs


def _gram(P, Q, dims_x: tuple, dims_y: tuple) -> np.ndarray:
    """The Gram matrix of vinner between the components of the addition forms
    P and Q of two profiles: per run of their _gram_plan one gather and one
    np.bincount, and for equal profiles one more for the pairs (b, a), then
    the division by the lcm."""
    rows, cols, lcm, runs = _gram_plan(dims_x, dims_y)
    mirrored = dims_x == dims_y
    G = np.empty(lcm.shape)
    # take reads the int32 plan as it is; P[src_x] would convert it to intp.
    for lo, hi, band in runs:
        r, c = rows[lo:hi], cols[lo:hi]
        src_x, src_y, pair, coef = band or _read_bands(_profile(dims_x), _profile(dims_y), r, c)
        # Each product in place, in the order (P * Q) * coef of one expression.
        t = P.take(src_x)
        t *= Q.take(src_y)
        t *= coef
        G[r, c] = np.bincount(pair, t, hi - lo)
        if mirrored:  # pairs (b, a) by pair_band's swap rule
            t = P.take(src_y)
            t *= Q.take(src_x)
            t *= coef
            G[c, r] = np.bincount(pair, t, hi - lo)
    return np.divide(G, lcm, out=G)


def _gram_lcm(dims_x: tuple, dims_y: tuple) -> np.ndarray:
    """The read-only np.lcm.outer(dims_x, dims_y) of the _gram_plan of two
    profiles."""
    return _gram_plan(dims_x, dims_y)[2]


def nominal_add(x, y, r: int) -> np.ndarray:
    """Add x and y inside R^r: project(x, r) + project(y, r).

    Agrees with projecting the replicated sum: equals
    project(sta(x, y), r) for every pair of lengths.
    """
    return project(x, r) + project(y, r)
