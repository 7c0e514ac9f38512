"""Dimension-free matrix products and additions.

Ordinary matrix algebra requires inner dimensions to match.  The operators
here are defined by lifting mismatched operands to a common size (the lcm
of the mismatched dimensions) via Kronecker expansion:

    stp(A, B)             expand with identity blocks; grows the result
    dk_stp(A, B)          expand with all-ones blocks; keeps rows(A) x cols(B)
    weighted_dk_stp(A, B) dk_stp with the right expansion averaged, so
                          stochastic structure survives the product
    sta(x, y)             entrywise replication of vectors to the lcm length

All of them reduce to the ordinary product/sum when the shapes already
conform.  ``bridge_matrix(n, p)`` is the fixed middle factor that turns
dk_stp into an ordinary triple product: dk_stp(A, B) == A @ bridge @ B.
It is defined by lcm-sized Kronecker factors, but its entries are interval
overlaps, the band that ``bridge_band`` lists.  Two functions compute it,
chosen by the input.  One pair of scalar lengths, the band of every bridge
and projection matrix and of every one-pair kernel, takes the closed form
of ``_one_pair_band``: a few integer operations per entry.  Arrays of
pairs, the band plans of ``projection``, take the row-level ``_band_rows``:
a few per row, cheaper there because a plan has fewer rows than entries.
Only stp and sta, whose results are lcm-sized by definition, expand to the
lcm, and sta builds only its result.  The bridge factors and
``projection``'s one-pair kernels read one memoised band (``_pair_band``)
that holds the last pair's n + p entries of 24 B at most, bounded by no
budget; ``bridge_band`` is uncached.

Matrices are plain 2-D float ndarrays, vectors 1-D.  Results depend on the
arguments alone; nothing here mutates its inputs.  Lengths are never
truncated: every length profile (the per-component lengths of a ragged
batch) and nominal length passes ``as_lengths``.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import ShapeError, SizeBudgetError

# Intermediate element counts must stay below this; anything bigger is a
# construction error, never a silent wrap.  ``_check_budget`` is the one
# place that compares a count with it.
SIZE_BUDGET = 2**31 - 1

lcm = math.lcm


def _check_budget(*counts, what="intermediate size"):
    """The product of counts; SizeBudgetError naming what (the field, flag or
    intermediate counted) when it exceeds SIZE_BUDGET."""
    total = 1
    for c in counts:
        total *= operator.index(c)  # a Python int: exact, and never truncated
    if total > SIZE_BUDGET:
        raise SizeBudgetError(f"{what} is {total}, over the budget {SIZE_BUDGET}")
    return total


def as_matrix(A, name="matrix", shape=None) -> np.ndarray:
    """A as a 2-D float array with positive dims, and of shape (rows, cols)
    when given, where None is any; ShapeError naming name otherwise."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ShapeError(f"{name} must be 2-D with positive dims, got shape {A.shape}")
    if shape is not None:
        (r, c), (rows, cols) = A.shape, shape
        if (rows is not None and r != rows) or (cols is not None and c != cols):
            raise ShapeError(f"{name} is {r} x {c}, expected {rows or 'any'} x {cols or 'any'}")
    return A


def as_vector(x, name="vector") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ShapeError(f"{name} must be 1-D with positive length, got shape {x.shape}")
    return x


def _length(d) -> int:
    """d by operator.index, which takes True for 1, so a bool raises first."""
    if type(d) is bool:
        raise TypeError("a bool is not a length")
    return operator.index(d)


def as_lengths(dims, name="dims", count=None) -> tuple:
    """The profile dims as a tuple of positive Python ints, each converted by
    operator.index: a non-integer or bool length raises TypeError; an empty
    profile, one of other than count lengths, or a length below 1 raises
    ShapeError."""
    try:
        lengths = tuple(map(_length, dims))
    except TypeError as exc:
        raise TypeError(f"{name} must be integer lengths ({exc})") from None
    if not lengths:
        raise ShapeError(f"{name} must hold at least one length")
    if count is not None and len(lengths) != count:
        raise ShapeError(f"{name} has {len(lengths)} lengths, expected {count}")
    if min(lengths) < 1:
        k = next(k for k, d in enumerate(lengths) if d < 1)
        raise ShapeError(f"{name}: length {k + 1} must be positive, got {lengths[k]}")
    return lengths


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

    Defined as (A kron ones_row(t/n)) @ (B kron ones_col(t/p)) with
    t = lcm(n, p), computed blockwise as A @ bridge_matrix(n, p) @ B, so nothing
    lcm-sized is built; reduces to A @ B when the shapes conform.
    """
    return _bridged_product(A, B, bridge_matrix, "dk_stp")


def _bridged_product(A, B, bridge, name) -> np.ndarray:
    """A @ bridge(n, p) @ B for A m x n, B p x q; A @ B when n == p.  The
    bridge is I_g kron bridge(n/g, p/g), g = gcd(n, p), so A meets only that
    block; the m x p intermediate passes the element budget first."""
    A = as_matrix(A, f"{name} left operand")
    B = as_matrix(B, f"{name} right operand")
    (m, n), p = A.shape, B.shape[0]
    if n == p:
        return A @ B
    _check_budget(m, p)
    g = math.gcd(n, p)
    return (A.reshape(m * g, n // g) @ bridge(n // g, p // g)).reshape(m, p) @ B


def bridge_matrix(n: int, p: int) -> np.ndarray:
    """The n x p middle factor with dk_stp(A, B) == A @ bridge_matrix(n, p) @ B.

    Equals (I_n kron ones_row(t/n)) @ (I_p kron ones_col(t/p)), t = lcm(n, p),
    whose entry (i, j) counts the k < t with k // (t/n) == i and
    k // (t/p) == j: the overlap of [i t/n, (i+1) t/n) and [j t/p, (j+1) t/p).
    Built by scattering bridge_band(n, p) into zeros, without any t-sized
    factor.  Entries are nonnegative integers, bridge(n, n) = I_n.
    """
    return _scatter_bridge(n, p)


def _scatter_bridge(n, p, scale=None):
    """bridge_matrix(n, p) with scale applied to its band values v = w // gcd
    (integer arrays) before they are scattered into n x p zeros.  The scale
    never meets a zero entry, and a positive scale keeps a zero +0.0, so the
    bytes are those of scale applied to the whole matrix.  The memo (_band)
    is read after the checks, so a failing pair is never cached."""
    if n < 1 or p < 1:
        raise ShapeError(f"bridge_matrix dims must be positive, got ({n}, {p})")
    _check_budget(n, p)
    i, j, w = _band(n, p)
    v = w // math.gcd(n, p)
    out = np.zeros((n, p))
    out[i, j] = v if scale is None else scale(v)
    return out


@functools.lru_cache(maxsize=1)
def _pair_band(n, p):
    """Read-only int64 (i, j, w) of bridge_band(n, p), n <= p Python ints
    (_band converts every length), memoised."""
    band = bridge_band(n, p)[1:]
    for arr in band:
        arr.flags.writeable = False
    return band


def _band(n, p):
    """(i, j, w) of bridge_band(n, p) from _pair_band of the unordered pair,
    i and j swapped when n > p: the same bytes, by pair_band's swap rule.
    Every integer length (a numpy integer or a 0-d array too) is keyed as a
    Python int by as_lengths, so the kinds share one entry and a bool raises."""
    if type(n) is not int or type(p) is not int:
        n, p = as_lengths((n, p), "bridge_band lengths")
    i, j, w = _pair_band(min(n, p), max(n, p))
    return (i, j, w) if n <= p else (j, i, w)


def bridge_band(n, p):
    """Nonzeros of bridge_matrix(n[k], p[k]) for every length pair k at once.

    n and p are equal-length integer arrays, or two integers for one pair.
    Returns int64 arrays (k, i, j, w), one entry per nonzero: pair k, row i,
    column j and the overlap w = min((i+1) p, (j+1) n) - max(i p, j n) of
    [i p, (i+1) p) and [j n, (j+1) n), the entry's share of [0, t) in units
    of 1/(n p); that is bridge_matrix(n, p)[i, j] * gcd(n, p).  Row i of a
    pair spans columns i p // n .. ((i+1) p - 1) // n, so pair k has
    n + p - gcd(n, p) entries.  They are listed pair by pair in the order
    they cover [0, n p).

    Two integers take the closed form (_one_pair_band), arrays the row-level
    _band_rows; both give the same bytes.  With g = gcd(n, p),
    a = n/g and b = p/g, the band is g copies of the coprime (a, b) band,
    copy c shifted by (c a, c b) with w times g.  In [0, a b) no multiple of
    b (a row boundary) meets a multiple of a (a column boundary), so row
    boundary k is cut number floor(k (a+b) / a), after k - 1 row and
    floor(k b / a) column boundaries, and entry e, which starts at cut e,
    lies in row i = floor((e+1) a / (a+b)) and column j = e - i.  Every
    intermediate product stays below (n + p)^2, so int64 cannot wrap while
    n + p < 3e9; beyond that the band's three int64 arrays alone would take
    more than 70 GB.  A float or bool length raises TypeError, a length
    below 1 ShapeError.
    """
    n, p = np.asarray(n), np.asarray(p)
    if n.ndim or p.ndim:
        size, i, count, col0, w = _band_rows(n, p)
        k = np.arange(len(size)).repeat(size)
        return k, i.repeat(count), np.arange(len(w)) + col0.repeat(count), w
    n, p = map(int, _int64_lengths(n, p))
    if n < 1 or p < 1:
        raise ShapeError("bridge_band dims must be positive")
    return _one_pair_band(n, p)


def _int64_lengths(n, p):
    """n and p as int64 arrays; TypeError unless both hold integers, and
    ShapeError for a uint64 length of 2**63 or more (numpy reads a Python int
    that large as one), which the cast would wrap negative."""
    kinds = n.dtype.kind, p.dtype.kind
    if kinds[0] not in "iu" or kinds[1] not in "iu":  # never truncate a length
        raise TypeError(f"bridge_band lengths must be integers, got {n.dtype} and {p.dtype}")
    if "u" in kinds and max(n.max(initial=0), p.max(initial=0)) >= 2**63:
        raise ShapeError(f"bridge_band length {max(n.max(initial=0), p.max(initial=0))} is"
                         " too large: lengths must be below 2**63")
    return n.astype(np.int64, copy=False), p.astype(np.int64, copy=False)


def _one_pair_band(n, p):
    """bridge_band of the one pair of positive ints n and p, in closed form:
    a few integer operations per entry (bridge_band derives the formula),
    in place where a temporary can take the result."""
    g = math.gcd(n, p)
    a, b = n // g, p // g
    e = np.arange(n + p - g)
    if g > 1:
        c, e = np.divmod(e, a + b - 1)  # copy c, entry e of the coprime band
    i = e + 1
    i *= a
    i //= a + b
    j = e - i
    ib, ja = i * b, j * a
    w = np.minimum(ib + b, ja + a)
    w -= np.maximum(ib, ja, out=ib)
    if g > 1:
        i += c * a
        j += c * b
        w *= g
    return np.zeros(len(w), np.int64), i, j, w


def _band_rows(n, p):
    """bridge_band(n, p) row by row: int64 arrays (size, i, count, col0, w).

    Pair k has size[k] entries in n[k] rows; row i holds count entries, entry
    e of the band lies in column e + col0 of its row, and w is every entry's
    overlap.  One divmod gives i p = lo n + r: row i starts r into column lo
    and ends where row i + 1 starts, at (lo', r') (a pair's last row at (p, 0)):
    its last column is lo' - 1 with overlap n when r' is 0, else lo' with r'.
    Its first overlap is n - r, or p in one column; the columns between take n.
    Array methods and per-pair repeats keep numpy's fixed costs per call down."""
    n, p = _int64_lengths(np.atleast_1d(n), np.atleast_1d(p))
    if n.shape != p.shape or n.ndim != 1:
        raise ShapeError(f"bridge_band needs two equal-length 1-D arrays, got {n.shape}, {p.shape}")
    if min(n.min(initial=1), p.min(initial=1)) < 1:
        raise ShapeError("bridge_band dims must be positive")
    size = n + p - np.gcd(n, p)
    ends = n.cumsum()
    i = np.arange(n.sum()) - (ends - n).repeat(n)
    rn, rp = n.repeat(n), p.repeat(n)
    lo, r = np.divmod(i * rp, rn)  # row i starts at i p = lo n + r
    lo_end, r_end = np.empty_like(lo), np.empty_like(r)  # and ends where row i + 1 starts
    lo_end[:-1], r_end[:-1] = lo[1:], r[1:]
    lo_end[ends - 1], r_end[ends - 1] = p, 0
    whole = r_end == 0  # the row ends on a column boundary
    count = lo_end - lo + ~whole
    first = count.cumsum() - count
    w = n.repeat(size)
    w[first + count - 1] = np.where(whole, rn, r_end)
    w[first] = np.minimum(rn - r, rp)  # after the last: a one-column row overlaps p
    return size, i, count, lo - first, w


def weighted_bridge_matrix(n: int, p: int) -> np.ndarray:
    """bridge_matrix(n, p) scaled by p/t; columns of the result sum to 1."""
    return _scatter_bridge(n, p, lambda v: v / (n // math.gcd(n, p)))


def weighted_dk_stp(A, B) -> np.ndarray:
    """dk_stp with the right-hand ones expansion replaced by its average.

    Computed as A @ weighted_bridge_matrix(n, p) @ B; maps a pair of
    stochastic operands (columnwise nonnegative, unit column sums) to a
    stochastic result.  Conforming shapes reduce to A @ B.
    """
    return _bridged_product(A, B, weighted_bridge_matrix, "weighted_dk_stp")


def sta(x, y, sign: int = 1) -> np.ndarray:
    """Semi-tensor addition (sign=+1) or subtraction (sign=-1) of vectors.

    Each entry of x is replicated t/len(x) times (likewise y) so both live
    in R^t, t = lcm of the lengths; the replicated vectors are then added or
    subtracted entrywise.  Commutative and associative for sign=+1.  Only
    the first replication is built: y is added or subtracted in place through
    its (n, t/n) view, broadcast along the rows, so entry k meets y[k // (t/n)]
    as in repeat(y).  In IEEE arithmetic a - b equals a + (-b), so for non-NaN
    input the bytes are those of repeat(x) + sign * repeat(y).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    x = as_vector(x, "sta left operand")
    y = as_vector(y, "sta right operand")
    m, n = x.shape[0], y.shape[0]
    t = lcm(m, n)
    _check_budget(t)
    out = np.repeat(x, t // m)
    rows = out.reshape(n, t // n)
    (np.add if sign == 1 else np.subtract)(rows, y[:, None], out=rows)
    return out


# --- exact-arithmetic twins -------------------------------------------------
#
# The bridge and projection matrices have rational entries by construction;
# golden-value tests compare them with zero tolerance.  These variants hold
# the same matrices as Fraction entries (object-dtype arrays).

_to_fraction = np.frompyfunc(Fraction, 1, 1)


def bridge_matrix_exact(n: int, p: int) -> np.ndarray:
    """bridge_matrix with Fraction entries (exact integer counts)."""
    return _to_fraction(bridge_matrix(n, p))
