"""Hypervectors: ordered batches of vectors with per-component lengths.

A hypervector is the ragged analogue of a matrix of sequence embeddings:
component i lives in R^{n_i} and the n_i need not agree.  Besides the
component list itself there are two flat encodings:

    addition form   concatenation, length sum(n_i)
    product form    iterated Kronecker product, length prod(n_i)

A HyperVector stores its addition form as one read-only buffer, the packed
layout of varlen attention kernels (one flat array plus the lengths), and
its components are views into it, so batch operations work on the buffer.
The public constructor copies and checks its input; a library stage adopts
the fresh buffer it computed, in a checked profile, through the private
``HyperVector._owned``: no copy, only the finiteness check.

The central operator is ``diamond(A, X)``: a p x s matrix A acts linearly
on an s-component hypervector by projecting every component to a common
nominal length, multiplying the resulting ordinary matrix by A, and
projecting each of the p output rows to its own length (for a square A,
its component's original length).  ``_pad`` and ``_unpad`` are those two
steps, for both padding schemes, and the only code that pads or unpads a
batch: diamond, the transformer's Q/K/V pipelines and the CLI's
compare-padding all call them.  A projection step is one
``projection.project_batch`` over the whole buffer, skipped when it is the
identity; a zero step is one scatter or gather through a prefix mask.

``hyper_inner`` scores ragged operands over the bridge bands of all their
length pairs, from a Gram plan cached as the ``projection`` module describes
and applied in runs of at most ``_BAND_CHUNK`` entries: a plan of one run is
kept whole, and of a longer plan only the last run is kept.
``diamond_vectorized`` is diamond with a square matrix written as one
explicit matrix on the addition form, from the block-diagonal pad/unpad maps
of ``DiamondPlan``; it is kept as the independent oracle of the stepwise
path, which never builds those matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import SIZE_BUDGET, _check_budget, as_lengths, as_matrix, as_vector
from .errors import NonFactorizableError, NonFiniteError, ShapeError, SizeBudgetError
from .projection import _resample, pair_band, proj_matrix


class HyperVector:
    """Immutable ordered list of 1-D float arrays, possibly ragged.

    The entries live in one read-only float64 buffer, the addition form,
    with the component lengths in ``dims``; components are read-only views
    into it.  ``HyperVector(components)`` takes a sequence of 1-D arrays and
    ``HyperVector(v, dims)`` the addition form v; either way the input is
    copied once and checked for non-finite entries once (NonFiniteError,
    a ValueError, names the first bad component); library stages adopt
    their fresh buffers through ``_owned`` instead, with no copy.
    """

    __slots__ = ("_buffer", "_dims", "_components")

    def __init__(self, components, dims=None):
        if dims is None:
            comps = [np.asarray(c, dtype=float) for c in components]
            for i, c in enumerate(comps):
                if c.ndim != 1 or len(c) < 1:
                    raise ShapeError(
                        f"component {i + 1} must be a nonempty 1-D vector, got shape {c.shape}"
                    )
            dims = [len(c) for c in comps]
            buf = np.concatenate(comps) if comps else np.empty(0)
        else:
            buf = np.array(components, dtype=float)
        dims = as_lengths(dims, "component lengths")
        if buf.ndim != 1 or len(buf) != sum(dims):
            raise ShapeError(
                f"addition form of shape {buf.shape} cannot split into dims {dims}"
                f" (sum {sum(dims)})"
            )
        self._adopt(buf, dims)

    @classmethod
    def _owned(cls, buf: np.ndarray, dims: tuple) -> "HyperVector":
        """buf, a fresh 1-D float64 buffer no one else holds, in dims, a
        profile as_lengths returned, as a hypervector: no copy, no check but
        _adopt's, so an overflow raises in the stage that computed buf."""
        self = cls.__new__(cls)
        self._adopt(buf, dims)
        return self

    def _adopt(self, buf, dims):
        finite = np.isfinite(buf)
        if not finite.all():
            bad = int(np.searchsorted(np.cumsum(dims), np.argmin(finite), "right"))
            raise NonFiniteError(f"component {bad + 1} contains non-finite entries")
        buf.flags.writeable = False
        self._buffer, self._dims, self._components = buf, dims, None

    @property
    def buffer(self) -> np.ndarray:
        """The read-only addition form itself (to_addition_form copies it)."""
        return self._buffer

    @property
    def components(self):
        if self._components is None:
            self._components = tuple(np.split(self._buffer, np.cumsum(self._dims[:-1])))
        return self._components

    @property
    def dims(self):
        return self._dims

    @property
    def batch_size(self) -> int:
        return len(self._dims)

    def __len__(self):
        return len(self._dims)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __repr__(self):
        return f"HyperVector(dims={self.dims})"

    def is_homogeneous(self) -> bool:
        return len(set(self.dims)) == 1

    def to_matrix(self) -> np.ndarray:
        """Stack components as rows; defined only when all lengths agree."""
        if not self.is_homogeneous():
            raise ShapeError(f"ragged dims {self.dims} do not form a matrix")
        return self._buffer.reshape(len(self._dims), -1).copy()

    @classmethod
    def from_matrix(cls, M) -> "HyperVector":
        M = as_matrix(M)
        return cls(M.reshape(-1), (M.shape[1],) * M.shape[0])

    def to_addition_form(self) -> np.ndarray:
        return self._buffer.copy()

    def to_product_form(self) -> np.ndarray:
        """Iterated Kronecker product of the components (left to right)."""
        size = math.prod(self.dims)
        if size > SIZE_BUDGET:
            raise SizeBudgetError(f"product form size {size} exceeds {SIZE_BUDGET}")
        out = self.components[0]
        for c in self.components[1:]:
            out = np.kron(out, c)
        return out


def factor_product_form(x, dims, rtol: float = 1e-6) -> HyperVector:
    """Recover normalized factors of an exact Kronecker product.

    The flat vector is reshaped to (dims[0], rest); for a genuine product of
    nonnegative unit-sum factors the row sums give factor 1 and the column
    sums give the product of the remaining factors, which is peeled off
    recursively.  Each recovered factor is renormalized to unit sum.  Any
    reshaped slice further than ``rtol`` (relative Frobenius) from rank one
    raises NonFactorizableError.
    """
    x = as_vector(x)
    dims = as_lengths(dims, "factor dims")
    if math.prod(dims) != len(x):
        raise ShapeError(
            f"vector of length {len(x)} cannot factor into dims {dims}"
            f" (product {math.prod(dims)})"
        )
    norm_x = np.linalg.norm(x)
    if norm_x == 0.0:
        raise NonFactorizableError("the zero vector has no normalized factorization")

    factors = []
    rest = x
    for k, n in enumerate(dims[:-1]):
        M = rest.reshape(n, -1)
        f = M.sum(axis=1)
        r = M.sum(axis=0)
        total = M.sum()
        if total <= 0:
            raise NonFactorizableError(
                f"slice {k + 1} has nonpositive mass; factors must be nonnegative"
            )
        residual = np.linalg.norm(M - np.outer(f, r) / total)
        if residual > rtol * max(np.linalg.norm(M), 1e-300):
            raise NonFactorizableError(
                f"slice {k + 1} is not rank-one (relative residual"
                f" {residual / max(np.linalg.norm(M), 1e-300):.3e} > {rtol:.1e})"
            )
        factors.append(f / f.sum())
        rest = r
    s = rest.sum()
    if s <= 0 or np.any(rest < -rtol * abs(s)):
        raise NonFactorizableError("last factor is not nonnegative with positive sum")
    factors.append(rest / s)
    return HyperVector(factors)


def hyper_add_listwise(X: HyperVector, Y: HyperVector, r) -> HyperVector:
    """Componentwise nominal addition with a per-component target length r_i:
    component i is nominal_add(X[i], Y[i], r[i]), computed for the whole
    batch as project_batch of X plus project_batch of Y."""
    r = as_lengths(r, "target lengths")
    if not (X.batch_size == Y.batch_size == len(r)):
        raise ShapeError(
            f"batch sizes and target list must agree: {X.batch_size} components,"
            f" {Y.batch_size} components, {len(r)} targets"
        )
    return HyperVector._owned(_resample(X.buffer, X.dims, r) + _resample(Y.buffer, Y.dims, r), r)


# A Gram plan lists one entry per band entry of every listed pair, in runs of
# whole pairs of at most this many entries (a longer pair forms a run of its
# own).  Only the last run applied is kept, so the band's working set stays
# near 10 MiB however many long pairs there are.
_BAND_CHUNK = 1 << 16


def _shared_length(X: HyperVector, Y: HyperVector):
    """d when every component of X and of Y has length d, else None."""
    d = X.dims[0]
    return d if X.dims == (d,) * X.batch_size and Y.dims == (d,) * Y.batch_size else None


def hyper_inner(X: HyperVector, Y: HyperVector) -> np.ndarray:
    """Gram matrix of the replication-averaged inner product, shape s x t.

    Entry (i, j) is vinner(X[i], Y[j]) = <repeat(x, T/m), repeat(y, T/n)> / T
    with T = lcm(m, n), but nothing is replicated.  When every component of
    both operands has length d this is X.to_matrix() @ Y.to_matrix().T / d,
    one product, with the same bits for X and for a copy of X.  Otherwise
    every pair, equal lengths included, sums x_i y_j bridge_matrix(m, n)[i, j]
    over its bridge band (projection.pair_band) and divides by T: one gather
    and one np.bincount per run of the Gram plan (_gram_runs, _gram_plan),
    and when X and Y share their profile, a second one that reads the run's
    pairs (a, b) as the pairs (b, a) by pair_band's swap rule.
    """
    s, t = X.batch_size, Y.batch_size
    _check_budget(s, t)
    d = _shared_length(X, Y)
    if d is not None:
        # numpy multiplies one buffer by its own transpose with a symmetric
        # product that rounds differently, so X is Y takes a copy.
        Q = Y.buffer.copy() if X is Y else Y.buffer
        return X.buffer.reshape(s, d) @ Q.reshape(t, d).T / d
    rows, cols = _gram_pairs(X.dims, Y.dims)
    P, Q = X.buffer, Y.buffer
    mirrored = X.dims == Y.dims
    G = np.empty((s, t))
    for lo, hi in _gram_runs(X.dims, Y.dims):
        src_x, src_y, pair, coef = _gram_plan(X.dims, Y.dims, lo, hi)
        r, c = rows[lo:hi], cols[lo:hi]
        G[r, c] = np.bincount(pair, weights=P[src_x] * Q[src_y] * coef, minlength=hi - lo)
        if mirrored:
            G[c, r] = np.bincount(pair, weights=P[src_y] * Q[src_x] * coef, minlength=hi - lo)
    return G / np.lcm.outer(X.dims, Y.dims)


def _gram_pairs(dims_x, dims_y):
    """Rows and columns of the pairs a Gram plan lists, row-major: all s t
    pairs, or only the pairs a <= b when the two profiles are equal, where a
    listed pair (a, b) also gives Gram entry (b, a) with the same bits by
    pair_band's swap rule.
    """
    if dims_x == dims_y:
        return np.triu_indices(len(dims_x))
    return np.divmod(np.arange(len(dims_x) * len(dims_y)), len(dims_y))


@functools.lru_cache(maxsize=1)
def _gram_runs(dims_x: tuple, dims_y: tuple) -> tuple:
    """Listed-pair ranges [lo, hi) of at most _BAND_CHUNK band entries each
    (a longer pair alone), from the band sizes n + p - gcd(n, p) of the
    listed pairs; memoised."""
    rows, cols = _gram_pairs(dims_x, dims_y)
    n, p = np.asarray(dims_x)[rows], np.asarray(dims_y)[cols]
    ends = np.cumsum(n + p - np.gcd(n, p))
    runs, lo = [], 0
    while lo < len(ends):
        start = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, start + _BAND_CHUNK, "right")), lo + 1)
        runs.append((lo, hi))
        lo = hi
    return tuple(runs)


@functools.lru_cache(maxsize=1)
def _gram_plan(dims_x: tuple, dims_y: tuple, lo: int, hi: int):
    """Read-only (src_x, src_y, pair, coef) of the listed pairs [lo, hi) of
    two profiles (_gram_pairs), memoised: band entry e of their pair_band adds
    P[src_x[e]] * Q[src_y[e]] * coef[e] to the Gram entry of pair[e] before
    the division by the lcm; coef = w / gcd(m, n) is the integer bridge entry."""
    rows, cols = (a[lo:hi] for a in _gram_pairs(dims_x, dims_y))
    src_x, src_y, pair, w = pair_band(dims_x, dims_y, rows, cols)
    g = np.gcd(np.asarray(dims_x)[rows], np.asarray(dims_y)[cols])
    coef = (w // g[pair]).astype(float)
    coef.flags.writeable = False
    return src_x, src_y, pair, coef


def hyper_inner_weighted(X: HyperVector, Y: HyperVector) -> np.ndarray:
    """hyper_inner with entry (i, j) scaled by sqrt(lcm(len x_i, len y_j)).

    Built as hyper_inner(X, Y) * sqrt(_lcm_scale(X, Y)), so it inherits
    hyper_inner's grouped-product and band construction.  In the
    uniform-length case (all lengths d) the result is
    X.to_matrix() @ Y.to_matrix().T / sqrt(d), the familiar scaled-dot-product
    score matrix, and the scale is the scalar np.sqrt(d): both square roots
    are correctly rounded, so the bits are those of the lcm matrix.
    """
    # hyper_inner checks the s x t budget before the scale is built.
    return hyper_inner(X, Y) * np.sqrt(_lcm_scale(X, Y))


def _lcm_scale(X: HyperVector, Y: HyperVector):
    """The s x t matrix of lcm(len x_i, len y_j), or the scalar d when every
    length is d: a product with either has the same bits."""
    d = _shared_length(X, Y)
    return np.lcm.outer(X.dims, Y.dims) if d is None else d


@dataclass(frozen=True)
class DiamondPlan:
    """Explicit pad/unpad matrices of diamond over a fixed dimension profile.

    ``pad`` is block-diagonal in the per-component projections to the nominal
    length (shape s*n0 x sum(dims)); ``unpad`` is block-diagonal in the
    reverse projections (shape sum(dims) x s*n0).  Only diamond_vectorized,
    the matrix-form oracle of diamond, builds them (s*n0*sum(dims) entries
    each); diamond itself resamples with project_batch.  Both shapes pass
    the element budget before anything is allocated.
    """

    dims: tuple
    n0: int
    pad: np.ndarray = field(repr=False)
    unpad: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, dims, n0: int | None = None) -> "DiamondPlan":
        dims = as_lengths(dims, "component dims")
        n0 = max(dims) if n0 is None else as_lengths((n0,), "nominal dim")[0]
        s, total = len(dims), sum(dims)
        _check_budget(s * n0, total)
        pad = np.zeros((s * n0, total))
        unpad = np.zeros((total, s * n0))
        col = 0
        for i, d in enumerate(dims):
            pad[i * n0 : (i + 1) * n0, col : col + d] = proj_matrix(d, n0)
            unpad[col : col + d, i * n0 : (i + 1) * n0] = proj_matrix(n0, d)
            col += d
        return cls(dims=dims, n0=n0, pad=pad, unpad=unpad)


def _pad(X: HyperVector, d: int, padding: str = "projection") -> np.ndarray:
    """The s x d matrix of X's components brought to length d: each resampled
    by project_batch ("projection"), or followed by zeros ("zero", d at least
    max(X.dims)).  The result may be a view of X's buffer, so callers only
    read it."""
    s = X.batch_size
    if padding == "zero":
        padded = np.zeros((s, d))
        padded[np.arange(d) < np.array(X.dims)[:, None]] = X.buffer
        return padded
    return _resample(X.buffer, X.dims, (d,) * s).reshape(s, d)


def _unpad(M: np.ndarray, dims: tuple, padding: str = "projection") -> np.ndarray:
    """The addition form, in profile dims, of the rows of the p x d matrix M:
    row i resampled to dims[i] by project_batch ("projection"), or cut to
    its first dims[i] entries ("zero").  The result may be a view of M."""
    p, d = M.shape
    if padding == "zero":
        return M[np.arange(d) < np.array(dims)[:, None]]
    return _resample(M.reshape(-1), (d,) * p, dims)


def diamond(A, X: HyperVector, n0: int | None = None, out_dims=None) -> HyperVector:
    """Linear action of a p x s matrix on an s-component hypervector.

    Three steps: project every component to length n0 (default: the largest
    component length), left-multiply the stacked s x n0 matrix by A, and
    project output row i to out_dims[i] (default: the input profile cycled
    to length p, so a square A keeps the input profile).  Pad and unpad are
    _pad and _unpad of the projection scheme, one project_batch each on the
    addition form, with one product A @ padded between them; a pad or unpad
    that changes no length is skipped, since it is the identity.  When the
    input is already homogeneous of length n0 and A is square this is
    exactly A @ X.to_matrix(), with no resample.
    """
    A = as_matrix(A, "diamond matrix")
    p, s = A.shape
    if s != X.batch_size:
        raise ShapeError(
            f"matrix with {s} columns cannot act on a {X.batch_size}-component hypervector"
        )
    n0 = max(X.dims) if n0 is None else as_lengths((n0,), "nominal dim")[0]
    if out_dims is None:
        out_dims = X.dims if p == s else tuple(X.dims[i % s] for i in range(p))
    else:
        out_dims = as_lengths(out_dims, "output profile", count=p)
    return HyperVector._owned(_unpad(A @ _pad(X, n0), out_dims), out_dims)


def diamond_vectorized(A, X: HyperVector, n0: int | None = None) -> np.ndarray:
    """Addition form of diamond(A, X) via one explicit matrix product.

    Computes unpad @ (A kron I_{n0}) @ pad @ X.to_addition_form() with the
    block-diagonal maps of DiamondPlan; agrees with the stepwise diamond to
    roundoff.
    """
    A = as_matrix(A, "diamond matrix")
    s = X.batch_size
    if A.shape != (s, s):
        raise ShapeError(
            f"diamond needs a {s} x {s} matrix for a {s}-component hypervector,"
            f" got {A.shape[0]} x {A.shape[1]}"
        )
    n0 = max(X.dims) if n0 is None else as_lengths((n0,), "nominal dim")[0]
    _check_budget(s * n0, s * n0)
    plan = DiamondPlan.build(X.dims, n0)
    op = plan.unpad @ np.kron(A, np.eye(plan.n0)) @ plan.pad
    return op @ X.to_addition_form()
