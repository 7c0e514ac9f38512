"""Hypervectors: ordered batches of vectors with per-component lengths.

A hypervector is the ragged analogue of a matrix of sequence embeddings:
component i lives in R^{n_i} and the n_i need not agree.  Besides the
component list itself there are two flat encodings:

    addition form   concatenation, length sum(n_i)
    product form    iterated Kronecker product, length prod(n_i)

A HyperVector stores its addition form as one read-only buffer, the packed
layout of varlen attention kernels (one flat array plus the lengths), and
its components are views into it, so batch operations work on the buffer.

The central operator is ``diamond(A, X)``, the action of a p x s matrix on
an s-component hypervector.  ``_pad`` and ``_unpad`` are its two resampling
steps, for both padding schemes, and the only code that pads or unpads a
batch: diamond, the transformer's Q/K/V pipelines and the CLI's
compare-padding all call them.  ``hyper_inner`` scores ragged operands
over the bridge bands of all their length pairs with ``projection._gram``.
Every per-profile array (lengths, offsets, the shared length) comes from
the one record ``projection._profile``.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import _check_budget, as_lengths, as_matrix, as_vector
from .errors import NonFactorizableError, NonFiniteError, ShapeError
from .projection import _gram, _gram_lcm, _profile, _resample, proj_matrix


class HyperVector:
    """Immutable ordered list of 1-D float arrays, possibly ragged, held in
    one read-only float64 addition form with the component lengths in
    ``dims``.  ``HyperVector(components)`` takes a sequence of 1-D arrays and
    ``HyperVector(v, dims)`` the addition form v; either way the input is
    copied once and checked for non-finite entries once (NonFiniteError,
    a ValueError, names the first bad component).
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

    @classmethod
    def _finite(cls, buf: np.ndarray, dims: tuple) -> "HyperVector":
        """_owned without _adopt's scan, for a buf that a map which cannot
        create a non-finite entry computed from checked buffers alone."""
        self = cls.__new__(cls)
        buf.flags.writeable = False
        self._buffer, self._dims, self._components = buf, dims, None
        return self

    def _adopt(self, buf, dims):
        finite = np.isfinite(buf)
        # ndarray.all would reduce through numpy's Python-level _methods.
        if not np.logical_and.reduce(finite):
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
            self._components = tuple(np.split(self._buffer, _profile(self._dims).offsets[1:]))
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
        return _profile(self._dims).shared is not None

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
        _check_budget(*self.dims, what="product form size")
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


def hyper_inner(X: HyperVector, Y: HyperVector) -> np.ndarray:
    """Gram matrix of the replication-averaged inner product, shape s x t:
    entry (i, j) is vinner(X[i], Y[j]).  When every component of both
    operands has length d this is X.to_matrix() @ Y.to_matrix().T / d, one
    product, with the same bits for X and for a copy of X.  Otherwise every
    pair, equal lengths included, sums x_i y_j bridge_matrix(m, n)[i, j]
    over its bridge band and divides by lcm(m, n) (projection._gram).
    """
    s, t = X.batch_size, Y.batch_size
    _check_budget(s, t)
    d = _profile(X.dims).shared
    if d is not None and d == _profile(Y.dims).shared:
        # numpy multiplies one buffer by its own transpose with a symmetric
        # product that rounds differently, so X is Y takes a copy.
        Q = Y.buffer.copy() if X is Y else Y.buffer
        G = X.buffer.reshape(s, d) @ Q.reshape(t, d).T
        return np.divide(G, d, out=G)
    return _gram(X.buffer, Y.buffer, X.dims, Y.dims)


def hyper_inner_weighted(X: HyperVector, Y: HyperVector) -> np.ndarray:
    """hyper_inner with entry (i, j) scaled by sqrt(lcm(len x_i, len y_j)):
    for uniform lengths d, X.to_matrix() @ Y.to_matrix().T / sqrt(d), the
    familiar scaled-dot-product score matrix."""
    # hyper_inner checks the s x t budget before the scale is built.
    G = hyper_inner(X, Y)
    return np.multiply(G, np.sqrt(_lcm_scale(X, Y)), out=G)


def _lcm_scale(X: HyperVector, Y: HyperVector):
    """The s x t matrix of lcm(len x_i, len y_j), or the scalar d when every
    length is d: a product with either, or with its correctly rounded square
    root, has the same bits."""
    d = _profile(X.dims).shared
    return d if d is not None and d == _profile(Y.dims).shared else _gram_lcm(X.dims, Y.dims)


def _pad(X: HyperVector, d: int, padding: str = "projection") -> np.ndarray:
    """The s x d matrix of X's components brought to length d: each resampled
    by project_batch ("projection"), or followed by zeros ("zero", d at least
    max(X.dims)).  The result may be a view of X's buffer, so callers only
    read it."""
    s = X.batch_size
    if padding == "zero":
        padded = np.zeros((s, d))
        padded[np.arange(d) < _profile(X.dims).lengths[:, None]] = X.buffer
        return padded
    return _resample(X.buffer, X.dims, (d,) * s).reshape(s, d)


def _unpad(M: np.ndarray, dims: tuple, padding: str = "projection") -> np.ndarray:
    """The addition form, in profile dims, of the rows of the p x d matrix M:
    row i resampled to dims[i] by project_batch ("projection"), or cut to
    its first dims[i] entries ("zero").  The result may be a view of M."""
    p, d = M.shape
    if padding == "zero":
        return M[np.arange(d) < _profile(dims).lengths[:, None]]
    return _resample(M.reshape(-1), (d,) * p, dims)


def diamond(A, X: HyperVector, n0: int | None = None, out_dims=None) -> HyperVector:
    """Linear action of a p x s matrix on an s-component hypervector.

    Three steps: project every component to length n0 (default: the largest
    component length), left-multiply the stacked s x n0 matrix by A, and
    project output row i to out_dims[i] (default: the input profile cycled
    to length p, so a square A keeps the input profile): _pad and _unpad
    of the projection scheme around one product.  A homogeneous input of
    length n0 under a square A gives exactly A @ X.to_matrix().
    """
    A = as_matrix(A, "diamond matrix", (None, X.batch_size))
    p, s = A.shape
    n0 = max(X.dims) if n0 is None else as_lengths((n0,), "nominal dim")[0]
    if out_dims is None:
        out_dims = X.dims if p == s else tuple(X.dims[i % s] for i in range(p))
    else:
        out_dims = as_lengths(out_dims, "output profile", count=p)
    return HyperVector._owned(_unpad(A @ _pad(X, n0), out_dims), out_dims)


def diamond_vectorized(A, X: HyperVector, n0: int | None = None) -> np.ndarray:
    """Addition form of diamond(A, X) as one explicit matrix product,
    unpad @ (A kron I_{n0}) @ pad @ X.to_addition_form(): pad (s*n0 x
    sum(dims)) is block-diagonal in the projections of each component to n0,
    unpad (sum(dims) x s*n0) in the projections back, and both maps pass the
    element budget before anything is allocated.  The independent oracle of
    the stepwise diamond, which it matches to roundoff."""
    s, total = X.batch_size, sum(X.dims)
    A = as_matrix(A, "diamond matrix", (s, s))
    n0 = max(X.dims) if n0 is None else as_lengths((n0,), "nominal dim")[0]
    _check_budget(s * n0, s * n0)
    _check_budget(s * n0, total, what="the pad map size")
    pad, unpad = np.zeros((s * n0, total)), np.zeros((total, s * n0))
    for i, (d, col) in enumerate(zip(X.dims, np.cumsum((0,) + X.dims).tolist())):
        pad[i * n0 : (i + 1) * n0, col : col + d] = proj_matrix(d, n0)
        unpad[col : col + d, i * n0 : (i + 1) * n0] = proj_matrix(n0, d)
    return unpad @ np.kron(A, np.eye(n0)) @ pad @ X.to_addition_form()
