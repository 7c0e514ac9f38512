"""Hypervectors: ordered batches of vectors with per-component lengths.

A hypervector is the ragged analogue of a matrix of sequence embeddings:
component i lives in R^{n_i} and the n_i need not agree.  Besides the
component list itself there are two flat encodings:

    addition form   concatenation, length sum(n_i)
    product form    iterated Kronecker product, length prod(n_i)

The central operator is ``diamond(A, X)``: a square matrix A acts linearly
on a hypervector by projecting every component to a common nominal length,
multiplying the resulting ordinary matrix by A, and projecting each output
row back to its component's original length.  ``diamond_vectorized`` is the
same map written as one explicit matrix on the addition form; the two paths
agree to roundoff and the matrix path is what ``DiamondPlan`` precomputes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import SIZE_BUDGET, as_matrix, as_vector
from .errors import NonFactorizableError, ShapeError, SizeBudgetError
from .projection import nominal_add, proj_matrix, project, vinner

lcm = math.lcm


class HyperVector:
    """Immutable ordered list of 1-D float arrays, possibly ragged."""

    __slots__ = ("_components",)

    def __init__(self, components):
        comps = tuple(np.array(c, dtype=float, copy=True) for c in components)
        if not comps:
            raise ShapeError("a hypervector needs at least one component")
        for i, c in enumerate(comps):
            if c.ndim != 1 or len(c) < 1:
                raise ShapeError(
                    f"component {i + 1} must be a nonempty 1-D vector, got shape {c.shape}"
                )
            if not np.all(np.isfinite(c)):
                raise ValueError(f"component {i + 1} contains non-finite entries")
            c.flags.writeable = False
        self._components = comps

    @property
    def components(self):
        return self._components

    @property
    def dims(self):
        return tuple(len(c) for c in self._components)

    @property
    def batch_size(self) -> int:
        return len(self._components)

    def __len__(self):
        return len(self._components)

    def __getitem__(self, i):
        return self._components[i]

    def __iter__(self):
        return iter(self._components)

    def __repr__(self):
        return f"HyperVector(dims={self.dims})"

    def is_homogeneous(self) -> bool:
        return len(set(self.dims)) == 1

    def to_matrix(self) -> np.ndarray:
        """Stack components as rows; defined only when all lengths agree."""
        if not self.is_homogeneous():
            raise ShapeError(f"ragged dims {self.dims} do not form a matrix")
        return np.stack(self._components)

    @classmethod
    def from_matrix(cls, M) -> "HyperVector":
        return cls(list(as_matrix(M)))

    def to_addition_form(self) -> np.ndarray:
        return np.concatenate(self._components)

    @classmethod
    def from_addition_form(cls, v, dims) -> "HyperVector":
        v = as_vector(v)
        dims = [int(d) for d in dims]
        if sum(dims) != len(v):
            raise ShapeError(
                f"addition form of length {len(v)} cannot split into dims {tuple(dims)}"
                f" (sum {sum(dims)})"
            )
        splits = np.cumsum(dims)[:-1]
        return cls(np.split(v, splits))

    def to_product_form(self) -> np.ndarray:
        """Iterated Kronecker product of the components (left to right)."""
        size = math.prod(self.dims)
        if size > SIZE_BUDGET:
            raise SizeBudgetError(f"product form size {size} exceeds {SIZE_BUDGET}")
        out = self._components[0]
        for c in self._components[1:]:
            out = np.kron(out, c)
        return out

    def map(self, fn) -> "HyperVector":
        """New hypervector with fn applied to every component."""
        return HyperVector([fn(c) for c in self._components])


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
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ShapeError(f"factor dims must be positive, got {tuple(dims)}")
    if math.prod(dims) != len(x):
        raise ShapeError(
            f"vector of length {len(x)} cannot factor into dims {tuple(dims)}"
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


def _replicate_components(X: HyperVector, k: int) -> HyperVector:
    """Repeat each component k times consecutively (entrywise ones-expansion)."""
    comps = []
    for c in X.components:
        comps.extend([c] * k)
    return HyperVector(comps)


def _tile_components(X: HyperVector, k: int) -> HyperVector:
    """Repeat the whole component list k times (ones kron hypervector)."""
    return HyperVector(list(X.components) * k)


def hyper_add(X: HyperVector, Y: HyperVector, r: int) -> np.ndarray:
    """Rowwise nominal addition of two batches into a k x r matrix.

    Unequal batch sizes s, t are reconciled by repeating each component
    k/s (resp. k/t) times consecutively, k = lcm(s, t); row i of the result
    is nominal_add of the paired components.
    """
    s, t = X.batch_size, Y.batch_size
    k = lcm(s, t)
    Xr = _replicate_components(X, k // s)
    Yr = _replicate_components(Y, k // t)
    return np.stack(
        [nominal_add(xc, yc, r) for xc, yc in zip(Xr.components, Yr.components)]
    )


def hyper_add_listwise(X: HyperVector, Y: HyperVector, r) -> HyperVector:
    """Componentwise nominal addition with a per-component target length r_i."""
    r = [int(v) for v in r]
    if not (X.batch_size == Y.batch_size == len(r)):
        raise ShapeError(
            f"batch sizes and target list must agree: {X.batch_size} components,"
            f" {Y.batch_size} components, {len(r)} targets"
        )
    return HyperVector(
        [nominal_add(xc, yc, ri) for xc, yc, ri in zip(X.components, Y.components, r)]
    )


def hyper_inner(X: HyperVector, Y: HyperVector) -> np.ndarray:
    """Gram matrix of the replication-averaged inner product, shape s x t.

    When every component of both operands has length d this is
    X.to_matrix() @ Y.to_matrix().T / d.
    """
    return np.array(
        [[vinner(xc, yc) for yc in Y.components] for xc in X.components]
    )


def hyper_inner_weighted(X: HyperVector, Y: HyperVector) -> np.ndarray:
    """hyper_inner with entry (i, j) scaled by sqrt(lcm(len x_i, len y_j)).

    In the uniform-length case (all lengths d) the result is
    X.to_matrix() @ Y.to_matrix().T / sqrt(d), the familiar scaled-dot-product
    score matrix.
    """
    G = hyper_inner(X, Y)
    W = np.array(
        [[math.sqrt(lcm(len(xc), len(yc))) for yc in Y.components] for xc in X.components]
    )
    return G * W


@dataclass(frozen=True)
class DiamondPlan:
    """Precomputed pad/unpad maps for diamond over a fixed dimension profile.

    ``pad`` is block-diagonal in the per-component projections to the nominal
    length (shape s*n0 x sum(dims)); ``unpad`` is block-diagonal in the
    reverse projections (shape sum(dims) x s*n0).  Plans are immutable and
    safe to share between concurrent forward passes.
    """

    dims: tuple
    n0: int
    pad: np.ndarray = field(repr=False)
    unpad: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, dims, n0: int | None = None, out_dims=None) -> "DiamondPlan":
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ShapeError(f"component dims must be positive, got {dims}")
        if n0 is None:
            n0 = max(dims)
        n0 = int(n0)
        if n0 < 1:
            raise ShapeError(f"nominal dim must be positive, got {n0}")
        out_dims = dims if out_dims is None else tuple(int(d) for d in out_dims)
        s, total_in, total_out = len(dims), sum(dims), sum(out_dims)
        pad = np.zeros((s * n0, total_in))
        col = 0
        for i, d in enumerate(dims):
            pad[i * n0 : (i + 1) * n0, col : col + d] = proj_matrix(d, n0)
            col += d
        unpad = np.zeros((total_out, len(out_dims) * n0))
        row = 0
        for i, d in enumerate(out_dims):
            unpad[row : row + d, i * n0 : (i + 1) * n0] = proj_matrix(n0, d)
            row += d
        return cls(dims=dims, n0=n0, pad=pad, unpad=unpad)


def diamond(A, X: HyperVector, n0: int | None = None) -> HyperVector:
    """Linear action of a square matrix on a hypervector.

    Three steps: project every component to length n0 (default: the largest
    component length), left-multiply the stacked s x n0 matrix by A, project
    each output row back to that component's original length.  When the
    input is already homogeneous of length n0 this is exactly A @ X.to_matrix().
    """
    A = as_matrix(A, "diamond matrix")
    s = X.batch_size
    if A.shape != (s, s):
        raise ShapeError(
            f"diamond needs a {s} x {s} matrix for a {s}-component hypervector,"
            f" got {A.shape[0]} x {A.shape[1]}"
        )
    return diamond_general(A, X, n0=n0, out_dims=X.dims)


def diamond_general(A, X: HyperVector, n0: int | None = None, out_dims=None) -> HyperVector:
    """diamond with a rectangular p x s matrix and explicit output profile.

    Pads the s components to length n0, multiplies by A (p x s) to get p
    rows, and unpads row i to out_dims[i] (default: the input profile cycled
    to length p).
    """
    A = as_matrix(A, "diamond matrix")
    p, s = A.shape
    if s != X.batch_size:
        raise ShapeError(
            f"matrix with {s} columns cannot act on a {X.batch_size}-component hypervector"
        )
    dims = X.dims
    if n0 is None:
        n0 = max(dims)
    n0 = int(n0)
    if out_dims is None:
        out_dims = tuple(dims[i % len(dims)] for i in range(p))
    else:
        out_dims = tuple(int(d) for d in out_dims)
        if len(out_dims) != p:
            raise ShapeError(
                f"output profile has {len(out_dims)} dims but the matrix produces {p} rows"
            )
    padded = np.stack([project(c, n0) for c in X.components])
    mixed = A @ padded
    return HyperVector([project(mixed[i], out_dims[i]) for i in range(p)])


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
    plan = DiamondPlan.build(X.dims, n0)
    op = plan.unpad @ np.kron(A, np.eye(plan.n0)) @ plan.pad
    return op @ X.to_addition_form()


def qkv_vectorized(W, M) -> np.ndarray:
    """Row-stacked form of W @ M without forming the product row by row.

    Uses the identity vec_rows(W @ M) = (W kron I_c) @ vec_rows(M), where c
    is the column count of M.  Useful for reading a batched linear map as a
    single matrix acting on the stacked representation.
    """
    W = as_matrix(W, "left factor")
    M = as_matrix(M, "right factor")
    if W.shape[1] != M.shape[0]:
        raise ShapeError(
            f"cannot multiply {W.shape[0]} x {W.shape[1]} by {M.shape[0]} x {M.shape[1]}"
        )
    c = M.shape[1]
    return np.kron(W, np.eye(c)) @ M.reshape(-1)
