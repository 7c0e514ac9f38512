"""Hypervectors: ragged batches, their flat forms, and the diamond action.

A hypervector is an ordered list of vectors whose lengths may differ: the
natural container for a batch of sequence embeddings before padding.  The
diamond operator lets an ordinary square matrix act on such a batch by
projecting in, multiplying, and projecting back out.
"""

import numpy as np

from stpdft import (
    HyperVector,
    diamond,
    diamond_vectorized,
    factor_product_form,
    hyper_inner,
    hyper_inner_weighted,
)

np.set_printoptions(precision=4, suppress=True)

print("=" * 64)
print("1. Three representations of a ragged batch")
print("=" * 64)

X = HyperVector([[1.0, 2.0], [3.0, 4.0, 5.0]])
print("components:", [c.tolist() for c in X.components], "dims:", X.dims)
print("addition form (concatenation):", X.to_addition_form())
print("product form (iterated Kronecker):", X.to_product_form())
print()

print("Normalized nonnegative factors can be recovered from the product form:")
P = HyperVector([[0.5, 0.5], [0.2, 0.8]])
flat = P.to_product_form()
print("flat =", flat)
rec = factor_product_form(flat, [2, 2])
print("recovered:", [c.tolist() for c in rec.components])
print()

print("=" * 64)
print("2. Cross-length Gram matrices")
print("=" * 64)

Y = HyperVector([[1.0, 0.0, 1.0], [2.0, 2.0]])
print("hyper_inner(X, Y) =")
print(hyper_inner(X, Y))
print("hyper_inner_weighted(X, Y) (sqrt-lcm scaled, the attention score) =")
print(hyper_inner_weighted(X, Y))
print()

print("=" * 64)
print("3. Diamond: a 2 x 2 matrix acting on lengths (2, 3)")
print("=" * 64)

W = np.array([[1.0, 0.5], [-0.25, 2.0]])
out = diamond(W, X, 3)
print("diamond(W, X) keeps the profile:", out.dims)
print("components:", [np.round(c, 4).tolist() for c in out.components])

print("\nThe same map as one matrix on the addition form:")
op = np.column_stack([diamond_vectorized(W, HyperVector(e, X.dims), 3) for e in np.eye(5)])
print(np.round(op, 4))
vec = diamond_vectorized(W, X, 3)
print("vectorized path agrees with the stepwise path:",
      np.allclose(vec, out.to_addition_form()))
print()

print("=" * 64)
print("4. Homogeneous batches reduce to the plain product")
print("=" * 64)

M = np.arange(12.0).reshape(3, 4)
H = HyperVector.from_matrix(M)
A = np.eye(3)[::-1]  # reversal permutation
print("diamond(P, rows(M)) == P @ M:",
      np.allclose(diamond(A, H, 4).to_matrix(), A @ M))
