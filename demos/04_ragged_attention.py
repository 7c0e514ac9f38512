"""A full forward pass where every sequence keeps its own length.

No padding tokens, no padding mask: queries, keys and values are produced by
projection resampling, attention scores come from the cross-length inner
product, and the score matrix acts on the values through diamond.  When the
batch happens to be rectangular, every stage collapses to the textbook one.
"""

import numpy as np

from stpdft import (
    AttentionWeights,
    HyperVector,
    ModelConfig,
    attention_nominal,
    causal_mask,
    dv_attention,
    encoder_stack,
    positional_encoding,
    proj_pad_pipeline,
)

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(11)

print("=" * 64)
print("1. Ragged attention end to end")
print("=" * 64)

X = HyperVector([rng.normal(size=3), rng.normal(size=5), rng.normal(size=2)])
d = 4
Wq, Wk, Wv = (rng.normal(size=(d, d)) for _ in range(3))
Q, K, V = proj_pad_pipeline(X, (Wq, Wk, Wv), d, X.dims)  # one resample of X to d
out, A = dv_attention(Q, K, V, return_weights=True)
print("input profile: ", X.dims)
print("output profile:", out.dims, "(preserved)")
print("attention matrix (rows are distributions):")
print(A)
print("row sums:", A.sum(axis=1))
print()

print("With a causal mask, later positions are invisible:")
_, Am = dv_attention(Q, K, V, mask=causal_mask(3), return_weights=True)
print(Am)
print()

print("=" * 64)
print("2. Rectangular batches recover the textbook formula")
print("=" * 64)

M = rng.normal(size=(4, d))
Qm, Km, Vm = M @ Wq.T, M @ Wk.T, M @ Wv.T
ragged = dv_attention(
    HyperVector.from_matrix(Qm), HyperVector.from_matrix(Km), HyperVector.from_matrix(Vm)
)
nominal = attention_nominal(Qm, Km, Vm)
print("max |ragged - nominal| =", np.max(np.abs(ragged.to_matrix() - nominal)))
print()

print("=" * 64)
print("3. Stacked encoder blocks preserve the profile")
print("=" * 64)

w = AttentionWeights(
    wq=Wq, wk=Wk, wv=Wv,
    ffn_w1=rng.normal(size=(3, 3)),
    ffn_w2=rng.normal(size=(3, 3)),
    ffn_b1=HyperVector([rng.normal(size=n) for n in X.dims]),
    ffn_b2=HyperVector([rng.normal(size=n) for n in X.dims]),
)
cfg = ModelConfig(batch_size=3, nominal_dim=d, layers=3)
Y = encoder_stack(X, [w], cfg)
print("after 3 blocks:", Y.dims)
print("components:", [np.round(c, 3).tolist() for c in Y.components])
print()

print("=" * 64)
print("4. Positional encoding (for rectangular inputs)")
print("=" * 64)
print(positional_encoding(4, 6))
