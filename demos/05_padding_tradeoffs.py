"""Zero padding vs projection padding on the same ragged batches.

Zero padding is lossless on the round trip (truncation recovers the input
exactly) but injects structural zeros that the downstream map then mixes
into every output; projection padding injects no zeros and weights every
source entry, at the cost of a small resampling error on the round trip.
"""

import numpy as np

from stpdft import HyperVector, proj_pad_pipeline, zero_pad_pipeline
from stpdft.cli import padding_batch_stats
from stpdft.prng import SplitMix64

np.set_printoptions(precision=4, suppress=True)

print("=" * 64)
print("1. What each scheme feeds the transform")
print("=" * 64)

rng = SplitMix64(5)
X = HyperVector([rng.vector(3), rng.vector(4), rng.vector(5), rng.vector(3)])
d = 6
zero_padded = np.stack([np.pad(c, (0, d - len(c))) for c in X.components])
from stpdft import project
proj_padded = np.stack([project(c, d) for c in X.components])
print("zero-padded matrix (note the junk zeros):")
print(zero_padded)
print(f"zero fraction: {np.count_nonzero(zero_padded == 0) / zero_padded.size:.3f}")
print("projection-padded matrix (every entry carries signal):")
print(proj_padded)
print()

print("=" * 64)
print("2. Round-trip behavior on one batch")
print("=" * 64)

stats = padding_batch_stats(X, d)
for k, v in stats.items():
    print(f"  {k:28s} {v}")
print()

print("=" * 64)
print("3. Same transform, both pipelines")
print("=" * 64)

W = rng.matrix(d, d)
zq = zero_pad_pipeline(X, W, d, X.dims)
pq = proj_pad_pipeline(X, W, d, X.dims)
print("zero-padding result, component 1:      ", np.round(zq[0], 4))
print("projection-padding result, component 1:", np.round(pq[0], 4))
print("(zero padding only ever sees the leading block of W; projection")
print(" padding blends the full map through the resampling operators)")
print()

print("=" * 64)
print("4. Aggregate over random batches")
print("=" * 64)

rows = []
gen = SplitMix64(99)
for _ in range(200):
    dims = [gen.randint(2, 6) for _ in range(4)]
    batch = HyperVector([gen.vector(n) for n in dims])
    rows.append(padding_batch_stats(batch, 6))
zero_err = np.mean([r["zero_recon_rms"] for r in rows])
proj_err = np.mean([r["proj_recon_rms"] for r in rows])
zero_frac = np.mean([r["zero_pad_zero_fraction"] for r in rows])
proj_frac = np.mean([r["proj_pad_zero_fraction"] for r in rows])
print(f"mean round-trip rms   zero: {zero_err:.4f}   projection: {proj_err:.4f}")
print(f"mean padded-zero frac zero: {zero_frac:.4f}   projection: {proj_frac:.4f}")
print("\n(The same numbers are available as CSV via: stpdft compare-padding)")
