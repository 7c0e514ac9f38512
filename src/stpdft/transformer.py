"""Encoder-style forward passes, fixed-length and ragged.

The fixed-length ("nominal") half is the textbook stack: sinusoidal
positional encoding, Q/K/V maps, scaled dot-product attention with an
optional additive mask, residual add + normalization, and a two-layer
feed-forward.  The ragged half replaces every linear stage with its
projection-based counterpart so each sequence keeps its own length end to
end:

    zero_pad_pipeline   pad with zeros, transform, truncate (the baseline)
    proj_pad_pipeline   resample via least-distance projection instead
    dv_attention        score hypervectors with the replication-averaged
                        inner product, apply the softmax through diamond;
                        Q, K and V may have different batch sizes
    dv_multi_head       combine heads by projected addition per component
    df_add_norm         residual add across differing lengths, then norm
    df_ffn              feed-forward whose linear maps act through diamond

When every sequence already has the nominal length, proj_pad_pipeline,
dv_attention, df_add_norm and df_ffn agree with qkv_nominal,
attention_nominal, add_norm and ffn_nominal to roundoff; dv_multi_head sums
the heads and has no fixed-length counterpart here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

from .algebra import _check_budget, as_lengths, as_matrix, as_vector, lcm
from .errors import ShapeError
from .hypervector import (
    HyperVector,
    _lcm_scale,
    _pad,
    _unpad,
    diamond,
    hyper_add_listwise,
    hyper_inner,
    hyper_inner_weighted,
)
from .projection import _profile, _resample, project
from .stochastic import softmax_rows

SCALING_MODES = ("sqrt-n", "sqrt-s", "n")
MASK_MODES = ("none", "causal")
PADDING_MODES = ("zero", "projection")
NORM_MODES = ("vector-wise", "layer-wise")


def relu(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and mode switches for a forward pass.

    padding selects the Q/K/V pipeline, scaling the attention denominator,
    mask the additive pattern, norm_mode how add-norm pools statistics and
    eps is the add-norm eps of every block; encoder_block reads each setting
    here and nowhere else.  The fields are the `stpdft forward` config keys,
    with these defaults and allowed values.  Each is checked once, on
    construction, and the instance is frozen, so no setting changes after it.
    attention_mask is the attention mask that mask names, built once per
    config, on first use, and read-only.
    """

    batch_size: int
    nominal_dim: int
    heads: int = 1
    padding: str = "projection"
    scaling: str = "sqrt-n"
    mask: str = "none"
    layers: int = 1
    norm_mode: str = "vector-wise"
    eps: float = 1e-3

    def __post_init__(self):
        # Messages start with the field name: the CLI reports it as the config key.
        for name, kind in _NUMBER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is numbers.Integral else "a real number"
                raise TypeError(f"{name} must be {noun}, got {value!r}")
        for name, least in (("batch_size", 1), ("nominal_dim", 1), ("heads", 1),
                            ("layers", 0)):
            if getattr(self, name) < least:
                raise ShapeError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name, modes in (("padding", PADDING_MODES), ("scaling", SCALING_MODES),
                            ("mask", MASK_MODES), ("norm_mode", NORM_MODES)):
            value = getattr(self, name)
            if value not in modes:
                raise ValueError(f"{name} must be one of {modes}, got {value!r}")
        try:
            finite = math.isfinite(self.eps)
        except OverflowError:  # an integer beyond the float64 range
            finite = False
        if not (finite and self.eps > 0):
            raise ValueError(f"eps must be positive and finite in float64, got {self.eps!r}")

    @cached_property
    def attention_mask(self) -> np.ndarray | None:
        """None for mask "none", else causal_mask(batch_size), read-only:
        built on first use and kept outside the fields, so ==, hash, replace
        and asdict ignore it and a replaced config builds its own."""
        if self.mask == "none":
            return None
        M = causal_mask(self.batch_size)
        M.flags.writeable = False
        return M


# (name, kind) of each number field of ModelConfig, read from its annotations
# once, not on every construction.
_NUMBER_FIELDS = tuple((f.name, kind) for f in fields(ModelConfig)
                       if (kind := {"int": numbers.Integral, "float": numbers.Real}.get(f.type)))


@dataclass
class AttentionWeights:
    """All learnable matrices of one encoder block (forward-only).

    wq/wk/wv act on individual sequence vectors (nominal-dim square).
    head_q/head_k/head_v are optional per-head batch-mixing (s x s) maps,
    applied through diamond; out_maps are the per-component maps after the
    combine of the heads.  ffn_* and the norm parameters feed the tail of a
    block.

    eps is a setting, not a weight: encoder_block reads ModelConfig.eps.  It
    stays here as a class constant equal to that default because perfbench's
    homogeneous oracle, which composes the nominal stages, reads w.eps.
    """

    wq: np.ndarray | None = None
    wk: np.ndarray | None = None
    wv: np.ndarray | None = None
    head_q: tuple | None = None
    head_k: tuple | None = None
    head_v: tuple | None = None
    out_maps: tuple | None = None
    ffn_w1: np.ndarray | None = None
    ffn_w2: np.ndarray | None = None
    ffn_b1: object = None
    ffn_b2: object = None
    gamma: float = 1.0
    beta: float = 0.0
    eps: ClassVar[float] = ModelConfig.eps


# --- fixed-length (nominal) stages -----------------------------------------


def positional_encoding(s: int, d: int) -> np.ndarray:
    """s x d sinusoidal position matrix: column pair 2i is (sin, cos) of
    pos / 10000^(2i/d).  Row for position 0 is (0, 1, 0, 1, ...)."""
    if d < 2 or d % 2 != 0:
        raise ShapeError(f"positional encoding needs an even model dim >= 2, got {d}")
    if s < 1:
        raise ShapeError(f"need at least one position, got {s}")
    pos = np.arange(s, dtype=float)[:, None]
    i = np.arange(d // 2, dtype=float)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / d)
    P = np.empty((s, d))
    P[:, 0::2] = np.sin(angles)
    P[:, 1::2] = np.cos(angles)
    return P


def qkv_nominal(X, w: AttentionWeights):
    """Q, K, V for a stacked batch: each row x is mapped to W x (per matrix)."""
    X = as_matrix(X, "input batch")
    d = X.shape[1]
    out = []
    for name, W in (("wq", w.wq), ("wk", w.wk), ("wv", w.wv)):
        out.append(X @ as_matrix(W, name, (d, d)).T)
    return tuple(out)


def scale_value(mode: str, n: int, s: int) -> float:
    if mode == "sqrt-n":
        return math.sqrt(n)
    if mode == "sqrt-s":
        return math.sqrt(s)
    if mode == "n":
        return float(n)
    raise ValueError(f"scaling must be one of {SCALING_MODES}, got {mode!r}")


def causal_mask(s: int, mode: str = "conventional") -> np.ndarray:
    """Additive s x s mask that blocks future positions (-inf strictly above
    the diagonal).  mode accepts only "conventional": the paper's printed
    mirror (-inf on and below the diagonal) masks its whole last row."""
    if s < 1:
        raise ShapeError(f"mask size must be positive, got {s}")
    if mode != "conventional":
        raise ValueError(f"mask mode must be 'conventional', got {mode!r}")
    r = np.arange(s)
    return np.where(r[:, None] < r, -np.inf, 0.0)  # -inf where j > i


def attention_nominal(Q, K, V, scale: str = "sqrt-n", mask=None,
                      return_weights: bool = False):
    """softmax(Q K^T / scale + mask) @ V for stacked batches.

    scale is a mode name of SCALING_MODES, which scale_value resolves
    against the feature dim n and the batch size s.
    """
    Q = as_matrix(Q, "Q")
    s, n = Q.shape
    K, V = as_matrix(K, "K", (s, n)), as_matrix(V, "V", (s, None))
    E = Q @ K.T / scale_value(scale, n, s)
    if mask is not None:
        E = E + as_matrix(mask, "mask", (s, s))
    A = softmax_rows(E)
    out = A @ V
    return (out, A) if return_weights else out


def _head_count(w: AttentionWeights):
    """How many head maps w carries: None when head_q, head_k and head_v are
    all None, else their one count; ShapeError when the three differ."""
    counts = [None if m is None else len(m) for m in (w.head_q, w.head_k, w.head_v)]
    if len(set(counts)) != 1:
        raise ShapeError(f"head maps differ in count: {counts[0]} q, {counts[1]} k, {counts[2]} v")
    return counts[0]


def _normalize(v, gamma: float, beta: float, eps: float) -> np.ndarray:
    """Center over the last axis, then divide by sqrt(spread + eps) where the
    spread is the root of the centered sum of squares over that axis divided
    by its length: each row of a matrix on its own, a 1-D v as a whole."""
    v = np.asarray(v, dtype=float)
    c = v - v.mean(axis=-1, keepdims=True)
    spread = np.sqrt((c ** 2).sum(axis=-1, keepdims=True)) / v.shape[-1]
    return c / np.sqrt(spread + eps) * gamma + beta


def _check_gamma_beta(gamma, beta):
    """ShapeError naming gamma or beta when it is not a real scalar, a Python
    or numpy int or float but not a bool: the two scale and shift every
    entry alike, and an array would broadcast against the entries."""
    for name, v in (("gamma", gamma), ("beta", beta)):
        if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            shape = f" of shape {v.shape}" if isinstance(v, np.ndarray) else ""
            raise ShapeError(f"{name} must be a real scalar, got {type(v).__name__}{shape}")


def add_norm(X, F, mode: str = "vector-wise", gamma: float = 1.0, beta: float = 0.0,
             eps: float = 1e-3) -> np.ndarray:
    """relu(X + F), then normalization, for same-shape stacked batches.

    vector-wise normalizes each sequence (row) over its own entries;
    layer-wise pools every entry of the batch.  gamma and beta are real
    scalars.
    """
    X = as_matrix(X, "X")
    F = as_matrix(F, "F", X.shape)
    if mode not in NORM_MODES:
        raise ValueError(f"norm mode must be one of {NORM_MODES}, got {mode!r}")
    _check_gamma_beta(gamma, beta)
    Y = relu(X + F)
    pooled = Y if mode == "vector-wise" else Y.reshape(-1)
    return _normalize(pooled, gamma, beta, eps).reshape(Y.shape)


def ffn_nominal(X, w1, w2, b1=None, b2=None) -> np.ndarray:
    """w2 @ relu(w1 @ X + b1) + b2 with biases added per column.

    w1 has as many columns as X has rows; biases of any length are projected
    to the relevant row count before the columnwise add (None means zero).
    """
    X = as_matrix(X, "ffn input")
    w1 = as_matrix(w1, "ffn w1", (None, X.shape[0]))
    w2 = as_matrix(w2, "ffn w2", (None, w1.shape[0]))
    H = w1 @ X
    if b1 is not None:
        H = H + project(as_vector(b1, "ffn b1"), w1.shape[0])[:, None]
    H = relu(H)
    out = w2 @ H
    if b2 is not None:
        out = out + project(as_vector(b2, "ffn b2"), w2.shape[0])[:, None]
    return out


# --- ragged (dimension-free) stages -----------------------------------------


def zero_pad_pipeline(X: HyperVector, W, d: int, dims_out) -> HyperVector | tuple:
    """Baseline ragged linear map: zero-pad, transform, truncate.

    Every component is padded with zeros to length d, which must be at least
    the largest input and output length, mapped by W (d x d), and the i-th
    result is cut back to dims_out[i], one product for the whole batch.  W
    may also be a tuple of d x d transforms: X is then padded once and a
    tuple of one hypervector per transform comes back.
    """
    return _pipeline(X, W, d, dims_out, "zero")


def proj_pad_pipeline(X: HyperVector, W, d: int, dims_out) -> HyperVector | tuple:
    """Projection-based ragged linear map: resample, transform, resample.

    Components are projected to the preassigned length d (which may be
    smaller than some inputs), mapped by W (d x d), and projected out to
    dims_out, one product for the whole batch.  No zeros are injected and
    every source entry keeps weight.  W may also be a tuple of d x d
    transforms: X is then resampled to d once and a tuple of one
    hypervector per transform comes back.
    """
    return _pipeline(X, W, d, dims_out, "projection")


def _pipeline(X: HyperVector, W, d: int, dims_out, padding: str) -> HyperVector | tuple:
    """Both pipelines: check the arguments, _pad X to d once, and _unpad
    each product to dims_out in the padding scheme (dims_out that is X.dims
    itself was checked when X was built).  encoder_block calls the two
    public names, which perfbench's span tracer wraps, and never this."""
    if dims_out is not X.dims:
        dims_out = as_lengths(dims_out, "output dims", count=X.batch_size)
    d = as_lengths((d,), "nominal dim")[0]
    Ws = [as_matrix(Wk, "transform", (d, d)) for Wk in (W if isinstance(W, tuple) else (W,))]
    if padding == "zero":
        d_min = max(max(X.dims), max(dims_out))
        if d < d_min:
            raise ShapeError(f"zero padding cannot shrink: d={d} < required {d_min}")
    padded = _pad(X, d, padding)
    outs = tuple(HyperVector._owned(_unpad(padded @ Wk.T, dims_out, padding), dims_out)
                 for Wk in Ws)
    return outs if isinstance(W, tuple) else outs[0]


def _dv_scores(Q: HyperVector, K: HyperVector, scaling: str) -> np.ndarray:
    if scaling == "sqrt-n":
        return hyper_inner_weighted(Q, K)
    if scaling == "n":
        return hyper_inner(Q, K)
    if scaling == "sqrt-s":
        # Undo the lcm averaging, then apply the 1/sqrt(batch) convention;
        # for uniform lengths this is exactly Q K^T / sqrt(s).
        return hyper_inner(Q, K) * _lcm_scale(Q, K) / math.sqrt(Q.batch_size)
    raise ValueError(f"scaling must be one of {SCALING_MODES}, got {scaling!r}")


def dv_attention(Q: HyperVector, K: HyperVector, V: HyperVector,
                 scaling: str = "sqrt-n", mask=None, n0: int | None = None,
                 out_dims=None, return_weights: bool = False):
    """Attention over ragged batches of sizes p, q, r (Q, K, V).

    The p x q score matrix is the (scaled) cross-length inner-product Gram
    matrix of Q against K; its row softmax acts on V through diamond, after
    repeating its columns t/q times and tiling V's component list t/r times
    (t = lcm(q, r)) when q != r.  The p output components take out_dims
    (default: V's profile cycled, which is V's own profile when p == r).
    return_weights also returns the p x q softmax.
    """
    E = _dv_scores(Q, K, scaling)
    if mask is not None:
        E += as_matrix(mask, "mask", E.shape)
    A = softmax_rows(E)
    weights, q, r = A, K.batch_size, V.batch_size
    if q != r:
        t = lcm(q, r)
        _check_budget(t, max(V.dims), what=f"replicated batch {t} x {max(V.dims)}")
        weights = np.repeat(A, t // q, axis=1)
        V = HyperVector._owned(np.tile(V.buffer, t // r), V.dims * (t // r))
    out = diamond(weights, V, n0=n0, out_dims=out_dims)
    return (out, A) if return_weights else out


def dv_multi_head(heads, target_dims, weights=None, out_maps=None) -> HyperVector:
    """Combine head outputs by weighted projected addition per component.

    Component k of the result is sum_i weights[i] * project(head_i[k],
    target_dims[k]) (weights default to all ones), optionally followed by a
    per-component linear map out_maps[k].  A weight of exactly 1.0 is not
    multiplied in, since x * 1.0 is x, bit for bit.
    """
    heads = list(heads)
    if not heads:
        raise ShapeError("need at least one head")
    s = heads[0].batch_size
    for i, h in enumerate(heads):
        if h.batch_size != s:
            raise ShapeError(
                f"head {i + 1} has batch size {h.batch_size}, expected {s}"
            )
    if target_dims is not heads[0].dims:
        target_dims = as_lengths(target_dims, "target dims", count=s)
    if weights is None:
        weights = [1.0] * len(heads)
    weights = [float(v) for v in weights]
    if len(weights) != len(heads):
        raise ShapeError(f"{len(weights)} weights for {len(heads)} heads")
    if any(v < 0 for v in weights):
        raise ValueError("head weights must be nonnegative")
    acc = 0.0  # not the first term: 0.0 + x turns each -0.0 into +0.0
    for wgt, h in zip(weights, heads):
        term = _resample(h.buffer, h.dims, target_dims)
        acc = acc + (term if wgt == 1.0 else wgt * term)
    if out_maps is None:
        if len(heads) == 1 and weights[0] == 1.0 and term is heads[0].buffer:
            # 0.0 + x of one checked buffer x, the identity resample's.
            return HyperVector._finite(acc, target_dims)
        return HyperVector._owned(acc, target_dims)
    if len(out_maps) != s:
        raise ShapeError(f"{len(out_maps)} output maps for batch size {s}")
    mapped = []
    for k, (M, c) in enumerate(zip(out_maps, np.split(acc, _profile(target_dims).offsets[1:]))):
        if M is None:
            mapped.append(c)
            continue
        M = as_matrix(M, f"output map {k + 1}")
        if M.shape[1] != len(c):
            raise ShapeError(
                f"output map {k + 1} has {M.shape[1]} columns for a"
                f" length-{len(c)} component"
            )
        mapped.append(M @ c)
    return HyperVector(mapped)


def df_add_norm(X: HyperVector, F: HyperVector, mode: str = "vector-wise",
                gamma: float = 1.0, beta: float = 0.0, eps: float = 1e-3) -> HyperVector:
    """Ragged residual add-and-norm: the skip input is projected onto the
    branch profile, added, rectified, and normalized (per component or
    pooled over every entry).  gamma and beta are real scalars.

    Everything runs on the addition form: vector-wise mode applies
    _normalize's formula to every component at once, in place on the sum,
    taking the per-component sums with np.add.reduceat; layer-wise mode
    applies _normalize to it.  Two shortcuts keep every byte.  With equal
    lengths d the per-component mean and scale act on the (s, d) view of
    the sum by broadcasting, which performs the same subtract or divide on
    each entry as one against the repeated array.  A gamma of exactly 1.0
    is not multiplied in, since x * 1.0 is x.
    """
    if X.batch_size != F.batch_size:
        raise ShapeError(
            f"batch sizes differ: {X.batch_size} skip vs {F.batch_size} branch"
        )
    _check_gamma_beta(gamma, beta)
    Z = _resample(X.buffer, X.dims, F.dims) + F.buffer
    np.maximum(Z, 0.0, out=Z)
    if mode == "vector-wise":
        n, starts, d = _profile(F.dims)
        rows = Z if d is None else Z.reshape(-1, d)
        rows -= _per_entry(np.add.reduceat(Z, starts) / n, n, d)
        spread = np.sqrt(np.add.reduceat(Z * Z, starts)) / n
        rows /= _per_entry(np.sqrt(spread + eps), n, d)
        if gamma != 1.0:  # the bits of Z / r * gamma + beta
            Z *= gamma
        Z += beta
    elif mode == "layer-wise":
        Z = _normalize(Z, gamma, beta, eps)
    else:
        raise ValueError(f"norm mode must be one of {NORM_MODES}, got {mode!r}")
    return HyperVector._owned(Z, F.dims)


def _per_entry(v, n, d):
    """v, one value per component, spread over the entries of the rows
    df_add_norm normalizes: a column for the (s, d) view of equal lengths
    d, else np.repeat(v, n) over the addition form."""
    return np.repeat(v, n) if d is None else v[:, None]


def df_ffn(X: HyperVector, w1, w2, b1=None, b2=None) -> HyperVector:
    """Ragged feed-forward: w2 <> relu(w1 <> X + b1) + b2.

    w1 and w2 are batch-mixing (s x s) maps applied through diamond; the
    biases are hypervectors added componentwise with the input profile as
    the nominal targets, so the output profile equals the input profile.
    """
    s = X.batch_size
    w1, w2 = as_matrix(w1, "ffn w1", (s, s)), as_matrix(w2, "ffn w2", (s, s))
    dims = X.dims
    H = diamond(w1, X)
    if b1 is not None:
        H = hyper_add_listwise(H, _as_hyper(b1, s), dims)
    H = HyperVector._finite(relu(H.buffer), H.dims)  # max(x, 0) of a checked x
    out = diamond(w2, H)
    if b2 is not None:
        out = hyper_add_listwise(out, _as_hyper(b2, s), dims)
    return out


def _as_hyper(b, s: int) -> HyperVector:
    if isinstance(b, HyperVector):
        if b.batch_size != s:
            raise ShapeError(f"bias has {b.batch_size} components, expected {s}")
        return b
    b = as_vector(b, "bias")
    return HyperVector([b] * s)


# --- encoder composition -----------------------------------------------------


def _qkv_hyper(X: HyperVector, w: AttentionWeights, cfg: ModelConfig):
    """Q, K and V in the input profile, from one pad of X to the nominal length."""
    pipeline = proj_pad_pipeline if cfg.padding == "projection" else zero_pad_pipeline
    return pipeline(X, (w.wq, w.wk, w.wv), cfg.nominal_dim, X.dims)


def encoder_block(X: HyperVector, w: AttentionWeights, cfg: ModelConfig,
                  return_weights: bool = False, mask=None):
    """One ragged encoder block: Q/K/V pipelines, (multi-head) attention,
    add-norm, feed-forward, add-norm.  Q, K, V, the combined heads and the
    output keep the input profile.  mask is the additive attention mask,
    added to the scores; None reads cfg.attention_mask, the one cfg.mask
    names, built once per config and read-only.

    mask="causal" masks the attention weights only.  Token i's output is
    free of later tokens only if, besides, W1, W2 and the head maps are
    lower triangular, norm_mode is "vector-wise" ("layer-wise" pools every
    token) and the diamond length does not depend on later tokens, which it
    does today: every diamond pads to n0 = max(X.dims) over the batch."""
    if X.batch_size != cfg.batch_size:
        raise ShapeError(
            f"input has {X.batch_size} components, config says {cfg.batch_size}"
        )
    Q, K, V = _qkv_hyper(X, w, cfg)
    if mask is None:
        mask = cfg.attention_mask

    heads = _head_count(w)
    if (1 if heads is None else heads) != cfg.heads:
        raise ShapeError(f"config asks for {cfg.heads} heads but the weights carry"
                         f" {'no' if heads is None else heads} head maps")
    head_inputs = [(Q, K, V)] if heads is None else [
        (diamond(tq, Q), diamond(tk, K), diamond(tv, V))
        for tq, tk, tv in zip(w.head_q, w.head_k, w.head_v)
    ]
    head_outs, att_mats = [], []
    for hq, hk, hv in head_inputs:
        out, A = dv_attention(hq, hk, hv, scaling=cfg.scaling, mask=mask,
                              return_weights=True)
        head_outs.append(out)
        att_mats.append(A)
    combined = dv_multi_head(head_outs, target_dims=X.dims, out_maps=w.out_maps)

    Z = df_add_norm(X, combined, mode=cfg.norm_mode, gamma=w.gamma, beta=w.beta,
                    eps=cfg.eps)
    s = Z.batch_size
    ffn_w1 = w.ffn_w1 if w.ffn_w1 is not None else np.eye(s)
    ffn_w2 = w.ffn_w2 if w.ffn_w2 is not None else np.eye(s)
    F = df_ffn(Z, ffn_w1, ffn_w2, w.ffn_b1, w.ffn_b2)
    out = df_add_norm(Z, F, mode=cfg.norm_mode, gamma=w.gamma, beta=w.beta, eps=cfg.eps)
    return (out, att_mats) if return_weights else out


def encoder_stack(X: HyperVector, w_list, cfg: ModelConfig,
                  return_weights: bool = False):
    """cfg.layers encoder blocks in sequence; a single weight set is reused
    for every block, otherwise w_list must provide one per block.  Zero
    layers is the identity.  The attention mask of cfg.mask is built once
    per config, read-only (cfg.attention_mask), and added in every block.
    Only return_weights keeps each block's attention, so without it memory
    does not grow with cfg.layers."""
    w_list = list(w_list)
    n = cfg.layers
    if n == 0:
        return (X, []) if return_weights else X
    if len(w_list) not in (1, n):
        raise ShapeError(f"{len(w_list)} weight sets for {n} blocks")
    atts = []
    for k in range(n):
        try:
            X, A = encoder_block(X, w_list[k % len(w_list)], cfg, return_weights=True)
        except (ShapeError, ValueError) as exc:
            raise type(exc)(f"block {k + 1}: {exc}") from exc
        if return_weights:
            atts.append(A)
    return (X, atts) if return_weights else X
