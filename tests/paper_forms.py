"""Paper-literal forms that the library's product paths do not use, kept as
test oracles: the nominal multi-head Kronecker concat (Vaswani et al. 2017,
§3.2.2), the one-shot assembled attention, the one-vector softmax, the
stochasticity predicates, and add-norm written one row at a time with
Python scalar statistics.  Tests compare the library against them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stpdft import transformer
from stpdft.algebra import _check_budget, as_matrix, as_vector
from stpdft.errors import ShapeError
from stpdft.stochastic import softmax_rows
from stpdft.transformer import _head_count, attention_nominal, relu


@dataclass
class AttentionWeights(transformer.AttentionWeights):
    """The library's block weights plus out_map, the single linear map after
    the nominal concat; head_q/head_k/head_v are feature-space head maps
    (r_i x n) here.  Only multi_head_nominal reads out_map."""

    out_map: np.ndarray | None = None


def multi_head_nominal(Q, K, V, w: AttentionWeights, scale: str = "sqrt-n",
                       mask=None) -> np.ndarray:
    """Per-head feature maps, attention per head, Kronecker concat, output map.

    Head i applies w.head_q[i] (shape r_i x n) to every row of Q (likewise
    K, V), runs attention_nominal with the scale mode scale, and contributes
    a row block of length r_i; the concat of sequence j is the Kronecker
    product of the heads' rows j, of length r = prod(r_i).  w.out_map (shape r0*s x r*s) then maps the stacked
    concat to the stacked output; None means identity.
    """
    Q, K, V = as_matrix(Q, "Q"), as_matrix(K, "K"), as_matrix(V, "V")
    s, n = Q.shape
    if _head_count(w) is None:
        heads = [(Q, K, V)]
    else:
        heads = []
        for i, maps in enumerate(zip(w.head_q, w.head_k, w.head_v)):
            heads.append(tuple(P @ as_matrix(T, f"head {i + 1} {name} map", (None, n)).T
                               for P, name, T in zip((Q, K, V), "qkv", maps)))

    outs = [attention_nominal(q, k, v, scale=scale, mask=mask) for q, k, v in heads]
    r = math.prod(o.shape[1] for o in outs)
    _check_budget(r, s, what="concat size")
    rows = []
    for j in range(s):
        c = outs[0][j]
        for o in outs[1:]:
            c = np.kron(c, o[j])
        rows.append(c)
    C = np.stack(rows)
    if w.out_map is None:
        return C
    M = as_matrix(w.out_map, "out_map")
    if M.shape[1] != r * s or M.shape[0] % s != 0:
        raise ShapeError(
            f"out_map is {M.shape[0]} x {M.shape[1]}, expected (r0*{s}) x {r * s}"
        )
    return (M @ C.reshape(-1)).reshape(s, -1)


def assembled_attention(X, wq, wk, wv) -> np.ndarray:
    """One-shot self-attention with the softmax taken last:
    softmax_rows(X Wq^T Wk X^T X Wv^T).  Only Wq^T Wk matters, and scaling
    that product by c while scaling Wv by 1/c changes nothing."""
    X = as_matrix(X, "X")
    n = X.shape[1]
    wq, wk, wv = (as_matrix(W, name, (n, n)) for name, W in (("wq", wq), ("wk", wk), ("wv", wv)))
    return assembled_attention_qk(X, wq.T @ wk, wv)


def assembled_attention_qk(X, wqk, wv) -> np.ndarray:
    """assembled_attention parameterized directly by the product Wq^T Wk."""
    X = as_matrix(X, "X")
    wqk = as_matrix(wqk, "wqk")
    wv = as_matrix(wv, "wv")
    return softmax_rows(X @ wqk @ X.T @ X @ wv.T)


def softmax(x) -> np.ndarray:
    """Stable softmax of a vector: softmax_rows of the one-row matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise ValueError(f"softmax expects a nonempty 1-D vector, got shape {x.shape}")
    return softmax_rows(x[None, :])[0]


def is_stochastic_vector(x, tol: float = 1e-9) -> bool:
    """Entries >= -tol and total within tol of 1."""
    x = as_vector(x)
    return bool(np.all(x >= -tol) and abs(x.sum() - 1.0) <= tol)


def is_stochastic_matrix(A, tol: float = 1e-9) -> bool:
    """Every column is a stochastic vector (nonnegative, unit sum)."""
    A = as_matrix(A)
    return all(is_stochastic_vector(A[:, j], tol) for j in range(A.shape[1]))


def normalize(v, gamma: float, beta: float, eps: float) -> np.ndarray:
    """Center, then divide by sqrt(spread + eps) where the spread is the
    root of the centered sum of squares divided by the entry count; the
    statistics are Python scalars over every entry of v."""
    v = np.asarray(v, dtype=float)
    e = v.mean()
    spread = math.sqrt(float(((v - e) ** 2).sum())) / v.size
    return (v - e) / math.sqrt(spread + eps) * gamma + beta


def add_norm_rows(X, F, mode: str, gamma: float, beta: float, eps: float) -> np.ndarray:
    """relu(X + F) normalized by normalize, one call per row (vector-wise)
    or one call on the whole matrix (layer-wise)."""
    Y = relu(np.asarray(X, dtype=float) + np.asarray(F, dtype=float))
    if mode == "vector-wise":
        return np.stack([normalize(row, gamma, beta, eps) for row in Y])
    return normalize(Y, gamma, beta, eps)
