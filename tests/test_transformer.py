import contextlib
import dataclasses
import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpdft import (
    HyperVector,
    ModelConfig,
    NonFiniteError,
    ShapeError,
    add_norm,
    attention_nominal,
    causal_mask,
    df_add_norm,
    df_ffn,
    diamond,
    diamond_vectorized,
    dv_attention,
    dv_multi_head,
    encoder_block,
    encoder_stack,
    factor_product_form,
    ffn_nominal,
    hyper_add_listwise,
    hyper_inner,
    hyper_inner_weighted,
    nominal_add,
    positional_encoding,
    proj_matrix,
    proj_pad_pipeline,
    project,
    project_batch,
    qkv_nominal,
    softmax_rows,
    zero_pad_pipeline,
)
from stpdft import algebra, hypervector, projection, transformer
from stpdft.transformer import PADDING_MODES, _normalize, _qkv_hyper, relu
from test_hypervector import cauchy_schwarz_scale, oracle_gram
from test_projection import resample_profiles
from paper_forms import (AttentionWeights, add_norm_rows, assembled_attention,
                         assembled_attention_qk, multi_head_nominal)


class TestPositionalEncoding:
    def test_first_row_alternates_zero_one(self):
        P = positional_encoding(3, 8)
        np.testing.assert_allclose(P[0], [0, 1] * 4, atol=0)

    def test_position_one_values(self):
        P = positional_encoding(2, 4)
        assert P[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
        assert P[1, 1] == pytest.approx(math.cos(1.0), abs=1e-12)
        assert P[1, 2] == pytest.approx(math.sin(1.0 / 10000 ** (2 / 4)), abs=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            positional_encoding(3, 5)


class TestQkvNominal:
    def test_identity_weights(self, rng):
        X = rng.normal(size=(3, 4))
        w = AttentionWeights(wq=np.eye(4), wk=np.eye(4), wv=np.eye(4))
        Q, K, V = qkv_nominal(X, w)
        np.testing.assert_array_equal(Q, X)
        np.testing.assert_array_equal(K, X)
        np.testing.assert_array_equal(V, X)

    def test_hand_multiplication(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Wq = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = AttentionWeights(wq=Wq, wk=np.eye(2), wv=np.eye(2))
        Q, _, _ = qkv_nominal(X, w)
        np.testing.assert_array_equal(Q, [[2.0, 1.0], [4.0, 3.0]])  # rows swapped entries

    def test_vectorized_identity(self, rng):
        X = rng.normal(size=(3, 4))
        Wq = rng.normal(size=(4, 4))
        w = AttentionWeights(wq=Wq, wk=np.eye(4), wv=np.eye(4))
        Q, _, _ = qkv_nominal(X, w)
        # Row-stacked Wq X^T is (Wq kron I_s) applied to row-stacked X^T.
        np.testing.assert_allclose(
            np.kron(Wq, np.eye(3)) @ X.T.reshape(-1), Q.T.reshape(-1), atol=1e-12
        )

    def test_shape_mismatch(self, rng):
        w = AttentionWeights(wq=np.eye(3), wk=np.eye(3), wv=np.eye(3))
        with pytest.raises(ShapeError):
            qkv_nominal(rng.normal(size=(2, 4)), w)


class TestAttentionNominal:
    def test_zero_scores_average_values(self, rng):
        V = rng.normal(size=(4, 3))
        out, A = attention_nominal(np.zeros((4, 3)), np.zeros((4, 3)), V,
                                   return_weights=True)
        np.testing.assert_allclose(A, np.full((4, 4), 0.25), atol=1e-15)
        np.testing.assert_allclose(out, np.tile(V.mean(axis=0), (4, 1)), atol=1e-12)

    def test_single_sequence(self, rng):
        Q = rng.normal(size=(1, 5))
        V = rng.normal(size=(1, 5))
        out, A = attention_nominal(Q, Q, V, return_weights=True)
        np.testing.assert_array_equal(A, [[1.0]])
        np.testing.assert_allclose(out, V, atol=1e-15)

    def test_random_against_direct_formula(self, rng):
        Q = rng.normal(size=(3, 4))
        K = rng.normal(size=(3, 4))
        V = rng.normal(size=(3, 4))
        out = attention_nominal(Q, K, V, scale="sqrt-n")
        expected = softmax_rows(Q @ K.T / math.sqrt(4)) @ V
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_scale_modes(self, rng):
        Q = rng.normal(size=(3, 4))
        K = rng.normal(size=(3, 4))
        V = rng.normal(size=(3, 4))
        for mode, denom in (("sqrt-n", 2.0), ("sqrt-s", math.sqrt(3)), ("n", 4.0)):
            out = attention_nominal(Q, K, V, scale=mode)
            np.testing.assert_allclose(
                out, softmax_rows(Q @ K.T / denom) @ V, atol=1e-12
            )
        with pytest.raises(ValueError, match="scaling must be one of"):
            attention_nominal(Q, K, V, scale=2.0)

    def test_causal_mask_blocks_future(self, rng):
        Q = rng.normal(size=(3, 4))
        V = rng.normal(size=(3, 4))
        _, A = attention_nominal(Q, Q, V, mask=causal_mask(3), return_weights=True)
        assert A[0, 1] == 0.0 and A[0, 2] == 0.0 and A[1, 2] == 0.0
        np.testing.assert_allclose(A.sum(axis=1), np.ones(3), atol=1e-12)


class TestCausalMask:
    def test_conventional_two(self):
        M = causal_mask(2)
        np.testing.assert_array_equal(M, [[0.0, -np.inf], [0.0, 0.0]])

    def test_single(self):
        np.testing.assert_array_equal(causal_mask(1), [[0.0]])

    def test_only_conventional_mode(self):
        with pytest.raises(ValueError, match="conventional"):
            causal_mask(2, "paper-literal")

    @pytest.mark.parametrize("s", [1, 2, 8, 64])
    def test_bytes_of_the_triu_construction(self, s):
        want = np.zeros((s, s))
        want[np.triu(np.ones((s, s), dtype=bool), k=1)] = -np.inf
        M = causal_mask(s)
        assert M.tobytes() == want.tobytes() and M.dtype == want.dtype
        assert M.flags.c_contiguous and M.flags.writeable and M.flags.owndata


class TestMultiHeadNominal:
    def test_single_head_identity_map(self, rng):
        Q = rng.normal(size=(3, 4))
        K = rng.normal(size=(3, 4))
        V = rng.normal(size=(3, 4))
        w = AttentionWeights()
        np.testing.assert_allclose(
            multi_head_nominal(Q, K, V, w), attention_nominal(Q, K, V), atol=1e-15
        )

    def test_two_heads_concat_is_kronecker(self, rng):
        Q = rng.normal(size=(3, 4))
        K = rng.normal(size=(3, 4))
        V = rng.normal(size=(3, 4))
        maps = tuple(rng.normal(size=(2, 4)) for _ in range(6))
        w = AttentionWeights(head_q=maps[0:2], head_k=maps[2:4], head_v=maps[4:6])
        out = multi_head_nominal(Q, K, V, w)
        h1 = attention_nominal(Q @ maps[0].T, K @ maps[2].T, V @ maps[4].T)
        h2 = attention_nominal(Q @ maps[1].T, K @ maps[3].T, V @ maps[5].T)
        for j in range(3):
            np.testing.assert_allclose(out[j], np.kron(h1[j], h2[j]), atol=1e-12)

    def test_output_map_shape_contract(self, rng):
        Q = rng.normal(size=(2, 3))
        maps = tuple(rng.normal(size=(2, 3)) for _ in range(6))
        M = rng.normal(size=(2 * 3, 4 * 2))  # r0 = 3, r = 4, s = 2
        w = AttentionWeights(head_q=maps[0:2], head_k=maps[2:4], head_v=maps[4:6],
                             out_map=M)
        out = multi_head_nominal(Q, Q, Q, w)
        assert out.shape == (2, 3)

    @pytest.mark.parametrize("given", [("head_q",), ("head_q", "head_k"), ("head_v",)])
    def test_partial_head_maps_rejected(self, rng, given):
        # Not a silent fallback to one head: the maps are all given or none is.
        Q = rng.normal(size=(3, 4))
        w = AttentionWeights(**{name: tuple(rng.normal(size=(2, 4)) for _ in range(2))
                                for name in given})
        with pytest.raises(ShapeError, match="head maps differ in count"):
            multi_head_nominal(Q, Q, Q, w)

    def test_concat_size_budget_enforced(self, rng):
        from stpdft import SizeBudgetError

        Q = rng.normal(size=(2, 4))
        maps = tuple(np.ones((2**11, 4)) for _ in range(9))  # r = 2**33
        w = AttentionWeights(head_q=maps[0:3], head_k=maps[3:6], head_v=maps[6:9])
        with pytest.raises(SizeBudgetError):
            multi_head_nominal(Q, Q, Q, w)


class TestAddNorm:
    def test_constant_vector_collapses_to_beta(self):
        X = np.full((1, 4), 2.5)
        out = add_norm(X, np.zeros((1, 4)), gamma=1.5, beta=0.3)
        np.testing.assert_allclose(out, np.full((1, 4), 0.3), atol=1e-12)

    def test_rows_centered(self, rng):
        X = rng.normal(size=(3, 5))
        F = rng.normal(size=(3, 5))
        out = add_norm(X, F, gamma=1.0, beta=0.0, eps=1e-12)
        np.testing.assert_allclose(out.mean(axis=1), np.zeros(3), atol=1e-9)

    def test_relu_clamps_before_normalizing(self):
        assert relu(-1.0) == 0.0
        assert relu(2.0) == 2.0
        X = np.array([[-1.0, 2.0]])
        out = add_norm(X, np.zeros((1, 2)), gamma=1.0, beta=0.0)
        # relu output is (0, 2); both normalized entries are finite and centered
        assert out[0, 0] < 0 < out[0, 1]

    def test_layer_wise_pools_everything(self, rng):
        X = rng.uniform(0.5, 1.5, size=(3, 4))
        out = add_norm(X, np.zeros((3, 4)), mode="layer-wise", gamma=1.0, beta=0.0,
                       eps=1e-12)
        assert out.mean() == pytest.approx(0.0, abs=1e-9)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            add_norm(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 140), st.integers(0, 2**32 - 1),
           st.sampled_from(["vector-wise", "layer-wise"]),
           st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(-1e3, 1e3)),
           st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
           st.one_of(st.just(1e-3), st.floats(1e-300, 1e3)))
    @example(1, 140, 1, "vector-wise", 1.0, -0.0, 1e-3)
    @example(70, 1, 2, "vector-wise", -0.0, 0.0, 1e-3)
    @example(1, 1, 3, "layer-wise", 1.5, -0.0, 1e-300)
    def test_bytes_match_the_per_row_loop(self, s, n, seed, mode, gamma, beta, eps):
        # Signed zeros, rows of equal entries and rows relu clears entirely
        # are mixed in, so both the centring and the zero spread are reached.
        rng = np.random.default_rng(seed)
        X, F = rng.normal(size=(2, s, n))
        kind = rng.integers(0, 4, size=(s, n))
        X[kind == 1], F[kind == 1] = -0.0, -0.0
        X[kind == 2], F[kind == 2] = 0.0, -0.0
        X[rng.random(s) < 0.2] = -50.0  # relu clears the row
        flat = rng.random(s) < 0.2
        X[flat], F[flat] = 2.5, 0.0
        got = add_norm(X, F, mode, gamma, beta, eps)
        want = add_norm_rows(X, F, mode, gamma, beta, eps)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestFfnNominal:
    def test_identity_reduction(self, rng):
        X = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(ffn_nominal(X, np.eye(3), np.eye(3)), relu(X))

    def test_bias_projection_matches_columnwise_nominal_add(self, rng):
        X = rng.uniform(1.0, 2.0, size=(3, 4))  # positive: relu inert
        W1 = np.eye(3)
        b1 = rng.normal(size=5)  # needs projection from length 5 to 3
        out = ffn_nominal(X, W1, np.eye(3), b1=b1)
        for j in range(4):
            expected = nominal_add(X[:, j], b1, 3)
            np.testing.assert_allclose(relu(expected), out[:, j], atol=1e-12)

    def test_both_biases_against_the_formula(self, rng):
        X, w1, w2 = rng.normal(size=(3, 4)), rng.normal(size=(5, 3)), rng.normal(size=(2, 5))
        b1, b2 = rng.normal(size=4), rng.normal(size=7)
        expected = w2 @ relu(w1 @ X + project(b1, 5)[:, None]) + project(b2, 2)[:, None]
        np.testing.assert_allclose(ffn_nominal(X, w1, w2, b1, b2), expected, rtol=0, atol=1e-12)

    def test_negative_zeroing_propagates(self):
        X = np.array([[-5.0, -1.0]])
        out = ffn_nominal(X, np.eye(1), np.eye(1))
        np.testing.assert_array_equal(out, [[0.0, 0.0]])


class TestZeroPadPipeline:
    def test_walkthrough_truncated_sums(self, rng):
        W = rng.normal(size=(6, 6))
        comps = [rng.normal(size=3), rng.normal(size=4), rng.normal(size=5),
                 rng.normal(size=3)]
        X = HyperVector(comps)
        out = zero_pad_pipeline(X, W, 6, X.dims)
        for c, o in zip(comps, out.components):
            n = len(c)
            np.testing.assert_allclose(o, W[:n, :n] @ c, atol=1e-12)

    def test_full_width_is_plain_multiply(self, rng):
        M = rng.normal(size=(3, 4))
        W = rng.normal(size=(4, 4))
        out = zero_pad_pipeline(HyperVector.from_matrix(M), W, 4, [4, 4, 4])
        np.testing.assert_allclose(out.to_matrix(), M @ W.T, atol=1e-12)

    def test_zero_in_zero_out(self):
        X = HyperVector([np.zeros(2), np.zeros(3)])
        out = zero_pad_pipeline(X, np.ones((3, 3)), 3, [2, 3])
        assert all(np.all(c == 0) for c in out.components)


class TestProjPadPipeline:
    def test_resampled_component_pattern(self, rng):
        x = rng.normal(size=4)
        up = project(x, 6)
        np.testing.assert_allclose(
            up,
            [x[0], (x[0] + x[1]) / 2, x[1], x[2], (x[2] + x[3]) / 2, x[3]],
            atol=1e-12,
        )

    def test_coefficient_matrix_for_first_component(self, rng):
        # Output 1 of the (3,4,5,3)-batch at nominal 6 is (P63 W P36) x1; the
        # halved coefficient matrix has entries summing the four W cells of
        # each 2 x 2 block.
        W = rng.normal(size=(6, 6))
        comps = [rng.normal(size=3), rng.normal(size=4), rng.normal(size=5),
                 rng.normal(size=3)]
        X = HyperVector(comps)
        out = proj_pad_pipeline(X, W, 6, X.dims)
        mu = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                mu[i, j] = W[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].sum()
        np.testing.assert_allclose(out[0], mu @ comps[0] / 2, atol=1e-12)
        np.testing.assert_allclose(out[3], mu @ comps[3] / 2, atol=1e-12)
        oracle = proj_matrix(6, 4) @ W @ proj_matrix(4, 6) @ comps[1]
        np.testing.assert_allclose(out[1], oracle, atol=1e-12)

    def test_matching_dims_is_plain_multiply(self, rng):
        M = rng.normal(size=(3, 4))
        W = rng.normal(size=(4, 4))
        out = proj_pad_pipeline(HyperVector.from_matrix(M), W, 4, [4, 4, 4])
        np.testing.assert_allclose(out.to_matrix(), M @ W.T, atol=1e-12)

    def test_nominal_below_longest_sequence_allowed(self, rng):
        X = HyperVector([rng.normal(size=5), rng.normal(size=2)])
        out = proj_pad_pipeline(X, rng.normal(size=(3, 3)), 3, X.dims)
        assert out.dims == (5, 2)
        assert all(np.all(np.isfinite(c)) for c in out.components)


class TestDvAttention:
    def test_uniform_matches_nominal(self, rng):
        d = 4
        Q = rng.normal(size=(3, d))
        K = rng.normal(size=(3, d))
        V = rng.normal(size=(3, d))
        out = dv_attention(HyperVector.from_matrix(Q), HyperVector.from_matrix(K),
                           HyperVector.from_matrix(V))
        np.testing.assert_allclose(
            out.to_matrix(), attention_nominal(Q, K, V, scale="sqrt-n"), atol=1e-12
        )

    def test_single_sequence_returns_value(self, rng):
        V = HyperVector([rng.normal(size=4)])
        Q = HyperVector([rng.normal(size=3)])
        out = dv_attention(Q, Q, V)
        np.testing.assert_allclose(out[0], V[0], atol=1e-15)

    def test_ragged_composed_oracle(self, rng):
        Q = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        K = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        V = HyperVector([rng.normal(size=4), rng.normal(size=2)])
        out, A = dv_attention(Q, K, V, return_weights=True)
        expected_A = softmax_rows(hyper_inner_weighted(Q, K))
        np.testing.assert_allclose(A, expected_A, atol=1e-12)
        expected = diamond(expected_A, V)
        for o, e in zip(out.components, expected.components):
            np.testing.assert_allclose(o, e, atol=1e-12)

    def test_profile_preserved(self, rng):
        Q = HyperVector([rng.normal(size=2), rng.normal(size=5), rng.normal(size=1)])
        V = HyperVector([rng.normal(size=3), rng.normal(size=2), rng.normal(size=4)])
        assert dv_attention(Q, Q, V).dims == V.dims

    def test_one_operand_twice_gives_the_bytes_of_a_copy(self, rng):
        # On one buffer numpy would take A @ A.T by its symmetric product.
        X = HyperVector.from_matrix(rng.normal(size=(36, 36)))
        C = HyperVector(X.buffer, X.dims)
        assert hyper_inner(X, X).tobytes() == hyper_inner(X, C).tobytes()
        assert dv_attention(X, X, X).buffer.tobytes() == dv_attention(X, C, X).buffer.tobytes()


    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_weights_match_replication_oracle(self, data):
        qd = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
        kd = data.draw(st.lists(st.one_of(st.sampled_from(qd), st.integers(1, 40)),
                                min_size=len(qd), max_size=len(qd)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        Q = HyperVector([rng.normal(size=d) for d in qd])
        K = HyperVector([rng.normal(size=d) for d in kd])
        V = HyperVector([rng.normal(size=d) for d in kd])
        lcms = np.lcm.outer(Q.dims, K.dims)
        factor = {"sqrt-n": np.sqrt(lcms), "n": 1.0, "sqrt-s": lcms / math.sqrt(len(qd))}
        for scaling, f in factor.items():
            _, A = dv_attention(Q, K, V, scaling=scaling, return_weights=True)
            E = oracle_gram(Q, K) * f
            e = np.exp(E - E.max(axis=1, keepdims=True))
            expected = e / e.sum(axis=1, keepdims=True)
            # A softmax moves by at most twice the largest score error in its row.
            score_tol = 1e-12 * (cauchy_schwarz_scale(Q, K) * f).max(axis=1, keepdims=True)
            assert np.all(np.abs(A - expected) <= 2 * score_tol + 1e-15), scaling


def repeat_tile_attention(Q, K, V, **kw):
    """dv_attention written out for batch sizes p, q, r: softmax the scores,
    repeat each column t/q times (kron with ones), tile V's component list
    t/r times, t = lcm(q, r), and act through diamond."""
    A = softmax_rows(hyper_inner_weighted(Q, K))
    t = math.lcm(K.batch_size, V.batch_size)
    A_rep = np.kron(A, np.ones((1, t // K.batch_size)))
    V_rep = HyperVector(list(V.components) * (t // V.batch_size))
    return diamond(A_rep, V_rep, **kw), A


class TestDvAttentionGeneral:
    def test_equal_batches_reduce_to_square_case(self, rng):
        Q = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        K = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        V = HyperVector([rng.normal(size=4), rng.normal(size=2)])
        a = dv_attention(Q, K, V)
        b = diamond(softmax_rows(hyper_inner_weighted(Q, K)), V)
        assert a.dims == V.dims
        assert a.buffer.tobytes() == b.buffer.tobytes()

    def test_hand_unrolled_single_query(self, rng):
        # p = q = 1, r = 2: the score softmax is [[1]], its column is spread
        # over lcm(1, 2) = 2 replicas, so the output is the unpadded sum of
        # both padded value components.
        Q = HyperVector([rng.normal(size=2)])
        K = HyperVector([rng.normal(size=3)])
        V = HyperVector([rng.normal(size=2), rng.normal(size=4)])
        out = dv_attention(Q, K, V, out_dims=[3])
        n0 = 4
        padded_sum = project(V[0], n0) + project(V[1], n0)
        np.testing.assert_allclose(out[0], project(padded_sum, 3), atol=1e-12)

    def test_batch_shape_contract(self, rng):
        Q = HyperVector([rng.normal(size=2), rng.normal(size=3), rng.normal(size=2)])
        K = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        V = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        out = dv_attention(Q, K, V)
        assert out.batch_size == 3
        out2 = dv_attention(Q, K, V, out_dims=[5, 1, 2])
        assert out2.dims == (5, 1, 2)

    def test_mismatch_routed_from_square_entry_point(self, rng):
        Q = HyperVector([rng.normal(size=2)])
        K = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        V = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        out = dv_attention(Q, K, V)
        assert out.batch_size == 1

    @pytest.mark.parametrize("p,q,r", [(2, 4, 2), (3, 2, 4), (2, 3, 5), (4, 2, 2),
                                       (5, 5, 2), (1, 1, 2)])
    def test_unequal_batches_match_repeat_tile_oracle(self, rng, p, q, r):
        Q, K, V = (HyperVector([rng.normal(size=int(d)) for d in rng.integers(1, 7, b)])
                   for b in (p, q, r))
        out, A = dv_attention(Q, K, V, return_weights=True)
        expected, expected_A = repeat_tile_attention(Q, K, V)
        assert A.shape == (p, q)
        assert A.tobytes() == expected_A.tobytes()
        assert out.dims == tuple(V.dims[i % r] for i in range(p))
        assert out.buffer.tobytes() == expected.buffer.tobytes()
        dims = tuple(int(d) for d in rng.integers(1, 7, p))
        out = dv_attention(Q, K, V, n0=5, out_dims=dims)
        expected, _ = repeat_tile_attention(Q, K, V, n0=5, out_dims=dims)
        assert out.buffer.tobytes() == expected.buffer.tobytes()


class TestDvMultiHead:
    def test_single_head_is_projection(self, rng):
        H = HyperVector([rng.normal(size=3), rng.normal(size=5)])
        out = dv_multi_head([H], target_dims=[2, 2])
        for o, h in zip(out.components, H.components):
            np.testing.assert_allclose(o, project(h, 2), atol=1e-15)

    def test_matching_dims_is_plain_sum(self, rng):
        H1 = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        H2 = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        out = dv_multi_head([H1, H2], target_dims=[3, 2])
        for o, a, b in zip(out.components, H1.components, H2.components):
            np.testing.assert_allclose(o, a + b, atol=1e-15)

    def test_block_matrix_path_agrees(self, rng):
        # Stacked-form oracle: block-diagonal projections applied to each
        # head's addition form, then the weighted sum of the stacked vectors.
        heads = [
            HyperVector([rng.normal(size=2), rng.normal(size=4)]),
            HyperVector([rng.normal(size=3), rng.normal(size=3)]),
        ]
        target = (3, 2)
        weights = (0.7, 2.0)
        stacked = np.zeros(sum(target))
        for wgt, h in zip(weights, heads):
            blocks = np.zeros((sum(target), sum(h.dims)))
            r = c = 0
            for tgt, d in zip(target, h.dims):
                blocks[r : r + tgt, c : c + d] = proj_matrix(d, tgt)
                r += tgt
                c += d
            stacked = stacked + wgt * (blocks @ h.to_addition_form())
        out = dv_multi_head(heads, target_dims=target, weights=weights)
        np.testing.assert_allclose(out.to_addition_form(), stacked, atol=1e-12)

    def test_output_maps(self, rng):
        H = HyperVector([rng.normal(size=2), rng.normal(size=2)])
        M = rng.normal(size=(3, 2))
        out = dv_multi_head([H], target_dims=[2, 2], out_maps=[M, None])
        np.testing.assert_allclose(out[0], M @ H[0], atol=1e-15)
        np.testing.assert_allclose(out[1], H[1], atol=1e-15)


class TestDfAddNorm:
    def test_matching_profile_is_ordinary_residual(self, rng):
        X = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        F = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        out = df_add_norm(X, F, gamma=1.0, beta=0.0, eps=1e-3)
        oracle = [relu(x + f) for x, f in zip(X.components, F.components)]
        from stpdft.transformer import _normalize
        for o, z in zip(out.components, oracle):
            np.testing.assert_allclose(o, _normalize(z, 1.0, 0.0, 1e-3), atol=1e-12)

    def test_zero_branch_normalizes_projected_skip(self, rng):
        X = HyperVector([rng.uniform(1, 2, size=4)])
        F = HyperVector([np.zeros(2)])
        out = df_add_norm(X, F, gamma=1.0, beta=0.0, eps=1e-12)
        assert out.dims == (2,)
        assert out[0].mean() == pytest.approx(0.0, abs=1e-9)

    def test_ragged_profile_follows_branch(self, rng):
        X = HyperVector([rng.normal(size=5), rng.normal(size=2)])
        F = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        out = df_add_norm(X, F)
        assert out.dims == (2, 3)
        projected = [project(x, len(f)) + f for x, f in zip(X.components, F.components)]
        from stpdft.transformer import _normalize
        for o, z in zip(out.components, projected):
            np.testing.assert_allclose(o, _normalize(relu(z), 1.0, 0.0, 1e-3), atol=1e-12)

    @pytest.mark.parametrize("mode", ["vector-wise", "layer-wise"])
    def test_gamma_or_beta_that_widens_the_output_rejected(self, rng, mode):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        for gamma, beta in ((np.ones((1, 1)), 0.0), (1.0, np.zeros((1, 5)))):
            with pytest.raises(ValueError):
                df_add_norm(X, X, mode, gamma, beta)

    @settings(max_examples=60, deadline=None)
    @given(resample_profiles(), st.floats(0.1, 3.0), st.floats(-2.0, 2.0),
           st.sampled_from([1e-3, 1e-6]))
    def test_vector_wise_matches_per_component_normalize(self, profiles, gamma, beta, eps):
        dims_in, dims_out, seed = profiles
        rng = np.random.default_rng(seed)
        X = HyperVector([rng.normal(size=m) for m in dims_in])
        F = HyperVector([rng.normal(size=n) for n in dims_out])
        out = df_add_norm(X, F, "vector-wise", gamma, beta, eps)
        assert out.dims == F.dims
        for o, x, f in zip(out.components, X.components, F.components):
            z = relu(project(x, len(f)) + f)
            spread = math.sqrt(float(((z - z.mean()) ** 2).sum())) / z.size
            scale = np.abs(z).max() / math.sqrt(spread + eps) * gamma + abs(beta)
            err = np.abs(o - _normalize(z, gamma, beta, eps))
            assert np.all(err <= 1e-12 * scale)


class TestDfFfn:
    def test_homogeneous_identity_is_relu(self, rng):
        M = rng.normal(size=(3, 4))
        out = df_ffn(HyperVector.from_matrix(M), np.eye(3), np.eye(3))
        np.testing.assert_allclose(out.to_matrix(), relu(M), atol=1e-15)

    def test_homogeneous_matches_nominal_ffn(self, rng):
        M = rng.normal(size=(3, 4))
        W1 = rng.normal(size=(3, 3))
        W2 = rng.normal(size=(3, 3))
        out = df_ffn(HyperVector.from_matrix(M), W1, W2)
        np.testing.assert_allclose(out.to_matrix(), ffn_nominal(M, W1, W2), atol=1e-12)

    def test_ragged_composed_oracle(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=4)])
        W1 = rng.normal(size=(2, 2))
        W2 = rng.normal(size=(2, 2))
        B1 = HyperVector([rng.normal(size=2), rng.normal(size=4)])
        B2 = HyperVector([rng.normal(size=3), rng.normal(size=1)])
        out = df_ffn(X, W1, W2, B1, B2)
        from stpdft import hyper_add_listwise
        H = hyper_add_listwise(diamond(W1, X), B1, X.dims)
        H = HyperVector(relu(H.buffer), H.dims)
        expected = hyper_add_listwise(diamond(W2, H), B2, X.dims)
        for o, e in zip(out.components, expected.components):
            np.testing.assert_allclose(o, e, atol=1e-12)
        assert out.dims == X.dims


class TestAssembledAttention:
    def test_equal_products_give_equal_outputs(self, rng):
        X = rng.normal(size=(3, 4))
        Wq1 = rng.normal(size=(4, 4))
        Wk1 = rng.normal(size=(4, 4))
        Wv = rng.normal(size=(4, 4))
        C = rng.normal(size=(4, 4)) + 2 * np.eye(4)  # well-conditioned
        Wq2 = np.linalg.inv(C).T @ Wq1
        Wk2 = C @ Wk1
        np.testing.assert_allclose(
            assembled_attention(X, Wq1, Wk1, Wv),
            assembled_attention(X, Wq2, Wk2, Wv),
            atol=1e-9,
        )

    def test_scaling_invariance(self, rng):
        X = rng.normal(size=(3, 4))
        Wqk = rng.normal(size=(4, 4))
        Wv = rng.normal(size=(4, 4))
        base = assembled_attention_qk(X, Wqk, Wv)
        for lam in (1e-3, 3.0, 1e3):
            scaled = assembled_attention_qk(X, lam * Wqk, Wv / lam)
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_zero_input_gives_uniform_rows(self):
        X = np.zeros((3, 4))
        out = assembled_attention(X, np.eye(4), np.eye(4), np.eye(4))
        np.testing.assert_allclose(out, np.full((3, 4), 0.25), atol=1e-15)


def _hand_composed_block(M, w, gamma, beta, eps):
    """Fixed-length oracle for one encoder block with square s x s FFN maps."""
    Q = M @ w.wq.T
    K = M @ w.wk.T
    V = M @ w.wv.T
    A = softmax_rows(Q @ K.T / math.sqrt(M.shape[1]))
    Z = add_norm(M, A @ V, gamma=gamma, beta=beta, eps=eps)
    B1 = np.stack(w.ffn_b1.components)
    B2 = np.stack(w.ffn_b2.components)
    F = w.ffn_w2 @ relu(w.ffn_w1 @ Z + B1) + B2
    return add_norm(Z, F, gamma=gamma, beta=beta, eps=eps)


class TestEncoder:
    def _weights(self, rng, s, d, dims):
        return AttentionWeights(
            wq=rng.normal(size=(d, d)),
            wk=rng.normal(size=(d, d)),
            wv=rng.normal(size=(d, d)),
            ffn_w1=rng.normal(size=(s, s)),
            ffn_w2=rng.normal(size=(s, s)),
            ffn_b1=HyperVector([rng.normal(size=n) for n in dims]),
            ffn_b2=HyperVector([rng.normal(size=n) for n in dims]),
        )

    def test_zero_layers_is_identity(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        cfg = ModelConfig(batch_size=2, nominal_dim=3, layers=0)
        out = encoder_stack(X, [], cfg)
        for a, b in zip(out.components, X.components):
            np.testing.assert_array_equal(a, b)

    def test_single_homogeneous_block_matches_hand_composition(self, rng):
        s, d = 3, 4
        M = rng.normal(size=(s, d))
        X = HyperVector.from_matrix(M)
        w = self._weights(rng, s, d, X.dims)
        cfg = ModelConfig(batch_size=s, nominal_dim=d, layers=1)
        out = encoder_block(X, w, cfg)
        expected = _hand_composed_block(M, w, w.gamma, w.beta, w.eps)
        np.testing.assert_allclose(out.to_matrix(), expected, atol=1e-12)

    def test_two_ragged_blocks_preserve_profile(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=5), rng.normal(size=3)])
        w = self._weights(rng, 3, 5, X.dims)
        cfg = ModelConfig(batch_size=3, nominal_dim=5, layers=2)
        out = encoder_stack(X, [w], cfg)
        assert out.dims == X.dims
        assert all(np.all(np.isfinite(c)) for c in out.components)

    def test_multi_head_block_runs(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=4)])
        w = self._weights(rng, 2, 4, X.dims)
        w.head_q = tuple(rng.normal(size=(2, 2)) for _ in range(2))
        w.head_k = tuple(rng.normal(size=(2, 2)) for _ in range(2))
        w.head_v = tuple(rng.normal(size=(2, 2)) for _ in range(2))
        cfg = ModelConfig(batch_size=2, nominal_dim=4, heads=2, layers=1)
        out, atts = encoder_block(X, w, cfg, return_weights=True)
        assert out.dims == X.dims
        assert len(atts) == 2 and atts[0].shape == (2, 2)

    def test_block_errors_name_the_block(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        w = self._weights(rng, 2, 3, X.dims)
        w.ffn_w1 = rng.normal(size=(5, 5))  # wrong batch mixing size
        cfg = ModelConfig(batch_size=2, nominal_dim=3, layers=1)
        with pytest.raises(ShapeError, match="block 1"):
            encoder_stack(X, [w], cfg)

    def test_config_eps_moves_the_output(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=4), rng.normal(size=3)])
        w = self._weights(rng, 3, 4, X.dims)
        outs = [encoder_stack(X, [w], ModelConfig(batch_size=3, nominal_dim=4, eps=eps))
                for eps in (1e-3, 0.5)]
        assert not np.array_equal(outs[0].buffer, outs[1].buffer)

    @pytest.mark.parametrize("field,value", [("nominal_dim", 5.0), ("heads", True),
                                             ("layers", "2"), ("eps", "0.5"),
                                             ("eps", True)])
    def test_config_rejects_a_wrong_type_naming_the_field(self, field, value):
        with pytest.raises(TypeError) as info:
            ModelConfig(**{"batch_size": 2, "nominal_dim": 3, field: value})
        assert str(info.value).split()[0] == field

    def test_config_is_frozen(self):
        cfg = ModelConfig(batch_size=2, nominal_dim=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.eps = 0.5

    @pytest.mark.parametrize("counts", [(2, 1, 1), (2, 2, None), (1, 1, 1), (None, 2, 2)])
    def test_head_map_counts_must_all_match_the_config(self, rng, counts):
        X = HyperVector([rng.normal(size=2), rng.normal(size=4)])
        w = self._weights(rng, 2, 4, X.dims)
        w.head_q, w.head_k, w.head_v = (
            None if n is None else tuple(rng.normal(size=(2, 2)) for _ in range(n))
            for n in counts)
        with pytest.raises(ShapeError, match="head maps"):
            encoder_block(X, w, ModelConfig(batch_size=2, nominal_dim=4, heads=2))

    @pytest.mark.parametrize("padding", PADDING_MODES)
    def test_stack_calls_the_module_pipeline_once_per_block(self, rng, monkeypatch, padding):
        # perfbench's span tracer times the Q/K/V stage by wrapping these two
        # module-level names, so every block must reach Q/K/V through them.
        X = HyperVector([rng.normal(size=n) for n in (2, 5, 3)])
        w = self._weights(rng, 3, 5, X.dims)
        calls = {"proj_pad_pipeline": 0, "zero_pad_pipeline": 0}

        def counting(name, pipeline):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return pipeline(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(transformer, name, counting(name, getattr(transformer, name)))
        encoder_stack(X, [w], ModelConfig(batch_size=3, nominal_dim=5, padding=padding,
                                          layers=3))
        used = "proj_pad_pipeline" if padding == "projection" else "zero_pad_pipeline"
        assert calls == {name: 3 if name == used else 0 for name in calls}

    def test_stack_memory_is_flat_in_layers(self):
        # Without return_weights no block keeps anything once the next one
        # has run, so the traced peak of 2,000 layers is that of 10.  The
        # first run fills the interpreter's free lists with traced objects,
        # which the measured runs would otherwise read as growth.
        X = HyperVector([np.array([0.5]), np.array([1.0, -1.0]), np.array([2.0])])
        w = AttentionWeights(wq=np.eye(2), wk=np.eye(2), wv=np.eye(2))

        def peak(layers):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            encoder_stack(X, [w], ModelConfig(batch_size=3, nominal_dim=2, layers=layers))
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            peak(2000)
            short, long = peak(10), peak(2000)
        finally:
            tracemalloc.stop()
        assert long < short + 64 * 2**10

    def test_masked_block_rows_remain_stochastic(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3), rng.normal(size=2)])
        w = self._weights(rng, 3, 3, X.dims)
        cfg = ModelConfig(batch_size=3, nominal_dim=3, mask="causal", layers=1)
        _, atts = encoder_block(X, w, cfg, return_weights=True)
        A = atts[0]
        assert A[0, 1] == 0.0 and A[0, 2] == 0.0
        np.testing.assert_allclose(A.sum(axis=1), np.ones(3), atol=1e-12)

    def _stack_case(self, rng, padding, heads):
        """A ragged batch, its weights and a two-layer config; with two heads
        the weights carry batch-mixing head maps."""
        s = int(rng.integers(2, 6))
        dims = tuple(int(n) for n in rng.integers(1, 7, s))
        X = HyperVector([rng.normal(size=n) for n in dims])
        d = max(dims) + int(rng.integers(0, 2))
        w = self._weights(rng, s, d, dims)
        if heads > 1:
            w.head_q, w.head_k, w.head_v = (
                tuple(rng.normal(size=(s, s)) for _ in range(heads)) for _ in range(3))
        return X, w, ModelConfig(batch_size=s, nominal_dim=d, heads=heads,
                                 padding=padding, layers=2)

    @pytest.mark.parametrize("padding", PADDING_MODES)
    @pytest.mark.parametrize("heads", [1, 2])
    def test_causal_rows_ignore_later_columns(self, rng, padding, heads):
        for _ in range(5):
            X, w, cfg = self._stack_case(rng, padding, heads)
            cfg = dataclasses.replace(cfg, mask="causal")
            _, atts = encoder_stack(X, [w], cfg, return_weights=True)
            assert len(atts) == 2 and all(len(layer) == heads for layer in atts)
            for A in (A for layer in atts for A in layer):
                assert np.all(np.triu(A, 1) == 0.0)

    @pytest.mark.parametrize("padding", PADDING_MODES)
    @pytest.mark.parametrize("last", [
        pytest.param(2, id="same-length"),
        pytest.param(5, id="longer", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "every diamond of the block pads to n0 = max(dims) over the batch, so the"
                " last token's length moves the earlier tokens: README, `--mask causal`"))),
    ])
    def test_causal_block_keeps_earlier_tokens(self, padding, last):
        # With lower-triangular W1 and W2, no biases and the vector-wise norm,
        # new values for the last token, at length 2 or at 5 > max(dims),
        # must leave the bytes of tokens 0..s-2.
        rng = np.random.default_rng(7)
        dims, d = (3, 4, 2, 2), 9
        w = AttentionWeights(*(rng.normal(size=(d, d)) for _ in range(3)),
                             ffn_w1=np.tril(rng.normal(size=(4, 4))),
                             ffn_w2=np.tril(rng.normal(size=(4, 4))))
        cfg = ModelConfig(batch_size=4, nominal_dim=d, padding=padding, mask="causal",
                          norm_mode="vector-wise")
        head = [rng.normal(size=n) for n in dims[:-1]]
        X = HyperVector(head + [rng.normal(size=2)])
        Y = HyperVector(head + [rng.normal(size=last)])
        n = sum(dims[:-1])
        assert (encoder_block(X, w, cfg).buffer[:n].tobytes()
                == encoder_block(Y, w, cfg).buffer[:n].tobytes())

    @pytest.mark.parametrize("padding", PADDING_MODES)
    @pytest.mark.parametrize("heads", [1, 2])
    def test_token_permutation_equivariance(self, rng, padding, heads):
        # Permuting the tokens, with P W P^T on every batch-mixing map and
        # the biases permuted alike, permutes the output: no stage of the
        # unmasked block may depend on the order of the tokens.
        for _ in range(10):
            X, w, cfg = self._stack_case(rng, padding, heads)
            perm = rng.permutation(cfg.batch_size)

            def mix(W):
                return W[np.ix_(perm, perm)]

            def reorder(H):
                return HyperVector([H.components[k] for k in perm])

            wp = dataclasses.replace(
                w, ffn_w1=mix(w.ffn_w1), ffn_w2=mix(w.ffn_w2),
                ffn_b1=reorder(w.ffn_b1), ffn_b2=reorder(w.ffn_b2))
            if heads > 1:
                wp.head_q, wp.head_k, wp.head_v = (
                    tuple(map(mix, maps)) for maps in (w.head_q, w.head_k, w.head_v))
            Y = encoder_stack(X, [w], cfg)
            Yp = encoder_stack(reorder(X), [wp], cfg)
            want = reorder(Y)
            assert Yp.dims == want.dims
            scale = max(1.0, float(np.max(np.abs(Y.buffer))))
            assert np.max(np.abs(Yp.buffer - want.buffer)) <= 1e-12 * scale


class TestPlanReuse:
    """A forward pass builds each bridge band once per profile pair."""

    def _stack(self, rng, lengths, n0):
        X = HyperVector([rng.normal(size=n) for n in lengths])
        s = len(lengths)
        w = AttentionWeights(
            wq=rng.normal(size=(n0, n0)),
            wk=rng.normal(size=(n0, n0)),
            wv=rng.normal(size=(n0, n0)),
            ffn_w1=rng.normal(size=(s, s)),
            ffn_w2=rng.normal(size=(s, s)),
        )
        return X, w, ModelConfig(batch_size=s, nominal_dim=n0, layers=2)

    @staticmethod
    def _clear_plans():
        projection._resample_band.cache_clear()
        projection._gram_plan.cache_clear()

    def test_two_layer_ragged_stack_lists_two_bands(self, rng, monkeypatch):
        X, w, cfg = self._stack(rng, [61, *rng.integers(17, 61, 15)], 61)
        calls, band_rows = [], algebra._band_rows

        def counting_rows(n, p):
            calls.append((n, p))
            return band_rows(n, p)

        # _band_rows is the one code that computes a band; count it through
        # every module that binds it.
        assert not hasattr(hypervector, "_band_rows")
        monkeypatch.setattr(algebra, "_band_rows", counting_rows)
        monkeypatch.setattr(projection, "_band_rows", counting_rows)
        self._clear_plans()
        encoder_stack(X, [w], cfg)
        # One band for the pad to n0 and the unpad back, one for the Q x K
        # Gram plan.
        assert len(calls) == 2

    @pytest.mark.parametrize("padding", ["projection", "zero"])
    def test_qkv_pads_once_and_keeps_the_bytes(self, rng, monkeypatch, padding):
        lengths = [61, *rng.integers(17, 61, 15)]
        X, w, cfg = self._stack(rng, lengths, 61)
        cfg = dataclasses.replace(cfg, padding=padding)
        pipeline = proj_pad_pipeline if padding == "projection" else zero_pad_pipeline
        want = [pipeline(X, W, 61, X.dims) for W in (w.wq, w.wk, w.wv)]
        resamples, resample = [], projection._resample

        def counting_resample(P, dims_in, dims_out):
            resamples.append(dims_in)
            return resample(P, dims_in, dims_out)

        # The pipelines pad and unpad through hypervector._pad and _unpad,
        # which call the binding of projection._resample in their module.
        monkeypatch.setattr(hypervector, "_resample", counting_resample)
        got = _qkv_hyper(X, w, cfg)
        for g, v in zip(got, want, strict=True):
            assert g.dims == v.dims and g.buffer.tobytes() == v.buffer.tobytes()
        # One pad of X, then one unpad per product.
        assert resamples == ([X.dims] + [(61,) * 16] * 3 if padding == "projection" else [])

    def test_plans_retain_little_memory(self, rng):
        X, w, cfg = self._stack(rng, rng.integers(17, 62, 16), 61)
        gc.collect()
        tracemalloc.start()
        try:
            self._clear_plans()
            Y = encoder_stack(X, [w], cfg)
            del Y
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2 * 2**20

    def test_fresh_profile_plans_peak_memory(self):
        # The longest ragged_coprime profile: lengths 61 down to 46.  Built
        # entry by entry (bridge_band, then offsets and casts per entry), the
        # plans peaked at 1,050,717 B (Gram) and up to 122,614 B (resample,
        # over three runs) with numpy 2.4; the row-level build must not trade
        # memory for time.
        dims = (61, *range(60, 45, -1))
        self._clear_plans()
        tracemalloc.start()
        try:
            projection._gram_plan(dims, dims)
            gram_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            projection._resample_band(dims, (61,) * 16)
            resample_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert gram_peak <= 1_050_717
        assert resample_peak <= 122_614


def lcm_weighted(X, Y):
    """hyper_inner_weighted with the lcm scale matrix for every profile."""
    return hyper_inner(X, Y) * np.sqrt(np.lcm.outer(X.dims, Y.dims))


@contextlib.contextmanager
def always_resampled():
    """Run the stages the long way: every resample goes through
    project_batch, the identity ones included, and every score matrix is
    scaled by the lcm matrix (lcm_weighted).  Yields the list of resamples made."""
    calls = []

    def resample(P, dims_in, dims_out):
        calls.append(dims_in)
        return project_batch(P, dims_in, dims_out)

    with mock.patch.object(hypervector, "_resample", resample), \
            mock.patch.object(transformer, "_resample", resample), \
            mock.patch.object(transformer, "hyper_inner_weighted", lcm_weighted), \
            mock.patch.object(transformer, "_lcm_scale",
                              lambda X, Y: np.lcm.outer(X.dims, Y.dims)):
        yield calls


@st.composite
def stage_profiles(draw):
    """A homogeneous or a ragged profile of 1 to 6 lengths in [1, 9], and a seed."""
    s = draw(st.integers(1, 6))
    ragged = st.lists(st.integers(1, 9), min_size=s, max_size=s)
    dims = draw(st.one_of(st.integers(1, 9).map(lambda d: [d] * s), ragged))
    return tuple(dims), draw(st.integers(0, 2**32 - 1))


def same_bytes(X, Y):
    return X.dims == Y.dims and X.buffer.tobytes() == Y.buffer.tobytes()


def two_head_weights(rng, s, d, b2_len):
    """Random weights of a two-head block: Q/K/V maps, head maps, FFN maps,
    a length-d b1 and a length-b2_len b2."""
    maps = [tuple(rng.normal(size=(s, s)) for _ in range(2)) for _ in range(3)]
    return AttentionWeights(
        wq=rng.normal(size=(d, d)), wk=rng.normal(size=(d, d)), wv=rng.normal(size=(d, d)),
        head_q=maps[0], head_k=maps[1], head_v=maps[2],
        ffn_w1=rng.normal(size=(s, s)), ffn_w2=rng.normal(size=(s, s)),
        ffn_b1=rng.normal(size=d), ffn_b2=rng.normal(size=b2_len),
    )


class TestSkippedResamples:
    """Skipping identity resamples and scaling homogeneous scores by one
    scalar keep every bit of the long way (always_resampled)."""

    @settings(max_examples=80, deadline=None)
    @given(stage_profiles(), st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2))
    def test_diamond(self, case, dp, n0_kind, out_kind):
        dims, seed = case
        rng = np.random.default_rng(seed)
        s = len(dims)
        p = max(1, s + dp)
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        A = rng.normal(size=(p, s))
        n0 = (None, max(dims), max(dims) + 1)[n0_kind]
        out_dims = (None, (n0 or max(dims),) * p, tuple(rng.integers(1, 10, p)))[out_kind]
        got = diamond(A, X, n0, out_dims)
        with always_resampled() as calls:
            want = diamond(A, X, n0, out_dims)
        assert len(calls) == 2 and same_bytes(got, want)

    @settings(max_examples=60, deadline=None)
    @given(stage_profiles(), st.integers(0, 1), st.integers(0, 2), st.integers(1, 3))
    def test_proj_pad_pipeline(self, case, d_kind, out_kind, transforms):
        dims, seed = case
        rng = np.random.default_rng(seed)
        s = len(dims)
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        d = (max(dims), int(rng.integers(1, 10)))[d_kind]
        dims_out = (dims, (d,) * s, tuple(rng.integers(1, 10, s)))[out_kind]
        W = tuple(rng.normal(size=(d, d)) for _ in range(transforms))
        got = proj_pad_pipeline(X, W, d, dims_out)
        with always_resampled() as calls:
            want = proj_pad_pipeline(X, W, d, dims_out)
        assert len(calls) == 1 + transforms
        assert all(same_bytes(g, v) for g, v in zip(got, want, strict=True))

    @settings(max_examples=60, deadline=None)
    @given(stage_profiles(), st.booleans(), st.sampled_from(["vector-wise", "layer-wise"]))
    def test_df_add_norm(self, case, same_profile, mode):
        dims, seed = case
        rng = np.random.default_rng(seed)
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        f_dims = dims if same_profile else tuple(rng.integers(1, 10, len(dims)))
        F = HyperVector(rng.normal(size=sum(f_dims)), f_dims)
        got = df_add_norm(X, F, mode)
        with always_resampled() as calls:
            want = df_add_norm(X, F, mode)
        assert len(calls) == 1 and same_bytes(got, want)

    @settings(max_examples=60, deadline=None)
    @given(stage_profiles(), st.integers(0, 2))
    def test_hyper_inner_weighted(self, case, y_kind):
        dims, seed = case
        rng = np.random.default_rng(seed)
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        t = int(rng.integers(1, 7))
        y_dims = ((dims[0],) * t, tuple(rng.integers(1, 10, t)))[y_kind % 2]
        Y = X if y_kind == 2 else HyperVector(rng.normal(size=sum(y_dims)), y_dims)
        assert hyper_inner_weighted(X, Y).tobytes() == lcm_weighted(X, Y).tobytes()
        got = transformer._dv_scores(X, Y, "sqrt-s")
        with always_resampled():
            want = transformer._dv_scores(X, Y, "sqrt-s")
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("padding", PADDING_MODES)
    @pytest.mark.parametrize("dims", [(5,) * 6, (5, 3, 4, 5, 2, 1)])
    def test_encoder_stack(self, rng, padding, dims):
        s, d = len(dims), max(dims)
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        w = two_head_weights(rng, s, d, d - 1)
        for scaling in ("sqrt-n", "sqrt-s"):
            cfg = ModelConfig(batch_size=s, nominal_dim=d, heads=2, padding=padding,
                              scaling=scaling, mask="causal", layers=2)
            got, got_att = encoder_stack(X, [w], cfg, return_weights=True)
            with always_resampled() as calls:
                want, want_att = encoder_stack(X, [w], cfg, return_weights=True)
            assert calls and same_bytes(got, want)
            assert np.array(got_att).tobytes() == np.array(want_att).tobytes()

    def test_homogeneous_causal_stack_resamples_nothing(self, rng, monkeypatch):
        s, d = 6, 5
        X = HyperVector.from_matrix(rng.normal(size=(s, d)))
        w = two_head_weights(rng, s, d, d)
        cfg = ModelConfig(batch_size=s, nominal_dim=d, heads=2, mask="causal", layers=3)
        bands, masks = [], []
        band, mask = projection._resample_band, transformer.causal_mask

        def counting_band(*args):
            bands.append(args)
            return band(*args)

        def counting_mask(*args):
            masks.append(args)
            return mask(*args)

        # Every resample that changes a length reads its band through
        # projection's binding of _resample_band; no other module binds it.
        assert not hasattr(hypervector, "_resample_band")
        assert not hasattr(transformer, "_resample_band")
        monkeypatch.setattr(projection, "_resample_band", counting_band)
        monkeypatch.setattr(transformer, "causal_mask", counting_mask)
        encoder_stack(X, [w], cfg)
        assert bands == [] and masks == [(s,)]
        # The seam is live: a stage resample that changes a length reaches it.
        hypervector._pad(HyperVector.from_matrix(rng.normal(size=(2, 3))), 4)
        assert bands == [((3, 3), (4, 4))]

    def test_one_read_only_mask_per_config(self, rng, monkeypatch):
        s, d = 6, 5
        X = HyperVector.from_matrix(rng.normal(size=(s, d)))
        w = two_head_weights(rng, s, d, d)
        cfg = ModelConfig(batch_size=s, nominal_dim=d, heads=2, mask="causal", layers=3)
        fields = dataclasses.asdict(cfg)
        masks, mask = [], transformer.causal_mask

        def counting_mask(*args):
            masks.append(args)
            return mask(*args)

        monkeypatch.setattr(transformer, "causal_mask", counting_mask)
        want = encoder_stack(X, [w], cfg)
        # A second stack and a block left to build its own mask reuse the first.
        assert same_bytes(encoder_stack(X, [w], cfg), want)
        encoder_block(X, w, cfg, mask=None)
        assert masks == [(s,)]
        M = cfg.attention_mask
        assert not M.flags.writeable and M.tobytes() == mask(s).tobytes()
        # The cached mask is no field: equality, hash, asdict (the CLI's
        # echoed config) and replace see the fields alone.
        twin = ModelConfig(batch_size=s, nominal_dim=d, heads=2, mask="causal", layers=3)
        assert cfg == twin and hash(cfg) == hash(twin)
        assert dataclasses.asdict(cfg) == fields
        replaced = dataclasses.replace(cfg)
        assert replaced == cfg and masks == [(s,)]
        assert replaced.attention_mask is not M and masks == [(s,), (s,)]
        unmasked = dataclasses.replace(cfg, mask="none")
        assert unmasked.attention_mask is None and masks == [(s,), (s,)]


class TestEqualLengthPath:
    """On an all-equal-length batch at the nominal length every resample is
    the identity and every score a plain product, so a forward pass builds no
    band plan of any kind."""

    PLANS = ("_resample_band", "_gram_plan", "_read_bands", "_band_rows")

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("norm_mode", ["vector-wise", "layer-wise"])
    @pytest.mark.parametrize("padding", PADDING_MODES)
    def test_encoder_stack_builds_no_band_plan(self, rng, monkeypatch, padding, norm_mode,
                                               heads):
        s, d = 5, 4
        w = two_head_weights(rng, s, d, d)
        if heads == 1:
            w = dataclasses.replace(w, head_q=None, head_k=None, head_v=None)
        cfg = ModelConfig(batch_size=s, nominal_dim=d, heads=heads, padding=padding,
                          mask="causal", layers=2, norm_mode=norm_mode)
        X = HyperVector.from_matrix(rng.normal(size=(s, d)))
        want = encoder_stack(X, [w], cfg)

        def refuse(*args):
            raise AssertionError(f"a band plan was built for {args}")

        # Every module that binds a plan builder, so no alias escapes.
        for module in (algebra, projection, hypervector, transformer):
            for name in self.PLANS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert same_bytes(encoder_stack(X, [w], cfg), want)
        # The patches are live: one component of another length reaches them.
        ragged = HyperVector(rng.normal(size=s * d - 1), (d,) * (s - 1) + (d - 1,))
        with pytest.raises(AssertionError, match="band plan"):
            encoder_stack(ragged, [w], cfg)


class TestAdoptedOutputs:
    """Stage outputs adopt the buffer the stage computed: each is fresh,
    read-only and checked for non-finite entries in that stage."""

    @staticmethod
    def _stage_outputs(rng, dims):
        """(inputs, outputs) of every stage that builds a new hypervector."""
        s, d = len(dims), max(dims)
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        Y = HyperVector(rng.normal(size=sum(dims)), dims)
        W = tuple(rng.normal(size=(d, d)) for _ in range(3))
        A = rng.normal(size=(s, s))
        V2 = HyperVector(rng.normal(size=2 * sum(dims)), dims * 2)
        outs = [diamond(A, X), diamond(np.eye(s), X), hyper_add_listwise(X, Y, dims),
                *proj_pad_pipeline(X, W, d, X.dims), *zero_pad_pipeline(X, W, d, X.dims),
                dv_attention(X, Y, X), dv_attention(X, X, V2),
                dv_multi_head([X], X.dims), dv_multi_head([X, Y], X.dims),
                df_ffn(X, np.eye(s), np.eye(s)), df_ffn(X, A, A, rng.normal(size=d))]
        outs += [df_add_norm(X, Y, mode) for mode in ("vector-wise", "layer-wise")]
        w = two_head_weights(rng, s, d, d)
        outs.append(encoder_block(X, w, ModelConfig(batch_size=s, nominal_dim=d, heads=2)))
        return (X, Y, V2), outs

    @pytest.mark.parametrize("dims", [(4,) * 5, (4, 2, 3, 4, 1)])
    def test_outputs_are_fresh_and_read_only(self, rng, dims):
        inputs, outs = self._stage_outputs(rng, dims)
        for k, out in enumerate(outs):
            assert not out.buffer.flags.writeable, k
            for other in (*inputs, *outs[:k]):
                assert not np.shares_memory(out.buffer, other.buffer), k

    @pytest.mark.parametrize("stage", ["diamond", "hyper_add_listwise", "proj_pad_pipeline",
                                       "zero_pad_pipeline", "dv_multi_head",
                                       "df_add_norm vector-wise", "df_add_norm layer-wise",
                                       "df_ffn"])
    def test_overflow_raises_in_the_stage_that_meets_it(self, stage):
        dims = (3, 3, 3)
        big = HyperVector(np.full(9, 1e308), dims)
        W, A = np.full((3, 3), 1e300), np.full((3, 3), 1e300)
        call = {
            "diamond": lambda: diamond(A, big),
            "hyper_add_listwise": lambda: hyper_add_listwise(big, big, dims),
            "proj_pad_pipeline": lambda: proj_pad_pipeline(big, W, 3, dims),
            "zero_pad_pipeline": lambda: zero_pad_pipeline(big, W, 3, dims),
            "dv_multi_head": lambda: dv_multi_head([big, big], dims),
            "df_add_norm vector-wise": lambda: df_add_norm(big, big, "vector-wise"),
            "df_add_norm layer-wise": lambda: df_add_norm(big, big, "layer-wise"),
            "df_ffn": lambda: df_ffn(big, np.eye(3), np.eye(3), np.full(3, 1e308)),
        }[stage]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError) as info:
            call()
        name = stage.split()[0]
        assert any(entry.name == name for entry in info.traceback)
        assert info.traceback[-1].name == "_adopt"

    @pytest.mark.parametrize("dims", [(4,) * 5, (4, 2, 3, 4, 1)])
    def test_a_block_scans_every_output_a_map_can_overflow(self, rng, monkeypatch, dims):
        # Two outputs skip the scan: the FFN's relu of a checked diamond and
        # the one-head combine, 0.0 + the head's own checked buffer.
        s, d = len(dims), max(dims)
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        w = AttentionWeights(wq=rng.normal(size=(d, d)), wk=rng.normal(size=(d, d)),
                             wv=rng.normal(size=(d, d)), ffn_w1=rng.normal(size=(s, s)),
                             ffn_w2=rng.normal(size=(s, s)))
        scanned, adopt = [], HyperVector._adopt

        def counting_adopt(self, buf, dims):
            scanned.append(dims)
            return adopt(self, buf, dims)

        monkeypatch.setattr(HyperVector, "_adopt", counting_adopt)
        encoder_block(X, w, ModelConfig(batch_size=s, nominal_dim=d, mask="causal"))
        assert len(scanned) == 8
        # A combine that resamples or weighs its one head still scans.
        scanned.clear()
        dv_multi_head([X], (d + 1,) * s)
        dv_multi_head([X], dims, weights=[0.5])
        assert len(scanned) == 2

    def test_a_weighted_head_overflows_in_the_combine(self):
        dims = (3, 3, 3)
        big = HyperVector(np.full(9, 1e308), dims)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
            dv_multi_head([big], dims, weights=[2.0])
        assert any(entry.name == "dv_multi_head" for entry in info.traceback)
        assert info.traceback[-1].name == "_adopt"

    @settings(max_examples=60, deadline=None)
    @given(stage_profiles(), st.one_of(st.just(1.0), st.floats(0.1, 3.0)),
           st.floats(-2.0, 2.0), st.sampled_from([1e-3, 1e-6]))
    # Equal lengths take the broadcast branch, and a gamma of 1.0 skips its
    # multiply: both against the out-of-place formula of the ragged branch.
    @example(((4,) * 5, 7), 1.0, 0.0, 1e-3)
    @example(((1,) * 3, 8), 1.0, -0.0, 1e-6)
    @example(((9,), 9), 2.5, 0.5, 1e-3)
    @example(((6,) * 6, 10), 0.5, -1.5, 1e-6)
    @example(((3, 5, 3), 11), 1.0, 0.25, 1e-3)
    def test_in_place_vector_wise_keeps_the_bits(self, case, gamma, beta, eps):
        # The out-of-place formula, one fresh array per step.
        dims, seed = case
        rng = np.random.default_rng(seed)
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        F = HyperVector(rng.normal(size=sum(dims)), dims)
        Z = relu(X.buffer + F.buffer)
        n = np.array(dims)
        starts = np.cumsum(n) - n
        c = Z - np.repeat(np.add.reduceat(Z, starts) / n, n)
        spread = np.sqrt(np.add.reduceat(c * c, starts)) / n
        want = c / np.repeat(np.sqrt(spread + eps), n) * gamma + beta
        got = df_add_norm(X, F, "vector-wise", gamma, beta, eps)
        assert got.buffer.tobytes() == want.tobytes()


def _length_cases():
    """(call, bad value, expected error) for every argument that takes a
    length profile or a nominal length; each call is valid for the profile
    (2, 3) and the nominal length 4."""
    X = HyperVector([np.ones(2), np.ones(3)])
    I2, I4 = np.eye(2), np.eye(4)
    profiles = {  # name: (call, whether the count is fixed)
        "HyperVector": (lambda v: HyperVector(np.ones(5), v), False),
        "project_batch-in": (lambda v: project_batch(np.ones(5), v, (4, 4)), True),
        "project_batch-out": (lambda v: project_batch(np.ones(5), (2, 3), v), True),
        "diamond-out_dims": (lambda v: diamond(I2, X, out_dims=v), True),
        "hyper_add_listwise": (lambda v: hyper_add_listwise(X, X, v), True),
        "factor_product_form": (lambda v: factor_product_form(np.full(6, 1 / 6), v), False),
        "proj_pad_pipeline-dims_out": (lambda v: proj_pad_pipeline(X, I4, 4, v), True),
        "zero_pad_pipeline-dims_out": (lambda v: zero_pad_pipeline(X, I4, 4, v), True),
        "dv_multi_head": (lambda v: dv_multi_head([X], v), True),
    }
    nominals = {
        "diamond-n0": lambda v: diamond(I2, X, n0=v),
        "diamond_vectorized-n0": lambda v: diamond_vectorized(I2, X, n0=v),
        "proj_pad_pipeline-d": lambda v: proj_pad_pipeline(X, I4, v, X.dims),
        "zero_pad_pipeline-d": lambda v: zero_pad_pipeline(X, I4, v, X.dims),
    }
    for name, (call, counted) in profiles.items():
        yield pytest.param(call, (2.5, 3), TypeError, id=f"{name}-float")
        yield pytest.param(call, (2, 0), ShapeError, id=f"{name}-zero")
        if counted:
            yield pytest.param(call, (2, 3, 4), ShapeError, id=f"{name}-count")
    for name, call in nominals.items():
        yield pytest.param(call, 4.5, TypeError, id=f"{name}-float")
        yield pytest.param(call, 0, ShapeError, id=f"{name}-zero")


class TestLengthProfiles:
    """No stage truncates a length: every profile and nominal length passes
    algebra.as_lengths."""

    @pytest.mark.parametrize("call, bad, error", _length_cases())
    def test_bad_length_rejected(self, call, bad, error):
        with pytest.raises(error):
            call(bad)


class TestNominalCoincidence:
    """With every length equal to the nominal dim, each ragged stage matches
    its fixed-length counterpart to roundoff."""

    def test_proj_pipeline_matches_qkv(self, rng):
        d = 4
        M = rng.normal(size=(3, d))
        W = rng.normal(size=(d, d))
        ragged = proj_pad_pipeline(HyperVector.from_matrix(M), W, d, [d] * 3)
        np.testing.assert_allclose(ragged.to_matrix(), M @ W.T, atol=1e-12)

    def test_dv_attention_matches_nominal(self, rng):
        d = 5
        Q = rng.normal(size=(4, d))
        K = rng.normal(size=(4, d))
        V = rng.normal(size=(4, d))
        ragged = dv_attention(HyperVector.from_matrix(Q), HyperVector.from_matrix(K),
                              HyperVector.from_matrix(V))
        np.testing.assert_allclose(
            ragged.to_matrix(), attention_nominal(Q, K, V), atol=1e-12
        )

    def test_df_add_norm_matches_nominal(self, rng):
        X = rng.normal(size=(3, 4))
        F = rng.normal(size=(3, 4))
        ragged = df_add_norm(HyperVector.from_matrix(X), HyperVector.from_matrix(F))
        np.testing.assert_allclose(ragged.to_matrix(), add_norm(X, F), atol=1e-12)

    def test_df_ffn_matches_nominal(self, rng):
        X = rng.normal(size=(3, 4))
        W1 = rng.normal(size=(3, 3))
        W2 = rng.normal(size=(3, 3))
        ragged = df_ffn(HyperVector.from_matrix(X), W1, W2)
        np.testing.assert_allclose(ragged.to_matrix(), ffn_nominal(X, W1, W2), atol=1e-12)
