import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpdft import (
    AttentionWeights,
    HyperVector,
    ModelConfig,
    ShapeError,
    add_norm,
    assembled_attention,
    assembled_attention_qk,
    attention_nominal,
    causal_mask,
    df_add_norm,
    df_ffn,
    diamond,
    dv_attention,
    dv_attention_general,
    dv_multi_head,
    encoder_block,
    encoder_stack,
    ffn_nominal,
    hyper_inner_weighted,
    multi_head_nominal,
    nominal_add,
    positional_encoding,
    proj_matrix,
    proj_pad_pipeline,
    project,
    qkv_nominal,
    qkv_vectorized,
    softmax_rows,
    zero_pad_pipeline,
)
from stpdft.transformer import _normalize, pe_apply, relu
from test_hypervector import cauchy_schwarz_scale, oracle_gram
from test_projection import resample_profiles


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

    def test_apply_adds(self, rng):
        X = rng.normal(size=(3, 4))
        np.testing.assert_allclose(pe_apply(X), X + positional_encoding(3, 4))


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
        np.testing.assert_allclose(
            qkv_vectorized(Wq, X.T), Q.T.reshape(-1), atol=1e-12
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

    def test_paper_literal_two(self):
        M = causal_mask(2, "paper-literal")
        np.testing.assert_array_equal(M, [[-np.inf, 0.0], [-np.inf, -np.inf]])

    def test_single(self):
        np.testing.assert_array_equal(causal_mask(1), [[0.0]])


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
        out = zero_pad_pipeline(X, W, X.dims, d=6)
        for c, o in zip(comps, out.components):
            n = len(c)
            np.testing.assert_allclose(o, W[:n, :n] @ c, atol=1e-12)

    def test_full_width_is_plain_multiply(self, rng):
        M = rng.normal(size=(3, 4))
        W = rng.normal(size=(4, 4))
        out = zero_pad_pipeline(HyperVector.from_matrix(M), W, [4, 4, 4])
        np.testing.assert_allclose(out.to_matrix(), M @ W.T, atol=1e-12)

    def test_zero_in_zero_out(self):
        X = HyperVector([np.zeros(2), np.zeros(3)])
        out = zero_pad_pipeline(X, np.ones((3, 3)), [2, 3])
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


class TestDvAttentionGeneral:
    def test_equal_batches_reduce_to_square_case(self, rng):
        Q = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        K = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        V = HyperVector([rng.normal(size=4), rng.normal(size=2)])
        a = dv_attention(Q, K, V)
        b = dv_attention_general(Q, K, V)
        for x, y in zip(a.components, b.components):
            np.testing.assert_array_equal(x, y)

    def test_hand_unrolled_single_query(self, rng):
        # p = q = 1, r = 2: the score softmax is [[1]], its column is spread
        # over lcm(1, 2) = 2 replicas, so the output is the unpadded sum of
        # both padded value components.
        Q = HyperVector([rng.normal(size=2)])
        K = HyperVector([rng.normal(size=3)])
        V = HyperVector([rng.normal(size=2), rng.normal(size=4)])
        out = dv_attention_general(Q, K, V, out_dims=[3])
        n0 = 4
        padded_sum = project(V[0], n0) + project(V[1], n0)
        np.testing.assert_allclose(out[0], project(padded_sum, 3), atol=1e-12)

    def test_batch_shape_contract(self, rng):
        Q = HyperVector([rng.normal(size=2), rng.normal(size=3), rng.normal(size=2)])
        K = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        V = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        out = dv_attention_general(Q, K, V)
        assert out.batch_size == 3
        out2 = dv_attention_general(Q, K, V, out_dims=[5, 1, 2])
        assert out2.dims == (5, 1, 2)

    def test_mismatch_routed_from_square_entry_point(self, rng):
        Q = HyperVector([rng.normal(size=2)])
        K = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        V = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        out = dv_attention(Q, K, V)
        assert out.batch_size == 1


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
        H = hyper_add_listwise(diamond(W1, X), B1, X.dims).map(relu)
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

    def test_masked_block_rows_remain_stochastic(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3), rng.normal(size=2)])
        w = self._weights(rng, 3, 3, X.dims)
        cfg = ModelConfig(batch_size=3, nominal_dim=3, mask="causal", layers=1)
        _, atts = encoder_block(X, w, cfg, return_weights=True)
        A = atts[0]
        assert A[0, 1] == 0.0 and A[0, 2] == 0.0
        np.testing.assert_allclose(A.sum(axis=1), np.ones(3), atol=1e-12)


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
