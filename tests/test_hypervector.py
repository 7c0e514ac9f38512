import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpdft import (
    DiamondPlan,
    HyperVector,
    NonFactorizableError,
    ShapeError,
    SizeBudgetError,
    diamond,
    diamond_general,
    diamond_vectorized,
    factor_product_form,
    hyper_add,
    hyper_add_listwise,
    hyper_inner,
    hyper_inner_weighted,
    nominal_add,
    proj_matrix,
    qkv_vectorized,
    vinner,
)
from test_projection import repeat_vinner


def oracle_gram(X, Y, weighted=False):
    """Entry (i, j) is repeat_vinner(X[i], Y[j]), times sqrt(lcm) if weighted."""
    return np.array([
        [repeat_vinner(x, y) * (math.sqrt(math.lcm(len(x), len(y))) if weighted else 1.0)
         for y in Y.components]
        for x in X.components
    ])


def cauchy_schwarz_scale(X, Y, weighted=False):
    """vnorm(x) vnorm(y) (times sqrt(lcm) if weighted): bounds |entry| and the
    sum of |terms| behind it, so it sets the scale of roundoff."""
    nx = np.array([math.sqrt(np.mean(x * x)) for x in X.components])
    ny = np.array([math.sqrt(np.mean(y * y)) for y in Y.components])
    scale = np.outer(nx, ny)
    return scale * np.sqrt(np.lcm.outer(X.dims, Y.dims)) if weighted else scale


@st.composite
def mixed_profiles(draw, max_s=6):
    """Two length profiles in [1, 40]; Y reuses some of X's lengths."""
    xd = draw(st.lists(st.integers(1, 40), min_size=1, max_size=max_s))
    yd = draw(st.lists(st.one_of(st.sampled_from(xd), st.integers(1, 40)),
                       min_size=1, max_size=max_s))
    return xd, yd, draw(st.integers(0, 2**32 - 1))


def random_ragged(rng, s_max=5, d_max=6):
    s = rng.integers(1, s_max + 1)
    return HyperVector([rng.normal(size=rng.integers(1, d_max + 1)) for _ in range(s)])


def block_diag_projections(src_dims, n0, transpose=False):
    """Independent block-diagonal construction of the pad/unpad maps."""
    blocks = [proj_matrix(n0, d) if transpose else proj_matrix(d, n0) for d in src_dims]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


class TestContract:
    def test_mutating_the_input_leaves_the_hypervector(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])
        X = HyperVector([a, b])
        a[0] = b[2] = 9.0
        np.testing.assert_array_equal(X.to_addition_form(), [1, 2, 3, 4, 5])

    def test_components_are_read_only(self):
        X = HyperVector([[1.0, 2.0], [3.0]])
        for c in (X.components[0], X[1], next(iter(X))):
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0] = 7.0
        np.testing.assert_array_equal(X.to_addition_form(), [1, 2, 3])

    def test_addition_form_is_an_independent_copy(self):
        X = HyperVector([[1.0, 2.0], [3.0]])
        v = X.to_addition_form()
        v[:] = 0.0
        np.testing.assert_array_equal(X.to_addition_form(), [1, 2, 3])
        np.testing.assert_array_equal(X[0], [1, 2])

    def test_from_addition_form_copies(self):
        v = np.array([1.0, 2.0, 3.0])
        X = HyperVector.from_addition_form(v, [1, 2])
        v[:] = 0.0
        np.testing.assert_array_equal(X[1], [2, 3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_the_component(self, bad):
        msg = "component 2 contains non-finite entries"
        with pytest.raises(ValueError, match=msg):
            HyperVector([[1.0], [2.0, bad], [3.0]])
        with pytest.raises(ValueError, match=msg):
            HyperVector.from_addition_form([1.0, 2.0, bad, 3.0], [1, 2, 1])

    def test_empty_list_and_matrix_component_rejected(self):
        with pytest.raises(ShapeError):
            HyperVector([])
        with pytest.raises(ShapeError):
            HyperVector([[1.0, 2.0], [[3.0, 4.0]]])


class TestForms:
    def test_addition_form_concatenates(self):
        X = HyperVector([[1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(X.to_addition_form(), [1, 2, 3, 4, 5])

    def test_addition_form_round_trip(self, rng):
        for _ in range(10):
            X = random_ragged(rng)
            back = HyperVector.from_addition_form(X.to_addition_form(), X.dims)
            for a, b in zip(X.components, back.components):
                np.testing.assert_array_equal(a, b)

    def test_homogeneous_addition_form_is_row_stacking(self, rng):
        M = rng.normal(size=(3, 4))
        X = HyperVector.from_matrix(M)
        np.testing.assert_array_equal(X.to_addition_form(), M.reshape(-1))

    def test_addition_form_dim_mismatch(self):
        with pytest.raises(ShapeError):
            HyperVector.from_addition_form(np.zeros(5), [2, 2])

    def test_product_form_kronecker(self):
        X = HyperVector([[1, 2], [3, 4]])
        np.testing.assert_array_equal(X.to_product_form(), [3, 4, 6, 8])

    def test_product_form_single_component(self, rng):
        x = rng.normal(size=4)
        np.testing.assert_array_equal(HyperVector([x]).to_product_form(), x)

    def test_product_form_basis_selection(self):
        delta = np.array([0.0, 1.0, 0.0])
        x = np.array([2.0, 5.0])
        out = HyperVector([delta, x]).to_product_form()
        np.testing.assert_array_equal(out, [0, 0, 2, 5, 0, 0])


class TestFactorProductForm:
    def test_round_trip_on_normalized_factors(self):
        X = HyperVector([[0.5, 0.5], [0.2, 0.8]])
        F = factor_product_form(X.to_product_form(), [2, 2])
        for a, b in zip(F.components, X.components):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scaled_factors_recover_normalized_representatives(self):
        x1 = np.array([0.5, 0.5])
        x2 = np.array([0.2, 0.8])
        flat = np.kron(3.0 * x1, (1.0 / 3.0) * x2)
        F = factor_product_form(flat, [2, 2])
        np.testing.assert_allclose(F[0], x1, atol=1e-9)
        np.testing.assert_allclose(F[1], x2, atol=1e-9)

    def test_three_factors(self, rng):
        facs = [rng.uniform(0.1, 1.0, size=n) for n in (2, 3, 2)]
        facs = [f / f.sum() for f in facs]
        X = HyperVector(facs)
        F = factor_product_form(X.to_product_form(), [2, 3, 2])
        back = F.to_product_form()
        np.testing.assert_allclose(back, X.to_product_form(), atol=1e-9)
        for a, b in zip(F.components, facs):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rank_two_vector_rejected(self):
        with pytest.raises(NonFactorizableError):
            factor_product_form(np.array([1.0, 0.0, 0.0, 1.0]), [2, 2])

    def test_zero_vector_rejected(self):
        with pytest.raises(NonFactorizableError):
            factor_product_form(np.zeros(4), [2, 2])


class TestHyperAdd:
    def test_equal_dims_is_matrix_sum(self, rng):
        MX = rng.normal(size=(3, 4))
        MY = rng.normal(size=(3, 4))
        out = hyper_add(HyperVector.from_matrix(MX), HyperVector.from_matrix(MY), 4)
        np.testing.assert_allclose(out, MX + MY, atol=1e-12)

    def test_ragged_rows_match_componentwise_oracle(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        Y = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        out = hyper_add(X, Y, 2)
        assert out.shape == (2, 2)
        for i in range(2):
            np.testing.assert_allclose(out[i], nominal_add(X[i], Y[i], 2), atol=1e-12)

    def test_batch_replication(self, rng):
        x = rng.normal(size=3)
        Y = HyperVector([rng.normal(size=2), rng.normal(size=4)])
        out = hyper_add(HyperVector([x]), Y, 3)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out[0], nominal_add(x, Y[0], 3), atol=1e-12)
        np.testing.assert_allclose(out[1], nominal_add(x, Y[1], 3), atol=1e-12)


class TestHyperAddListwise:
    def test_matching_dims_is_componentwise_sum(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        Y = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        out = hyper_add_listwise(X, Y, [2, 3])
        for o, a, b in zip(out.components, X.components, Y.components):
            np.testing.assert_allclose(o, a + b, atol=1e-15)

    def test_scalar_targets_add_means(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=4)])
        Y = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        out = hyper_add_listwise(X, Y, [1, 1])
        for o, a, b in zip(out.components, X.components, Y.components):
            np.testing.assert_allclose(o, [a.mean() + b.mean()], atol=1e-12)

    def test_constant_targets_match_hyper_add(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        Y = HyperVector([rng.normal(size=4), rng.normal(size=2)])
        listwise = hyper_add_listwise(X, Y, [3, 3])
        rowwise = hyper_add(X, Y, 3)
        np.testing.assert_allclose(listwise.to_matrix(), rowwise, atol=1e-15)

    def test_length_mismatch(self):
        X = HyperVector([[1.0], [2.0]])
        with pytest.raises(ShapeError):
            hyper_add_listwise(X, X, [1])


class TestHyperInner:
    def test_uniform_reduction(self, rng):
        d = 4
        MX = rng.normal(size=(3, d))
        MY = rng.normal(size=(2, d))
        X, Y = HyperVector.from_matrix(MX), HyperVector.from_matrix(MY)
        np.testing.assert_allclose(hyper_inner(X, Y), MX @ MY.T / d, atol=1e-12)
        np.testing.assert_allclose(
            hyper_inner_weighted(X, Y), MX @ MY.T / math.sqrt(d), atol=1e-12
        )

    def test_single_ones_component(self):
        X = HyperVector([np.ones(5)])
        np.testing.assert_allclose(hyper_inner(X, X), [[1.0]], atol=1e-15)

    def test_ragged_entries_match_vinner(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        Y = HyperVector([rng.normal(size=3), rng.normal(size=2)])
        G = hyper_inner(X, Y)
        W = hyper_inner_weighted(X, Y)
        for i in range(2):
            for j in range(2):
                g = vinner(X[i], Y[j])
                assert G[i, j] == pytest.approx(g, abs=1e-15)
                scale = math.sqrt(math.lcm(len(X[i]), len(Y[j])))
                assert W[i, j] == pytest.approx(g * scale, abs=1e-14)


    @settings(max_examples=60, deadline=None)
    @given(mixed_profiles())
    def test_matches_replication_oracle(self, profiles):
        xd, yd, seed = profiles
        rng = np.random.default_rng(seed)
        X = HyperVector([rng.normal(size=d) for d in xd])
        Y = HyperVector([rng.normal(size=d) for d in yd])
        for weighted, fn in ((False, hyper_inner), (True, hyper_inner_weighted)):
            err = np.abs(fn(X, Y) - oracle_gram(X, Y, weighted))
            assert np.all(err <= 1e-12 * cauchy_schwarz_scale(X, Y, weighted))

    def test_long_ragged_profile_memory_bounded(self, rng):
        # Unchunked, the band of these 4032 unequal pairs takes about 700 MiB.
        X = HyperVector([rng.normal(size=d) for d in rng.permutation(np.arange(960, 1024))])
        Y = HyperVector([rng.normal(size=d) for d in rng.permutation(np.arange(960, 1024))])
        tracemalloc.start()
        try:
            W = hyper_inner_weighted(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        # Replicating to lcm ~ 1e6 costs milliseconds per pair: check two
        # rows and two columns, which cover 64 lengths on either side.
        rows, cols = [0, 37], [5, 63]
        Xr, Yc = HyperVector([X[i] for i in rows]), HyperVector([Y[j] for j in cols])
        for got, A, B in ((W[rows], Xr, Y), (W[:, cols], X, Yc)):
            err = np.abs(got - oracle_gram(A, B, weighted=True))
            assert np.all(err <= 1e-12 * cauchy_schwarz_scale(A, B, weighted=True))


class TestDiamond:
    def test_homogeneous_is_matrix_product(self, rng):
        M = rng.normal(size=(3, 4))
        A = rng.normal(size=(3, 3))
        out = diamond(A, HyperVector.from_matrix(M), 4)
        np.testing.assert_allclose(out.to_matrix(), A @ M, atol=1e-12)

    def test_two_component_walkthrough_formulas(self, rng):
        # Worked example: dims (2, 3), nominal 3.  Row 2 needs no unpadding;
        # row 1 blends through the 3 -> 2 projection.
        x1, x2 = rng.normal(size=2), rng.normal(size=3)
        W = rng.normal(size=(2, 2))
        out = diamond(W, HyperVector([x1, x2]), 3)
        w11, w12, w21, w22 = W[0, 0], W[0, 1], W[1, 0], W[1, 1]
        np.testing.assert_allclose(
            out[1],
            [
                w21 * x1[0] + w22 * x2[0],
                0.5 * w21 * (x1[0] + x1[1]) + w22 * x2[1],
                w21 * x1[1] + w22 * x2[2],
            ],
            atol=1e-12,
        )
        mid = w11 * (x1[0] + x1[1]) / 2 + w12 * x2[1]
        np.testing.assert_allclose(
            out[0],
            [
                2 / 3 * (w11 * x1[0] + w12 * x2[0]) + mid / 3,
                mid / 3 + 2 / 3 * (w11 * x1[1] + w12 * x2[2]),
            ],
            atol=1e-12,
        )

    def test_identity_matrix_path(self, rng):
        # diamond(I, X) is pad-then-unpad; identical to the explicit
        # block-matrix product, and the identity exactly when every
        # component length divides the nominal length.
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        n0 = 3
        pad = block_diag_projections(X.dims, n0)
        unpad = block_diag_projections(X.dims, n0, transpose=True)
        expected = unpad @ pad @ X.to_addition_form()
        out = diamond(np.eye(2), X, n0)
        np.testing.assert_allclose(out.to_addition_form(), expected, atol=1e-12)
        assert not np.allclose(out.to_addition_form(), X.to_addition_form())

        Y = HyperVector([rng.normal(size=2), rng.normal(size=4)])
        out = diamond(np.eye(2), Y, 4)
        np.testing.assert_allclose(out.to_addition_form(), Y.to_addition_form(), atol=1e-12)

    def test_dimension_profile_preserved(self, rng):
        for _ in range(20):
            X = random_ragged(rng)
            A = rng.normal(size=(X.batch_size, X.batch_size))
            assert diamond(A, X).dims == X.dims

    def test_linearity_in_matrix_and_argument(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3), rng.normal(size=5)])
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3))
        lhs = diamond(A + B, X, 5)
        rhs_a = diamond(A, X, 5)
        rhs_b = diamond(B, X, 5)
        for o, a, b in zip(lhs.components, rhs_a.components, rhs_b.components):
            np.testing.assert_allclose(o, a + b, atol=1e-12)
        # linearity in the addition form of the argument
        Y = HyperVector([rng.normal(size=2), rng.normal(size=3), rng.normal(size=5)])
        Z = HyperVector([x + y for x, y in zip(X.components, Y.components)])
        lhs = diamond(A, Z, 5).to_addition_form()
        rhs = diamond(A, X, 5).to_addition_form() + diamond(A, Y, 5).to_addition_form()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_batch_mismatch_rejected(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        with pytest.raises(ShapeError):
            diamond(rng.normal(size=(3, 3)), X)


class TestDiamondVectorized:
    def test_matches_stepwise_on_random_ragged(self, rng):
        for _ in range(200):
            X = random_ragged(rng)
            s = X.batch_size
            A = rng.normal(size=(s, s))
            n0 = int(rng.integers(1, 7))
            v = diamond_vectorized(A, X, n0)
            step = diamond(A, X, n0).to_addition_form()
            np.testing.assert_allclose(v, step, atol=1e-12)

    def test_plan_blocks_for_walkthrough(self):
        plan = DiamondPlan.build((2, 3), 3)
        np.testing.assert_allclose(plan.pad[:3, :2], [[1, 0], [0.5, 0.5], [0, 1]], atol=0)
        np.testing.assert_allclose(plan.pad[3:, 2:], np.eye(3), atol=0)
        np.testing.assert_allclose(
            plan.unpad[:2, :3], [[2 / 3, 1 / 3, 0], [0, 1 / 3, 2 / 3]], atol=1e-15
        )
        np.testing.assert_allclose(plan.unpad[2:, 3:], np.eye(3), atol=0)

    def test_plan_shapes(self):
        plan = DiamondPlan.build((2, 3, 5), 4)
        assert plan.pad.shape == (3 * 4, 10)
        assert plan.unpad.shape == (10, 3 * 4)

    def test_plan_over_budget_rejected_before_allocating(self):
        dims = (2**16,) * 2**15
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError):
                DiamondPlan.build(dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_operator_over_budget_rejected_before_allocating(self):
        # The pad map alone would be 2**28 entries (2 GiB), A kron I 2**40.
        X = HyperVector(np.ones(256), (1,) * 256)
        A = np.eye(256)
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError):
                diamond_vectorized(A, X, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDiamondGeneral:
    def test_rectangular_rows(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        A = rng.normal(size=(3, 2))
        out = diamond_general(A, X, n0=3)
        assert out.dims == (2, 3, 2)  # input profile cycled to 3 rows

    def test_explicit_output_profile(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        A = rng.normal(size=(1, 2))
        out = diamond_general(A, X, n0=3, out_dims=[4])
        assert out.dims == (4,)


class TestQkvVectorized:
    def test_direct_product_identity(self, rng):
        W = rng.normal(size=(2, 2))
        M = rng.normal(size=(2, 3))
        np.testing.assert_allclose(
            qkv_vectorized(W, M), (W @ M).reshape(-1), atol=1e-12
        )

    def test_identity_leaves_stacking(self, rng):
        M = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(qkv_vectorized(np.eye(3), M), M.reshape(-1))

    def test_transposed_batch_convention(self, rng):
        # Mapping each sequence of a stacked batch: stack(W X^T) = (W kron I_s) stack(X^T).
        W = rng.normal(size=(4, 4))
        X = rng.normal(size=(4, 5))
        np.testing.assert_allclose(
            qkv_vectorized(W, X), (W @ X).reshape(-1), atol=1e-12
        )
        Xt = rng.normal(size=(5, 4)).T  # 4 x 5 transposed view
        np.testing.assert_allclose(
            qkv_vectorized(W, Xt), (W @ Xt).reshape(-1), atol=1e-12
        )

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            qkv_vectorized(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
