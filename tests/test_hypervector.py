import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpdft import (
    HyperVector,
    NonFactorizableError,
    NonFiniteError,
    ShapeError,
    SizeBudgetError,
    diamond,
    diamond_vectorized,
    factor_product_form,
    hyper_add_listwise,
    hyper_inner,
    hyper_inner_weighted,
    nominal_add,
    proj_matrix,
    vinner,
)
from stpdft import hypervector
from stpdft.algebra import bridge_band
from stpdft.projection import _BAND_CHUNK, _gram_plan, pair_band
from conftest import stpdft_caches
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


def run_bounds(dims_x, dims_y):
    """The listed-pair ranges (lo, hi) of the runs of a Gram plan."""
    return tuple((lo, hi) for lo, hi, _ in _gram_plan(dims_x, dims_y)[3])


def rowmajor_gram(X, Y):
    """hyper_inner over one row-major listing of all s t pair bands, each
    pair from its own band: one gather and one np.bincount, no pair read
    as its mirror.  Homogeneous operands of one length d take hyper_inner's
    single product instead, on a copy of Y's buffer, so that X and Y never
    share one (numpy multiplies a matrix by its own transpose differently)."""
    dx, dy = np.array(X.dims), np.array(Y.dims)
    if len(set(X.dims + Y.dims)) == 1:
        d = X.dims[0]
        return X.buffer.reshape(-1, d) @ Y.buffer.copy().reshape(-1, d).T / d
    a, b = np.divmod(np.arange(len(dx) * len(dy)), len(dy))
    n, p = dx[a], dy[b]
    k, i, j, w = bridge_band(n, p)
    src_x = (np.cumsum(dx) - dx)[a][k] + i
    src_y = (np.cumsum(dy) - dy)[b][k] + j
    coef = (w // np.gcd(n, p)[k]).astype(float)
    G = np.bincount(k, weights=X.buffer[src_x] * Y.buffer[src_y] * coef, minlength=len(a))
    return G.reshape(len(dx), len(dy)) / np.lcm.outer(dx, dy)


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
        # A fresh float64 buffer with a checked profile, which a stage would
        # adopt, is copied by the public constructor all the same.
        for dims in ([1, 2], HyperVector([[0.0], [0.0, 0.0]]).dims):
            v = np.array([1.0, 2.0, 3.0])
            X = HyperVector(v, dims)
            assert not np.shares_memory(X.buffer, v) and v.flags.writeable
            v[:] = 0.0
            np.testing.assert_array_equal(X[1], [2, 3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_the_component(self, bad):
        msg = "component 2 contains non-finite entries"
        with pytest.raises(ValueError, match=msg):
            HyperVector([[1.0], [2.0, bad], [3.0]])
        with pytest.raises(ValueError, match=msg):
            HyperVector([1.0, 2.0, bad, 3.0], [1, 2, 1])

    def test_non_finite_entry_is_a_non_finite_error(self):
        # An overflowed stage output lands here; the CLI maps this type to exit 2.
        with pytest.raises(NonFiniteError, match="component 2"):
            HyperVector([1.0, np.inf], (1, 1))

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
            back = HyperVector(X.to_addition_form(), X.dims)
            for a, b in zip(X.components, back.components):
                np.testing.assert_array_equal(a, b)

    def test_homogeneous_addition_form_is_row_stacking(self, rng):
        M = rng.normal(size=(3, 4))
        X = HyperVector.from_matrix(M)
        np.testing.assert_array_equal(X.to_addition_form(), M.reshape(-1))

    def test_addition_form_dim_mismatch(self):
        with pytest.raises(ShapeError):
            HyperVector(np.zeros(5), [2, 2])

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
        # Rowwise hyper addition: row i is nominal_add of the paired components.
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        Y = HyperVector([rng.normal(size=4), rng.normal(size=2)])
        listwise = hyper_add_listwise(X, Y, [3, 3])
        rowwise = np.stack([nominal_add(x, y, 3) for x, y in zip(X, Y)])
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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3, 4, 6, 9, 12, 17, 18, 36, 40]),
                    min_size=1, max_size=7),
           st.integers(0, 2**32 - 1))
    @example([5], 0)  # s = 1
    @example([4, 4, 4], 1)  # one length
    @example([4, 6, 4, 4], 1)  # pairs of equal lengths in a ragged profile
    @example([12, 18, 8, 12], 2)  # gcd > 1 pairs and a repeated length
    @example([40, 17, 9, 2], 3)  # falling lengths: every pair a < b is listed as (b, a)
    def test_equal_profiles_match_rowmajor_listing_bit_for_bit(self, dims, seed):
        # Equal profiles list each unordered pair once, shorter length
        # first, and read it again the other way round; every entry must
        # keep the bits of the full row-major listing.
        rng = np.random.default_rng(seed)
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        Y = HyperVector(rng.normal(size=sum(dims)), dims)
        for A, B in ((X, X), (X, Y), (Y, X)):
            want = rowmajor_gram(A, B)
            assert hyper_inner(A, B).tobytes() == want.tobytes()
            weighted = want * np.sqrt(np.lcm.outer(A.dims, B.dims))
            assert hyper_inner_weighted(A, B).tobytes() == weighted.tobytes()

    def test_long_equal_profile_matches_rowmajor_listing_bit_for_bit(self, rng):
        # Over _BAND_CHUNK entries the plan is applied run by run.
        dims = (40_000, 30_001, 7, 40_000, 12)
        assert len(run_bounds(dims, dims)) > 1
        X = HyperVector(rng.normal(size=sum(dims)), dims)
        Y = HyperVector(rng.normal(size=sum(dims)), dims)
        assert hyper_inner(X, Y).tobytes() == rowmajor_gram(X, Y).tobytes()
        assert hyper_inner(X, X).tobytes() == rowmajor_gram(X, X).tobytes()
        # Run boundaries: unequal profiles (no mirrored read) in eight runs,
        # one of two pairs, and plans of exactly _BAND_CHUNK entries (bands
        # 65,529 + 7, one run) and of one entry more (two runs).
        long_runs = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 7), (7, 8), (8, 9))
        for dims_x, dims_y, runs in (((40_000, 30_001, 7), (12, 40_000, 29_999), long_runs),
                                     ((65_527, 5), (3,), ((0, 2),)),
                                     ((65_528, 5), (3,), ((0, 1), (1, 2)))):
            assert run_bounds(dims_x, dims_y) == runs
            X = HyperVector(rng.normal(size=sum(dims_x)), dims_x)
            Y = HyperVector(rng.normal(size=sum(dims_y)), dims_y)
            assert hyper_inner(X, Y).tobytes() == rowmajor_gram(X, Y).tobytes()

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

    def test_memoised_plan_gives_the_same_bytes(self, rng):
        X = HyperVector([rng.normal(size=d) for d in (7, 3, 5, 7)])
        Y = HyperVector([rng.normal(size=d) for d in (3, 11, 7)])
        _gram_plan.cache_clear()
        cold = hyper_inner(X, Y)
        warm = hyper_inner(X, Y)
        assert _gram_plan.cache_info().hits == 1
        _gram_plan.cache_clear()
        again = hyper_inner(X, Y)
        assert cold.tobytes() == warm.tobytes() == again.tobytes()

    def test_plan_is_read_only_with_int32_indices(self):
        rows, cols, lcm, ((lo, hi, band),) = _gram_plan((7, 3), (3, 11, 7))
        assert (lo, hi) == (0, 6)
        src_x, src_y, pair, coef = band
        assert src_x.dtype == src_y.dtype == pair.dtype == np.int32
        for a in (rows, cols, lcm, *band):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            coef[0] = 0.0

    def test_long_plan_keeps_no_band(self, rng):
        # Pair (n, n + 1) has 2n band entries, here _BAND_CHUNK, so pair
        # (7, n + 1) forms a second run.  A plan of two runs holds its
        # layout only: each call reads both bands and keeps neither.
        n = _BAND_CHUNK // 2
        X = HyperVector(rng.normal(size=n + 7), (n, 7))
        Y = HyperVector(rng.normal(size=n + 1), (n + 1,))
        assert run_bounds(X.dims, Y.dims) == ((0, 1), (1, 2))
        _gram_plan.cache_clear()
        tracemalloc.start()
        try:
            first = hyper_inner(X, Y)
            second = hyper_inner(X, Y)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert _gram_plan.cache_info()[:2] == (1, 1)  # (hits, misses)
        smaller_band = sum(a.nbytes for a in pair_band(X.dims, Y.dims, [1], [0]))
        assert retained < smaller_band
        for cache in stpdft_caches().values():
            cache.cache_clear()
        cold = hyper_inner(X, Y)
        assert first.tobytes() == second.tobytes() == cold.tobytes()

    def test_cache_stays_bounded(self, rng):
        info = _gram_plan.cache_info()
        for n in range(2, 52):
            X = HyperVector([rng.normal(size=n), rng.normal(size=3)])
            hyper_inner(X, X)
            assert _gram_plan.cache_info().currsize <= info.maxsize


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

    @staticmethod
    def _operator(A, dims, n0):
        """The matrix of diamond_vectorized(A, ., n0) on the profile dims."""
        return np.column_stack([diamond_vectorized(A, HyperVector(e, dims), n0)
                                for e in np.eye(sum(dims))])

    def test_plan_blocks_for_walkthrough(self):
        # The unit maps E_10 and E_01 expose the pad block of length 2 (rows
        # 2:5, cols 0:2) and the unpad block back to it (rows 0:2, cols 2:5);
        # E_11 the identity blocks of length 3.
        E10, E01 = np.array([[0.0, 0], [1, 0]]), np.array([[0.0, 1], [0, 0]])
        pad = self._operator(E10, (2, 3), 3)
        unpad = self._operator(E01, (2, 3), 3)
        np.testing.assert_array_equal(self._operator(np.diag([0.0, 1]), (2, 3), 3)[2:, 2:],
                                      np.eye(3))
        np.testing.assert_allclose(pad[2:, :2], [[1, 0], [0.5, 0.5], [0, 1]], atol=0)
        np.testing.assert_allclose(unpad[:2, 2:], [[2 / 3, 1 / 3, 0], [0, 1 / 3, 2 / 3]],
                                   atol=1e-15)
        assert not pad[:2].any() and not pad[:, 2:].any()
        assert not unpad[2:].any() and not unpad[:, :2].any()

    def test_plan_shapes(self, monkeypatch):
        # The pad map is s*n0 x sum(dims), checked after A kron I_{n0}.
        counts = []
        monkeypatch.setattr(hypervector, "_check_budget", lambda *c, **kw: counts.append(c))
        X = HyperVector(np.ones(10), (2, 3, 5))
        assert diamond_vectorized(np.eye(3), X, 4).shape == (10,)
        assert counts == [(12, 12), (12, 10)]

    def test_plan_over_budget_rejected_before_allocating(self):
        # s*n0 x sum(dims) = 2**32 entries (32 GiB) while A kron I is 2**20.
        X = HyperVector(np.ones(2**22), (4096,) * 1024)
        A = np.eye(1024)
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError, match="4294967296"):
                diamond_vectorized(A, X, 1)
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
        out = diamond(A, X, n0=3)
        assert out.dims == (2, 3, 2)  # input profile cycled to 3 rows
        mixed = A @ np.stack([proj_matrix(len(x), 3) @ x for x in X])
        for o, row in zip(out, mixed):
            np.testing.assert_allclose(o, proj_matrix(3, len(o)) @ row, atol=1e-12)

    def test_explicit_output_profile(self, rng):
        X = HyperVector([rng.normal(size=2), rng.normal(size=3)])
        A = rng.normal(size=(1, 2))
        out = diamond(A, X, n0=3, out_dims=[4])
        assert out.dims == (4,)

