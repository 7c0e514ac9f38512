import functools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpdft import (
    SIZE_BUDGET,
    HyperVector,
    ShapeError,
    SizeBudgetError,
    bridge_matrix,
    dk_stp,
    hyper_inner,
    nominal_add,
    proj_matrix,
    proj_matrix_exact,
    project,
    project_batch,
    sta,
    vdist,
    vinner,
    vnorm,
    weighted_bridge_matrix,
    weighted_dk_stp,
)
from stpdft import algebra, projection
from stpdft.algebra import _band, _pair_band, as_lengths, bridge_band
from stpdft.projection import _gram_plan, _resample, _resample_band, pair_band
from stpdft.worked_examples import GOLDEN_PROJECTIONS, golden_fraction_matrix
from conftest import stpdft_caches
from test_algebra import (LENGTH_PAIRS, assert_fractions_equal, count_one_pair_bands, kron_bridge,
                          kron_bridge_exact)


def repeat_vinner(x, y):
    """The replication definition of vinner: both vectors repeated entrywise
    to t = lcm(m, n), ordinary inner product, averaged over t."""
    m, n = len(x), len(y)
    t = math.lcm(m, n)
    return float(np.dot(np.repeat(x, t // m), np.repeat(y, t // n))) / t


def least_squares_oracle(x, n):
    """Solve min_y || repeat(x, t/m) - repeat(y, t/n) || by normal equations.

    The replication of y is the linear map E = I_n kron ones(t/n, 1), so the
    optimum is the least-squares solution of E y = repeat(x, t/m).
    """
    m = len(x)
    t = math.lcm(m, n)
    E = np.kron(np.eye(n), np.ones((t // n, 1)))
    target = np.repeat(x, t // m)
    y, *_ = np.linalg.lstsq(E, target, rcond=None)
    return y


class TestVinner:
    def test_equal_dims_is_average_dot(self, rng):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        assert vinner(x, y) == pytest.approx(np.dot(x, y) / 5, abs=1e-15)

    def test_ones_cross_dims(self):
        assert vinner([1, 1], [1, 1, 1]) == pytest.approx(1.0, abs=0)
        for m in range(1, 7):
            for n in range(1, 7):
                assert vinner(np.ones(m), np.ones(n)) == pytest.approx(1.0, abs=1e-15)


    def test_matches_replication_definition(self, rng):
        for m in range(1, 13):
            for n in range(1, 13):
                x, y = rng.normal(size=m), rng.normal(size=n)
                scale = math.sqrt(np.mean(x * x) * np.mean(y * y))
                assert abs(vinner(x, y) - repeat_vinner(x, y)) <= 1e-14 * scale

    def test_long_coprime_pair_allocates_no_lcm_vector(self):
        # lcm(2**16 + 1, 2**16) is about 2**32: replicating would need 2 x 32 GiB.
        x, y = np.ones(2**16 + 1), np.ones(2**16)
        tracemalloc.start()
        try:
            assert vinner(x, y) == 1.0
            assert vdist(x, 2 * y) == 1.0
            np.testing.assert_array_equal(hyper_inner(HyperVector([x]), HyperVector([y])), [[1.0]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestNormDist:
    def test_ones_norm(self):
        for n in range(1, 9):
            assert vnorm(np.ones(n)) == pytest.approx(1.0, abs=1e-15)

    def test_self_distance_zero(self, rng):
        x = rng.normal(size=6)
        assert vdist(x, x) == 0.0

    def test_hand_expansion(self):
        # [1,3] vs [0,3,6] replicate to length 6; rms difference is 2.
        assert vdist([1, 3], [0, 3, 6]) == pytest.approx(2.0, abs=1e-15)

    def test_symmetry_and_replication_invariance(self, rng):
        x = rng.normal(size=3)
        y = rng.normal(size=5)
        assert vdist(x, y) == pytest.approx(vdist(y, x), abs=1e-15)
        for k in range(1, 5):
            assert vdist(x, np.repeat(x, k)) == 0.0

    def test_matches_replicated_difference(self, rng):
        for m in range(1, 10):
            for n in range(1, 10):
                x, y = rng.normal(size=m), rng.normal(size=n)
                t = math.lcm(m, n)
                d = np.repeat(x, t // m) - np.repeat(y, t // n)
                assert vdist(x, y) == pytest.approx(math.sqrt(d @ d / t), rel=1e-14)


class TestProjMatrix:
    @pytest.mark.parametrize("key", sorted(GOLDEN_PROJECTIONS))
    def test_golden_tables_exact(self, key):
        m, n = key
        den, nums = GOLDEN_PROJECTIONS[key]
        expected = golden_fraction_matrix(den, nums)
        actual = proj_matrix_exact(m, n)
        assert actual.shape == expected.shape
        assert np.all(actual == expected)

    def test_identity_case(self):
        for n in range(1, 7):
            np.testing.assert_array_equal(proj_matrix(n, n), np.eye(n))

    def test_float_matches_exact(self):
        for m in range(1, 10):
            for n in range(1, 10):
                exact = proj_matrix_exact(m, n)
                t = math.lcm(m, n)
                assert_fractions_equal(exact, Fraction(n, t) * kron_bridge_exact(n, m))
                np.testing.assert_allclose(proj_matrix(m, n), exact.astype(float), atol=1e-15)

    def test_bytes_match_kronecker_oracle(self):
        # proj_matrix(m, n) = (n/t) (I_n kron ones_row(t/n)) (I_m kron ones_col(t/m)).
        for m, n in LENGTH_PAIRS:
            expected = (n / math.lcm(m, n)) * kron_bridge(n, m)
            assert proj_matrix(m, n).tobytes() == expected.tobytes(), (m, n)

    def test_large_coprime_rows_sum_to_one(self):
        P = proj_matrix(1023, 1024)
        assert P.shape == (1024, 1023)
        np.testing.assert_allclose(P.sum(axis=1), np.ones(1024), rtol=0, atol=1e-12)

    def test_overflow_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError):
                proj_matrix(2**16, 2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rows_sum_to_one_exactly(self):
        for m in range(1, 9):
            for n in range(1, 9):
                P = proj_matrix_exact(m, n)
                for i in range(n):
                    assert sum(P[i, :]) == Fraction(1)


class TestProject:
    def test_replication_case(self):
        np.testing.assert_array_equal(
            project([1.0, 2.0, 3.0], 6), [1, 1, 2, 2, 3, 3]
        )

    def test_same_dim_identity(self, rng):
        x = rng.normal(size=4)
        np.testing.assert_array_equal(project(x, 4), x)

    def test_large_coprime_lengths(self, rng):
        x = rng.normal(size=1023)
        y = project(x, 1024)
        assert y.shape == (1024,)
        assert np.mean(y) == pytest.approx(np.mean(x), abs=1e-12)

    def test_bytes_match_project_batch(self):
        # project reads the memoised pair band, project_batch its resample
        # plan: the same band, order and coefficients, so the same bytes.
        for m, n in MEMO_PAIRS:
            rng = np.random.default_rng([m, n])
            x = rng.normal(size=m)
            x[rng.random(m) < 0.2] = -0.0
            got, want = project(x, n), project_batch(x, (m,), (n,))
            assert got.dtype == want.dtype and got.flags.writeable, (m, n)
            assert got.tobytes() == want.tobytes(), (m, n)
            assert not np.shares_memory(got, x)

    def test_non_integer_length_rejected(self):
        with pytest.raises(TypeError):
            project(np.ones(3), 2.5)
        with pytest.raises(TypeError):
            project_batch(np.ones(5), (2, 3), (2.0, 3))

    def test_large_coprime_pair_builds_no_dense_matrix(self):
        # proj_matrix(50_000, 50_001) has 2.5e9 entries, over the element
        # budget; the band of the pair has 100,000.
        tracemalloc.start()
        try:
            y = project(np.ones(50_000), 50_001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(y, np.ones(50_001), rtol=0, atol=1e-12)
        assert peak < 16 * 2**20

    def test_beats_random_candidates_and_matches_least_squares(self, rng):
        x = rng.normal(size=5)
        best = project(x, 3)
        d_best = vdist(x, best)
        t = math.lcm(5, 3)
        xe = np.repeat(x, t // 5)
        Y = rng.normal(size=(1000, 3))
        Ye = np.repeat(Y, t // 3, axis=1)
        dists = np.sqrt(((xe - Ye) ** 2).mean(axis=1))
        assert np.all(d_best <= dists + 1e-15)
        np.testing.assert_allclose(best, least_squares_oracle(x, 3), atol=1e-9)

    def test_least_squares_oracle_across_dims(self, rng):
        for m in range(1, 7):
            for n in range(1, 7):
                x = rng.normal(size=m)
                np.testing.assert_allclose(
                    project(x, n), least_squares_oracle(x, n), atol=1e-9
                )


@st.composite
def resample_profiles(draw, max_s=8):
    """Source lengths in [1, 40], each kept, shortened or lengthened."""
    dims_in = draw(st.lists(st.integers(1, 40), min_size=1, max_size=max_s))
    dims_out = [draw(st.one_of(st.just(m), st.integers(1, m), st.integers(m, 40)))
                for m in dims_in]
    return dims_in, dims_out, draw(st.integers(0, 2**32 - 1))


class TestProjectBatch:
    @settings(max_examples=80, deadline=None)
    @given(resample_profiles())
    def test_matches_per_component_project(self, profiles):
        dims_in, dims_out, seed = profiles
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=m) for m in dims_in]
        for x in xs:
            x[rng.random(len(x)) < 0.2] = -0.0
        got = project_batch(np.concatenate(xs), dims_in, dims_out)
        pieces = np.split(got, np.cumsum(dims_out)[:-1])
        for x, n, piece in zip(xs, dims_out, pieces):
            P = proj_matrix(len(x), n)
            terms = np.abs(P) @ np.abs(x)
            assert np.all(np.abs(piece - P @ x) <= 1e-12 * terms)
            if n == len(x):
                assert piece.tobytes() == x.tobytes()

    def test_equal_profile_is_a_copy(self, rng):
        v = rng.normal(size=9)
        w = v.copy()
        out = project_batch(v, (4, 5), (4, 5))
        assert out.tobytes() == v.tobytes()
        out[:] = 0.0
        assert v.tobytes() == w.tobytes()

    def test_profile_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            project_batch(np.zeros(5), (2, 3), (2,))
        with pytest.raises(ShapeError):
            project_batch(np.zeros(5), (2, 2), (2, 2))
        with pytest.raises(ShapeError):
            project_batch(np.zeros(5), (2, 3), (2, 0))

    @settings(max_examples=60, deadline=None)
    @given(resample_profiles())
    def test_resample_matches_overlap_oracle_bytes(self, profiles):
        # The stages resample through _resample, which skips the argument
        # checks and returns an unchanged profile's P itself.
        dims_in, dims_out, seed = profiles
        m, n = as_lengths(dims_in), as_lengths(dims_out, count=len(dims_in))
        P = np.random.default_rng(seed).normal(size=sum(m))
        want = oracle_resample(P, m, n)
        got = _resample(P, m, n)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert (got is P) == (m == n)
        assert project_batch(P, m, n).tobytes() == want.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(2**27, 2**31), min_size=1, max_size=4), st.data())
    def test_band_over_budget_rejected_before_allocating(self, dims_in, data):
        dims_out = [data.draw(st.integers(2**27, 2**31)) for _ in dims_in]
        dims_out[0] = dims_in[0] + 1
        if sum(dims_in) + sum(dims_out) <= SIZE_BUDGET:
            dims_out[0] += SIZE_BUDGET
        P = np.broadcast_to(1.0, (sum(dims_in),))  # no memory behind it
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError):
                project_batch(P, dims_in, dims_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_memoised_plan_gives_the_same_bytes(self, rng):
        dims_in, dims_out = (7, 3, 5, 11), (11, 3, 4, 2)
        v = rng.normal(size=sum(dims_in))
        _resample_band.cache_clear()
        cold = project_batch(v, dims_in, dims_out)
        warm = project_batch(v, list(dims_in), np.array(dims_out))
        assert _resample_band.cache_info().hits == 1
        _resample_band.cache_clear()
        again = project_batch(v, dims_in, dims_out)
        assert cold.tobytes() == warm.tobytes() == again.tobytes()

    def test_plan_is_read_only_with_int32_indices(self):
        idx_a, idx_b, coef_ab, coef_ba, keep_a, keep_b = band = _resample_band((7, 3, 5),
                                                                               (11, 3, 4))
        assert idx_a.dtype == idx_b.dtype == np.int32
        for a in band:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            coef_ab[0] = 0.0

    @staticmethod
    def fresh_plan(dims_in, dims_out):
        """(src, dst, coef, keep_in, keep_out) of the resample dims_in ->
        dims_out, built from its own band, bridge_band(dims_out, dims_in)."""
        m, n = np.array(dims_in), np.array(dims_out)
        same = m == n
        u = np.flatnonzero(~same)
        k, i, j, w = bridge_band(n[u], m[u])
        return (((np.cumsum(m) - m)[u][k] + j).astype(np.int32),
                ((np.cumsum(n) - n)[u][k] + i).astype(np.int32),
                w / m[u][k], np.repeat(same, m), np.repeat(same, n))

    @pytest.mark.parametrize("a, b", [((7, 3, 5, 11), (11, 3, 4, 2)),
                                      ((61, 17, 60, 29), (61,) * 4),
                                      ((1, 9), (9, 1))])
    def test_reverse_plan_shares_the_band_and_equals_a_fresh_one(self, rng, a, b):
        _resample_band.cache_clear()
        padded = project_batch(rng.normal(size=sum(a)), a, b)
        project_batch(padded, b, a)
        assert _resample_band.cache_info().misses == 1  # the unpad reused the pad's band
        lo, hi = sorted((a, b))
        idx_lo, idx_hi, coef_up, coef_down, keep_lo, keep_hi = _resample_band(lo, hi)
        forward = (idx_lo, idx_hi, coef_up, keep_lo, keep_hi)
        reverse = (idx_hi, idx_lo, coef_down, keep_hi, keep_lo)
        for got, want in ((forward, self.fresh_plan(lo, hi)), (reverse, self.fresh_plan(hi, lo))):
            for x, y in zip(got, want, strict=True):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_over_budget_profile_raises_on_every_call(self):
        dims_in, dims_out = (2**30, 2**30), (2**30 + 1, 3)
        P = np.broadcast_to(1.0, (2**31,))
        _resample_band.cache_clear()
        for _ in range(2):
            with pytest.raises(SizeBudgetError):
                project_batch(P, dims_in, dims_out)
        assert _resample_band.cache_info().currsize == 0

    def test_cache_stays_bounded(self, rng):
        info = _resample_band.cache_info()
        for n in range(2, 52):
            project_batch(rng.normal(size=n + 3), (n, 3), (n + 1, 3))
            assert _resample_band.cache_info().currsize <= info.maxsize


class TestNominalAdd:
    def test_same_dims_ordinary_sum(self, rng):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        np.testing.assert_allclose(nominal_add(x, y, 4), x + y, atol=1e-15)

    def test_scalar_target_adds_means(self):
        np.testing.assert_allclose(nominal_add([2, 4], [1, 1, 1], 1), [4.0], atol=1e-15)

    def test_dual_path_with_replicated_sum(self, rng):
        for m in range(1, 9):
            for n in range(1, 9):
                for r in range(1, 9):
                    x = rng.normal(size=m)
                    y = rng.normal(size=n)
                    np.testing.assert_allclose(
                        nominal_add(x, y, r), project(sta(x, y), r), atol=1e-12
                    )


class TestProjectionFactorization:
    def test_projecting_a_replication_collapses(self, rng):
        # project(repeat(x, t/m), r) == project(x, r) whenever m divides t.
        for m in range(1, 9):
            for r in range(1, 9):
                x = rng.normal(size=m)
                for t in range(m, 25, m):
                    lhs = project(np.repeat(x, t // m), r)
                    rhs = project(x, r)
                    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@functools.lru_cache(maxsize=16)
def overlap_band(n, p):
    """The nonzeros (i, j, w) of bridge_matrix(n, p) * gcd(n, p), from the
    overlap definition w = min((i+1) p, (j+1) n) - max(i p, j n) of row
    interval [i p, (i+1) p) and column interval [j n, (j+1) n): a sweep over
    the pieces of [0, n p) from left to right, in Python ints."""
    band, i, j = [], 0, 0
    while i < n:
        row_end, col_end = (i + 1) * p, (j + 1) * n
        band.append((i, j, min(row_end, col_end) - max(i * p, j * n)))
        i, j = i + (row_end <= col_end), j + (col_end <= row_end)
    return tuple(band)


def oracle_pair_band(dims_x, dims_y, pairs):
    """(idx_x, idx_y, pair, w, g) as Python lists, entry by entry, for the
    component pairs (a, b) listed in pairs; g is the pair's gcd."""
    off_x, off_y = np.cumsum([0, *dims_x]).tolist(), np.cumsum([0, *dims_y]).tolist()
    cols = [[] for _ in range(5)]
    for e, (a, b) in enumerate(pairs):
        n, p = dims_x[a], dims_y[b]
        for i, j, w in overlap_band(n, p):
            for col, v in zip(cols, (off_x[a] + i, off_y[b] + j, e, w, math.gcd(n, p))):
                col.append(v)
    return cols


def oracle_plan_band(dims_x, dims_y, pairs):
    """(idx_x, idx_y, pair, v) of oracle_pair_band, v = float(w // g) the
    integer bridge entry: the arrays pair_band returns."""
    idx_x, idx_y, pair, w, g = oracle_pair_band(dims_x, dims_y, pairs)
    return idx_x, idx_y, pair, [float(v // d) for v, d in zip(w, g)]


def oracle_resample(P, dims_in, dims_out):
    """The resample of P from dims_in to dims_out, entry by entry: each
    overlap band entry of a component whose length changes adds
    P[src] * (w / m_k) to its destination, in the order the profile pair's
    band lists them (the smaller profile first), and the other components are
    copied."""
    lo, hi = sorted((dims_in, dims_out))
    u = [k for k in range(len(dims_in)) if dims_in[k] != dims_out[k]]
    idx_lo, idx_hi, pair, w, _ = oracle_pair_band(lo, hi, list(zip(u, u)))
    src, dst = (idx_lo, idx_hi) if lo == dims_in else (idx_hi, idx_lo)
    out = np.zeros(sum(dims_out))
    for a, b, e, v in zip(src, dst, pair, w, strict=True):
        out[b] += P[a] * (v / dims_in[u[e]])
    off_in, off_out = np.cumsum([0, *dims_in]), np.cumsum([0, *dims_out])
    for k, (m, n) in enumerate(zip(dims_in, dims_out)):
        if m == n:
            out[off_out[k]:off_out[k + 1]] = P[off_in[k]:off_in[k + 1]]
    return out


def assert_same_array(got, values, dtype, writeable=False):
    """got holds values in native dtype, C order, with the given write flag."""
    want = np.array(values, dtype=np.dtype(dtype).newbyteorder("="))
    assert got.dtype.str == want.dtype.str and got.flags.c_contiguous
    assert got.flags.writeable == writeable
    assert got.tobytes() == want.tobytes()


def length_grid_examples(test):
    """Profiles that pair every two lengths in [1, 40]: 1..40 against its
    rotations by 0..20, which meet every difference of lengths mod 40."""
    grid = list(range(1, 41))
    for k in range(21):
        test = example((grid, grid[k:] + grid[:k], 0))(test)
    return test


class TestBandOracle:
    """bridge_band, pair_band, _resample_band and _gram_plan against the
    entry-level overlap definition, built fresh: values, dtypes, byte order
    and write flags."""

    @settings(max_examples=60, deadline=None)
    @given(resample_profiles())
    @example(([1, 5, 1], [3, 1, 1], 0))  # length 1
    @example(([7], [4], 0))  # s = 1
    @example(([6, 6, 6], [6, 6, 6], 0))  # equal lengths throughout
    @example(([4, 9, 6], [4, 3, 6], 0))  # equal lengths in a ragged profile
    @example(([12, 18, 8], [8, 12, 18], 0))  # gcd > 1
    @example(([99_991], [100_003], 0))  # coprime, i p above 2**31
    @length_grid_examples
    def test_bands_match_overlap_definition(self, profiles):
        dims_x, dims_y, _ = profiles
        dims_x, dims_y = tuple(dims_x), tuple(dims_y)
        s = len(dims_x)
        pairs = list(zip(range(s), range(s)))

        idx_x, idx_y, pair, w, g = oracle_pair_band(dims_x, dims_y, pairs)
        want_i = [x - off for x, off in zip(idx_x, np.cumsum([0, *dims_x])[pair].tolist())]
        want_j = [y - off for y, off in zip(idx_y, np.cumsum([0, *dims_y])[pair].tolist())]
        for got, want in zip(bridge_band(np.array(dims_x), np.array(dims_y)),
                             (pair, want_i, want_j, w), strict=True):
            assert_same_array(got, want, np.int64, writeable=True)
        for n, p in zip(dims_x, dims_y):  # the memoised band, in both orientations
            want_i, want_j, want_w = zip(*overlap_band(n, p))
            _pair_band.cache_clear()  # the first call cold, the second from the memo
            for got, want in ((_band(n, p), (want_i, want_j, want_w)),
                              (_band(p, n), (want_j, want_i, want_w))):
                for arr, vals in zip(got, want, strict=True):
                    assert_same_array(arr, vals, np.int64)

        rows = np.arange(s * len(dims_y)) // len(dims_y)
        cols = np.arange(s * len(dims_y)) % len(dims_y)
        want = oracle_plan_band(dims_x, dims_y, list(zip(rows.tolist(), cols.tolist())))
        got = pair_band(dims_x, dims_y, rows, cols)
        for arr, vals, dtype in zip(got, want, (np.int32, np.int32, np.int32, np.float64),
                                    strict=True):
            assert_same_array(arr, vals, dtype)

        lo, hi = sorted((dims_x, dims_y))
        u = [k for k in range(s) if lo[k] != hi[k]]
        idx_a, idx_b, pair, w, _ = oracle_pair_band(lo, hi, list(zip(u, u)))
        want = (idx_a, idx_b, [v / lo[u[k]] for v, k in zip(w, pair)],
                [v / hi[u[k]] for v, k in zip(w, pair)],
                [a == b for a, b in zip(lo, hi) for _ in range(a)],
                [a == b for a, b in zip(lo, hi) for _ in range(b)])
        _resample_band.cache_clear()
        got = _resample_band(lo, hi)
        for arr, vals, dtype in zip(got, want, (np.int32, np.int32, np.float64, np.float64,
                                                bool, bool), strict=True):
            assert_same_array(arr, vals, dtype)

        for dims_y in (dims_y, dims_x):  # the full and the mirrored listing
            listed = [(a, b) for a in range(s) for b in range(len(dims_y))]
            if dims_x == dims_y:  # each pair once, row-major over the sorted lengths
                order = sorted(range(s), key=dims_x.__getitem__)
                listed = [(order[a], order[b]) for a in range(s) for b in range(a, s)]
            _gram_plan.cache_clear()
            rows, cols, _, runs = _gram_plan(dims_x, dims_y)
            for run_lo, run_hi, band in runs:  # a plan of two or more runs keeps no band
                want = oracle_plan_band(dims_x, dims_y, listed[run_lo:run_hi])
                got = band or pair_band(dims_x, dims_y, rows[run_lo:run_hi], cols[run_lo:run_hi])
                for arr, vals, dtype in zip(got, want, (np.int32, np.int32, np.int32,
                                                        np.float64), strict=True):
                    assert_same_array(arr, vals, dtype)


@st.composite
def reduced_quotients(draw):
    """(w, a, g): integers up to 2**53 with g dividing both, a >= 1."""
    g = draw(st.integers(1, 2**53))
    return g * draw(st.integers(0, 2**53 // g)), g * draw(st.integers(1, 2**53 // g)), g


@settings(max_examples=300, deadline=None)
@given(reduced_quotients())
@example((2**53, 2**53, 1))
@example((2**53 - 1, 3, 1))
@example((3 * 2**51, 7 * 2**50, 2**50))
def test_reduced_quotient_has_the_bits_of_the_plain_one(wag):
    # The resample plan divides v = w // g by a // g for the bits of w / a:
    # both operands are exact in float64, and one correctly rounded division
    # of the same rational gives one result.
    w, a, g = wag
    reduced = np.array([w // g], dtype=float) / np.array([a // g])
    plain = np.array([w]) / np.array([a])
    assert reduced.tobytes() == plain.tobytes()


# Every pair of lengths up to 40, and a coprime pair whose i p exceeds 2**31.
MEMO_PAIRS = [(n, p) for n in range(1, 41) for p in range(1, 41)] + [(99_991, 100_003)]


def memo_readers(n, p):
    """The kernels that read the memoised band of the pair (n, p), as
    name -> call with fixed operands; the dense ones only while n p is small."""
    rng = np.random.default_rng([n, p])
    x, y = rng.normal(size=n), rng.normal(size=p)
    A, B = rng.normal(size=(3, n)), rng.normal(size=(p, 2))
    calls = {"vinner": lambda: vinner(x, y), "vdist": lambda: vdist(x, y),
             "project": lambda: project(x, p)}
    if n * p <= 2**20:
        calls.update({
            "bridge_matrix": lambda: bridge_matrix(n, p),
            "weighted_bridge_matrix": lambda: weighted_bridge_matrix(n, p),
            "proj_matrix": lambda: proj_matrix(n, p),
            "dk_stp": lambda: dk_stp(A, B),
            "weighted_dk_stp": lambda: weighted_dk_stp(A, B),
        })
    return calls


class TestPairBandMemo:
    """algebra._pair_band, the one band memoised per unordered length pair,
    and the kernels that read it."""

    def test_kernels_give_the_same_bytes_cold_and_warm(self):
        for n, p in MEMO_PAIRS:
            calls = memo_readers(n, p)
            cold = {}
            for name, call in calls.items():
                _pair_band.cache_clear()
                cold[name] = np.asarray(call()).tobytes()
            for order in (list(calls), list(calls)[::-1]):  # a cold start, then warm
                _pair_band.cache_clear()
                for name in order:
                    assert np.asarray(calls[name]()).tobytes() == cold[name], (n, p, name)

    @pytest.mark.parametrize("n, p", [(5, 7), (7, 5), (12, 18), (1, 4), (6, 6)])
    def test_results_stay_fresh_and_writable(self, n, p):
        for name, call in memo_readers(n, p).items():
            out = call()
            if name in ("vinner", "vdist"):
                assert type(out) is float
                continue
            want = out.tobytes()
            assert out.flags.writeable, name
            out[...] = np.nan
            assert call().tobytes() == want, name
        if n != p:
            with pytest.raises(ValueError):
                _band(n, p)[2][0] = 0

    def test_memo_retains_one_band_until_the_next_pair(self):
        x, y = np.ones(2**16 + 1), np.ones(2**16)
        tracemalloc.start()
        try:
            assert vinner(x, y) == 1.0
            kept = tracemalloc.get_traced_memory()[0]
            nbytes = sum(arr.nbytes for arr in _pair_band(2**16, 2**16 + 1))  # a hit
            assert _pair_band.cache_info()[:2] == (1, 1)  # (hits, misses)
            assert vinner(x[:3], y[:2]) == 1.0
            released = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert nbytes == 24 * 2**17  # n + p - gcd entries of (i, j, w), 8 B each
        assert nbytes <= kept <= nbytes + 2**16
        assert released < 2**16

    def test_failing_calls_leave_the_memo_unchanged(self):
        for warm in (False, True):
            _pair_band.cache_clear()
            if warm:
                bridge_matrix(2, 3)
            before = _pair_band.cache_info()
            with pytest.raises(ShapeError):
                proj_matrix(0, 3)
            with pytest.raises(SizeBudgetError):
                bridge_matrix(2**16, 2**16)
            assert _pair_band.cache_info() == before
            assert before.currsize == warm

    def test_bool_length_still_raises_when_its_int_is_cached(self):
        bridge_matrix(1, 3)
        with pytest.raises(TypeError):
            bridge_matrix(True, 3)

    @pytest.mark.parametrize("kernel", [bridge_matrix, weighted_bridge_matrix, proj_matrix,
                                        proj_matrix_exact])
    def test_zero_d_array_lengths_give_the_bytes_of_ints(self, kernel):
        want = np.asarray(kernel(3, 5), dtype=float).tobytes()
        for n in (np.asarray(3), np.asarray(3, dtype=np.uint8), np.int64(3)):
            _pair_band.cache_clear()
            assert np.asarray(kernel(n, 5), dtype=float).tobytes() == want
        with pytest.raises(TypeError):
            kernel(True, 5)


def kernels_coprime_pairs():
    """The unordered pairs of perfbench's kernels_coprime workload: (m, m + 1)
    for m = 10 + 17 k, k < 15, and the consecutive primes around each m."""
    primes = [q for q in range(2, 257) if all(q % d for d in range(2, int(q**0.5) + 1))]
    pairs = []
    for m in range(10, 256, 17):
        k = max(k for k, q in enumerate(primes) if q <= m)
        pairs += [(m, m + 1), (primes[k], primes[k + 1])]
    return pairs


def eight_kernels(m, n):
    """The eight calls of a kernels_coprime request on the pair (m, n)."""
    rng = np.random.default_rng([m, n])
    x, y = rng.normal(size=m), rng.normal(size=n)
    A, B = rng.normal(size=(8, m)), rng.normal(size=(n, 8))
    return [lambda: proj_matrix(m, n), lambda: project(x, n), lambda: vinner(x, y),
            lambda: vdist(x, y), lambda: bridge_matrix(m, n), lambda: dk_stp(A, B),
            lambda: weighted_dk_stp(A, B), lambda: sta(x, y)]


def scatter_oracle(n, p):
    """bridge_matrix(n, p) by the 2-D scatter out[i, j] = w // gcd of the
    uncached band, with v = w // gcd."""
    _, i, j, w = bridge_band(n, p)
    v = w // math.gcd(n, p)
    out = np.zeros((n, p))
    out[i, j] = v
    return out, i, j, v


def held_records():
    """The memo's records, least recently used first, as {pair: record}."""
    return dict(algebra._memo)


class TestManyPairMemo:
    """algebra._pair_band holds the bands of many pairs, capped by entries and
    evicted least recently used first, with each dense factor's scatter plan."""

    def test_held_entries_stay_within_the_cap(self):
        rng = np.random.default_rng(34)
        pairs = [tuple(rng.integers(1, 3000, 2).tolist()) for _ in range(200)]
        pairs[120] = (40_000, 40_001)  # 80,000 entries: a band larger than the cap
        cap = algebra._MEMO_CAP
        for k, (n, p) in enumerate(pairs):
            x, y = np.ones(n), np.ones(p)
            assert vinner(x, y) == 1.0
            if k % 3 == 0 and n * p <= 2**21:
                bridge_matrix(n, p)
                proj_matrix(n, p)
            info = _pair_band.cache_info()
            records = held_records()
            last = records[(min(n, p), max(n, p))]
            assert list(records)[-1] == (min(n, p), max(n, p))
            assert info.entries == sum(r[0] for r in records.values())
            assert info.entries - last[0] <= cap and info.currsize == len(records)
            held = sum(a.nbytes for r in records.values() for a in (*r[1], *r[2:]) if a is not None)
            assert held <= 24 * info.entries
        assert 1 < info.currsize < 200 and info.misses == 200

    def test_least_recently_used_pair_goes_first(self, monkeypatch):
        monkeypatch.setattr(algebra, "_MEMO_CAP", 100)
        built = count_one_pair_bands(monkeypatch)
        a, b, c, d = (13, 18), (11, 20), (15, 16), (14, 17)  # 30 entries each

        def read(pair):
            vinner(np.ones(pair[0]), np.ones(pair[1]))

        for pair in (a, b, c):
            read(pair)
        read(a)  # a hit, so b is now the least recently used
        assert _pair_band.cache_info().entries == 90
        read(d)  # 120 entries: b goes
        assert list(held_records()) == [c, a, d]
        for pair in (a, c, d):
            read(pair)
        assert built == [a, b, c, d]
        read(b)  # built again, and a, now the oldest, goes
        assert built == [a, b, c, d, b]
        assert list(held_records()) == [c, d, b]
        bridge_matrix(*c)  # c's scatter plan, 30 entries more: d goes
        assert list(held_records()) == [b, c]
        assert _pair_band.cache_info()[2:] == (100, 2, 90)
        _pair_band.cache_clear()
        assert _pair_band.cache_info() == (0, 0, 100, 0, 0)

    def test_kernels_coprime_pairs_are_built_once(self, monkeypatch):
        # Two passes over the workload's pairs in both orders through all
        # eight kernels: the second pass builds no band and no scatter plan.
        built = count_one_pair_bands(monkeypatch)
        pairs = kernels_coprime_pairs()
        ordered = [q for pair in pairs for q in (pair, pair[::-1])]
        for m, n in ordered:
            for call in eight_kernels(m, n):
                call()
        records = held_records()
        plans = {key: (r[2], r[3], r[4]) for key, r in records.items()}
        assert len(built) == len(records) == len(set(pairs))
        assert all(all(a is not None for a in plan) for plan in plans.values())
        before = _pair_band.cache_info()
        for m, n in ordered:
            for call in eight_kernels(m, n):
                call()
        assert len(built) == len(set(pairs))
        after = _pair_band.cache_info()
        assert (after.misses, after.entries) == (before.misses, before.entries)
        assert after.hits == before.hits + 7 * len(ordered)  # sta reads no band
        assert all(all(a is b for a, b in zip(plans[key], (r[2], r[3], r[4])))
                   for key, r in held_records().items())

    @pytest.mark.parametrize("n, p", [(5, 7), (7, 5), (12, 18), (18, 12), (6, 6), (1, 4),
                                      (4, 1), (1, 1), (96, 144)])
    def test_dense_factors_match_a_two_d_scatter(self, n, p):
        g, t = math.gcd(n, p), math.lcm(n, p)
        bridge, i, j, v = scatter_oracle(n, p)
        weighted = np.zeros((n, p))
        weighted[i, j] = v / (n // g)
        proj = np.zeros((p, n))  # proj_matrix(n, p) is the bridge of (p, n) scaled
        _, i2, j2, v2 = scatter_oracle(p, n)
        proj[i2, j2] = v2 * (p / t)
        rng = np.random.default_rng([n, p])
        A, B = rng.normal(size=(3, n)), rng.normal(size=(p, 2))
        reduced = scatter_oracle(n // g, p // g)[0]
        dk = (A.reshape(3 * g, n // g) @ reduced).reshape(3, p) @ B if n != p else A @ B
        wreduced = reduced / (n // g)
        wdk = (A.reshape(3 * g, n // g) @ wreduced).reshape(3, p) @ B if n != p else A @ B
        for _ in range(2):  # cold, then from the held plans
            for call, want in ((lambda: bridge_matrix(n, p), bridge),
                               (lambda: weighted_bridge_matrix(n, p), weighted),
                               (lambda: proj_matrix(n, p), proj),
                               (lambda: dk_stp(A, B), dk),
                               (lambda: weighted_dk_stp(A, B), wdk)):
                got, again = call(), call()
                assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
                assert got.flags.writeable and got.flags.c_contiguous and got.flags.owndata
                assert not np.shares_memory(got, again)
                got[...] = np.nan
                assert call().tobytes() == want.tobytes()

    def test_threads_read_the_bytes_of_cold_calls(self, monkeypatch):
        monkeypatch.setattr(algebra, "_MEMO_CAP", 1_500)  # pairs are evicted often
        pairs = kernels_coprime_pairs()[:12]
        ordered = [q for pair in pairs for q in (pair, pair[::-1])]
        cold = {}
        for pair in ordered:
            _pair_band.cache_clear()
            cold[pair] = [np.asarray(call()).tobytes() for call in eight_kernels(*pair)]
        _pair_band.cache_clear()
        wrong = []

        def run(seed):
            for k in np.random.default_rng(seed).permutation(len(ordered) * 3) % len(ordered):
                got = [np.asarray(call()).tobytes() for call in eight_kernels(*ordered[k])]
                if got != cold[ordered[k]]:
                    wrong.append(ordered[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert _pair_band.cache_info().entries == sum(r[0] for r in held_records().values())


@st.composite
def band_calls(draw):
    """(dims_x, dims_y, rows, cols) of one pair_band call: profiles of lengths
    in [1, 24], so that pairs recur from call to call in both orientations,
    and up to 12 listed component pairs, repeats included."""
    dims_x, dims_y = (tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=5)))
                      for _ in range(2))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(dims_x) - 1),
                                    st.integers(0, len(dims_y) - 1)), max_size=12))
    return (dims_x, dims_y, np.array([a for a, _ in pairs], dtype=np.intp),
            np.array([b for _, b in pairs], dtype=np.intp))


def cold_bands(calls):
    """pair_band of each call, each built from an empty store."""
    bands = []
    for call in calls:
        pair_band.cache_clear()
        bands.append(pair_band(*call))
    pair_band.cache_clear()
    return bands


def assert_band(got, call, cold):
    """got is the band of call that the overlap definition gives, with the
    dtypes, bytes and flags of the cold build."""
    dims_x, dims_y, rows, cols = call
    want = oracle_plan_band(dims_x, dims_y, list(zip(rows.tolist(), cols.tolist())))
    for arr, vals, c, dtype in zip(got, want, cold, (np.int32, np.int32, np.int32, np.float64),
                                   strict=True):
        assert_same_array(arr, vals, dtype)
        assert arr.tobytes() == c.tobytes() and arr.flags == c.flags


class TestBandStore:
    """pair_band's store of length-pair bands: every call reads the bands of
    a cold build, whatever the calls before it left in the store."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(band_calls(), min_size=1, max_size=8), st.sampled_from([None, 40, 200]))
    @example([((3, 5), (4, 7), np.array([], np.intp), np.array([], np.intp))], None)
    @example([((5, 9), (7, 4), np.array([0, 1, 1]), np.array([0, 1, 0]))] * 2, None)
    @example([((5, 9), (7, 4), np.array([0, 1]), np.array([0, 1])),
              ((7, 4), (5, 9), np.array([1, 0]), np.array([1, 0]))], 200)
    def test_interleaved_calls_read_the_cold_bands(self, calls, cap):
        cold = cold_bands(calls)
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:  # small enough to start the store over
                mp.setattr(projection, "_STORE_CAP", cap)
                pair_band.cache_clear()
            for call, want in zip(calls, cold, strict=True):
                assert_band(pair_band(*call), call, want)
                assert pair_band.cache_info().currsize <= projection._STORE_CAP

    def test_a_full_store_starts_over_with_the_call_s_pairs(self, monkeypatch):
        monkeypatch.setattr(projection, "_STORE_CAP", 64)
        pair_band.cache_clear()
        one = np.arange(2)
        calls = [((5, 9), (7, 11), one, one),  # 11 + 19 entries
                 ((13,), (17,), one[:1], one[:1]),  # 29 more: 59
                 ((23,), (19,), one[:1], one[:1]),  # 41 more: over 64, so 41
                 ((5, 9), (7, 11), one, one),  # 30 more: over 64, so 30
                 ((40,), (41,), one[:1], one[:1]),  # 80 alone: not kept
                 ((9, 5), (11, 7), one, one)]  # both read from the store
        cold = cold_bands(calls)
        held = []
        for call, want in zip(calls, cold):
            assert_band(pair_band(*call), call, want)
            held.append(pair_band.cache_info().currsize)
        assert held == [30, 59, 41, 30, 30, 30]
        assert pair_band.cache_info()[:2] == (2, 7)  # (hits, misses)

    def test_stored_pairs_build_no_band(self, monkeypatch):
        # Pairs (5, 4), (7, 11), (2, 9) and (3, 3), each read the other way
        # round, and (2, 9) twice.
        call = ((4, 11, 9, 3), (5, 7, 2, 3), np.array([0, 1, 2, 3, 2]),
                np.array([0, 1, 2, 3, 2]))
        cold = cold_bands([call])[0]
        pair_band((7, 3, 5), (11, 3, 4), np.arange(3), np.arange(3))
        pair_band((2,), (9,), np.arange(1), np.arange(1))  # a second build
        before = pair_band.cache_info()
        built, band_rows = [], projection._band_rows
        monkeypatch.setattr(projection, "_band_rows",
                            lambda n, p: built.append((n, p)) or band_rows(n, p))
        assert_band(pair_band(*call), call, cold)
        assert built == []
        assert pair_band.cache_info() == before._replace(hits=before.hits + 5)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_integer_arrays_read_the_bands_of_ints(self, dtype):
        call = ((5, 9, 31), (7, 4, 31), np.array([0, 1, 2, 1]), np.array([0, 1, 2, 0]))
        cold = cold_bands([call])[0]
        pair_band((5,), (7,), np.arange(1), np.arange(1))  # the other pairs are stored after it
        for _ in range(2):  # built, then read from the store
            got = pair_band(np.array(call[0], dtype), np.array(call[1], dtype), *call[2:])
            assert_band(got, call, cold)

    def test_restarts_count_the_times_the_store_started_over(self, monkeypatch):
        monkeypatch.setattr(projection, "_STORE_CAP", 64)
        pair_band.cache_clear()
        one = np.arange(2)
        restarts = []
        for dims_x, dims_y, k in [((5, 9), (7, 11), 2),  # 30 entries
                                  ((13,), (17,), 1),  # 59
                                  ((23,), (19,), 1),  # over 64: starts over with 41
                                  ((23,), (19,), 1),  # a hit
                                  ((5, 9), (7, 11), 2),  # over 64: starts over with 30
                                  ((40,), (41,), 1)]:  # 80 alone: served apart, no restart
            pair_band(dims_x, dims_y, one[:k], one[:k])
            restarts.append(pair_band.cache_info().restarts)
        assert restarts == [0, 0, 1, 1, 2, 2]
        pair_band.cache_clear()
        assert pair_band.cache_info() == (0, 0, 64, 0, 0)

    def test_threads_read_whole_bands(self, monkeypatch):
        monkeypatch.setattr(projection, "_STORE_CAP", 600)  # the store starts over often
        rng = np.random.default_rng(7)
        calls = [(tuple(rng.integers(1, 40, 4).tolist()), tuple(rng.integers(1, 40, 4).tolist()),
                  rng.integers(0, 4, 6), rng.integers(0, 4, 6)) for _ in range(30)]
        cold = cold_bands(calls)
        wrong = []

        def read(seed):
            for k in np.random.default_rng(seed).permutation(len(calls) * 4) % len(calls):
                got = pair_band(*calls[k])
                if any(a.tobytes() != b.tobytes() for a, b in zip(got, cold[k])):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestColdCaches:
    """The autouse fixture in conftest clears every stpdft cache between tests."""

    def test_warm_every_band_cache(self):
        hyper_inner(HyperVector([np.ones(3), np.ones(5)]), HyperVector([np.ones(4)]))
        project_batch(np.ones(8), (3, 5), (4, 4))
        vinner(np.ones(3), np.ones(5))
        assert _resample_band.cache_info().currsize == 1
        assert _pair_band.cache_info().currsize == 1

    def test_every_cache_starts_cold(self):
        caches = stpdft_caches()
        assert {"stpdft.algebra._pair_band", "stpdft.projection._resample_band",
                "stpdft.projection._gram_plan", "stpdft.projection.pair_band"} <= set(caches)
        assert {name: c.cache_info().currsize for name, c in caches.items()} == dict.fromkeys(caches, 0)
