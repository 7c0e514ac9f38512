import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpdft import (
    ShapeError,
    SizeBudgetError,
    bridge_band,
    bridge_matrix,
    bridge_matrix_exact,
    dk_stp,
    lcm,
    sta,
    stp,
    weighted_bridge_matrix,
    weighted_dk_stp,
)
from stpdft import algebra
from stpdft.algebra import as_lengths
from stpdft.projection import proj_matrix, project, vdist, vinner
from paper_forms import is_stochastic_matrix, is_stochastic_vector


def kron_bridge(n, p):
    """The paper's definition of bridge_matrix, built from lcm-sized factors:
    (I_n kron ones_row(t/n)) @ (I_p kron ones_col(t/p)), t = lcm(n, p)."""
    t = lcm(n, p)
    return np.kron(np.eye(n), np.ones((1, t // n))) @ np.kron(np.eye(p), np.ones((t // p, 1)))


# Every pair of lengths up to 40, then larger pairs with a common factor.
LENGTH_PAIRS = [(n, p) for n in range(1, 41) for p in range(1, 41)] + [
    (96, 144), (100, 250), (255, 85), (126, 180)]


def kron_dk_stp(A, B):
    """The paper's definition of dk_stp, A m x n and B p x q:
    (A kron ones_row(t/n)) @ (B kron ones_col(t/p)), t = lcm(n, p)."""
    n, p = A.shape[1], B.shape[0]
    t = lcm(n, p)
    return np.kron(A, np.ones((1, t // n))) @ np.kron(B, np.ones((t // p, 1)))


def kron_weighted_dk_stp(A, B):
    """The paper's definition of weighted_dk_stp: kron_dk_stp with the right
    ones expansion averaged, (A kron ones_row(t/n)) @ (B kron ones_col(t/p)) p/t."""
    n, p = A.shape[1], B.shape[0]
    t = lcm(n, p)
    return np.kron(A, np.ones((1, t // n))) @ np.kron(B, np.ones((t // p, 1)) / (t // p))


def kron_bridge_exact(n, p):
    """kron_bridge in integer arithmetic, as an array of Fraction entries."""
    t = lcm(n, p)
    left = np.kron(np.eye(n, dtype=int), np.ones((1, t // n), dtype=int))
    right = np.kron(np.eye(p, dtype=int), np.ones((t // p, 1), dtype=int))
    return np.array([[Fraction(int(c)) for c in row] for row in left @ right], dtype=object)


def assert_fractions_equal(actual, expected):
    assert actual.shape == expected.shape
    assert all(type(v) is Fraction for v in actual.flat)
    assert np.all(actual == expected)


def random_stochastic(rng, m, n):
    M = rng.uniform(0.05, 1.0, size=(m, n))
    return M / M.sum(axis=0)


class TestLcmOnes:
    def test_lcm(self):
        assert lcm(2, 3) == 6
        assert lcm(4, 6) == 12
        for n in range(1, 9):
            assert lcm(n, n) == n


class TestStp:
    def test_conforming_reduces_to_matmul(self, rng):
        A = rng.integers(-4, 5, (2, 3)).astype(float)
        B = rng.integers(-4, 5, (3, 2)).astype(float)
        np.testing.assert_array_equal(stp(A, B), A @ B)

    def test_row_by_tall_column(self):
        # lcm(2, 4) = 4: ([1,2] kron I_2) @ [1,0,0,1]^T = [1, 2]^T.
        A = np.array([[1.0, 2.0]])
        B = np.array([[1.0], [0.0], [0.0], [1.0]])
        np.testing.assert_array_equal(stp(A, B), [[1.0], [2.0]])

    def test_associativity_on_integer_triples(self, rng):
        for _ in range(100):
            d = rng.integers(1, 5, 6)
            A = rng.integers(-3, 4, (d[0], d[1])).astype(float)
            B = rng.integers(-3, 4, (d[2], d[3])).astype(float)
            C = rng.integers(-3, 4, (d[4], d[5])).astype(float)
            L = stp(stp(A, B), C)
            R = stp(A, stp(B, C))
            assert L.shape == R.shape
            np.testing.assert_allclose(L, R, rtol=1e-9, atol=1e-9)

    def test_distributivity_same_shape(self, rng):
        for _ in range(50):
            m, n = rng.integers(1, 5, 2)
            p, q = rng.integers(1, 5, 2)
            A = rng.normal(size=(m, n))
            B = rng.normal(size=(m, n))
            C = rng.normal(size=(p, q))
            np.testing.assert_allclose(
                stp(A + B, C), stp(A, C) + stp(B, C), rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(
                stp(C, A + B), stp(C, A) + stp(C, B), rtol=1e-9, atol=1e-12
            )


class TestDkStp:
    def test_conforming_reduces_to_matmul(self, rng):
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(dk_stp(A, B), A @ B)

    def test_identity_pair(self):
        for n in range(1, 6):
            np.testing.assert_array_equal(dk_stp(np.eye(n), np.eye(n)), np.eye(n))

    def test_keeps_outer_shape(self, rng):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(3, 3))
        out = dk_stp(A, B)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, A @ bridge_matrix(2, 3) @ B, rtol=1e-12)

    def test_bridge_identity_exact_on_integers(self, rng):
        for n in range(1, 7):
            for p in range(1, 7):
                psi = bridge_matrix(n, p)
                for _ in range(3):
                    m, q = rng.integers(1, 5, 2)
                    A = rng.integers(-5, 6, (m, n)).astype(float)
                    B = rng.integers(-5, 6, (p, q)).astype(float)
                    np.testing.assert_array_equal(dk_stp(A, B), A @ psi @ B)
                    np.testing.assert_array_equal(dk_stp(A, B), kron_dk_stp(A, B))

    @pytest.mark.parametrize("op,oracle", [(dk_stp, kron_dk_stp),
                                           (weighted_dk_stp, kron_weighted_dk_stp)])
    def test_matches_kronecker_oracle_on_floats(self, rng, op, oracle):
        # The bridge path sums in another order than the lcm-sized product,
        # so agreement is to roundoff of the sum of |terms|.
        for n, p in [(2, 3), (5, 3), (7, 11), (12, 8), (29, 31), (64, 65), (1, 9),
                     (96, 64), (60, 90), (128, 8), (8, 128)]:
            A = rng.normal(size=(3, n))
            B = rng.normal(size=(p, 4))
            expected = oracle(A, B)
            scale = oracle(np.abs(A), np.abs(B))
            assert np.all(np.abs(op(A, B) - expected) <= 1e-12 * scale), (n, p)


class TestBridgeMatrix:
    def test_golden_2_3(self):
        np.testing.assert_array_equal(bridge_matrix(2, 3), [[2, 1, 0], [0, 1, 2]])

    def test_identity_case(self):
        for n in range(1, 7):
            np.testing.assert_array_equal(bridge_matrix(n, n), np.eye(n))

    def test_exact_variant_matches_float(self):
        for n in range(1, 10):
            for p in range(1, 10):
                exact = bridge_matrix_exact(n, p)
                assert_fractions_equal(exact, kron_bridge_exact(n, p))
                np.testing.assert_array_equal(exact.astype(float), bridge_matrix(n, p))

    def test_bytes_match_kronecker_oracle(self):
        for n, p in LENGTH_PAIRS:
            expected = kron_bridge(n, p)
            assert bridge_matrix(n, p).tobytes() == expected.tobytes(), (n, p)
            weighted = expected / (lcm(n, p) // p)
            assert weighted_bridge_matrix(n, p).tobytes() == weighted.tobytes(), (n, p)

    def test_band_scatters_to_bridge_times_gcd(self):
        n, p = np.divmod(np.arange(40 * 40), 40)
        n, p = n + 1, p + 1
        k, i, j, w = bridge_band(n, p)
        assert np.all(w > 0)
        sizes = np.bincount(k, minlength=len(n))
        np.testing.assert_array_equal(sizes, n + p - np.gcd(n, p))
        assert np.all(sizes <= n + p - 1)
        # Pair by pair, in the order the entries cover [0, n p).
        start = np.maximum(i * p[k], j * n[k])
        assert np.all(np.diff(k) >= 0)
        assert np.all(np.diff(start)[np.diff(k) == 0] > 0)
        offsets = np.cumsum(n * p) - n * p
        dense = np.zeros(int(np.sum(n * p)))
        np.add.at(dense, offsets[k] + i * p[k] + j, w)
        for q in range(len(n)):
            expected = kron_bridge(n[q], p[q]) * math.gcd(n[q], p[q])
            got = dense[offsets[q] : offsets[q] + n[q] * p[q]].reshape(n[q], p[q])
            np.testing.assert_array_equal(got, expected, err_msg=f"{(n[q], p[q])}")

    def test_coprime_bridge_allocates_little_beyond_its_result(self):
        # The 1023 x 1024 result takes 8 MiB; the bound leaves no room for a
        # second array of its size.
        tracemalloc.start()
        try:
            B = bridge_matrix(1023, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert B.shape == (1023, 1024) and B.sum() == lcm(1023, 1024)
        assert peak < 10 * 2**20

    def test_band_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            bridge_band([3, 0], [2, 2])
        with pytest.raises(ShapeError):
            bridge_band([3, 4], [2])

    def test_band_rejects_non_integer_lengths(self):
        with pytest.raises(TypeError):
            bridge_band(2.5, 3)
        with pytest.raises(TypeError):
            bridge_band([3, 4], np.array([2.0, 3.0]))

    def test_one_pair_rejects_bad_lengths(self):
        for n, p in ((0, 3), (3, -1), (np.int64(0), 2)):
            with pytest.raises(ShapeError):
                bridge_band(n, p)
        for n, p in ((True, 3), (3, np.True_), (np.float64(2.0), 3), (np.asarray(2.5), 3)):
            with pytest.raises(TypeError):
                bridge_band(n, p)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_one_pair_closed_form_matches_band_rows(self, n):
        for p in range(1, 65):
            assert_same_band(bridge_band(n, p), bridge_band(np.array([n]), np.array([p])))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 300).flatmap(lambda g: st.tuples(
        st.integers(1, 10**5 // g).map(lambda a: g * a),
        st.integers(1, 10**5 // g).map(lambda b: g * b))))
    @example((99_991, 100_003))
    @example((2**16, 2**16 + 1))
    @example((1, 4099))
    @example((4099, 1))
    @example((1, 1))
    @example((2**17, 2**17))
    def test_one_pair_closed_form_matches_band_rows_at_large_lengths(self, pair):
        n, p = pair
        assert_same_band(bridge_band(n, p), bridge_band(np.array([n]), np.array([p])))

    def test_large_coprime_column_sums(self):
        n, p = 1023, 1024
        psi = bridge_matrix(n, p)
        assert psi.shape == (n, p)
        np.testing.assert_array_equal(psi.sum(axis=0), np.full(p, lcm(n, p) // p))


def assert_same_band(got, want):
    """Two bridge_band results hold arrays of one dtype, bytes and writeability."""
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()
        assert a.flags.writeable and b.flags.writeable


class TestWeightedDkStp:
    def test_conforming_reduces_to_matmul(self, rng):
        A = rng.normal(size=(2, 3))
        B = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(weighted_dk_stp(A, B), A @ B)

    def test_weighted_bridge_golden(self):
        np.testing.assert_allclose(
            weighted_bridge_matrix(2, 3), np.array([[2, 1, 0], [0, 1, 2]]) / 2, rtol=0
        )

    def test_triple_product_identity(self, rng):
        A = rng.normal(size=(4, 3))
        B = rng.normal(size=(5, 2))
        np.testing.assert_allclose(
            weighted_dk_stp(A, B), A @ weighted_bridge_matrix(3, 5) @ B, rtol=1e-12
        )

    def test_exact_kronecker_oracle_on_dyadic_integers(self, rng):
        # With t/p a power of two every product and sum is exact.
        for n, p in [(2, 4), (8, 4), (16, 2), (4, 1), (6, 3)]:
            A = rng.integers(-5, 6, (3, n)).astype(float)
            B = rng.integers(-5, 6, (p, 2)).astype(float)
            np.testing.assert_array_equal(weighted_dk_stp(A, B), kron_weighted_dk_stp(A, B))

    def test_stochastic_closure_matrix_matrix(self, rng):
        A = random_stochastic(rng, 3, 3)
        B = random_stochastic(rng, 2, 2)
        out = weighted_dk_stp(A, B)
        np.testing.assert_allclose(out.sum(axis=0), np.ones(2), atol=1e-12)
        assert is_stochastic_matrix(out, tol=1e-12)

    def test_stochastic_closure_matrix_vector(self, rng):
        A = random_stochastic(rng, 4, 3)
        x = random_stochastic(rng, 5, 1)
        out = weighted_dk_stp(A, x)
        assert is_stochastic_vector(out[:, 0], tol=1e-12)


class TestSta:
    def test_hand_expansion(self):
        np.testing.assert_array_equal(sta([1, 3], [0, 3, 6]), [1, 1, 4, 6, 9, 9])

    def test_same_dim_doubles(self, rng):
        x = rng.normal(size=4)
        np.testing.assert_array_equal(sta(x, x), 2 * x)

    def test_subtraction(self):
        np.testing.assert_array_equal(sta([1, 3], [0, 3, 6], -1), [1, 1, -2, 0, -3, -3])

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.lists(st.floats(-100, 100), min_size=2, max_size=2),
        y=st.lists(st.floats(-100, 100), min_size=5, max_size=5),
    )
    def test_commutativity(self, x, y):
        np.testing.assert_allclose(sta(x, y), sta(y, x), atol=1e-12)

    def test_bytes_match_replicated_sum(self, rng):
        # Built from one replication, sta keeps the bytes, dtype and write
        # flag of the sum of the two replications, signed zeros included.
        for m, n in LENGTH_PAIRS + [(1025, 1024)]:
            x, y = rng.normal(size=m), rng.normal(size=n)
            x[rng.random(m) < 0.2] = rng.choice([0.0, -0.0])
            y[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            t = lcm(m, n)
            for sign in (1, -1):
                expected = np.repeat(x, t // m) + sign * np.repeat(y, t // n)
                got = sta(x, y, sign)
                assert got.dtype == expected.dtype and got.flags.writeable, (m, n, sign)
                assert got.tobytes() == expected.tobytes(), (m, n, sign)

    def test_holds_one_lcm_length_buffer(self):
        # t = 1,049,600: the result is the only t-length array; a second
        # replication of y would double the peak to 16 t B.
        x, y = np.ones(1025), np.ones(1024)
        t = lcm(1025, 1024)
        tracemalloc.start()
        try:
            out = sta(x, y, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (t,) and not out.any()
        assert peak <= 8 * t + 2**16

    def test_associativity_random_dims(self, rng):
        for _ in range(100):
            x = rng.normal(size=rng.integers(1, 7))
            y = rng.normal(size=rng.integers(1, 7))
            z = rng.normal(size=rng.integers(1, 7))
            np.testing.assert_allclose(
                sta(sta(x, y), z), sta(x, sta(y, z)), atol=1e-12
            )


class TestAsLengths:
    def test_returns_python_ints(self):
        got = as_lengths(np.array([3, 1, 4], dtype=np.int32), "dims", count=3)
        assert got == (3, 1, 4) and all(type(d) is int for d in got)

    @pytest.mark.parametrize("dims", [(2.5, 3), (2.0, 3), np.array([2.0, 3.0]), 4])
    def test_non_integer_length_raises_type_error(self, dims):
        with pytest.raises(TypeError, match="dims"):
            as_lengths(dims, "dims")

    @pytest.mark.parametrize("dims", [(True, 3), (3, False), [np.True_], np.array([True])])
    def test_bool_length_raises_type_error(self, dims):
        with pytest.raises(TypeError, match="dims"):
            as_lengths(dims, "dims")

    def test_reads_an_iterator_once(self):
        assert as_lengths(iter([3, 1]), "dims") == (3, 1)
        with pytest.raises(TypeError, match="dims"):
            as_lengths(iter([3, True]), "dims")

    @pytest.mark.parametrize("dims, count, message", [
        ((), None, "at least one"),
        ((2, 3), 3, "has 2 lengths, expected 3"),
        ((2, 0, -1), None, "length 2 must be positive, got 0"),
    ])
    def test_bad_profile_raises_shape_error(self, dims, count, message):
        with pytest.raises(ShapeError, match=message):
            as_lengths(dims, "dims", count)


class TestSizeBudget:
    def test_sta_overflow_rejected(self):
        # lcm(2**17 - 1, 2**17) exceeds the 2**31 - 1 element budget.
        x = np.zeros(2**17 - 1)
        y = np.zeros(2**17)
        with pytest.raises(SizeBudgetError):
            sta(x, y)

    def test_bridge_overflow_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError):
                bridge_matrix(2**16, 2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_dk_stp_overflow_rejected_before_allocating(self):
        # A @ bridge would be 2**16 x 2**16; the operands are only 2**16 x 1.
        A = np.zeros((2**16, 1))
        B = np.zeros((2**16, 1))
        for op in (dk_stp, weighted_dk_stp):
            tracemalloc.start()
            try:
                with pytest.raises(SizeBudgetError):
                    op(A, B)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**22

    def test_large_gcd_builds_only_the_reduced_block(self):
        # gcd(2**20, 2**10) = 2**10: the bridge is I_1024 kron ones_col(1024),
        # so the product needs a 1024 x 1 block, not a 2**30-entry n x p matrix
        # (the Kronecker form builds two 8 MiB factors).
        A = np.ones((1, 2**20))
        B = np.ones((2**10, 1))
        for op, expected in ((dk_stp, 2.0**20), (weighted_dk_stp, 2.0**10)):
            tracemalloc.start()
            try:
                out = op(A, B)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.tolist() == [[expected]]
            assert peak < 2**20

    def test_stp_overflow_rejected(self):
        A = np.zeros((1, 2**17 - 1))
        B = np.zeros((2**17, 1))
        with pytest.raises(SizeBudgetError):
            stp(A, B)


class TestBandReuse:
    def test_kernels_of_one_pair_build_one_band(self, monkeypatch):
        # The seven band readers of perfbench's kernels_coprime workload on one
        # coprime pair: proj_matrix, project, vinner, vdist, bridge_matrix,
        # dk_stp and weighted_dk_stp share the memoised band.  Rebuilt per
        # call, that was seven bands.
        built = count_one_pair_bands(monkeypatch)
        m, n = 89, 97
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=m), rng.normal(size=n)
        A, B = rng.normal(size=(8, m)), rng.normal(size=(n, 8))
        proj_matrix(m, n)
        project(x, n)
        vinner(x, y)
        vdist(x, y)
        bridge_matrix(m, n)
        dk_stp(A, B)
        weighted_dk_stp(A, B)
        assert len(built) == 1, built

    def test_integer_kinds_of_a_length_share_one_band(self, monkeypatch):
        # A Python int, numpy integers and a 0-d array of the same length
        # key one memo entry.
        built = count_one_pair_bands(monkeypatch)
        d = np.array([89, 97])
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=89), rng.normal(size=97)
        A, B = rng.normal(size=(8, 89)), rng.normal(size=(97, 8))
        for _ in range(2):
            proj_matrix(np.int64(89), 97)
            vinner(x, y)
            bridge_matrix(d[0], d[1])
            dk_stp(A, B)
            bridge_matrix(np.asarray(89, dtype=np.uint8), np.int32(97))
            project(x, np.asarray(97))
        assert algebra._pair_band.cache_info().misses == 1
        assert len(built) == 1, built


def count_one_pair_bands(monkeypatch) -> list:
    """The (n, p) of every one-pair band built from here on."""
    built, one_pair_band = [], algebra._one_pair_band

    def counting(n, p):
        built.append((n, p))
        return one_pair_band(n, p)

    monkeypatch.setattr(algebra, "_one_pair_band", counting)
    return built
