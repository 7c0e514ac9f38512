import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
from stpdft.stochastic import is_stochastic_matrix, is_stochastic_vector


def kron_bridge(n, p):
    """The paper's definition of bridge_matrix, built from lcm-sized factors:
    (I_n kron ones_row(t/n)) @ (I_p kron ones_col(t/p)), t = lcm(n, p)."""
    t = lcm(n, p)
    return np.kron(np.eye(n), np.ones((1, t // n))) @ np.kron(np.eye(p), np.ones((t // p, 1)))


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
        for n in range(1, 41):
            for p in range(1, 41):
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
            expected = bridge_matrix(n[q], p[q]) * math.gcd(n[q], p[q])
            got = dense[offsets[q] : offsets[q] + n[q] * p[q]].reshape(n[q], p[q])
            np.testing.assert_array_equal(got, expected, err_msg=f"{(n[q], p[q])}")

    def test_band_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            bridge_band([3, 0], [2, 2])
        with pytest.raises(ShapeError):
            bridge_band([3, 4], [2])

    def test_large_coprime_column_sums(self):
        n, p = 1023, 1024
        psi = bridge_matrix(n, p)
        assert psi.shape == (n, p)
        np.testing.assert_array_equal(psi.sum(axis=0), np.full(p, lcm(n, p) // p))


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

    def test_associativity_random_dims(self, rng):
        for _ in range(100):
            x = rng.normal(size=rng.integers(1, 7))
            y = rng.normal(size=rng.integers(1, 7))
            z = rng.normal(size=rng.integers(1, 7))
            np.testing.assert_allclose(
                sta(sta(x, y), z), sta(x, sta(y, z)), atol=1e-12
            )


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

    def test_stp_overflow_rejected(self):
        A = np.zeros((1, 2**17 - 1))
        B = np.zeros((2**17, 1))
        with pytest.raises(SizeBudgetError):
            stp(A, B)
