import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stpdft import (
    SizeBudgetError,
    nominal_add,
    proj_matrix,
    proj_matrix_exact,
    project,
    sta,
    vdist,
    vinner,
    vnorm,
)
from stpdft.worked_examples import GOLDEN_PROJECTIONS, golden_fraction_matrix
from test_algebra import assert_fractions_equal, kron_bridge, kron_bridge_exact


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
        for m in range(1, 41):
            for n in range(1, 41):
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
