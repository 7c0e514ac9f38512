import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpdft import (
    DegenerateRowError,
    is_stochastic_matrix,
    is_stochastic_vector,
    softmax,
    softmax_rows,
    weighted_dk_stp,
)


class TestSoftmax:
    def test_uniform_on_constant_input(self):
        np.testing.assert_allclose(softmax([0, 0, 0, 0]), [0.25] * 4, atol=1e-15)

    def test_closed_form_logs(self):
        out = softmax([math.log(1), math.log(3)])
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_masked_entry_is_exact_zero(self):
        out = softmax([1.7, -np.inf])
        assert out[1] == 0.0
        assert out[0] == 1.0

    def test_all_masked_raises(self):
        with pytest.raises(DegenerateRowError):
            softmax([-np.inf, -np.inf])

    def test_nan_and_plus_inf_rejected(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    def test_large_inputs_stay_finite(self):
        out = softmax([1000.0, 999.0, -1000.0])
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.lists(st.floats(-20, 20), min_size=1, max_size=8),
        c=st.floats(-50, 50),
    )
    def test_shift_invariance(self, x, c):
        np.testing.assert_allclose(
            softmax(np.asarray(x) + c), softmax(x), atol=1e-12
        )


class TestSoftmaxRows:
    def test_zero_matrix(self):
        np.testing.assert_allclose(softmax_rows(np.zeros((3, 3))), np.full((3, 3), 1 / 3))

    def test_single_row(self, rng):
        row = rng.normal(size=5)
        np.testing.assert_allclose(softmax_rows(row[None, :])[0], softmax(row))

    def test_rows_sum_to_one(self, rng):
        A = softmax_rows(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(A.sum(axis=1), np.ones(3), atol=1e-12)

    def test_degenerate_row_reports_index(self):
        E = np.zeros((3, 2))
        E[1] = -np.inf
        with pytest.raises(DegenerateRowError, match="row 2"):
            softmax_rows(E)


    def test_first_bad_row_decides_the_error(self):
        E = np.zeros((3, 2))
        E[1] = -np.inf
        E[2, 0] = np.nan
        with pytest.raises(DegenerateRowError, match="row 2"):
            softmax_rows(E)
        E[0, 0] = np.inf
        with pytest.raises(ValueError) as info:
            softmax_rows(E)
        assert type(info.value) is ValueError

    def test_empty_matrix_rejected(self):
        for shape in ((0, 3), (3, 0)):
            with pytest.raises(ValueError):
                softmax_rows(np.zeros(shape))

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 40)),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 0.9),
    )
    def test_matches_rowwise_softmax(self, shape, seed, density):
        rng = np.random.default_rng(seed)
        E = rng.normal(scale=10.0, size=shape)
        masked = rng.uniform(size=shape) < density
        masked[np.arange(shape[0]), rng.integers(0, shape[1], shape[0])] = False
        E[masked] = -np.inf
        A = softmax_rows(E)
        assert np.all(A[masked] == 0.0)
        np.testing.assert_allclose(A, np.stack([softmax(row) for row in E]), rtol=0, atol=1e-15)


class TestPredicates:
    def test_softmax_output_is_stochastic(self, rng):
        assert is_stochastic_vector(softmax(rng.normal(size=6)))

    def test_identity_is_stochastic(self):
        assert is_stochastic_matrix(np.eye(4))

    def test_bad_column_sum_rejected(self):
        assert not is_stochastic_matrix(np.array([[0.5, 0.5], [0.6, 0.5]]))

    def test_negative_entry_rejected(self):
        assert not is_stochastic_vector(np.array([1.2, -0.2]))

    def test_row_softmax_transpose_is_stochastic(self, rng):
        X = rng.normal(size=(3, 5))
        assert is_stochastic_matrix(softmax_rows(X).T, tol=1e-12)


class TestStochasticClosure:
    def test_matrix_vector_product(self, rng):
        for _ in range(50):
            m, n = rng.integers(2, 7, 2)
            A = rng.uniform(0.01, 1, (m, n))
            A /= A.sum(axis=0)
            x = rng.uniform(0.01, 1, n)
            x /= x.sum()
            assert is_stochastic_vector(A @ x, tol=1e-12)

    def test_weighted_product_closure(self, rng):
        for _ in range(50):
            m, n = rng.integers(1, 7, 2)
            p, q = rng.integers(1, 7, 2)
            A = rng.uniform(0.01, 1, (m, n))
            A /= A.sum(axis=0)
            B = rng.uniform(0.01, 1, (p, q))
            B /= B.sum(axis=0)
            out = weighted_dk_stp(A, B)
            np.testing.assert_allclose(out.sum(axis=0), np.ones(q), atol=1e-12)
            assert np.all(out >= -1e-15)
