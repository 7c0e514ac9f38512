import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpdft import (
    DegenerateRowError,
    NonFiniteError,
    causal_mask,
    softmax_rows,
    stochastic,
    weighted_dk_stp,
)
from paper_forms import is_stochastic_matrix, is_stochastic_vector, softmax


def masked_softmax_oracle(row):
    """Softmax of one row written out: exp of the finite entries shifted by
    their max, normalised over them; -inf entries stay exact zeros."""
    out = np.zeros_like(row)
    finite = row > -np.inf
    e = np.exp(row[finite] - row[finite].max())
    out[finite] = e / e.sum()
    return out


def three_mask_softmax_rows(E):
    """softmax_rows with its checks written as three masks over E (NaN, +inf,
    no entry above -inf): the error type and 1-based row of the first bad
    row, or the softmax itself."""
    invalid = (np.isnan(E) | (E == np.inf)).any(axis=1)
    dead = ~(E > -np.inf).any(axis=1)
    if invalid.any() or dead.any():
        first = int(np.argmax(invalid | dead))
        return (NonFiniteError if invalid[first] else DegenerateRowError), first + 1
    e = np.exp(E - E.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@st.composite
def scores_with_specials(draw):
    """Score matrices mixing finite, NaN, +inf and -inf entries, some rows
    entirely -inf."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = rng.normal(scale=10.0, size=shape)
    E[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = -np.inf
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.02, 0.2]))
    E[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
    E[rng.random(shape[0]) < draw(st.sampled_from([0.0, 0.25]))] = -np.inf
    return E


@st.composite
def peaked_scores(draw):
    """Finite score matrices of 1 x 1 to 64 x 64 whose entries lie up to 1e5
    below their row max, some moved into exp's subnormal (-745.13 to -708.4)
    or underflow (below -745.14) range, with random -inf masks and rows
    holding one live entry; with no spread and no mask, every lane is live."""
    shape = draw(st.tuples(st.integers(1, 64), st.integers(1, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = rng.normal(scale=draw(st.sampled_from([1.0, 100.0, 1e4, 1e5])), size=shape)
    E += rng.normal(scale=1e5, size=(shape[0], 1))  # rows at unrelated heights
    keep = np.arange(shape[0]), E.argmax(axis=1)  # each row's max stays live
    lo, hi = draw(st.sampled_from([(0.0, 0.0), (708.4, 745.13), (745.14, 760.0), (700.0, 1e5)]))
    moved = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    moved[keep] = False
    E[moved] = (E.max(axis=1, keepdims=True) - rng.uniform(lo, hi, shape))[moved]
    masked = rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    masked[keep] = False
    E[masked] = -np.inf
    return E


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
        np.testing.assert_allclose(softmax_rows(row[None, :])[0], masked_softmax_oracle(row))

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
        assert type(info.value) is NonFiniteError

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
        expected = np.stack([masked_softmax_oracle(row) for row in E])
        np.testing.assert_allclose(A, expected, rtol=0, atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(scores_with_specials())
    def test_row_max_check_matches_three_masks(self, E):
        want = three_mask_softmax_rows(E)
        if isinstance(want, tuple):
            kind, row = want
            with pytest.raises((NonFiniteError, DegenerateRowError)) as info:
                softmax_rows(E)
            assert type(info.value) is kind
            assert re.match(rf"row {row}\b", str(info.value))
        else:
            assert softmax_rows(E).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(peaked_scores())
    @example(np.zeros((1, 1)))
    @example(np.arange(64 * 64.0).reshape(64, 64) % 7)
    @example(np.full((64, 64), -1e5) + np.eye(64) * 1e5 + causal_mask(64))
    @example(np.array([[0.0, -745.1332191019411, -745.1332191019412, -750.0,
                        np.nextafter(-750.0, 0.0), np.nextafter(-750.0, -np.inf), -np.inf]]))
    def test_skipped_lanes_keep_the_bytes_of_one_exp(self, E):
        assert softmax_rows(E).tobytes() == three_mask_softmax_rows(E).tobytes()

    def test_exp_is_positive_zero_from_the_cut_down(self):
        # softmax_rows writes 0.0 without an exp wherever the shifted score is
        # at or below the cut, which keeps the bytes only if exp gives +0.0
        # there: the 2**20 doubles just below the cut, a dense grid down to
        # -1000, every decade down to the largest finite double, and -inf.
        cut = stochastic._EXP_CUT
        x = np.concatenate([
            (np.arange(2**20) + np.array(cut).view(np.int64)).view(np.float64),
            np.linspace(cut, -1000.0, 100_001),
            -np.logspace(np.log10(-cut), 308, 10_000),
            [-np.finfo(np.float64).max, -np.inf],
        ])
        assert x.max() == cut and np.all(x <= cut)
        e = np.exp(x)
        assert np.all(e == 0.0) and not np.signbit(e).any()

    def test_only_a_matrix_with_dead_lanes_takes_the_masked_exp(self, monkeypatch):
        wheres = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, **kwargs):
                wheres.append(kwargs.get("where"))
                return np.exp(x, **kwargs)

        monkeypatch.setattr(stochastic, "np", Spy())
        rng = np.random.default_rng(11)
        causal = rng.normal(scale=10.0, size=(64, 64)) + causal_mask(64)
        mild = rng.normal(scale=10.0, size=(64, 64))
        for E in (causal, mild):
            assert softmax_rows(E).tobytes() == three_mask_softmax_rows(E).tobytes()
        assert len(wheres) == 2
        # The causal block exponentiates its 64 * 65 / 2 unmasked lanes only.
        np.testing.assert_array_equal(wheres[0], np.isfinite(causal))
        assert wheres[1] is None


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
