import numpy as np

from stpdft import SplitMix64


def splitmix_oracle(seed, count):
    """Independent uint64 reimplementation of the same generator."""
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    state = np.uint64(seed)
    out = []
    with np.errstate(over="ignore"):
        for _ in range(count):
            state = (state + np.uint64(0x9E3779B97F4A7C15)) & mask
            z = state
            z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & mask
            z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & mask
            out.append(int(z ^ (z >> np.uint64(31))))
    return out


def test_known_first_output_for_seed_zero():
    # widely published reference value for this generator
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_stream_matches_independent_oracle():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        gen = SplitMix64(seed)
        assert [gen.next_u64() for _ in range(50)] == splitmix_oracle(seed, 50)


def test_identical_seed_identical_stream():
    a, b = SplitMix64(123), SplitMix64(123)
    assert a.uniforms(100).tolist() == b.uniforms(100).tolist()


def test_uniform_range_and_resolution():
    gen = SplitMix64(7)
    u = gen.uniforms(1000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # high 53 bits: values are multiples of 2^-53
    assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))


def test_matrix_and_randint_helpers():
    gen = SplitMix64(9)
    M = gen.matrix(3, 4, low=-2.0, high=2.0)
    assert M.shape == (3, 4)
    assert np.all(M >= -2.0) and np.all(M < 2.0)
    draws = {gen.randint(2, 5) for _ in range(200)}
    assert draws == {2, 3, 4, 5}


def test_uniforms_equal_scalar_draws_and_leave_the_same_state():
    for seed in (0, 42, 2**64 - 1, 0xDEADBEEF):
        for n in (0, 1, 2, 1000):
            batch, scalar = SplitMix64(seed), SplitMix64(seed)
            u = batch.uniforms(n)
            want = [scalar.uniform() for _ in range(n)]
            assert u.dtype == np.float64 and u.shape == (n,)
            assert u.tolist() == want
            assert batch.state == scalar.state
            assert batch.next_u64() == scalar.next_u64()
