"""Shared linear-algebra helpers: the pairwise ordered product, the rank-1 stepper."""
import numpy as np
import pytest

from cpn_holonomy.linalg import CHUNK, complex_pairs, expm_antihermitian, fold_left, \
    rank1_product


def random_unitaries(rng, m, d):
    g = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    return expm_antihermitian(g - g.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("d", [1, 3])
def test_fold_left_matches_sequential_order(d):
    # odd, even and power-of-two lengths; the factors do not commute
    rng = np.random.default_rng(5 + d)
    for m in range(1, 34):
        factors = random_unitaries(rng, m, d)
        before = factors.copy()
        expect = factors[0]
        for k in range(1, m):
            expect = factors[k] @ expect
        got = fold_left(factors)
        assert got.shape == (d, d)
        assert np.max(np.abs(got - expect)) < 1e-13
        assert np.array_equal(factors, before)


def test_fold_left_order_is_not_reversed():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    b = np.diag([1, 1j])
    assert np.array_equal(fold_left(np.stack([a, b, b])), b @ b @ a)
    assert not np.array_equal(fold_left(np.stack([a, b, b])), a @ b @ b)


def test_fold_left_empty_raises_value_error():
    with pytest.raises(ValueError):
        fold_left(np.zeros((0, 3, 3), dtype=complex))


@pytest.mark.parametrize("d", [2, 5, 17])
def test_rank1_product_matches_fold_left_of_factors(d):
    # step counts below, at and past one chunk, and several chunks with a tail
    rng = np.random.default_rng(70 + d)
    a = np.exp(-0.37j) - 1.0
    for m in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1):
        v = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v[rng.random(m) < 0.25] = 0.0  # zero rows are identity steps
        before = v.copy()
        factors = np.eye(d) + a * v[:, :, None] * v.conj()[:, None, :]
        got = rank1_product(a, v)
        assert got.shape == (d, d)
        assert np.max(np.abs(got - fold_left(factors))) <= 1e-13
        assert np.array_equal(v, before)
    with pytest.raises(ValueError):
        rank1_product(a, np.zeros((0, d), dtype=complex))


def _per_entry(m):
    """The per-entry [re, im] encoder that complex_pairs replaced."""
    if m.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in m]
    return [_per_entry(row) for row in m]


def test_complex_pairs_match_per_entry_encoder():
    # the [re, im] JSON form, bit for bit (signed zeros included), for
    # matrices, stacks and state vectors
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (3, 3), (4, 2), (5,), (2, 3, 3)]:
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        m.real[rng.random(shape) < 0.3] = -0.0
        m.imag[rng.random(shape) < 0.3] = -0.0
        m.imag[rng.random(shape) < 0.2] = 0.0
        got = complex_pairs(m)
        assert got.dtype == np.float64 and got.shape == shape + (2,)
        assert repr(got.tolist()) == repr(_per_entry(m))
        assert repr(complex_pairs(m.T).tolist()) == repr(_per_entry(m.T))
    real = rng.normal(size=(3, 3))
    assert repr(complex_pairs(real).tolist()) == repr(_per_entry(real))
