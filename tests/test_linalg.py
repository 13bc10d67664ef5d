"""Shared linear-algebra helpers: the pairwise ordered product."""
import numpy as np
import pytest

from cpn_holonomy.linalg import expm_antihermitian, fold_left


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

