"""Shared linear-algebra helpers: the segment exponential, the pairwise ordered
product, the rank-1 stepper."""
import numpy as np
import pytest
from scipy.linalg import expm

from cpn_holonomy.linalg import CHUNK, complex_pairs, expm_antihermitian, fold_left, \
    rank1_chunk, rank1_product


def random_unitaries(rng, m, d):
    g = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    return expm_antihermitian(g - g.conj().transpose(0, 2, 1))


def eigh_route(g):
    """exp(G) through eigh(iG), the route taken above k = 2."""
    w, v = np.linalg.eigh(1j * g)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1j * w), v.conj())


def random_generators(rng, m, k, norm):
    """m anti-hermitian k x k generators, each of spectral norm `norm`."""
    g = rng.normal(size=(m, k, k)) + 1j * rng.normal(size=(m, k, k))
    g = g - g.conj().transpose(0, 2, 1)
    return g * (norm / np.linalg.norm(g, ord=2, axis=(1, 2)))[:, None, None]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("norm", [1e-12, 1e-8, 1e-4, 1e-2, 0.5, 1.0, np.pi, 10.0])
def test_closed_form_exponential_matches_scipy(k, norm):
    rng = np.random.default_rng(k)
    g = random_generators(rng, 64, k, norm)
    got = expm_antihermitian(g)
    assert got.shape == g.shape
    assert np.max(np.abs(got - np.stack([expm(x) for x in g]))) <= 1e-13
    # batched on any leading axes
    assert np.array_equal(expm_antihermitian(g.reshape(8, 8, k, k)), got.reshape(8, 8, k, k))


@pytest.mark.parametrize("k", [1, 2])
def test_closed_form_exponential_is_exact_on_zero_and_phase(k):
    assert np.array_equal(expm_antihermitian(np.zeros((3, k, k), dtype=complex)),
                          np.broadcast_to(np.eye(k), (3, k, k)))
    for a0 in (1e-300, 1e-9, 0.3, -2.5, np.pi, 40.0):
        got = expm_antihermitian(-1j * a0 * np.eye(k)[None])
        assert np.array_equal(got[0], np.exp(-1j * a0) * np.eye(k)), a0


@pytest.mark.parametrize("k", [1, 2])
def test_closed_form_exponential_reads_iG_as_eigh_does(k):
    # a slightly non-anti-hermitian G: the closed forms read the real diagonal
    # and the lower triangle of iG only, as eigh does
    rng = np.random.default_rng(40 + k)
    g = random_generators(rng, 64, k, 1.0)
    g = g + 1e-3 * (rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    assert np.max(np.abs(expm_antihermitian(g) - eigh_route(g))) <= 1e-14


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fold_left_matches_sequential_order(d):
    # odd, even and power-of-two lengths; the factors do not commute; d <= 2
    # multiplies elementwise, d = 3 by matmul
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


def test_rank1_chunk_grows_with_the_run_up_to_chunk():
    assert [rank1_chunk(m) for m in (1, 5, CHUNK, CHUNK + 1, 639, 640, 1001, 4095, 4096,
                                     10 ** 6)] == [1, 5, CHUNK, 4, 4, 5, 7, 31, CHUNK, CHUNK]


@pytest.mark.parametrize("d", [2, 5, 17])
def test_rank1_product_matches_fold_left_of_factors(d):
    # one chunk up to CHUNK steps; past it, whole chunks and chunks with a
    # tail at chunk lengths 4 (CHUNK + 1 = 8 x 4 + 1, 36 = 9 x 4), 7 (1001 =
    # 143 x 7, 1002), 31 (4095 = 132 x 31 + 3) and CHUNK (4096 = 128 x 32, 4097)
    rng = np.random.default_rng(70 + d)
    a = np.exp(-0.37j) - 1.0
    for m in (1, 3, CHUNK, CHUNK + 1, 36, 1001, 1002, 4095, 4096, 4097):
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
