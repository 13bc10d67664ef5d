"""Shared linear-algebra helpers: the segment exponential, the SU(2) closed form
and pair products, the pairwise ordered product, the batch-last run layout and
the rank-1 stepper."""
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from cpn_holonomy import GateStep, primitive_holonomy
from cpn_holonomy.linalg import CHUNK, complex_pairs, expm_antihermitian, fold_left, \
    fold_runs, rank1_product, run_layout, su2_exp, su2_matrix, su2_mul, su2_runs_product, \
    unitarity_defect

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


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


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("norm", [1e160, 1e200, 1e300])
def test_closed_form_exponential_stays_unitary_at_huge_norms(k, norm):
    # the squares of such entries overflow; the result must stay finite and
    # unitary, with no RuntimeWarning
    g = random_generators(np.random.default_rng(50 + k), 64, k, norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expm_antihermitian(g)
    assert np.all(np.isfinite(got))
    assert max(unitarity_defect(u) for u in got) <= 1e-15


def test_huge_area_primitive_stays_certified():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = primitive_holonomy(GateStep("C1", 1, None, 1e200), 2)
    assert np.all(np.isfinite(u.matrix)) and u.defect <= 1e-15


def random_su2(rng, shape, norm=1.0):
    """Pauli vectors of the given norm, and their SU(2) pairs by su2_exp."""
    a = rng.normal(size=(3,) + shape)
    a *= norm / np.linalg.norm(a, axis=0)
    return a, su2_exp(*a)


@pytest.mark.parametrize("norm", [0.0, 1e-300, 1e-12, 1e-4, 0.5, 1.0, np.pi, 10.0])
def test_su2_exp_and_matrix_match_scipy(norm):
    rng = np.random.default_rng(60)
    a, (alpha, beta) = random_su2(rng, (64,), norm)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
    got = su2_matrix(alpha, beta, phase)
    assert got.shape == (64, 2, 2)
    expect = [p * expm(-1j * np.einsum("i,ijk->jk", x, PAULI)) for p, x in zip(phase, a.T)]
    assert np.max(np.abs(got - np.stack(expect))) <= 1e-14
    # batched on any leading axes
    assert np.array_equal(su2_matrix(alpha.reshape(8, 8), beta.reshape(8, 8), phase.reshape(8, 8)),
                          got.reshape(8, 8, 2, 2))
    if norm == 0.0:  # exactly the identity at r = 0
        assert np.array_equal(su2_matrix(alpha, beta, np.ones(64)), np.broadcast_to(np.eye(2), got.shape))


@pytest.mark.parametrize("norm", [1e160, 1e300])
def test_su2_exp_stays_unitary_at_huge_norms(norm):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, (alpha, beta) = random_su2(np.random.default_rng(61), (64,), norm)
        got = su2_matrix(alpha, beta, np.ones(64))
    assert np.all(np.isfinite(got))
    assert max(unitarity_defect(u) for u in got) <= 1e-15


def test_su2_exp_keeps_ordinary_bytes_beside_huge_norms():
    # a batch above 10 000 elements with a few norms near 1e300: the ordinary pairs
    # are those of the batch without them, to the bit, and the huge ones are unitary
    rng = np.random.default_rng(63)
    a, plain = random_su2(rng, (12_000,), 2.0)
    huge = rng.choice(a.shape[1], 5, replace=False)
    a[:, huge] *= 1e300 / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, beta = su2_exp(*a)
    ordinary = np.ones(a.shape[1], dtype=bool)
    ordinary[huge] = False
    for got, expect in zip((alpha, beta), plain):
        assert np.array_equal(got[ordinary], expect[ordinary])
        assert np.array_equal(np.signbit(got[ordinary].view(float)),
                              np.signbit(expect[ordinary].view(float)))
    got = su2_matrix(alpha[huge], beta[huge], np.ones(huge.size))
    assert np.all(np.isfinite(got))
    assert max(unitarity_defect(u) for u in got) <= 1e-15


def test_su2_mul_matches_matmul():
    rng = np.random.default_rng(62)
    (_, p1), (_, p0) = random_su2(rng, (64,), 2.0), random_su2(rng, (64,), 0.7)
    one = np.ones(64)
    got = su2_matrix(*su2_mul(*p1, *p0), one)
    assert np.max(np.abs(got - su2_matrix(*p1, one) @ su2_matrix(*p0, one))) <= 1e-15


@pytest.mark.parametrize("counts", [(1,), (5,), (3, 1, CHUNK), (CHUNK + 1,), (40, 7, 900),
                                    (1, 4096, 3), (5000,)])
def test_su2_runs_product_matches_sequential_product(counts):
    # each run's steps later left, with identity pairs (1, 0) on the padding,
    # against the product of the 2 x 2 matrices one by one
    rng = np.random.default_rng(63)
    counts = np.array(counts)
    chunks, owner, pos = run_layout(counts)
    _, (alpha, beta) = random_su2(rng, pos.shape, 0.3)
    pad = pos >= counts[owner]
    alpha[pad], beta[pad] = 1.0, 0.0
    x, y = su2_runs_product(alpha, beta, chunks)
    assert x.shape == y.shape == counts.shape
    steps = su2_matrix(alpha, beta, np.ones(pos.shape))
    for r in range(counts.size):
        mine = (owner == r) & ~pad
        expect = np.eye(2)
        for u in steps[mine][np.argsort(pos[mine])]:
            expect = u @ expect
        assert np.max(np.abs(su2_matrix(x[r], y[r], np.ones(())) - expect)) <= 1e-12


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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("counts", [(1,), (7,), (1, 1), (3, 1, 4), (2, CHUNK + 5, 1),
                                    (1, 300, 2, 1), (40, 7, 900)])
def test_fold_runs_matches_fold_left_per_run(counts, d):
    # one run is fold_left itself, bit for bit; several, padded with identities
    # and reduced chunk by chunk, agree with it at roundoff
    rng = np.random.default_rng(11 + d)
    counts = np.array(counts)
    factors = random_unitaries(rng, int(counts.sum()), d)
    got = fold_runs(factors, counts)
    assert got.shape == (counts.size, d, d)
    starts = np.cumsum(counts) - counts
    for r, (a, m) in enumerate(zip(starts, counts)):
        expect = fold_left(factors[a:a + m])
        if counts.size == 1:
            assert np.array_equal(got[r], expect)
        assert np.max(np.abs(got[r] - expect)) <= 1e-13


def test_fold_left_order_is_not_reversed():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    b = np.diag([1, 1j])
    assert np.array_equal(fold_left(np.stack([a, b, b])), b @ b @ a)
    assert not np.array_equal(fold_left(np.stack([a, b, b])), a @ b @ b)


def test_fold_left_empty_raises_value_error():
    with pytest.raises(ValueError):
        fold_left(np.zeros((0, 3, 3), dtype=complex))


def test_run_layout_chunk_rule():
    def chunk(*counts):
        return run_layout(np.array(counts))[2].shape[0]

    # no run longer than CHUNK: every run is one chunk
    for counts in [(1,), (3,), (5,), (CHUNK,), (1, CHUNK, 7), (CHUNK,) * 300]:
        chunks, _, _ = run_layout(np.array(counts))
        assert np.all(chunks == 1), counts
    # kick rows of 250-1000 intervals keep chunk 4; from 4096 in total, CHUNK
    assert [chunk(m) for m in (250, 500, 1000)] == [4, 4, 4]
    assert chunk(4095) == 16 and chunk(4096) == CHUNK and chunk(10 ** 6) == CHUNK
    assert chunk(2048, 2048) == CHUNK and chunk(33, 4000) == 16
    for counts in [(1,), (3,), (CHUNK + 1,), (1001,), (5000,), (40, 7, 900), (3, 70000)]:
        counts = np.array(counts)
        chunks, owner, pos = run_layout(counts)
        length = pos.shape[0]
        assert length & (length - 1) == 0 and (length <= CHUNK)
        assert np.array_equal(chunks, -(-counts // length))
        assert np.array_equal(owner, np.repeat(np.arange(counts.size), chunks))
        # every item of every run once, in order, and pos >= counts marks padding
        for r, m in enumerate(counts):
            mine = pos[:, owner == r].T.ravel()
            assert np.array_equal(mine, np.arange(mine.size))
            assert np.count_nonzero(mine >= m) == mine.size - m


@pytest.mark.parametrize("d", [2, 5, 17])
def test_rank1_product_matches_fold_left_of_factors(d):
    # one chunk up to CHUNK steps; past it, whole chunks and chunks with a
    # padded tail at chunk lengths 4 (CHUNK + 1, 36, 1001, 1002), 16 (4095)
    # and CHUNK (4096, 4097); one coefficient per step, zero on the padding
    rng = np.random.default_rng(70 + d)
    for m in (1, 3, CHUNK, CHUNK + 1, 36, 1001, 1002, 4095, 4096, 4097):
        _, _, pos = run_layout(np.array([m]))
        pad = pos >= m
        a = np.exp(-1j * rng.uniform(0.0, 0.5, pos.shape)) - 1.0
        a[pad] = 0.0
        v = rng.normal(size=pos.shape + (d,)) + 1j * rng.normal(size=pos.shape + (d,))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        v[rng.random(pos.shape) < 0.25] = 0.0  # zero rows are identity steps
        before = v.copy()
        steps = np.flatnonzero(~pad.T.ravel())  # time order: chunk by chunk
        a_t, v_t = a.T.ravel()[steps], v.transpose(1, 0, 2).reshape(-1, d)[steps]
        factors = np.eye(d) + a_t[:, None, None] * v_t[:, :, None] * v_t.conj()[:, None, :]
        got = rank1_product(a, v)
        assert got.shape == (pos.shape[1], d, d)
        assert np.max(np.abs(fold_left(got) - fold_left(factors))) <= 1e-13
        assert np.array_equal(v, before)
        # zero states and zero-coefficient padding are exact identities
        assert np.array_equal(rank1_product(np.zeros_like(a), v),
                              np.broadcast_to(np.eye(d), got.shape))
        assert np.array_equal(rank1_product(a, np.zeros_like(v)),
                              np.broadcast_to(np.eye(d), got.shape))


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
