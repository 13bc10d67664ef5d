"""Chart, eigenframe and Hamiltonian tests."""
import numpy as np
import pytest

from chart_oracle import eigenstate, excited_state_batch, hamiltonian_at
from cpn_holonomy import ControlPoint, frame_unitary
from cpn_holonomy.chart import frame_unitary_batch
from helpers import origin


def random_point(rng, n, margin=0.0):
    return ControlPoint(n,
                        rng.uniform(margin, np.pi / 2 - margin, n),
                        rng.uniform(0, 2 * np.pi, n))


def test_frame_origin_is_identity():
    for n in (1, 2, 3, 4):
        u = frame_unitary(origin(n))
        assert np.max(np.abs(u - np.eye(n + 1))) == 0.0


def test_frame_n1_quarter_turn():
    # 2x2 exponential of the real antisymmetric generator at angle pi/2
    u = frame_unitary(ControlPoint(1, [np.pi / 2], [0.0]))
    assert np.max(np.abs(u - np.array([[0, 1], [-1, 0]]))) < 1e-15


def test_frame_unitarity_random():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        for _ in range(30):
            u = frame_unitary(random_point(rng, n))
            assert np.max(np.abs(u.conj().T @ u - np.eye(n + 1))) < 1e-12


def test_eigenstate_origin_is_basis():
    p = origin(3)
    for alpha in range(1, 5):
        e = np.zeros(4)
        e[alpha - 1] = 1
        assert np.max(np.abs(eigenstate(p, alpha) - e)) == 0.0


def test_eigenstate_closed_form_example_n2():
    # theta=(pi/4, 0), phi=(0, 0), alpha=1 -> (1/sqrt2, 0, -1/sqrt2)
    p = ControlPoint(2, [np.pi / 4, 0.0], [0.0, 0.0])
    v = eigenstate(p, 1)
    expect = np.array([1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)])
    assert np.max(np.abs(v - expect)) < 1e-15


def test_eigenstates_orthonormal():
    rng = np.random.default_rng(7)
    for n in (1, 2, 4):
        p = random_point(rng, n)
        vs = np.stack([eigenstate(p, a) for a in range(1, n + 2)], axis=1)
        gram = vs.conj().T @ vs
        assert np.max(np.abs(gram - np.eye(n + 1))) < 1e-12


def test_column_consistency_between_routes():
    # closed forms vs the rotation-product frame, 200 random points
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        for _ in range(67):
            p = random_point(rng, n)
            u = frame_unitary(p)
            for alpha in range(1, n + 2):
                assert np.max(np.abs(u[:, alpha - 1] - eigenstate(p, alpha))) < 1e-10


def test_eigenstate_index_errors():
    p = origin(2)
    with pytest.raises(IndexError):
        eigenstate(p, 0)
    with pytest.raises(IndexError):
        eigenstate(p, 4)


def test_hamiltonian_at_origin():
    h = hamiltonian_at(origin(3), 2.5)
    expect = np.zeros((4, 4))
    expect[3, 3] = 2.5
    assert np.max(np.abs(h - expect)) == 0.0


def test_isospectrality_random():
    rng = np.random.default_rng(19)
    for n in (1, 2, 4):
        for _ in range(34):
            h = hamiltonian_at(random_point(rng, n), 1.7)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            w = np.sort(np.linalg.eigvalsh(h))
            expect = np.concatenate([np.zeros(n), [1.7]])
            assert np.max(np.abs(w - expect)) < 1e-10


def test_restricted_two_level_form():
    """On the (theta_1, phi_1) plane of n=1 the Hamiltonian is a magnetic-field
    two-level model: H = -(eps0/2) B(2 theta, pi - phi) . sigma + (eps0/2) I.

    Two reconciliations against the bare projector form: the trace shift
    (eps0/2) I, and the azimuth reflection phi -> pi - phi coming from the
    e^{+i phi} phase convention of the frame.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1, -1]).astype(complex)
    rng = np.random.default_rng(5)
    for _ in range(25):
        th = rng.uniform(0, np.pi / 2)
        ph = rng.uniform(0, 2 * np.pi)
        h = hamiltonian_at(ControlPoint(1, [th], [ph]), 1.3)
        az = np.pi - ph
        b = np.array([np.sin(2 * th) * np.cos(az), np.sin(2 * th) * np.sin(az), np.cos(2 * th)])
        model = -(1.3 / 2) * (b[0] * sx + b[1] * sy + b[2] * sz) + (1.3 / 2) * np.eye(2)
        assert np.max(np.abs(h - model)) < 1e-12


def test_restricted_three_level_coupling():
    # on a (theta_b, theta_bb) plane at phi = 0 the Hamiltonian is a real
    # rank-one projector coupling levels b, bb and n+1 only
    p = ControlPoint(3, [0.6, 1.1, 0.0], [0.0, 0.0, 0.0])
    h = hamiltonian_at(p)
    assert np.max(np.abs(h.imag)) < 1e-14
    assert np.linalg.matrix_rank(h, tol=1e-10) == 1
    # level 3 decoupled
    assert np.max(np.abs(h[2, :])) < 1e-14
    assert np.max(np.abs(h[:, 2])) < 1e-14


def test_frame_smoothness_second_order():
    # Richardson ratio ~4 for central differences of the frame as h halves
    rng = np.random.default_rng(23)
    p = random_point(rng, 3, margin=0.2)
    for kind in ("theta", "phi"):
        for idx in (1, 3):
            diffs = []
            for h in (2e-3, 1e-3, 5e-4):
                d = h * np.eye(3)[idx - 1]
                dth, dph = (d, 0.0) if kind == "theta" else (0.0, d)
                hi = ControlPoint(3, p.theta + dth, p.phi + dph)
                lo = ControlPoint(3, p.theta - dth, p.phi - dph)
                diffs.append((frame_unitary(hi) - frame_unitary(lo)) / (2 * h))
            r = (np.max(np.abs(diffs[0] - diffs[1]))
                 / np.max(np.abs(diffs[1] - diffs[2])))
            assert 0.8 * 4 < r < 1.2 * 4


def test_control_point_validation():
    with pytest.raises(ValueError):
        ControlPoint(2, [0.1, 2.0], [0.0, 0.0])  # theta beyond pi/2
    with pytest.raises(ValueError):
        ControlPoint(2, [0.1], [0.0, 0.0])  # length mismatch
    for bad in (np.nan, np.inf, -np.inf):  # NaN fails no comparison, so it is checked apart
        with pytest.raises(ValueError, match="finite"):
            ControlPoint(2, [0.1, bad], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            ControlPoint(2, [0.1, 0.2], [bad, 0.0])
    p = ControlPoint(1, [0.3], [2 * np.pi + 0.5])
    assert abs(p.phi[0] - 0.5) < 1e-12  # stored reduced mod 2pi


def test_batched_frames_match_scalar():
    rng = np.random.default_rng(2)
    pts = [random_point(rng, 2) for _ in range(5)]
    th = np.stack([p.theta for p in pts])
    ph = np.stack([p.phi for p in pts])
    batch = frame_unitary_batch(th, ph)
    for k, p in enumerate(pts):
        assert np.max(np.abs(batch[k] - frame_unitary(p))) < 1e-14


def test_excited_state_batch_closed_form():
    rng = np.random.default_rng(23)
    for n in (1, 2, 5):
        th = rng.uniform(0, np.pi / 2, (3, 4, n))
        ph = rng.uniform(0, 2 * np.pi, (3, 4, n))
        v = excited_state_batch(th, ph)
        assert v.shape == (3, 4, n + 1)
        assert np.max(np.abs(v - frame_unitary_batch(th, ph)[..., :, n])) < 1e-15
        for idx in np.ndindex(3, 4):
            expect = eigenstate(ControlPoint(n, th[idx], ph[idx]), n + 1)
            assert np.max(np.abs(v[idx] - expect)) < 1e-15
    assert np.array_equal(excited_state_batch(np.zeros(3), np.zeros(3)), [0, 0, 0, 1])
