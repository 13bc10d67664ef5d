"""Connection component tests: the prefix-frame closed form vs the per-entry
trigonometric formulas and vs numeric differentiation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connection_oracle import DiscretizationError, connection_numeric, max_antihermiticity_defect
from cpn_holonomy import ControlPoint, connection_along, connection_analytic
from helpers import origin


# ---------- per-entry closed forms: the oracle for connection_along ----------

def theta_component_batch(theta: np.ndarray, phi: np.ndarray, beta: int) -> np.ndarray:
    """A^{theta_beta} for a batch of points; theta/phi (..., n) -> (..., n, n).

    Nonzero entries sit at (r, beta) for r < beta, value
    e^{i(phi_r - phi_beta)} sin(theta_r) prod_{r<g<beta} cos(theta_g),
    with the (beta, r) mirror fixed by anti-hermiticity.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n = theta.shape[-1]
    b = beta - 1
    m = np.zeros(theta.shape[:-1] + (n, n), dtype=complex)
    for a in range(b):
        amp = np.sin(theta[..., a]) * np.prod(np.cos(theta[..., a + 1: b]), axis=-1)
        val = np.exp(1j * (phi[..., a] - phi[..., b])) * amp
        m[..., a, b] = val
        m[..., b, a] = -np.conj(val)
    return m


def phi_component_batch(theta: np.ndarray, phi: np.ndarray, beta: int) -> np.ndarray:
    """A^{phi_beta} for a batch of points; supported on the leading beta x beta block.

    Column beta (rows r <= beta):
        -i e^{i(phi_r - phi_beta)} sin(theta_beta) sin(theta_r)
           prod_{r<g<=beta} cos(theta_g)
    Columns c < beta (rows r <= c):
        +i e^{i(phi_r - phi_c)} sin(theta_c) sin(theta_r) sin^2(theta_beta)
           prod_{c<g<beta} cos(theta_g) prod_{r<g<beta} cos(theta_g)
    Lower-triangle mirrors are filled by anti-hermiticity.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n = theta.shape[-1]
    b = beta - 1
    m = np.zeros(theta.shape[:-1] + (n, n), dtype=complex)
    sin_b = np.sin(theta[..., b])
    for a in range(b + 1):
        amp = sin_b * np.sin(theta[..., a]) * np.prod(np.cos(theta[..., a + 1: b + 1]), axis=-1)
        val = -1j * np.exp(1j * (phi[..., a] - phi[..., b])) * amp
        m[..., a, b] = val
        if a < b:
            m[..., b, a] = -np.conj(val)
    for c in range(b):
        cos_cb = np.prod(np.cos(theta[..., c + 1: b]), axis=-1)
        for a in range(c + 1):
            amp = (np.sin(theta[..., c]) * np.sin(theta[..., a]) * sin_b**2
                   * cos_cb * np.prod(np.cos(theta[..., a + 1: b]), axis=-1))
            val = 1j * np.exp(1j * (phi[..., a] - phi[..., c])) * amp
            m[..., a, c] = val
            if a < c:
                m[..., c, a] = -np.conj(val)
    return m


def oracle_along(theta, phi, d_theta, d_phi) -> np.ndarray:
    """Dense n x n A_delta = sum_b d_theta_b A^{theta_b} + d_phi_b A^{phi_b}, entry by entry."""
    n = theta.shape[-1]
    return sum(theta_component_batch(theta, phi, b + 1) * d_theta[..., b, None, None]
               + phi_component_batch(theta, phi, b + 1) * d_phi[..., b, None, None]
               for b in range(n))


def embed_block(levels, block, n) -> np.ndarray:
    full = np.zeros(block.shape[:-2] + (n, n), dtype=complex)
    full[..., levels[:, None], levels] = block
    return full


def random_interior(rng, n, margin=0.05):
    return ControlPoint(n,
                        rng.uniform(margin, np.pi / 2 - margin, n),
                        rng.uniform(0, 2 * np.pi, n))


def max_component_diff(a, b):
    return max(float(np.max(np.abs(a.a_theta - b.a_theta))),
               float(np.max(np.abs(a.a_phi - b.a_phi))))


def test_origin_all_components_zero():
    for n in (1, 2, 4):
        val = connection_analytic(origin(n))
        assert np.max(np.abs(val.a_theta)) == 0.0
        assert np.max(np.abs(val.a_phi)) == 0.0


def test_n1_values_at_quarter_pi():
    # a_phi[1] = [-i sin^2 theta] = [-i/2] at theta = pi/4; a_theta[1] = [0]
    val = connection_analytic(ControlPoint(1, [np.pi / 4], [1.234]))
    assert abs(val.a_phi[0][0, 0] - (-0.5j)) < 1e-14
    assert abs(val.a_theta[0][0, 0]) == 0.0


def test_c2_plane_diagonal_values():
    # n=2, plane (theta_1, phi_2) with theta_2 = pi/2: a_phi[2] diag = (i sin^2 t1, -i)
    t1 = 0.7
    val = connection_analytic(ControlPoint(2, [t1, np.pi / 2], [0.3, 0.9]))
    m = val.a_phi[1]
    assert abs(m[0, 0] - 1j * np.sin(t1) ** 2) < 1e-14
    assert abs(m[1, 1] - (-1j)) < 1e-14
    assert abs(m[0, 1]) < 1e-14  # off-diagonal carries cos(theta_2) = 0


def test_antihermiticity():
    rng = np.random.default_rng(41)
    for n in (1, 2, 4):
        for _ in range(20):
            p = random_interior(rng, n)
            assert max_antihermiticity_defect(connection_analytic(p)) < 1e-10
            assert max_antihermiticity_defect(connection_numeric(p, 1e-5)) < 1e-6


def test_theta_component_exact_sparsity():
    # A^{theta_b} vanishes exactly outside row/column b with partner index < b
    rng = np.random.default_rng(43)
    n = 4
    p = random_interior(rng, n)
    val = connection_analytic(p)
    for b in range(1, n + 1):
        m = val.a_theta[b - 1]
        mask = np.zeros((n, n), dtype=bool)
        mask[: b - 1, b - 1] = True
        mask[b - 1, : b - 1] = True
        assert np.all(m[~mask] == 0.0)
        if b > 1:
            assert np.all(np.abs(m[mask]) > 0)


def test_phi_component_block_support():
    # A^{phi_b} is supported on the leading b x b block, exactly
    rng = np.random.default_rng(47)
    n = 4
    p = random_interior(rng, n)
    val = connection_analytic(p)
    for b in range(1, n + 1):
        m = val.a_phi[b - 1]
        assert np.all(m[b:, :] == 0.0)
        assert np.all(m[:, b:] == 0.0)


def test_analytic_matches_numeric_random():
    # the numeric route is the arbiter for the closed-index formulation
    rng = np.random.default_rng(53)
    worst = 0.0
    for n in (1, 2, 4):
        for _ in range(34):
            p = random_interior(rng, n)
            worst = max(worst, max_component_diff(connection_analytic(p),
                                                  connection_numeric(p, 1e-5)))
    assert worst < 1e-6


def test_numeric_vanishes_toward_origin():
    step = 1e-6
    for scale in (1e-2, 1e-3, 1e-4):
        p = ControlPoint(2, [scale, scale], [0.1, 0.2])
        val = connection_numeric(p, step)
        assert np.max(np.abs(val.a_theta)) < 2 * scale
        assert np.max(np.abs(val.a_phi)) < 2 * scale


def test_numeric_second_order_convergence():
    rng = np.random.default_rng(59)
    ratios = []
    for _ in range(6):
        p = random_interior(rng, 3, margin=0.2)
        ref = connection_analytic(p)
        e1 = max_component_diff(connection_numeric(p, 2e-3), ref)
        e2 = max_component_diff(connection_numeric(p, 1e-3), ref)
        ratios.append(e1 / e2)
    assert 3.2 < np.median(ratios) < 4.8


def test_numeric_boundary_raises():
    p = ControlPoint(2, [0.0, 0.4], [0.0, 0.0])
    with pytest.raises(DiscretizationError):
        connection_numeric(p, 1e-5)
    with pytest.raises(ValueError):
        connection_numeric(ControlPoint(1, [0.4], [0.0]), -1.0)


def test_presymmetrization_defect_reported():
    p = ControlPoint(2, [0.5, 0.8], [0.2, 1.0])
    _, defect = connection_numeric(p, 1e-5, return_defect=True)
    assert 0.0 <= defect < 1e-8


@pytest.mark.parametrize("beta,beta_bar", [(1, 2), (2, 3), (1, 3)])
def test_c2_plane_theta_component_vanishes_and_commutes(beta, beta_bar):
    # C2 configuration: theta_bb = pi/2, other thetas zero except theta_b
    n = 3
    rng = np.random.default_rng(61)
    for _ in range(5):
        th = np.zeros(n)
        th[beta - 1] = rng.uniform(0.05, np.pi / 2 - 0.05)
        th[beta_bar - 1] = np.pi / 2
        ph = np.zeros(n)
        ph[beta_bar - 1] = rng.uniform(0, 2 * np.pi)
        val = connection_analytic(ControlPoint(n, th, ph))
        a_t = val.a_theta[beta - 1]
        a_p = val.a_phi[beta_bar - 1]
        assert np.all(a_t == 0.0)  # identically zero on the configured plane
        comm = a_t @ a_p - a_p @ a_t
        assert np.max(np.abs(comm)) < 1e-12


def test_c1_plane_theta_component_vanishes():
    n = 3
    for beta in (1, 2, 3):
        th = np.zeros(n)
        th[beta - 1] = 0.9
        val = connection_analytic(ControlPoint(n, th, np.zeros(n)))
        assert np.all(val.a_theta[beta - 1] == 0.0)


def test_json_dump_shape():
    val = connection_analytic(ControlPoint(2, [0.3, 0.4], [0.1, 0.2]))
    d = val.to_json_dict()
    assert set(d) == {"n", "a_theta", "a_phi"}
    assert len(d["a_theta"]) == 2
    assert len(d["a_theta"][0]) == 2 and len(d["a_theta"][0][0]) == 2
    assert len(d["a_theta"][0][0][0]) == 2  # [re, im] pairs


# ---------- connection_along vs the per-entry oracle ----------

def _check_along(theta, phi, d_theta, d_phi):
    n = theta.shape[-1]
    levels, block = connection_along(theta, phi, d_theta, d_phi)
    ref = oracle_along(theta, phi, d_theta, d_phi)
    outside = np.ones((n, n), dtype=bool)
    outside[np.ix_(levels, levels)] = False
    assert np.all(ref[..., outside] == 0.0)  # nothing is lost outside the touched block
    return float(np.max(np.abs(embed_block(levels, block, n) - ref)))


@pytest.mark.parametrize("n", range(1, 9))
def test_along_matches_per_entry_forms_random(n):
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for _ in range(6):
        m = 40
        theta = rng.uniform(0.0, np.pi / 2, (m, n))
        phi = rng.uniform(0.0, 2 * np.pi, (m, n))
        d_theta = rng.uniform(-1.0, 1.0, (m, n))
        d_phi = rng.uniform(-1.0, 1.0, (m, n))
        d_theta[:, rng.random(n) < 0.4] = 0.0  # coordinates that stay put
        d_phi[:, rng.random(n) < 0.4] = 0.0
        worst = max(worst, _check_along(theta, phi, d_theta, d_phi))
    p = ControlPoint(n, theta[0], phi[0])
    val = connection_analytic(p)
    for b in range(1, n + 1):
        worst = max(worst,
                    float(np.max(np.abs(val.a_theta[b - 1]
                                        - theta_component_batch(p.theta, p.phi, b)))),
                    float(np.max(np.abs(val.a_phi[b - 1]
                                        - phi_component_batch(p.theta, p.phi, b)))))
    assert worst <= 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_along_matches_per_entry_forms_at_boundary(n):
    # theta_a in {0, pi/2}: levels switched off (s = 0) or fully on (c = 0)
    rng = np.random.default_rng(200 + n)
    m = 60
    theta = rng.choice([0.0, np.pi / 2], (m, n))
    inner = rng.random((m, n)) < 0.3
    theta[inner] = rng.uniform(0.0, np.pi / 2, inner.sum())
    phi = rng.uniform(0.0, 2 * np.pi, (m, n))
    d_theta = rng.uniform(-1.0, 1.0, (m, n))
    d_phi = rng.uniform(-1.0, 1.0, (m, n))
    assert _check_along(theta, phi, d_theta, d_phi) <= 1e-14
    assert _check_along(np.zeros((m, n)), phi, d_theta, d_phi) == 0.0


def test_along_touched_levels():
    n = 6
    theta = np.zeros((5, n))
    phi = np.full((5, n), 0.4)
    d_theta, d_phi = np.zeros((5, n)), np.zeros((5, n))
    d_phi[:, 4] = 0.1
    theta[:, 4] = 0.7
    levels, block = connection_along(theta, phi, d_theta, d_phi)
    assert levels.tolist() == [4] and block.shape == (5, 1, 1)  # C1 plane: one level
    theta[:, 1] = 0.3  # a lower level the prefix frame mixes in
    levels, _ = connection_along(theta, phi, d_theta, d_phi)
    assert levels.tolist() == [1, 4]
    levels, block = connection_along(theta, phi, 0 * d_theta, 0 * d_phi)
    assert levels.size == 0 and block.shape == (5, 0, 0)


# ---------- exact chart symmetry: a phi shift is a diagonal conjugation ----------

def _dense_along(theta, phi, d_theta, d_phi):
    n = theta.shape[-1]
    levels, block = connection_along(theta, phi, d_theta, d_phi)
    full = np.zeros(theta.shape[:-1] + (n, n), dtype=complex)
    full[..., levels[:, None], levels] = block
    return full


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_along_phi_shift_is_diagonal_conjugation(n, seed):
    # U(theta, phi + c) = P_c U(theta, phi) P_c^dagger with P_c = diag(e^{i c}) on the
    # code, so A(phi + c) = P_c A(phi) P_c^dagger exactly, at any point and direction
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi / 2, (4, n))
    phi = rng.uniform(0.5, 2.5, (4, n))
    d_theta, d_phi = rng.normal(size=(2, 4, n))
    shift = rng.uniform(0.0, 3.0, n)  # one c per level; phi + c stays below 2 pi
    p = np.exp(1j * shift)
    base = _dense_along(theta, phi, d_theta, d_phi)
    moved = _dense_along(theta, phi + shift, d_theta, d_phi)
    assert np.max(np.abs(moved - p[:, None] * base * p.conj())) <= 1e-12
