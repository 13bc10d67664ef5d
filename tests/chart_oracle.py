"""Closed-form chart eigenstates and Hamiltonians: test oracles for chart and dynamics.

eigenstate and hamiltonian_at are built from explicit trigonometric
products, independent of the rotation product in chart.frame_unitary_batch
and of chart.excited_state_from_angles. excited_state_batch feeds the
latter every column of given angle arrays: the excited states of angles
sampled in full at every node, for the dynamics tests.
"""
import numpy as np

from cpn_holonomy.chart import THETA_MAX, ControlPoint, excited_state_from_angles


def eigenstate(p: ControlPoint, alpha: int) -> np.ndarray:
    """Closed-form rotated eigenstate, 1 <= alpha <= n+1.

    Independent of frame_unitary (explicit trigonometric products rather than
    a rotation product); the two must agree columnwise, which the test suite
    enforces.
    """
    n = p.n
    if not 1 <= alpha <= n + 1:
        raise IndexError(f"alpha must be in 1..{n + 1}, got {alpha}")
    th = np.concatenate([p.theta, [THETA_MAX]])  # implicit level n+1
    ph = np.concatenate([p.phi, [0.0]])
    v = np.zeros(n + 1, dtype=complex)
    if alpha == n + 1:
        for j in range(1, n + 2):
            v[j - 1] = np.exp(1j * ph[j - 1]) * np.sin(th[j - 1]) * np.prod(np.cos(th[: j - 1]))
        return v
    a = alpha - 1
    v[a] = np.cos(th[a])
    pref = -np.exp(-1j * ph[a]) * np.sin(th[a])
    for j in range(alpha + 1, n + 2):
        amp = np.sin(th[j - 1]) * np.prod(np.cos(th[alpha: j - 1]))
        v[j - 1] = pref * np.exp(1j * ph[j - 1]) * amp
    return v


def hamiltonian_at(p: ControlPoint, eps0: float = 1.0) -> np.ndarray:
    """H(p) = eps0 |v><v| with v the rotated level-(n+1) eigenstate.

    Spectrum is {0 x n, eps0} at every chart point; the package measures
    time in units of 1/eps0, so its H is the one at eps0 = 1. Note the
    restricted two-level form of H on a (theta_b, phi_b) plane is traceless
    only after subtracting (eps0/2) I; see the model tests for the explicit
    reconciliation (including the azimuth reflection phi -> pi - phi).
    """
    v = eigenstate(p, p.n + 1)
    return eps0 * np.outer(v, v.conj())


def excited_state_batch(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Level-(n+1) eigenstates for a batch of points; theta/phi (..., n) -> (..., n+1).

    chart.excited_state_from_angles of the angle columns, each one array
    over the batch; with n = 0 (no columns) v is the one-level state 1.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return excited_state_from_angles(theta.shape[-1], theta.shape[:-1],
                                     lambda j: (theta[..., j], phi[..., j]))
