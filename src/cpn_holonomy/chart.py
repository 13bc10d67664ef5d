"""The CP^n control chart and its rotated eigenframe.

A point of the chart is 2n angles (theta_1..theta_n, phi_1..phi_n) with
theta in [0, pi/2] and phi in [0, 2pi). Level n+1 is the non-degenerate one;
its angles are fixed to theta_{n+1} = pi/2, phi_{n+1} = 0 and never stored.

The frame U(point) is the ordered product of n two-level rotations, one per
level alpha, each mixing (alpha, n+1); the alpha = 1 rotation acts first.
Its columns are the rotated eigenstates: columns 1..n span the n-fold
degenerate eigenvalue-0 subspace (the code), column n+1 carries eigenvalue
1: energies are in units of the gap epsilon0, times in units of 1/epsilon0.
Reversing the product order changes the frame and every downstream sign,
so it is fixed here once.

frame_unitary_batch accepts angle arrays of shape (..., n) and returns the
matching batched frames; in the package only frame_unitary, its one-point
form, calls it, and the test oracles use the batch. The propagators' hot
path is excited_state_from_angles, which builds frame column n+1 alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
THETA_MAX = np.pi / 2
_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class ControlPoint:
    """A point lambda = (theta_1..theta_n, phi_1..phi_n) of the CP^n chart."""

    n: int
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        th = np.atleast_1d(np.asarray(self.theta, dtype=float)).copy()
        ph = np.atleast_1d(np.asarray(self.phi, dtype=float)).copy()
        if th.shape != (self.n,) or ph.shape != (self.n,):
            raise ValueError(f"theta and phi must both have length n={self.n}")
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(ph))):
            raise ValueError("theta and phi entries must be finite")
        if np.any(th < -_ANGLE_TOL) or np.any(th > THETA_MAX + _ANGLE_TOL):
            raise ValueError("theta entries must lie in [0, pi/2]")
        th = np.clip(th, 0.0, THETA_MAX)
        ph = np.mod(ph, TWO_PI)  # stored reduced modulo 2pi
        th.setflags(write=False)
        ph.setflags(write=False)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)


def frame_unitary_batch(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Frames for a batch of points; theta/phi shape (..., n) -> (..., n+1, n+1)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n = theta.shape[-1]
    batch = theta.shape[:-1]
    u = np.broadcast_to(np.eye(n + 1, dtype=complex), batch + (n + 1, n + 1)).copy()
    for a in range(n):
        r = np.broadcast_to(np.eye(n + 1, dtype=complex), batch + (n + 1, n + 1)).copy()
        c = np.cos(theta[..., a])
        s = np.sin(theta[..., a])
        e = np.exp(1j * phi[..., a])
        r[..., a, a] = c
        r[..., a, n] = e * s
        r[..., n, a] = -s / e
        r[..., n, n] = c
        u = r @ u  # alpha = 1 acts first: left-accumulate
    return u


def excited_state_from_angles(n: int, batch: tuple, angles) -> np.ndarray:
    """Level-(n+1) eigenstates for a batch of points, from their angles.

    Closed form of frame column n+1: v_j = e^{i phi_j} sin(theta_j)
    prod_{k<j} cos(theta_k) for j <= n and v_{n+1} = prod_k cos(theta_k),
    O(n) per point instead of the n rotation matmuls of the full frame; the
    result has shape batch + (n+1,). With n = 0 v is the one-level state 1.

    angles(j) returns theta_j and phi_j over the batch, for j = 0..n-1 in
    turn, each an array of shape batch or one value that holds over all of
    it, so a caller may sample them any way it likes (dynamics passes a
    column that stays put along the loop as its one value, and its cos and
    sin are then taken once). The real and imaginary parts are written
    directly, cos(phi_j) sin(theta_j) prod_{k<j} cos(theta_k) and the same
    with sin(phi_j): the values of the complex product, without a complex
    exponential.
    """
    v = np.empty(batch + (n + 1,), dtype=complex)
    prefix = 1.0  # prod_{k<j} cos(theta_k), multiplied up one level at a time
    for j in range(n):
        theta, phi = angles(j)
        sin_theta = np.sin(theta)
        for part, trig_phi in ((v.real, np.cos(phi)), (v.imag, np.sin(phi))):
            np.multiply(trig_phi, sin_theta, out=part[..., j])
            part[..., j] *= prefix
        prefix = prefix * np.cos(theta)
    v.real[..., n] = prefix
    v.imag[..., n] = 0.0
    return v


def frame_unitary(p: ControlPoint) -> np.ndarray:
    """The (n+1)x(n+1) frame at p; column alpha is the rotated eigenstate |alpha(p)>."""
    return frame_unitary_batch(p.theta, p.phi)
