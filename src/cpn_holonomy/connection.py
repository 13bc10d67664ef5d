"""The adiabatic (non-abelian gauge) connection over the CP^n chart.

Components A^{theta_b} and A^{phi_b} (b = 1..n) are n x n anti-hermitian
matrices over the code frame, with entries A_{r,c} = <psi_r | d/d(coord) psi_c>
(row = bra index, column = differentiated state).

connection_along is the one closed form for the connection along a
direction, A_delta = sum_b d_theta_b A^{theta_b} + d_phi_b A^{phi_b}. The
frame is U = R_n ... R_1, so each component conjugates the sparse generator
R_b† d R_b by the prefix frame R_{b-1} ... R_1. On the code this is a
rank <= 3 term built from the unit vector u_b and w_b, row n+1 of the
prefix frame. Only the levels a batch touches (the moving ones and the
support of their w_b) are returned; every other entry is exactly zero.
The terms are added elementwise over the batch, level by level, with real
cos and sin. connection_analytic evaluates it on the 2n unit directions,
and the loop integrator on its segment nodes (midpoints, or two Gauss nodes
per segment of an oblique edge).

The test suite checks the closed form against an independent route, central
differences of the closed-form frame (tests/connection_oracle.py), and
against the per-entry trigonometric formulas at random and boundary points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .chart import ControlPoint


@dataclass(frozen=True)
class ConnectionValue:
    """All 2n component matrices of the connection at one chart point.

    a_theta[b] / a_phi[b] is the component for coordinate index b+1 (1-based
    level index b+1); each is an n x n anti-hermitian complex matrix.
    """

    n: int
    a_theta: np.ndarray  # shape (n, n, n)
    a_phi: np.ndarray  # shape (n, n, n)

    def to_json_dict(self) -> dict:
        # 1-based beta index: position k along the first axis is the coordinate beta = k + 1
        return {"n": self.n, "a_theta": linalg.complex_pairs(self.a_theta),
                "a_phi": linalg.complex_pairs(self.a_phi)}


def connection_along(theta: np.ndarray, phi: np.ndarray, d_theta: np.ndarray,
                     d_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A_delta = sum_b d_theta_b A^{theta_b} + d_phi_b A^{phi_b} for a batch of points.

    theta, phi, d_theta, d_phi broadcast to one shape (..., n). Returns
    (levels, block): levels holds the sorted 0-based code levels the batch
    touches, block (..., k, k) is A_delta on levels x levels. Every entry of
    the n x n component outside that block is exactly zero.

    With c_b, s_b = cos, sin(theta_b), e_b = e^{i phi_b}, u_b the b-th unit
    vector and w_b = row n+1 of the prefix frame R_{b-1}...R_1 on the code
    columns (w_1 = 0, w_{b+1} = c_b w_b - s_b conj(e_b) u_b), level b adds
    k11 u_b u_b^T + k12 u_b w_b^T - conj(k12) conj(w_b) u_b^T - k11 conj(w_b) w_b^T,
    k11 = -i s_b^2 d_phi_b, k12 = e_b (d_theta_b + i c_b s_b d_phi_b). Only
    levels whose coordinates vary contribute. They and the support of their
    w_b are the touched levels: below the highest moving level, every level
    whose theta is nonzero somewhere in the batch.

    The sum is built in place, one moving level b at a time and a fixed
    number of elementwise numpy calls each: k11 on the diagonal, row b =
    k12 w_b, column b = -conj(row b) and -k11 conj(w_b) (x) w_b on the levels
    below b. w_b is carried up the levels by the recurrence. A batch that
    touches one level needs sin(theta) only.
    """
    theta, phi, d_theta, d_phi = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (theta, phi, d_theta, d_phi)))
    batch_axes = tuple(range(theta.ndim - 1))
    moving = ((d_theta != 0) | (d_phi != 0)).any(axis=batch_axes)
    if not moving.any():
        return np.flatnonzero(moving), np.zeros(theta.shape[:-1] + (0, 0), dtype=complex)
    # Levels above the last moving one enter no w_b; a level with theta == 0
    # throughout has c = 1, s = 0 and enters none either, so both are dropped.
    top = np.flatnonzero(moving)[-1]
    cand = np.flatnonzero((moving | (theta != 0).any(axis=batch_axes))[: top + 1])
    s = np.sin(theta[..., cand])
    dth, dph = d_theta[..., cand], d_phi[..., cand]
    q = s ** 2 * dph  # k11 = -i q
    k = cand.size
    block = np.zeros(theta.shape[:-1] + (k, k), dtype=complex)
    block.imag[..., range(k), range(k)] = -q
    if k == 1:  # w_1 = 0, so k11 is all a single level adds
        return cand, block
    c = np.cos(theta[..., cand])
    ec, es = np.cos(phi[..., cand]), np.sin(phi[..., cand])  # e = ec + i es
    p = c * s * dph
    k12 = np.empty(c.shape, dtype=complex)
    k12.real, k12.imag = ec * dth - es * p, es * dth + ec * p
    neg_k11 = 1j * q
    w_next = np.empty(c.shape, dtype=complex)  # -s_b conj(e_b), level b's entry of w_{b+1}
    w_next.real, w_next.imag = -s * ec, s * es
    w = np.empty(c.shape, dtype=complex)  # w_b on levels :b when the loop reaches b
    for b, moves in enumerate(moving[cand].tolist()):
        wb = w[..., :b]
        if moves and b:  # row b, column b and the outer term on levels :b
            row = k12[..., b, None] * wb
            block[..., b, :b] = row
            block[..., :b, b] = -row.conj()
            outer = (neg_k11[..., b, None] * wb.conj())[..., :, None] * wb[..., None, :]
            block[..., :b, :b] += outer
        wb *= c[..., b, None]
        w[..., b] = w_next[..., b]
    return cand, block


def connection_analytic(p: ControlPoint) -> ConnectionValue:
    """All 2n closed-form component matrices at p."""
    n = p.n
    units = np.eye(2 * n)  # theta_1..theta_n, then phi_1..phi_n
    levels, block = connection_along(p.theta, p.phi, units[:, :n], units[:, n:])
    full = np.zeros((2 * n, n, n), dtype=complex)
    full[:, levels[:, None], levels] = block
    return ConnectionValue(n, full[:n], full[n:])
