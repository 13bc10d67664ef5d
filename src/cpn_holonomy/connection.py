"""The adiabatic (non-abelian gauge) connection over the CP^n chart.

Components A^{theta_b} and A^{phi_b} (b = 1..n) are n x n anti-hermitian
matrices over the code frame, with entries A_{r,c} = <psi_r | d/d(coord) psi_c>
(row = bra index, column = differentiated state). Two independent evaluation
routes are provided:

- connection_along: one closed form for the connection along a direction,
  A_delta = sum_b d_theta_b A^{theta_b} + d_phi_b A^{phi_b}. The frame is
  U = R_n ... R_1, so each component conjugates the sparse generator
  R_b† d R_b by the prefix frame R_{b-1} ... R_1. On the code this is a
  rank <= 3 term built from the unit vector u_b and w_b, row n+1 of the
  prefix frame. Only the levels a batch touches (the moving ones and the
  support of their w_b) are returned; every other entry is exactly zero.
  connection_analytic evaluates it on the 2n unit directions, and the loop
  integrator on its segment midpoints;
- connection_numeric: central-difference differentiation of the closed-form
  eigenframe, projected on the frame at the point.

The numeric route always differentiates the same smooth frame section
(never a per-point eigensolver), so no gauge jumps enter the comparison.
The suite checks the closed form against the numeric route and against the
per-entry trigonometric formulas at random and boundary points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .chart import THETA_MAX, ControlPoint, frame_unitary_batch

ANTIHERMITICITY_TOL = 1e-10


class DiscretizationError(ValueError):
    """Central-difference step would leave the chart at this point."""


@dataclass(frozen=True)
class ConnectionValue:
    """All 2n component matrices of the connection at one chart point.

    a_theta[b] / a_phi[b] is the component for coordinate index b+1 (1-based
    level index b+1); each is an n x n anti-hermitian complex matrix.
    """

    n: int
    a_theta: np.ndarray  # shape (n, n, n)
    a_phi: np.ndarray  # shape (n, n, n)

    def component(self, kind: str, beta: int) -> np.ndarray:
        """Component matrix for coordinate kind in {'theta','phi'} and 1-based beta."""
        if not 1 <= beta <= self.n:
            raise IndexError(f"beta must be in 1..{self.n}")
        return (self.a_theta if kind == "theta" else self.a_phi)[beta - 1]

    def max_antihermiticity_defect(self) -> float:
        d = 0.0
        for comp in (self.a_theta, self.a_phi):
            d = max(d, float(np.max(np.abs(comp + comp.conj().transpose(0, 2, 1)))))
        return d

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
    levels whose coordinates vary contribute; they and the support of their
    w_b are the touched levels.
    """
    theta, phi, d_theta, d_phi = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (theta, phi, d_theta, d_phi)))
    batch_axes = tuple(range(theta.ndim - 1))
    moving = np.any((d_theta != 0) | (d_phi != 0), axis=batch_axes)
    if not moving.any():
        return np.flatnonzero(moving), np.zeros(theta.shape[:-1] + (0, 0), dtype=complex)
    # Levels above the last moving one enter no w_b; a level with theta == 0
    # throughout has c = 1, s = 0 and enters none either, so both are dropped.
    top = np.flatnonzero(moving)[-1]
    cand = np.flatnonzero((moving | np.any(theta != 0, axis=batch_axes))[: top + 1])
    c, s, e = np.cos(theta[..., cand]), np.sin(theta[..., cand]), np.exp(1j * phi[..., cand])
    var = np.flatnonzero(moving[cand])  # positions in cand of the moving levels
    w = np.zeros(c.shape, dtype=complex)
    rows = []
    for j in range(cand.size):
        if moving[cand[j]]:
            rows.append(w.copy())
        w[..., :j] *= c[..., j, None]
        w[..., j] = -s[..., j] * e[..., j].conj()
    w = np.stack(rows, axis=-2)  # (..., v, len(cand)): w_b of each moving level b
    keep = np.flatnonzero(np.any(w != 0, axis=batch_axes + (w.ndim - 2,)) | moving[cand])
    w = w[..., keep]

    sv, cv, ev = s[..., var], c[..., var], e[..., var]
    dth, dph = d_theta[..., cand[var]], d_phi[..., cand[var]]
    k11 = (-1j * sv ** 2 * dph)[..., None]
    k12 = (ev * (dth + 1j * cv * sv * dph))[..., None]
    u = np.zeros((var.size, keep.size))
    u[np.arange(var.size), np.searchsorted(keep, var)] = 1.0  # u_b of each moving level
    # sum_b [u_b, conj(w_b)] [[k11, k12], [-conj(k12), -k11]] [u_b, w_b]^T as one product
    left = np.concatenate([np.broadcast_to(u, w.shape), w.conj()], axis=-2).swapaxes(-1, -2)
    right = np.concatenate([k11 * u + k12 * w, -k12.conj() * u - k11 * w], axis=-2)
    block = left @ right
    return cand[keep], block


def connection_analytic(p: ControlPoint) -> ConnectionValue:
    """All 2n closed-form component matrices at p."""
    n = p.n
    units = np.eye(2 * n)  # theta_1..theta_n, then phi_1..phi_n
    levels, block = connection_along(p.theta, p.phi, units[:, :n], units[:, n:])
    full = np.zeros((2 * n, n, n), dtype=complex)
    full[:, levels[:, None], levels] = block
    return ConnectionValue(n, full[:n], full[n:])


def connection_numeric(p: ControlPoint, step: float = 1e-5,
                       return_defect: bool = False):
    """Central-difference connection from the closed-form frame.

    Requires every theta coordinate to sit at least `step` inside [0, pi/2]
    (phi is periodic and needs no margin); raises DiscretizationError
    otherwise. The raw overlap matrix is anti-hermitized by M <- (M - M†)/2;
    with return_defect=True the pre-symmetrization defect max over components
    is returned alongside as a diagnostic.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = p.n
    if np.any(p.theta < step) or np.any(p.theta > THETA_MAX - step):
        raise DiscretizationError(
            f"point within {step} of the theta chart boundary; reduce step or move inward")
    code0 = frame_unitary_batch(p.theta, p.phi)[:, :n]

    # batch all 4n displaced frames at once
    thetas = np.tile(p.theta, (4 * n, 1))
    phis = np.tile(p.phi, (4 * n, 1))
    for b in range(n):
        thetas[4 * b + 0, b] += step
        thetas[4 * b + 1, b] -= step
        phis[4 * b + 2, b] += step
        phis[4 * b + 3, b] -= step
    frames = frame_unitary_batch(thetas, phis)[:, :, :n]

    defect = 0.0
    a_theta = np.zeros((n, n, n), dtype=complex)
    a_phi = np.zeros((n, n, n), dtype=complex)
    for b in range(n):
        for kind, out, iplus, iminus in (
                ("theta", a_theta, 4 * b + 0, 4 * b + 1),
                ("phi", a_phi, 4 * b + 2, 4 * b + 3)):
            deriv = (frames[iplus] - frames[iminus]) / (2 * step)
            raw = code0.conj().T @ deriv
            defect = max(defect, float(np.max(np.abs(raw + raw.conj().T))))
            out[b] = 0.5 * (raw - raw.conj().T)
    value = ConnectionValue(n, a_theta, a_phi)
    if return_defect:
        return value, defect
    return value
