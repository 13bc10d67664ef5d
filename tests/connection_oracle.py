"""Central-difference connection: the test oracle for connection.connection_along.

Differentiates the closed-form frame chart.frame_unitary_batch numerically
and projects on the frame at the point, independent of the prefix-frame
closed form in connection.py.
"""
import numpy as np

from cpn_holonomy.chart import THETA_MAX, ControlPoint, frame_unitary_batch
from cpn_holonomy.connection import ConnectionValue


class DiscretizationError(ValueError):
    """Central-difference step would leave the chart at this point."""


def max_antihermiticity_defect(val: ConnectionValue) -> float:
    """max |A + A†| over all 2n components."""
    return max(float(np.max(np.abs(comp + comp.conj().transpose(0, 2, 1))))
               for comp in (val.a_theta, val.a_phi))


def connection_numeric(p: ControlPoint, step: float = 1e-5,
                       return_defect: bool = False):
    """Central-difference connection from the closed-form frame.

    Requires every theta coordinate to sit at least `step` inside [0, pi/2]
    (phi is periodic and needs no margin); raises DiscretizationError
    otherwise. The raw overlap matrix is anti-hermitized by M <- (M - M†)/2;
    with return_defect=True the pre-symmetrization defect max over components
    is returned alongside as a diagnostic. It always differentiates the same
    smooth frame section (never a per-point eigensolver), so no gauge jumps
    enter the comparison with the closed form.
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
