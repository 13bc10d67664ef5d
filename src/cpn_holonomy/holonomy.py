"""Path-ordered loop holonomies on the code subspace.

The engine discretizes each polyline edge into sub-segments, evaluates the
connection at every segment midpoint and composes the segment exponentials

    U = exp(-sum_mu A^mu(mid_m) dlam_mu,m) ... exp(-sum_mu A^mu(mid_1) dlam_mu,1)

with later segments multiplying on the left. The minus sign makes the result
the transformation physically acquired by the code coefficients under
adiabatic transport (the dynamics module integrates the Schrodinger equation
around the same loops and reproduces these matrices); with the signed-area
conventions of loops.py it also reproduces the closed-form single-generator
holonomies of all four loop families.

The generators come from connection.connection_along, which returns them
on the levels the loop touches: the levels whose coordinates move and the
levels their prefix frames mix in. Every other generator entry is exactly
zero, so the holonomy is exactly the identity there; only the touched block
is exponentiated and multiplied, then embedded in the n x n identity. A loop
that moves every coordinate touches all n levels.

Midpoint evaluation with one exact exponential per segment is second-order
accurate in the segment length; every factor is unitary by construction, so
the only unitarity defect is accumulated roundoff (reported, and removed by
polar projection when above threshold).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .connection import connection_along
from .loops import LoopPath

ACCEPT_DEFECT = 1e-9
REJECT_DEFECT = 1e-6


class UnitarityError(ValueError):
    """Matrix too far from unitary to certify."""


@dataclass(frozen=True)
class UnitaryMatrix:
    """A dense complex matrix certified unitary at construction.

    Raw defects up to 1e-9 are accepted as-is; between 1e-9 and 1e-6 the
    matrix is polar-projected onto the unitary group and the raw defect is
    recorded; above 1e-6 construction fails.
    """

    dim: int
    entries: np.ndarray
    defect: float = 0.0  # raw defect of the matrix as supplied

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise UnitarityError("matrix has non-finite entries")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_raw(cls, m: np.ndarray) -> "UnitaryMatrix":
        m = np.asarray(m, dtype=complex)
        if not np.all(np.isfinite(m)):
            raise UnitarityError("matrix has non-finite entries")
        defect = linalg.unitarity_defect(m)
        if defect > REJECT_DEFECT:
            raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {REJECT_DEFECT:.0e}")
        if defect > ACCEPT_DEFECT:
            m = linalg.polar_project(m)
        return cls(m.shape[0], m, defect)

    @property
    def matrix(self) -> np.ndarray:
        return self.entries

    def dagger(self) -> "UnitaryMatrix":
        return UnitaryMatrix(self.dim, self.entries.conj().T, self.defect)

    def __matmul__(self, other: "UnitaryMatrix") -> "UnitaryMatrix":
        return UnitaryMatrix.from_raw(self.entries @ other.entries)

    def distance(self, other) -> float:
        o = other.entries if isinstance(other, UnitaryMatrix) else np.asarray(other)
        return linalg.max_abs_diff(self.entries, o)

    def distance_up_to_phase(self, other) -> float:
        o = other.entries if isinstance(other, UnitaryMatrix) else np.asarray(other)
        return linalg.dist_up_to_phase(self.entries, o)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "entries": linalg.complex_pairs(self.entries),
            "unitarity_defect": float(self.defect),
        }


def _segment_generators(loop: LoopPath, segments_per_edge: int) -> tuple[np.ndarray, np.ndarray]:
    """Touched levels and transport generators -A(mid) . dlam of all sub-segments, in order."""
    n = loop.n
    th, ph = loop.thetas, loop.phis
    m = th.shape[0] - 1
    s = segments_per_edge
    frac = (np.arange(s) + 0.5) / s
    # midpoints and deltas, edges x segments flattened in traversal order
    mid_th = (th[:-1, None, :] + (th[1:] - th[:-1])[:, None, :] * frac[None, :, None]).reshape(m * s, n)
    mid_ph = (ph[:-1, None, :] + (ph[1:] - ph[:-1])[:, None, :] * frac[None, :, None]).reshape(m * s, n)
    d_th = np.repeat((th[1:] - th[:-1]) / s, s, axis=0)
    d_ph = np.repeat((ph[1:] - ph[:-1]) / s, s, axis=0)
    levels, block = connection_along(mid_th, mid_ph, d_th, d_ph)
    return levels, -block


def holonomy(loop: LoopPath, segments_per_edge: int = 64) -> UnitaryMatrix:
    """Loop holonomy on the n-dimensional code, by ordered segment exponentials."""
    if segments_per_edge < 1:
        raise ValueError("segments_per_edge must be >= 1")
    u = np.eye(loop.n, dtype=complex)
    if not loop.is_degenerate():
        levels, gens = _segment_generators(loop, segments_per_edge)
        u[levels[:, None], levels] = linalg.fold_left(linalg.expm_antihermitian(gens))
    return UnitaryMatrix.from_raw(u)
