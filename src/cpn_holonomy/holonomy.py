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
on the levels a batch of segments touches: the levels whose coordinates
move and the levels their prefix frames mix in. Every other generator entry
is exactly zero, so the holonomy is exactly the identity there; only the
touched block is exponentiated and multiplied, then embedded in the n x n
identity. A loop that moves every coordinate touches all n levels. Each
family loop and primitive step touches at most two, and on k <= 2 levels
the exponentials and the ordered product are closed forms evaluated
elementwise over the segments (linalg); only k >= 3 goes through eigh and
batched matmul.

The segments are integrated in blocks of at most BLOCK_ENTRIES / k^2, in
traversal order, so the arrays built at once stay near a fixed size
whatever the segment count. Each block is exponentiated and multiplied on
the levels it touches, which can be fewer than the loop's (a gate program's
loop touches four levels, each of its steps two); the block products are
embedded in the union of those levels and multiplied in time order.

Levels that never move and have theta == 0 at every vertex are not passed
to connection_along at all: they would add nothing to any generator, and it
would drop them itself after building their segment midpoints.

Edges on which every generator is exactly zero are dropped before any
connection is evaluated (see _silent_edges): the connector legs of a gate
program's loop, which set up and tear down its frozen coordinates, transport
nothing, and they are most of its edges. Their identity factors are left
out of the product.

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
# most edges x segments per edge x n^2 one holonomy may take; it bounds the
# run time (memory is bounded by the blocks)
MAX_SEGMENT_ENTRIES = 2 ** 22
# segments x k^2 integrated as one block, k the levels that are not idle:
# connection_along builds 100-200 bytes per entry, so a block stays below ~2 MB
BLOCK_ENTRIES = 2 ** 13


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


def _silent_edges(th: np.ndarray, ph: np.ndarray, segments_per_edge: int) -> np.ndarray:
    """Edges of the polyline (th, ph) whose segment generators are all exactly zero.

    Level b adds k11 (u_b u_b^T - conj(w_b) w_b^T) + k12 u_b w_b^T - conj(k12)
    conj(w_b) u_b^T (connection.connection_along), k11 = -i sin^2(theta_b)
    d_phi_b and k12 = e^{i phi_b} (d_theta_b + i cos(theta_b) sin(theta_b) d_phi_b).
    theta_b is exactly zero on every midpoint of an edge whose ends both have
    theta_b == 0, and w_b is then zero if that holds for every level below b.
    So level b adds exact zeros when d_phi_b == 0 or theta_b == 0 on the
    edge, and d_theta_b == 0 or w_b == 0 on it. A level that does not move
    has d_theta_b == d_phi_b == 0.
    """
    s = segments_per_edge
    d_th, d_ph = (th[1:] - th[:-1]) / s, (ph[1:] - ph[:-1]) / s
    flat = (th[:-1] == 0) & (th[1:] == 0)
    below = np.ones_like(flat)
    below[:, 1:] = np.logical_and.accumulate(flat[:, :-1], axis=1)
    return np.all(((d_ph == 0) | flat) & ((d_th == 0) | below), axis=1)


def _block_generators(th: np.ndarray, ph: np.ndarray, edge: np.ndarray, seg: np.ndarray,
                      segments_per_edge: int) -> tuple[np.ndarray, np.ndarray]:
    """Touched columns and transport generators -A(mid) . dlam of one block.

    Segment i of the block is sub-segment seg[i] of the edge from vertex
    edge[i] to edge[i] + 1 of the polyline (th, ph); the generators are in
    that order.
    """
    s = segments_per_edge
    d_th, d_ph = th[edge + 1] - th[edge], ph[edge + 1] - ph[edge]
    frac = ((seg + 0.5) / s)[:, None]
    levels, block = connection_along(th[edge] + d_th * frac, ph[edge] + d_ph * frac,
                                     d_th / s, d_ph / s)
    return levels, -block


def check_segment_budget(edges: float, segments_per_edge: int, n: int):
    """ValueError if integrating this many edges at this count exceeds MAX_SEGMENT_ENTRIES."""
    if edges * segments_per_edge * n ** 2 > MAX_SEGMENT_ENTRIES:
        raise ValueError(f"{edges:.6g} edges x {segments_per_edge} segments per edge at n = "
                         f"{n} exceed the budget of {MAX_SEGMENT_ENTRIES} "
                         "segment-factor entries")


def holonomy(loop: LoopPath, segments_per_edge: int = 64) -> UnitaryMatrix:
    """Loop holonomy on the n-dimensional code, by ordered segment exponentials.

    The segments of the live edges go in blocks of at most BLOCK_ENTRIES /
    k^2, k the levels left after dropping the idle ones (see the module
    docstring).
    """
    if segments_per_edge < 1:
        raise ValueError("segments_per_edge must be >= 1")
    check_segment_budget(loop.num_vertices - 1, segments_per_edge, loop.n)
    u = np.eye(loop.n, dtype=complex)
    if loop.is_degenerate():
        return UnitaryMatrix.from_raw(u)
    s = segments_per_edge
    edges = np.flatnonzero(~_silent_edges(loop.thetas, loop.phis, s))
    # a level that never moves and has theta == 0 at every vertex enters no
    # generator (connection_along drops it too), so its columns are left out
    cols = np.flatnonzero(np.any(loop.thetas != 0, axis=0)
                          | np.any(loop.phis != loop.phis[0], axis=0))
    th, ph = loop.thetas[:, cols], loop.phis[:, cols]
    per_block = max(1, BLOCK_ENTRIES // cols.size ** 2)
    blocks = []  # (levels, ordered product on them), in time order
    for first in range(0, edges.size * s, per_block):
        j = np.arange(first, min(first + per_block, edges.size * s))
        levels, gens = _block_generators(th, ph, edges[j // s], j % s, s)
        if levels.size:
            blocks.append((cols[levels], linalg.fold_left(linalg.expm_antihermitian(gens))))
    if blocks:  # else every edge is silent
        levels = np.unique(np.concatenate([lv for lv, _ in blocks]))
        products = np.tile(np.eye(levels.size, dtype=complex), (len(blocks), 1, 1))
        for product, (lv, p) in zip(products, blocks):
            at = np.searchsorted(levels, lv)
            product[at[:, None], at] = p
        u[levels[:, None], levels] = linalg.fold_left(products)
    return UnitaryMatrix.from_raw(u)
