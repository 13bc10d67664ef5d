"""Path-ordered loop holonomies on the code subspace.

The engine composes exact unitary factors along the polyline,

    U = F_m ... F_1,

with later factors multiplying on the left. Each is built from G = -A_delta,
the connection along its stretch of edge, A_delta = sum_mu A^mu dlam_mu:

- an edge that moves one theta takes one factor, exp(G) at its midpoint.
  Its generator is constant along it, so the factor is exact;
- an edge that moves one phi_b takes one factor in the rotating frame,
  e^{D/2} exp(G_mid - D) e^{D/2} with D = i dphi_b on level b. The azimuths
  enter the frame as a diagonal conjugation, so the generator rotates,
  A(s) = e^{sD} A(0) e^{-sD}, and this interaction-picture factor is its
  exact ordered exponential. Where D commutes with A, because theta is zero
  on every level below b (the phi edges of C1 planes at the origin), it
  equals exp(G_mid), and the engine takes that;
- an oblique edge, one that moves two or more coordinates (circles,
  polygons, generic loops), takes segments_per_edge factors exp(Omega), one
  per segment, Omega the fourth-order Magnus term of the two Gauss-Legendre
  nodes at 1/2 -+ sqrt(3)/6 of the segment,

      Omega = (G1 + G2)/2 + (sqrt(3)/12) [G2, G1],   G_i = -A_delta(node_i)

  (Blanes, Casas, Oteo & Ros, "The Magnus expansion and some of its
  applications", Phys. Rep. 470 (2009) 151; Iserles, Munthe-Kaas, Norsett &
  Zanna, "Lie-group methods", Acta Numerica 9 (2000) 215).

So segments_per_edge is the segment count of each oblique edge. Rectangles
and the loops of gate programs, whose edges each move one coordinate, give
the same bytes at every count.

The minus sign makes the result the transformation physically acquired by
the code coefficients under adiabatic transport (the dynamics module
integrates the Schrodinger equation around the same loops and reproduces
these matrices); with the signed-area conventions of loops.py it also
reproduces the closed-form single-generator holonomies of all four loop
families.

The generators come from connection.connection_along, which returns them
on the levels a batch of factors touches: the levels whose coordinates
move and the levels their prefix frames mix in. Every other generator entry
is exactly zero, so the holonomy is exactly the identity there; only the
touched block is exponentiated and multiplied, then embedded in the n x n
identity. A loop that moves every coordinate touches all n levels. Each
family loop and primitive step touches at most two, and on k <= 2 levels
the exponentials and the ordered product are closed forms evaluated
elementwise over the factors (linalg); only k >= 3 goes through eigh and
batched matmul.

The factors are integrated in blocks, in traversal order, of at most
BLOCK_ENTRIES / k^2 connection nodes: two per factor of an oblique edge,
one per factor of the others. A block holds BLOCK_ENTRIES / (2 k^2)
factors when some live edge is oblique and twice that when none is, so the
arrays built at once stay near a fixed size whatever the segment count.
Each block's (edge, segment) pairs come from the cumulative factor counts
of the edges, block by block. Each edge's moves, factor count and phi turn
are worked out once per call. Each block is exponentiated and multiplied
on the levels it touches, which can be fewer than the loop's (a gate
program's loop touches four levels, each of its steps two), and its
product multiplies those rows of the result as soon as it is formed.

Levels that never move and have theta == 0 at every vertex are not passed
to connection_along at all: they would add nothing to any generator, and it
would drop them itself after building their node coordinates.

Edges on which every generator is exactly zero are dropped before any
connection is evaluated (see _silent_edges): the connector legs of a gate
program's loop, which set up and tear down its frozen coordinates, transport
nothing, and they are most of its edges. Their factors are the identity,
e^{D/2} e^{-D} e^{D/2} on a phi leg, and are left out of the product.

Oblique edges converge at fourth order in the segment length: the error
falls about 16x per segment doubling, whatever single-coordinate edges the
loop also has. Every factor is unitary by construction, so the only
unitarity defect is accumulated roundoff (reported, and removed by polar
projection when above threshold).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .connection import connection_along
from .loops import LoopPath, as_int

ACCEPT_DEFECT = 1e-9
REJECT_DEFECT = 1e-6
# most edges x segments per edge x n^2 one holonomy may take; it bounds the
# run time (memory is bounded by the blocks)
MAX_SEGMENT_ENTRIES = 2 ** 22
# connection nodes x k^2 integrated as one block, k the levels that are not
# idle; a block's arrays stay near 2 MB
BLOCK_ENTRIES = 2 ** 13
# the two Gauss-Legendre nodes of a segment sit at 1/2 -+ GAUSS_OFFSET of it
GAUSS_OFFSET = np.sqrt(3.0) / 6
MAGNUS_WEIGHT = np.sqrt(3.0) / 12  # of the commutator in the fourth-order Magnus term


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
        if not np.isfinite(m).all():
            raise UnitarityError("matrix has non-finite entries")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_raw(cls, m: np.ndarray) -> "UnitaryMatrix":
        m = np.asarray(m, dtype=complex)
        if not np.isfinite(m).all():
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


def _silent_edges(th: np.ndarray, d_th: np.ndarray, d_ph: np.ndarray) -> np.ndarray:
    """Edges of the polyline th, moving by (d_th, d_ph), whose generators are all exactly zero.

    Level b adds k11 (u_b u_b^T - conj(w_b) w_b^T) + k12 u_b w_b^T - conj(k12)
    conj(w_b) u_b^T (connection.connection_along), k11 = -i sin^2(theta_b)
    d_phi_b and k12 = e^{i phi_b} (d_theta_b + i cos(theta_b) sin(theta_b) d_phi_b).
    theta_b is exactly zero on every node of an edge whose ends both have
    theta_b == 0, and w_b is then zero if that holds for every level below b.
    So level b adds exact zeros when d_phi_b == 0 or theta_b == 0 on the
    edge, and d_theta_b == 0 or w_b == 0 on it. A level that does not move
    has d_theta_b == d_phi_b == 0.
    """
    flat = (th[:-1] == 0) & (th[1:] == 0)
    below = np.ones_like(flat)
    below[:, 1:] = np.logical_and.accumulate(flat[:, :-1], axis=1)
    return (((d_ph == 0) | flat) & ((d_th == 0) | below)).all(1)


def _block_generators(th: np.ndarray, ph: np.ndarray, d_th: np.ndarray, d_ph: np.ndarray,
                      oblique: np.ndarray, count: np.ndarray, edge: np.ndarray,
                      seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Touched levels and the exponents G of the factors of one block.

    Factor i of the block is factor seg[i] of count[edge[i]] on the edge
    that starts at (th, ph)[edge[i]] and moves by (d_th, d_ph)[edge[i]]. On
    an oblique edge the exponent is the fourth-order Magnus term
    (G1 + G2)/2 + (sqrt3/12) [G2, G1] of the two Gauss nodes of its segment;
    on the others it is G at the midpoint. G = -A_delta(node). Both nodes of
    every factor go through one connection_along call: the first node (or
    midpoint) of each, then the second node of the oblique ones.
    """
    two = np.flatnonzero(oblique[edge])
    node = np.concatenate([seg + 0.5 - GAUSS_OFFSET * oblique[edge], seg[two] + 0.5 + GAUSS_OFFSET])
    at = np.concatenate([edge, edge[two]])
    c = count[at, None]
    frac = node[:, None] / c
    th, ph, d_t, d_p = (np.take(x, at, axis=0) for x in (th, ph, d_th, d_ph))  # faster than x[at]
    levels, a = connection_along(th + d_t * frac, ph + d_p * frac, d_t / c, d_p / c)
    g = -a[:edge.size]
    if two.size:  # from A_i = -G_i: Omega = -(A1 + A2)/2 + (sqrt3/12) [A2, A1]
        a1, a2 = a[two], a[edge.size:]
        omega = a1 + a2
        omega *= -0.5
        if levels.size > 1:  # 1 x 1 generators commute
            omega += MAGNUS_WEIGHT * (linalg._matmul(a2, a1) - linalg._matmul(a1, a2))
        g[two] = omega
    return levels, g


def _block_factors(gens: np.ndarray, levels: np.ndarray, turn: np.ndarray,
                   col: np.ndarray) -> np.ndarray:
    """The factors of one block from its exponents, in the rotating frame on phi edges.

    Factor i is exp(gens[i]), or e^{D/2} exp(gens[i] - D) e^{D/2} where
    turn[i] != 0, with D = i turn[i] on the level of column col[i]: the
    exact transport along an edge that moves that one phi by turn[i], whose
    generator rotates as A(s) = e^{sD} A(0) e^{-sD}.
    """
    rot = np.flatnonzero(turn)
    if not rot.size:
        return linalg.expm_antihermitian(gens)
    at, turn = np.searchsorted(levels, col[rot]), turn[rot]
    gens.imag[rot, at, at] -= turn
    f = linalg.expm_antihermitian(gens)
    half = np.exp(0.5j * turn)[:, None]
    f[rot, at] *= half
    f[rot, :, at] *= half
    return f


def check_segment_budget(edges: float, segments_per_edge: int, n: int):
    """ValueError if integrating this many edges at this count exceeds MAX_SEGMENT_ENTRIES."""
    if edges * segments_per_edge * n ** 2 > MAX_SEGMENT_ENTRIES:
        raise ValueError(f"{edges:.6g} edges x {segments_per_edge} segments per edge at n = "
                         f"{n} exceed the budget of {MAX_SEGMENT_ENTRIES} "
                         "segment-factor entries")


def holonomy(loop: LoopPath, segments_per_edge: int = 64) -> UnitaryMatrix:
    """Loop holonomy on the n-dimensional code, by ordered exact factors.

    Each live edge that moves one coordinate takes one factor; each oblique
    edge takes segments_per_edge Magnus-4 factors. The factors go in blocks
    of at most BLOCK_ENTRIES / k^2 connection nodes, k the levels left after
    dropping the idle ones (see the module docstring).
    """
    s = as_int(segments_per_edge, "segments_per_edge")
    if s < 1:
        raise ValueError("segments_per_edge must be >= 1")
    check_segment_budget(loop.num_vertices - 1, segments_per_edge, loop.n)
    u = np.eye(loop.n, dtype=complex)
    if loop.is_degenerate():
        return UnitaryMatrix.from_raw(u)
    # a level that never moves and has theta == 0 at every vertex enters no
    # generator (connection_along drops it too), so its columns are left out
    cols = ((loop.thetas != 0).any(0) | (loop.phis != loop.phis[0]).any(0)).nonzero()[0]
    th, ph = loop.thetas[:, cols], loop.phis[:, cols]
    d_th, d_ph = th[1:] - th[:-1], ph[1:] - ph[:-1]
    live = (~_silent_edges(th, d_th, d_ph)).nonzero()[0]
    th, ph, d_th, d_ph = th[live], ph[live], d_th[live], d_ph[live]
    moves_phi = d_ph != 0
    oblique = (d_th != 0).sum(1) + moves_phi.sum(1) >= 2
    count = np.where(oblique, s, 1)  # factors per edge
    col = moves_phi.argmax(1)  # the column a phi edge moves
    # and its move where the generator rotates, because some level below col
    # has theta != 0; lead is the first level that has
    nonzero = th != 0
    lead = np.where(nonzero.any(1), nonzero.argmax(1), cols.size)
    turn = np.where(oblique | (col <= lead), 0.0, d_ph.sum(1))
    ends = count.cumsum()
    total = int(ends[-1]) if live.size else 0
    nodes = 2 if oblique.any() else 1  # connection nodes per factor, at most
    per_block = max(1, BLOCK_ENTRIES // (nodes * cols.size ** 2))
    for first in range(0, total, per_block):
        j = np.arange(first, min(first + per_block, total))
        edge = ends.searchsorted(j, side="right")
        levels, gens = _block_generators(th, ph, d_th, d_ph, oblique, count, edge,
                                         j - ends[edge] + count[edge])
        if levels.size:  # empty when every move / count in the block underflows to 0
            rows = cols[levels]
            f = _block_factors(gens, levels, turn[edge], col[edge])
            u[rows] = linalg.fold_left(f) @ u[rows]
    return UnitaryMatrix.from_raw(u)
