"""Path-ordered loop holonomies on the code subspace.

The engine discretizes each polyline edge into sub-segments and composes one
exact exponential per segment,

    U = exp(Omega_m) ... exp(Omega_1),

with later segments multiplying on the left. Each Omega is built from
G = -A_delta, the connection along the segment, A_delta = sum_mu A^mu dlam_mu:

- on an edge that moves one chart coordinate, Omega = G at the segment
  midpoint;
- on an oblique edge, one that moves two or more coordinates (circles,
  polygons, generic loops), Omega is the fourth-order Magnus term of the two
  Gauss-Legendre nodes at 1/2 -+ sqrt(3)/6 of the segment,

      Omega = (G1 + G2)/2 + (sqrt(3)/12) [G2, G1],   G_i = -A_delta(node_i)

  (Blanes, Casas, Oteo & Ros, "The Magnus expansion and some of its
  applications", Phys. Rep. 470 (2009) 151; Iserles, Munthe-Kaas, Norsett &
  Zanna, "Lie-group methods", Acta Numerica 9 (2000) 215).

The minus sign makes the result the transformation physically acquired by
the code coefficients under adiabatic transport (the dynamics module
integrates the Schrodinger equation around the same loops and reproduces
these matrices); with the signed-area conventions of loops.py it also
reproduces the closed-form single-generator holonomies of all four loop
families.

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

The segments are integrated in blocks, in traversal order, of at most
BLOCK_ENTRIES / k^2 connection nodes: two per segment of an oblique edge,
one per segment of the others. A block holds BLOCK_ENTRIES / (2 k^2)
segments when some live edge is oblique and twice that when none is, so the
arrays built at once stay near a fixed size whatever the segment count.
Each block is exponentiated and multiplied on the levels it touches, which
can be fewer than the loop's (a gate program's loop touches four levels,
each of its steps two), and its product multiplies those rows of the
result as soon as it is formed.

Levels that never move and have theta == 0 at every vertex are not passed
to connection_along at all: they would add nothing to any generator, and it
would drop them itself after building their node coordinates.

Edges on which every generator is exactly zero are dropped before any
connection is evaluated (see _silent_edges): the connector legs of a gate
program's loop, which set up and tear down its frozen coordinates, transport
nothing, and they are most of its edges. Their identity factors are left
out of the product.

Oblique edges converge at fourth order in the segment length: their error
falls about 16x per segment doubling. The midpoint is exact on an edge whose
generator is constant along it, which holds on every theta edge and on the
phi edges of the family planes and of gate programs: rectangles and program
loops are segment-exact, and a second node would only add cost. A phi edge
off those planes has a rotating generator, and there the midpoint stays
second order (ROADMAP item 2). Every factor is unitary by construction, so
the only unitarity defect is accumulated roundoff (reported, and removed by
polar projection when above threshold).
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
    theta_b is exactly zero on every node of an edge whose ends both have
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


def _oblique_edges(th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """Edges of the polyline (th, ph) that move two or more chart coordinates."""
    return (np.count_nonzero(th[1:] != th[:-1], axis=1)
            + np.count_nonzero(ph[1:] != ph[:-1], axis=1)) >= 2


def _block_generators(th: np.ndarray, ph: np.ndarray, oblique: np.ndarray, edge: np.ndarray,
                      seg: np.ndarray, segments_per_edge: int) -> tuple[np.ndarray, np.ndarray]:
    """Touched columns and the exponents of the segment factors of one block.

    Segment i of the block is sub-segment seg[i] of the edge from vertex
    edge[i] to edge[i] + 1 of the polyline (th, ph); the exponents are in
    that order. On an edge that oblique[edge] marks, the exponent is the
    fourth-order Magnus term (G1 + G2)/2 + (sqrt3/12) [G2, G1] of the two
    Gauss nodes; on the others it is G at the midpoint. G = -A_delta(node).
    Both nodes of every segment go through one connection_along call: the
    first node (or midpoint) of each segment, then the second node of the
    oblique ones.
    """
    s = segments_per_edge
    two = np.flatnonzero(oblique[edge])
    node = np.concatenate([seg + 0.5 - GAUSS_OFFSET * oblique[edge], seg[two] + 0.5 + GAUSS_OFFSET])
    at = np.concatenate([edge, edge[two]])
    d_th, d_ph = np.diff(th, axis=0)[at], np.diff(ph, axis=0)[at]
    frac = (node / s)[:, None]
    levels, a = connection_along(th[at] + d_th * frac, ph[at] + d_ph * frac, d_th / s, d_ph / s)
    g = -a[:edge.size]
    if two.size:  # from A_i = -G_i: Omega = -(A1 + A2)/2 + (sqrt3/12) [A2, A1]
        a1, a2 = a[two], a[edge.size:]
        omega = a1 + a2
        omega *= -0.5
        if levels.size > 1:  # 1 x 1 generators commute
            omega += MAGNUS_WEIGHT * (linalg._matmul(a2, a1) - linalg._matmul(a1, a2))
        g[two] = omega
    return levels, g


def check_segment_budget(edges: float, segments_per_edge: int, n: int):
    """ValueError if integrating this many edges at this count exceeds MAX_SEGMENT_ENTRIES."""
    if edges * segments_per_edge * n ** 2 > MAX_SEGMENT_ENTRIES:
        raise ValueError(f"{edges:.6g} edges x {segments_per_edge} segments per edge at n = "
                         f"{n} exceed the budget of {MAX_SEGMENT_ENTRIES} "
                         "segment-factor entries")


def holonomy(loop: LoopPath, segments_per_edge: int = 64) -> UnitaryMatrix:
    """Loop holonomy on the n-dimensional code, by ordered segment exponentials.

    The segments of the live edges go in blocks of at most BLOCK_ENTRIES /
    k^2 connection nodes, k the levels left after dropping the idle ones
    (see the module docstring).
    """
    s = as_int(segments_per_edge, "segments_per_edge")
    if s < 1:
        raise ValueError("segments_per_edge must be >= 1")
    check_segment_budget(loop.num_vertices - 1, segments_per_edge, loop.n)
    u = np.eye(loop.n, dtype=complex)
    if loop.is_degenerate():
        return UnitaryMatrix.from_raw(u)
    edges = np.flatnonzero(~_silent_edges(loop.thetas, loop.phis, s))
    # a level that never moves and has theta == 0 at every vertex enters no
    # generator (connection_along drops it too), so its columns are left out
    cols = np.flatnonzero(np.any(loop.thetas != 0, axis=0)
                          | np.any(loop.phis != loop.phis[0], axis=0))
    th, ph = loop.thetas[:, cols], loop.phis[:, cols]
    oblique = _oblique_edges(th, ph)
    nodes = 2 if oblique[edges].any() else 1  # connection nodes per segment, at most
    per_block = max(1, BLOCK_ENTRIES // (nodes * cols.size ** 2))
    for first in range(0, edges.size * s, per_block):
        j = np.arange(first, min(first + per_block, edges.size * s))
        levels, gens = _block_generators(th, ph, oblique, edges[j // s], j % s, s)
        if levels.size:
            rows = cols[levels]
            u[rows] = linalg.fold_left(linalg.expm_antihermitian(gens)) @ u[rows]
    return UnitaryMatrix.from_raw(u)
