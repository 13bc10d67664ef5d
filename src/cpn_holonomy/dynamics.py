"""Dynamical verification: adiabatic Schrodinger transport and the pulse-kick scheme.

Both verifiers integrate actual time evolution under H(lambda(t)) and are
independent of the connection/holonomy code paths. Time is in units of
1/epsilon0, so H = |v><v| with v the excited eigenvector, and every step
dt <= MAX_EPS_DT with H frozen at one chart point is the exact rank-1 update

    exp(-i H dt) = I + (e^{-i dt} - 1) |v><v|,

and one stepper serves both routes; they differ only in where they sample
lambda. The adiabatic route samples interval midpoints (exponential
midpoint rule, second order in dt); the kick route samples left endpoints,
which makes each step exactly a frame kick around exact free evolution,
F exp(-i H0 dt) F† with H0 = |n+1><n+1|. The code subspace sits at
eigenvalue 0 at every chart point, so no dynamical phase accrues on the code
and the extracted transport matrix can be compared to a loop holonomy
directly.

The steps act only on the live levels: those whose theta is nonzero at
some vertex of the loop, plus level n+1. A level whose theta stays 0 has
v_j = 0 and cos(theta_j) = 1 at every sample, so every step leaves it
exactly as the identity; only the live theta/phi columns are sampled, and
the product is formed at dimension |live| + 1 and embedded in the
(n+1) x (n+1) identity. Outputs match stepping all levels up to roundoff,
from sums over fewer terms. A loop with no live level (phis moving at
theta = 0) gives diag(1, ..., 1, e^{-i T}) as stepped.

Both routes sample through one helper (_excited_states), per edge
(_edge_trig). Lambda is linear in chart arclength between the loop's
vertices (_knots), so along an edge a column that does not move keeps its
vertex value; one searchsorted of the knots gives each edge its run of
nodes, and cos and sin of a live theta or phi are evaluated only on the
runs of the edges that move it, at the value linear interpolation between
the knots gives. Every other node repeats the vertex's cos and sin. The
excited states are then assembled level by level from these values
(chart.excited_state_from_trig). A gate program's composite loop moves one
coordinate per edge, so its nodes pay two trig evaluations each instead of
four per live level.

The stepper (linalg.rank1_product) applies the steps in place,
x <- x + (e^{-i dt} - 1) v (v† x), to chunks of consecutive steps
at once (linalg.rank1_chunk sets their length from the step count): O(d^2)
per step, and no d x d factor is formed.
The chunk products are then multiplied in time order. Step and interval
counts above MAX_STEPS are input errors, raised before any sampling; this
includes the count that adiabatic_transport raises to keep dt <= MAX_EPS_DT.

Transport extraction is frame-based: columns are the propagated code frame
vectors of the loop's base point, overlapped against the same base frame.
For loops based at the chart origin the base frame is the identity and the
overlaps reduce to plain computational-basis amplitudes.

Both oracles take a loop and plain arguments; a gate program reaches them
as its composite loop (gates.program_schedule). Neither calls the loop
integrator: comparing a transport with the holonomy is the caller's step
(cli.cmd_verify), so the two routes stay independent.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .chart import excited_state_from_trig, frame_unitary
from .holonomy import UnitaryMatrix
from .loops import LoopPath

MAX_EPS_DT = 0.05  # stepper resolution rule: dt <= this, in units of 1/epsilon0
MAX_STEPS = 2 ** 22  # most steps or kick intervals one propagation may take
LEAKAGE_BOUND = 1e-2  # leakage above this flags a transport as non-adiabatic


def smoothstep(x):
    """Monotone ramp with zero endpoint velocity: 3x^2 - 2x^3 on [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return 3.0 * x**2 - 2.0 * x**3


def _check_time_and_count(total_time: float, count: float, name: str):
    if not (np.isfinite(total_time) and total_time > 0):
        raise ValueError(f"total time must be finite and positive, got {total_time!r}")
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count!r}")
    if count > MAX_STEPS:
        raise ValueError(f"{name} must be <= {MAX_STEPS}, got {count!r}")


def _knots(loop: LoopPath, cols=slice(None)):
    """Knots of s in [0, 1], proportional to chart arclength, and the angles there.

    Returns (knots, thetas, phis): the theta/phi columns picked by cols at
    the vertex of each knot. The arclength counts every coordinate, and
    zero-length edges are dropped. A degenerate loop has the one knot 0, at
    its first vertex, whose value holds everywhere.
    """
    th, ph = loop.thetas, loop.phis
    seg = np.sqrt(np.sum(np.diff(th, axis=0) ** 2, axis=1)
                  + np.sum(np.diff(ph, axis=0) ** 2, axis=1))
    keep = seg > 0
    idx = np.concatenate([[0], np.nonzero(keep)[0] + 1])
    knots = np.concatenate([[0.0], np.cumsum(seg[keep])])
    if knots.size > 1:
        knots /= knots[-1]
    return knots, th[idx][:, cols], ph[idx][:, cols]


def _edge_trig(knots: np.ndarray, values: np.ndarray, s: np.ndarray):
    """cos and sin of np.interp(s, knots, col) for each column of values, bit for bit.

    values holds one row per knot; s is sorted. Returns column(c), which
    gives the cos and sin of column c at every sample, one column at a time
    so that only a few vectors of len(s) are alive at once.

    One searchsorted of the knots cuts s into runs: the samples before the
    first knot, then for each knot those from it up to the next knot (a
    repeated knot keeps none; past the last knot, all the rest). Where a
    column does not move along an edge, linear interpolation's
    slope * (s - knot) + value is the vertex value, so the run repeats the
    vertex's cos and sin; so do the runs outside the knots, which hold the
    end values. Only where a column moves are cos and sin evaluated, at each
    sample, on that formula's value. A -0.0 vertex is the one value the
    formula changes (+0.0 off the knot, -0.0 on it), so a column with one
    goes through np.interp itself.
    """
    first = np.searchsorted(s, knots)
    lengths = np.diff(first, prepend=0, append=s.size)
    table = np.concatenate([values[:1], values]).T  # columns x runs
    cos_table, sin_table = np.cos(table), np.sin(table)
    # the (column, edge) pairs where the column moves, column by column
    col, edge = np.nonzero(np.diff(values, axis=0).T != 0)
    count = lengths[edge + 1]
    col, edge, count = col[count > 0], edge[count > 0], count[count > 0]
    ends = np.cumsum(count)
    bounds = np.append(0, ends)[np.searchsorted(col, np.arange(values.shape[1] + 1))]
    rows = np.repeat(first[edge] - (ends - count), count) + np.arange(bounds[-1])
    slope = (values[edge + 1, col] - values[edge, col]) / (knots[edge + 1] - knots[edge])
    x = (np.repeat(slope, count) * (s[rows] - np.repeat(knots[edge], count))
         + np.repeat(values[edge, col], count))
    signed_zero = np.any(np.signbit(values) & (values == 0.0), axis=0)

    def column(c):
        moving = slice(bounds[c], bounds[c + 1])
        if signed_zero[c]:
            angle = np.interp(s, knots, values[:, c])
            return np.cos(angle), np.sin(angle)
        cos, sin = np.repeat(cos_table[c], lengths), np.repeat(sin_table[c], lengths)
        cos[rows[moving]] = np.cos(x[moving])
        sin[rows[moving]] = np.sin(x[moving])
        return cos, sin

    return column


def _live_levels(thetas: np.ndarray) -> np.ndarray:
    """Levels (0-based, below n+1) whose theta is nonzero in some row of thetas.

    A level whose theta stays 0 has v_j = 0 and cos(theta_j) = 1 at every
    sample, so every rank-1 step acts on it as the exact identity.
    """
    return np.flatnonzero(np.any(thetas != 0.0, axis=0))


def _excited_states(loop: LoopPath, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The live levels of the loop and v, one row per node of s in [0, 1].

    The live angles are sampled per edge (_edge_trig), so a node pays trig
    only for the coordinates its edge moves; linear interpolation keeps a
    zero theta column zero, so the loop's vertices decide the live levels.
    """
    live = _live_levels(loop.thetas)
    knots, th, ph = _knots(loop, live)
    column = _edge_trig(knots, np.concatenate([th, ph], axis=1), nodes)
    k = live.size
    return live, excited_state_from_trig(k, nodes.shape,
                                         lambda j: (*column(j), *column(k + j)))


def _rank1_product(n: int, live: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """Ordered product of exp(-i H dt) = I + (e^{-i dt} - 1) |v><v| over the rows of v.

    v holds the excited states on the live levels and level n+1, one row per
    step, later left. The steps act at dimension len(live) + 1; the block is
    embedded in the (n+1) x (n+1) identity. With no live level it is the
    1 x 1 product (1 + a)^M on level n+1.
    """
    block = linalg.rank1_product(np.exp(-1j * dt) - 1.0, v)
    levels = np.append(live, n)
    u = np.eye(n + 1, dtype=complex)
    u[np.ix_(levels, levels)] = block
    return u


def propagate_frames(loop: LoopPath, total_time: float, steps: int) -> np.ndarray:
    """Full (n+1)-dim propagator for one smoothstep-ramped traversal of the loop.

    Exponential midpoint rule: U = prod exp(-i H(lambda(s(t_mid))) dt), later
    factors left, with nodes smoothstep((k + 1/2)/steps); each factor is an
    exact rank-1 step.
    """
    _check_time_and_count(total_time, steps, "steps")
    live, v = _excited_states(loop, smoothstep((np.arange(steps) + 0.5) / steps))
    return _rank1_product(loop.n, live, v, total_time / steps)


@dataclass
class TransportDiagnostics:
    leakage: np.ndarray  # per initial code vector
    unitarity_defect: float
    total_time: float
    steps: int

    def to_json_dict(self) -> dict:
        return {
            "leakage": [float(x) for x in self.leakage],
            "unitarity_defect": float(self.unitarity_defect),
            "T": float(self.total_time),
            "steps": int(self.steps),
        }


def adiabatic_transport(loop: LoopPath, total_time: float,
                        steps: int = 1000) -> tuple[UnitaryMatrix, TransportDiagnostics]:
    """Schrodinger-propagate the code frame around the loop in total_time and
    extract the geometric transformation.

    Column alpha of the result is the base-frame expansion of the propagated
    alpha-th code vector; leakage per column is the weight lost to the
    excited level. Leakage above LEAKAGE_BOUND warns of a non-adiabatic run
    (reported, not fatal). The step count is raised if needed so that
    dt <= MAX_EPS_DT. A bad time, a count below 1 and a count (requested or
    raised) above MAX_STEPS are ValueErrors.
    """
    _check_time_and_count(total_time, steps, "steps")
    # a float count, so that a huge T fails the check below instead of int()
    steps = max(steps, float(np.ceil(total_time / MAX_EPS_DT)))
    _check_time_and_count(total_time, steps, "steps")
    steps = int(steps)
    u_full = propagate_frames(loop, total_time, steps)
    code = frame_unitary(loop.base_point)[:, : loop.n]
    m = code.conj().T @ u_full @ code
    leakage = 1.0 - np.sum(np.abs(m) ** 2, axis=0)
    defect = linalg.unitarity_defect(m)
    if np.any(leakage > LEAKAGE_BOUND):
        # one text for every call (the values are in the diagnostics), so a
        # repeated call adds nothing to the caller's warning registry
        warnings.warn(f"leakage exceeds {LEAKAGE_BOUND:.0e}: run may be non-adiabatic",
                      stacklevel=2)
    transport = UnitaryMatrix(loop.n, linalg.polar_project(m), defect)
    return transport, TransportDiagnostics(leakage, defect, total_time, steps)


# ---------- kick scheme ----------

def kick_evolution(loop: LoopPath, total_time: float, intervals: int) -> np.ndarray:
    """Kick-scheme propagator: N = intervals kicks of dt = total_time / N, later left.

    Interval k evolves in the frame of lambda_k, the loop at the left
    endpoint node smoothstep(k/N), k < N: each factor is
    frame(lambda_k) exp(-i H0 dt) frame(lambda_k)†, the same rank-1 step as
    propagate_frames takes at its midpoints. On a degenerate loop every kick
    cancels and the product telescopes to exp(-i H0 T) in the base frame.
    """
    _check_time_and_count(total_time, intervals, "intervals")
    live, v = _excited_states(loop, smoothstep(np.arange(intervals) / intervals))
    return _rank1_product(loop.n, live, v, total_time / intervals)
