"""Dynamical verification: adiabatic Schrodinger transport and the pulse-kick scheme.

Both verifiers integrate actual time evolution under H(lambda(t)) and are
independent of the connection/holonomy code paths: they read only chart
frames and the excited state v. Time is in units of 1/epsilon0, so
H = |v><v|, and a step of length dt with H frozen at one chart point is the
exact rank-1 update

    exp(-i H dt) = I + (e^{-i dt} - 1) |v><v|.

The kick route takes N such steps of dt = T/N at the left endpoints
smoothstep(k/N): each is exactly a frame kick around exact free evolution,
F exp(-i H0 dt) F† with H0 = |n+1><n+1|. The adiabatic route
(propagate_frames) runs on a knot-aligned grid (_grid). Lambda is linear in
chart arclength between the loop's vertices (_knots) and the arclength
follows smoothstep in time, so edge e runs over the window
T [tau_e, tau_{e+1}], tau the closed-form inverse of smoothstep at the
knots, with the first and last pinned to exactly 0 and 1. Each edge is of
one of three kinds:

- constant H: |v><v| does not move along it (a phi edge at theta = 0, or
  at theta = pi/2 below lower thetas 0, and edges that move only dead
  columns). One exact rank-1 step covers its window.
- two-level: it moves one theta_a or phi_a with every lower theta exactly
  0, so v stays in a fixed two-dimensional span and H turns rigidly there.
  It is stepped in the co-rotating frame, where the generator is constant
  but for the scalar speed of the ramp: closed-form 2 x 2 exponentials,
  multiplied as SU(2) pairs and embedded as I + Q (U2 - I) Q†
  (_two_level_factors). Every edge that moves H in a gate program's loop
  is of this kind.
- rank-1: every other edge (oblique, or a theta edge below a nonzero lower
  theta) takes exact rank-1 steps at the midpoints of its equal time steps:
  the exponential midpoint rule, second order in dt.

The moving edges share the step budget in proportion to their windows, each
at least ceil(window steps / T), so dt <= T / steps wherever H moves; the
constant edges take one step each. adiabatic_transport raises the budget to
T / MAX_EPS_DT, so that rule binds only where H moves. One factor per edge,
or per run of consecutive rank-1 edges, is then multiplied in time order.
The code subspace sits at eigenvalue 0 at every chart point, so no
dynamical phase accrues on the code and the extracted transport matrix can
be compared to a loop holonomy directly.

The steps act only on the live levels: those whose theta is nonzero at
some vertex of the loop, plus level n+1. A level whose theta stays 0 has
v_j = 0 and cos(theta_j) = 1 at every sample, so every step leaves it
exactly as the identity; only the live theta/phi columns are sampled, and
the product is formed at dimension |live| + 1 and embedded in the
(n+1) x (n+1) identity. A loop with no live level (phis moving at
theta = 0) gives diag(1, ..., 1, e^{-i T}).

Rank-1 steps are sampled through one helper (_excited_states), per edge
(_edge_trig): along an edge a column that does not move keeps its vertex
value; one searchsorted of the knots gives each edge its run of nodes, and
cos and sin of a live theta or phi are evaluated only on the runs of the
edges that move it, at the value linear interpolation between the knots
gives. The excited states are then assembled level by level from these
values (chart.excited_state_from_trig). linalg.rank1_product applies the
steps in place, x <- x + a_j v_j (v_j† x), to chunks of consecutive steps
at once (linalg.rank1_chunk sets their length from the step count): O(d^2)
per step, and no d x d factor is formed. Step and interval counts above
MAX_STEPS are input errors, raised before any sampling; this includes the
count that adiabatic_transport raises to keep dt <= MAX_EPS_DT.

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
STILL_FS = 1e-15  # a single-coordinate edge this short in Fubini-Study length keeps H constant


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
    return live, _states_at(*_knots(loop, live), nodes)


def _states_at(knots: np.ndarray, th: np.ndarray, ph: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """v at the nodes, from the knots and the live columns there (see _excited_states)."""
    column = _edge_trig(knots, np.concatenate([th, ph], axis=1), nodes)
    k = th.shape[1]
    return excited_state_from_trig(k, nodes.shape, lambda j: (*column(j), *column(k + j)))


def _embed(n: int, live: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The block on the live levels and level n+1, embedded in the (n+1) x (n+1) identity."""
    levels = np.append(live, n)
    u = np.eye(n + 1, dtype=complex)
    u[np.ix_(levels, levels)] = block
    return u


def _ramp_inverse(y: np.ndarray) -> np.ndarray:
    """The time fraction at which smoothstep reaches y, in closed form; 0 and 1 pinned."""
    tau = 0.5 - np.sin(np.arcsin(1.0 - 2.0 * y) / 3.0)
    tau[0], tau[-1] = 0.0, 1.0
    return tau


CONSTANT, THETA, PHI, RANK1 = range(4)  # edge kinds of a propagation grid


@dataclass(frozen=True)
class _Grid:
    """The knot-aligned time grid of one propagation, edge by edge.

    knots are those of _knots, tau the knot times as fractions of T (0 and
    1 exactly at the ends), thetas and phis the live columns at each knot.
    Per edge: kind, the live index of the moved coordinate (two-level
    edges), and counts, the steps it takes.
    """

    live: np.ndarray
    knots: np.ndarray
    tau: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    kind: np.ndarray
    level: np.ndarray
    counts: np.ndarray


_last_grid = None  # (loop, steps, grid) of the latest _grid call


def _grid(loop: LoopPath, steps: int) -> _Grid:
    """_new_grid(loop, steps), kept for the next call with the same arguments.

    adiabatic_transport reports the step count of the grid that
    propagate_frames has just built; a LoopPath is immutable, so the same
    object and budget give the same grid.
    """
    global _last_grid
    last = _last_grid
    if last is not None and last[0] is loop and last[1] == steps:
        return last[2]
    grid = _new_grid(loop, steps)
    _last_grid = (loop, steps, grid)
    return grid


def _new_grid(loop: LoopPath, steps: int) -> _Grid:
    """Edge kinds and step counts for propagating the loop with a budget of steps.

    An edge whose live columns do not move, or that moves one whose
    Fubini-Study length is at most STILL_FS, leaves |v><v| constant: one
    exact step. Along an edge that moves theta_a alone, v moves at
    P_a |dtheta_a|, with P_a the product of cos(theta_k), k < a; along a
    phi_a edge at beta sqrt(1 - beta^2) |dphi_a|, beta = sin(theta_a) P_a.
    A moving single-coordinate edge with every lower theta exactly 0 is a
    two-level edge (THETA or PHI); every other moving edge is RANK1. The
    moving edges share steps - (constant edges) in proportion to their
    windows, each at least ceil(window steps / T), so that dt <= T / steps
    wherever H moves; if those minimums do not fit, the grid takes them and
    exceeds steps. A degenerate loop is one constant edge.
    """
    live = _live_levels(loop.thetas)
    knots, th, ph = _knots(loop, live)
    if knots.size == 1:
        knots, th, ph = np.array([0.0, 1.0]), np.repeat(th, 2, axis=0), np.repeat(ph, 2, axis=0)
    tau = _ramp_inverse(knots)
    k = live.size
    delta = np.diff(np.concatenate([th, ph], axis=1), axis=0)
    moves = delta != 0
    nmove = np.count_nonzero(moves, axis=1)
    kind = np.where(nmove == 0, CONSTANT, RANK1)
    level = np.zeros(kind.size, dtype=int)
    single = np.flatnonzero(nmove == 1)
    if single.size:
        col = np.argmax(moves[single], axis=1)
        level[single] = lvl = col % k
        rows = np.arange(single.size)
        below = np.arange(k) < lvl[:, None]
        start = th[single]
        lower = np.prod(np.where(below, np.cos(start), 1.0), axis=1)
        beta = np.sin(start[rows, lvl]) * lower
        fs = np.abs(delta[single, col]) * np.where(
            col < k, lower, beta * np.sqrt(np.maximum(1.0 - beta * beta, 0.0)))
        two = np.where(col < k, THETA, PHI)
        kind[single] = np.where(fs <= STILL_FS, CONSTANT,
                                np.where(np.any(below & (start != 0.0), axis=1), RANK1, two))
    counts = np.ones(kind.size, dtype=np.int64)
    still = kind == CONSTANT
    if np.all(still):
        return _Grid(live, knots, tau, th, ph, kind, level, counts)
    share = np.diff(tau)[~still]
    need = np.maximum(np.ceil(share * steps), 1.0)
    spare = steps - np.sum(still) - np.sum(need)
    if spare > 0:  # the spare steps, by largest remainders of the windows' shares
        quota = spare * share / np.sum(share)
        extra = np.floor(quota)
        extra[np.argsort(extra - quota, kind="stable")[: int(spare - np.sum(extra))]] += 1.0
        need += extra
    counts[~still] = need
    return _Grid(live, knots, tau, th, ph, kind, level, counts)


def _vertex_states(k: int, th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """v on the live levels and level n+1 at each row of the live angle tables."""
    return excited_state_from_trig(k, th.shape[:1], lambda j: (np.cos(th[:, j]), np.sin(th[:, j]),
                                                               np.cos(ph[:, j]), np.sin(ph[:, j])))


def _two_level_factors(g: _Grid, edges: np.ndarray, window: np.ndarray) -> np.ndarray:
    """The propagators of two-level edges, each embedded as I + Q (U2 - I) Q†.

    On an edge that moves theta_a or phi_a with every lower theta 0,
    v = cos(theta_a) c + sin(theta_a) s, with c the state at the edge's
    start vertex with theta_a set to 0 and s = e^{i phi_a} e_a; Q = [c, s].
    There H = Q h Q† turns rigidly, h(x) = e^{i x J} P0 e^{-i x J} in the
    move x of the coordinate from its start, with P0 = |w><w|,
    w = (cos theta_a, sin theta_a) at the start, and J = -sigma_y on a theta
    edge, |s><s| on a phi edge. In the co-rotating frame the generator is
    P0 + x'(t) J, constant but for the scalar speed, and each step is the
    closed-form exponential of P0 dt + dx_j J, dx_j the ramp's exact move
    over the step. U2 is e^{i X J} times the steps, later left, X the
    edge's move. The phase of every factor is taken out, so they multiply
    as SU(2) pairs (linalg.su2_runs_product: the steps of an edge in chunks
    of up to CHUNK pairwise, then the chunks), and U2 is e^{-i window / 2}
    times the product: the phases add up to that on either kind of edge.
    """
    m = g.counts[edges]
    lvl = g.level[edges]
    on_theta = g.kind[edges] == THETA
    rows = np.arange(edges.size)
    theta0, phi0 = g.thetas[edges, lvl], g.phis[edges, lvl]
    move = np.where(on_theta, g.thetas[edges + 1, lvl] - theta0, g.phis[edges + 1, lvl] - phi0)
    jy, jz = np.where(on_theta, -1.0, 0.0), np.where(on_theta, 0.0, -0.5)  # J = jy sy + jz sz, + I/2 on phi
    # the steps batch-last, in chunks of one edge each
    chunks, owner, pos = linalg.run_layout(m)
    valid = pos < m[owner]
    h = (np.diff(g.tau)[edges] / m)[owner]
    mid = g.tau[edges][owner] + (pos + 0.5) * h
    # the ramp's move over a step, smoothstep(mid + h/2) - smoothstep(mid - h/2)
    # = h (6 mid (1 - mid) - h^2 / 2) without cancellation, as a share of the edge's
    q = np.where(valid, 6.0 * mid * (1.0 - mid) - 0.5 * h * h, 0.0)
    dx = q * (move / np.add.reduceat(q.sum(axis=0), np.cumsum(chunks) - chunks))[owner]
    half_dt = np.where(valid, (window[edges] / (2.0 * m))[owner], 0.0)
    alpha, beta = linalg.su2_exp(half_dt * np.sin(2.0 * theta0)[owner], dx * jy[owner],
                                 half_dt * np.cos(2.0 * theta0)[owner] + dx * jz[owner])
    x, y = linalg.su2_runs_product(alpha, beta, chunks)
    fa, fb = linalg.su2_exp(np.zeros(edges.size), -move * jy, -move * jz)  # e^{i X J}, phase apart
    alpha, beta = fa * x - fb.conj() * y, fb * x + fa.conj() * y
    phase = np.exp(-0.5j * window[edges])
    u2 = np.empty((edges.size, 2, 2), dtype=complex)
    u2[:, 0, 0], u2[:, 0, 1] = phase * alpha - 1.0, -phase * beta.conj()
    u2[:, 1, 0], u2[:, 1, 1] = phase * beta, phase * alpha.conj() - 1.0
    d = g.live.size + 1
    th = g.thetas[edges].copy()
    th[rows, lvl] = 0.0
    basis = np.zeros((edges.size, d, 2), dtype=complex)
    basis[:, :, 0] = _vertex_states(g.live.size, th, g.phis[edges])
    basis[rows, lvl, 1] = np.exp(1j * phi0)
    return np.eye(d) + basis @ u2 @ basis.conj().transpose(0, 2, 1)


def propagate_frames(loop: LoopPath, total_time: float, steps: int) -> np.ndarray:
    """Full (n+1)-dim propagator for one smoothstep-ramped traversal of the loop.

    On the knot-aligned grid of _grid with a budget of steps: one exact step
    per constant-H edge, co-rotating steps on two-level edges, and rank-1
    midpoint steps on the rest. One factor per edge, or per run of
    consecutive rank-1 edges, is then multiplied in time order, later left.
    """
    _check_time_and_count(total_time, steps, "steps")
    g = _grid(loop, steps)
    k = g.live.size
    window = total_time * np.diff(g.tau)
    rank1 = g.kind == RANK1
    slot = np.cumsum(~(rank1 & np.append(False, rank1[:-1]))) - 1
    factors = np.empty((slot[-1] + 1, k + 1, k + 1), dtype=complex)
    const = np.flatnonzero(g.kind == CONSTANT)
    v = _vertex_states(k, g.thetas[const], g.phis[const])
    factors[slot[const]] = (np.eye(k + 1) + (np.exp(-1j * window[const]) - 1.0)[:, None, None]
                            * v[:, :, None] * v.conj()[:, None, :])
    two = np.flatnonzero((g.kind == THETA) | (g.kind == PHI))
    if two.size:
        factors[slot[two]] = _two_level_factors(g, two, window)
    edges = np.flatnonzero(rank1)
    if edges.size:
        m = g.counts[edges]
        # the time fraction runs linearly in the step index along each edge: midpoints by np.interp
        mid = np.flatnonzero(np.repeat(rank1, g.counts)) + 0.5
        v = _states_at(g.knots, g.thetas, g.phis,
                       smoothstep(np.interp(mid, np.append(0, np.cumsum(g.counts)), g.tau)))
        a = np.repeat(np.exp(-1j * window[edges] / m) - 1.0, m)
        # a run of consecutive rank-1 edges is one product
        ends = np.flatnonzero(np.diff(slot[edges]))
        for first, a_run, v_run in zip(edges[np.append(0, ends + 1)], np.split(a, np.cumsum(m)[ends]),
                                       np.split(v, np.cumsum(m)[ends])):
            factors[slot[first]] = linalg.rank1_product(a_run, v_run)
    return _embed(loop.n, g.live, linalg.fold_left(factors))


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
    (reported, not fatal). The step budget is raised if needed so that
    dt <= MAX_EPS_DT wherever H moves; the diagnostics report the steps the
    grid takes. A bad time, a count below 1 and a count (requested or
    raised) above MAX_STEPS are ValueErrors.
    """
    _check_time_and_count(total_time, steps, "steps")
    # a float count, so that a huge T fails the check below instead of int()
    steps = max(steps, float(np.ceil(total_time / MAX_EPS_DT)))
    _check_time_and_count(total_time, steps, "steps")
    steps = int(steps)
    u_full = propagate_frames(loop, total_time, steps)
    steps = int(np.sum(_grid(loop, steps).counts))
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
    propagate_frames takes on its rank-1 edges. On a degenerate loop every kick
    cancels and the product telescopes to exp(-i H0 T) in the base frame.
    """
    _check_time_and_count(total_time, intervals, "intervals")
    live, v = _excited_states(loop, smoothstep(np.arange(intervals) / intervals))
    a = np.full(intervals, np.exp(-1j * total_time / intervals) - 1.0)
    return _embed(loop.n, live, linalg.rank1_product(a, v))
