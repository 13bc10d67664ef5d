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
knots, with the first and last pinned to exactly 0 and 1. Each edge takes
one of two step routes, by its kind:

- rank-1: every edge but the two-level ones takes exact rank-1 steps at
  the midpoints of its equal time steps: the exponential midpoint rule,
  second order in dt, on an oblique edge or a theta edge below a nonzero
  lower theta. An edge along which |v><v| stays constant (a phi edge at
  theta = 0, or at theta = pi/2 below lower thetas 0, and edges that move
  only dead columns) is a run of one step over its window, which is exact.
- two-level: it moves one theta_a or phi_a with every lower theta exactly
  0, so v stays in a fixed two-dimensional span and H turns rigidly there.
  It is stepped in the co-rotating frame, where the generator is constant
  but for the scalar speed of the ramp: closed-form 2 x 2 exponentials
  (linalg.su2_exp, the loop integrator's k = 2 form), multiplied as SU(2)
  pairs and embedded as I + Q (U2 - I) Q†
  (_two_level_factors). Every edge that moves H in a gate program's loop
  is of this kind.

The moving edges share the step budget in proportion to their windows, each
at least ceil(window steps / T), so dt <= T / steps wherever H moves; the
constant edges take one step each. adiabatic_transport raises the budget to
T / MAX_EPS_DT, so that rule binds only where H moves. One factor per
two-level edge, and one per chunk of a rank-1 edge's steps, is then
multiplied in time order; each route puts its factors in their places by
np.repeat of its edge mask over the factors per edge.
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

Rank-1 steps, a constant-H edge's one step included, are sampled through
one helper (_states_at): each live theta or phi column is np.interp of the
nodes on the knots, except that a column that holds one value over the
whole loop is passed as that value, whose cos and sin are taken once. The
excited states are then assembled level by level from these angles
(chart.excited_state_from_angles). The nodes come in the batch-last layout
of linalg.run_layout, the one the two-level steps take too: in chunks of
one edge each (_steps), or of the one run of kicks. So v is sampled in
place, and a padding slot takes a zero coefficient, an exact identity
step. linalg.rank1_product applies the steps of every chunk at once, in
place, x <- x + a_j v_j (v_j† x): O(d^2) per step, and no d x d factor is
formed. Step and interval counts above MAX_STEPS are input errors, raised
before any sampling; this includes the count that adiabatic_transport
raises to keep dt <= MAX_EPS_DT. So is a step T / count of PHASE_DT_LIMIT
or longer, whose phase e^{-i dt} has no correct digit.

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
from .chart import excited_state_from_angles, frame_unitary
from .holonomy import UnitaryMatrix
from .loops import LoopPath, as_int

MAX_EPS_DT = 0.05  # stepper resolution rule: dt <= this, in units of 1/epsilon0
MAX_STEPS = 2 ** 22  # most steps or kick intervals one propagation may take
# steps this long have a phase e^{-i dt} with no correct digit: rounding dt =
# T / N alone moves it by up to 0.125 rad in [2^50, 2^51), 0.062 just below
PHASE_DT_LIMIT = 2.0 ** 50
LEAKAGE_BOUND = 1e-2  # leakage above this flags a transport as non-adiabatic
STILL_FS = 1e-15  # a single-coordinate edge this short in Fubini-Study length keeps H constant


def smoothstep(x):
    """Monotone ramp with zero endpoint velocity: 3x^2 - 2x^3 on [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return 3.0 * x**2 - 2.0 * x**3


def _check_count(count: float, name: str) -> int:
    """The count as an int: at least 1, at most MAX_STEPS and integral, or a ValueError naming it.

    Integral floats and numpy integers pass, booleans and NaN do not.
    Integrality is checked last, so that an infinite count reads as too large.
    """
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count!r}")
    if count > MAX_STEPS:
        raise ValueError(f"{name} must be <= {MAX_STEPS}, got {count!r}")
    return as_int(count, name)


def _check_time_and_count(total_time: float, count: float, name: str) -> int:
    """The count as an int, once it, the time and the step they make are valid.

    The time must be finite and positive, the count pass _check_count, and
    the step total_time / count be shorter than PHASE_DT_LIMIT. Each is a
    ValueError naming what failed.
    """
    if not (np.isfinite(total_time) and total_time > 0):
        raise ValueError(f"total time must be finite and positive, got {total_time!r}")
    count = _check_count(count, name)
    if total_time / count >= PHASE_DT_LIMIT:
        raise ValueError(f"{name}: a step of length {total_time / count!r} is at or above "
                         f"{PHASE_DT_LIMIT:.6g}, where its phase e^(-i dt) has no correct digit")
    return count


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


def _live_levels(thetas: np.ndarray) -> np.ndarray:
    """Levels (0-based, below n+1) whose theta is nonzero in some row of thetas.

    A level whose theta stays 0 has v_j = 0 and cos(theta_j) = 1 at every
    sample, so every rank-1 step acts on it as the exact identity.
    """
    return np.flatnonzero(np.any(thetas != 0.0, axis=0))


def _excited_states(loop: LoopPath, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The live levels of the loop and v, one row per node of s in [0, 1].

    Each live angle column is np.interp of the nodes on the knots, but one
    with the same value at every vertex and no sign bit set is passed as
    that value, which np.interp returns at every node (from a -0.0 vertex
    it gives +0.0 between knots). Linear interpolation keeps a zero theta
    column zero, so the loop's vertices decide the live levels.
    """
    live = _live_levels(loop.thetas)
    return live, _states_at(*_knots(loop, live), nodes)


def _states_at(knots: np.ndarray, th: np.ndarray, ph: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """v at the nodes, from the knots and the live columns there (see _excited_states)."""
    values = np.concatenate([th, ph], axis=1)
    held = np.all(values == values[0], axis=0) & ~np.any(np.signbit(values), axis=0)

    def sample(c):
        return values[0, c] if held[c] else np.interp(nodes, knots, values[:, c])

    k = th.shape[1]
    return excited_state_from_angles(k, nodes.shape, lambda j: (sample(j), sample(k + j)))


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


def _grid(loop: LoopPath, steps: int) -> _Grid:
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


def _steps(g: _Grid, edges: np.ndarray):
    """The steps of the given edges in the layout of linalg.run_layout, in chunks of one edge each.

    Returns chunks and owner (see run_layout), the padding mask, and for
    each slot the step length h of its edge and the midpoint of its step,
    tau_e + (j + 1/2) h, both as fractions of T.
    """
    m = g.counts[edges]
    chunks, owner, pos = linalg.run_layout(m)
    h = (np.diff(g.tau)[edges] / m)[owner]
    return chunks, owner, pos >= m[owner], h, g.tau[edges][owner] + (pos + 0.5) * h


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
    times the product (linalg.su2_matrix): the phases add up to that on
    either kind of edge.
    """
    lvl = g.level[edges]
    on_theta = g.kind[edges] == THETA
    rows = np.arange(edges.size)
    theta0, phi0 = g.thetas[edges, lvl], g.phis[edges, lvl]
    move = np.where(on_theta, g.thetas[edges + 1, lvl] - theta0, g.phis[edges + 1, lvl] - phi0)
    jy, jz = np.where(on_theta, -1.0, 0.0), np.where(on_theta, 0.0, -0.5)  # J = jy sy + jz sz, + I/2 on phi
    chunks, owner, pad, h, mid = _steps(g, edges)
    # the ramp's move over a step, smoothstep(mid + h/2) - smoothstep(mid - h/2)
    # = h (6 mid (1 - mid) - h^2 / 2) without cancellation, as a share of the edge's
    q = np.where(pad, 0.0, 6.0 * mid * (1.0 - mid) - 0.5 * h * h)
    dx = q * (move / np.add.reduceat(q.sum(axis=0), np.cumsum(chunks) - chunks))[owner]
    half_dt = np.where(pad, 0.0, (window[edges] / (2.0 * g.counts[edges]))[owner])
    alpha, beta = linalg.su2_exp(half_dt * np.sin(2.0 * theta0)[owner], dx * jy[owner],
                                 half_dt * np.cos(2.0 * theta0)[owner] + dx * jz[owner])
    x, y = linalg.su2_runs_product(alpha, beta, chunks)
    fa, fb = linalg.su2_exp(np.zeros(edges.size), -move * jy, -move * jz)  # e^{i X J}, phase apart
    u2 = linalg.su2_matrix(*linalg.su2_mul(fa, fb, x, y), np.exp(-0.5j * window[edges])) - np.eye(2)
    k = g.live.size
    th, ph = g.thetas[edges].copy(), g.phis[edges]
    th[rows, lvl] = 0.0
    basis = np.zeros((edges.size, k + 1, 2), dtype=complex)
    basis[:, :, 0] = excited_state_from_angles(k, (edges.size,), lambda j: (th[:, j], ph[:, j]))
    basis[rows, lvl, 1] = np.exp(1j * phi0)
    return np.eye(k + 1) + basis @ u2 @ basis.conj().transpose(0, 2, 1)


def propagate_frames(loop: LoopPath, total_time: float, steps: int) -> np.ndarray:
    """Full (n+1)-dim propagator for one smoothstep-ramped traversal of the loop.

    On the knot-aligned grid of _grid with a budget of steps: co-rotating
    steps on two-level edges, and rank-1 midpoint steps on the rest, one
    step on each constant-H edge. One factor per two-level edge, and one
    per chunk of a rank-1 edge's steps, is then multiplied in time order,
    later left.
    """
    return _propagate(loop, total_time, steps)[0]


def _propagate(loop: LoopPath, total_time: float, steps: int) -> tuple[np.ndarray, int]:
    """propagate_frames, and the number of steps its grid takes."""
    steps = _check_time_and_count(total_time, steps, "steps")
    g = _grid(loop, steps)
    k = g.live.size
    window = total_time * np.diff(g.tau)
    two = (g.kind == THETA) | (g.kind == PHI)
    edges = np.flatnonzero(~two)  # rank-1 runs; a constant-H edge's is one step
    size = np.ones(g.kind.size, dtype=np.int64)  # factors per edge
    if edges.size:
        chunks, owner, pad, _, mid = _steps(g, edges)
        size[edges] = chunks
    factors = np.empty((np.sum(size), k + 1, k + 1), dtype=complex)
    if edges.size:
        v = _states_at(g.knots, g.thetas, g.phis, smoothstep(mid))
        a = np.where(pad, 0.0, (np.exp(-1j * window[edges] / g.counts[edges]) - 1.0)[owner])
        factors[np.repeat(~two, size)] = linalg.rank1_product(a, v)
    if np.any(two):
        factors[np.repeat(two, size)] = _two_level_factors(g, np.flatnonzero(two), window)
    return _embed(loop.n, g.live, linalg.fold_left(factors)), int(np.sum(g.counts))


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
    grid takes. A bad time, a count that is not an integer or is below 1,
    and a count (requested or raised) above MAX_STEPS are ValueErrors.
    """
    # the time and the raised count are checked where the propagation starts;
    # its steps are at most MAX_EPS_DT long, far below PHASE_DT_LIMIT
    steps = _check_count(steps, "steps")
    raised = float(np.ceil(total_time / MAX_EPS_DT))  # a float: a huge T fails the check, not int()
    u_full, steps = _propagate(loop, total_time, max(steps, raised))
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
    intervals = _check_time_and_count(total_time, intervals, "intervals")
    _, _, pos = linalg.run_layout(np.array([intervals]))
    live, v = _excited_states(loop, smoothstep(pos / intervals))
    a = np.where(pos < intervals, np.exp(-1j * total_time / intervals) - 1.0, 0.0)
    return _embed(loop.n, live, linalg.fold_left(linalg.rank1_product(a, v)))
