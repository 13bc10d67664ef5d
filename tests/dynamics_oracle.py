"""The np.interp sampling route of the dynamical oracles: a test oracle for dynamics.

Both oracles step rank-1 factors of dynamics at nodes of s in [0, 1]:
left endpoints smoothstep(k/N) for kick_evolution; for propagate_frames,
on a loop without two-level edges, the midpoints of the equal time steps
of every edge (one step on a constant-H edge), on the knot-aligned grid of
dynamics._grid. dynamics passes a column that holds
one value over the loop as that value; here every column is sampled at
every node by np.interp on the same knots, and v comes from the angles
(chart_oracle.excited_state_batch). The nodes are laid out as dynamics lays
out its steps (linalg.run_layout, padding included), so that both feed
linalg.rank1_product the same chunks.
"""
import numpy as np

from chart_oracle import excited_state_batch
from cpn_holonomy.dynamics import PHI, THETA, _grid, _knots, smoothstep
from cpn_holonomy.linalg import fold_left, rank1_product, run_layout
from cpn_holonomy.loops import LoopPath


def arclength_interpolator(loop: LoopPath, cols=slice(None)):
    """Piecewise-linear lambda(s) on dynamics._knots, by np.interp; s in [0, 1].

    Only the theta/phi columns picked by cols are interpolated.
    """
    knots, thk, phk = _knots(loop, cols)

    def interp(s, values):  # np.interp holds the end values outside [0, 1]
        out = np.empty(s.shape + values.shape[1:])
        for j, col in enumerate(values.T):
            out[..., j] = np.interp(s, knots, col)
        return out

    def lam(s):
        s = np.atleast_1d(s)
        return interp(s, thk), interp(s, phk)

    return lam


def midpoint_nodes(steps: int) -> np.ndarray:
    """Midpoints of a uniform grid: the exponential midpoint rule without knot alignment."""
    return smoothstep((np.arange(steps) + 0.5) / steps)


def kick_nodes(intervals: int) -> np.ndarray:
    return smoothstep(np.arange(intervals) / intervals)


def grid_steps(loop: LoopPath, total_time: float, steps: int):
    """The steps of propagate_frames on a loop without two-level edges, edge by edge.

    Returns the grid and, per edge, the nodes of its steps and their dt:
    every edge, a constant-H edge as one step over its window, takes the
    midpoints of its counts equal time steps.
    """
    g = _grid(loop, steps)
    assert not np.any((g.kind == THETA) | (g.kind == PHI)), "a two-level edge has no rank-1 steps"
    window = total_time * np.diff(g.tau)
    nodes, dts = [], []
    for e, m in enumerate(g.counts):
        h = np.diff(g.tau)[e] / m
        nodes.append(smoothstep(g.tau[e] + (np.arange(m) + 0.5) * h))
        dts.append(np.full(m, window[e] / m))
    return g, nodes, dts


def interp_grid_propagator(loop: LoopPath, total_time: float, steps: int) -> np.ndarray:
    """propagate_frames on a loop without two-level edges, from np.interp samples.

    The steps of every edge, at the midpoints tau_e + (j + 1/2) h_e laid
    out in chunks of one edge each, give one rank1_product factor per
    chunk; the factors multiply in time order.
    """
    g = grid_steps(loop, total_time, steps)[0]
    m = g.counts
    _, owner, pos = run_layout(m)
    h = np.diff(g.tau) / m
    lam = arclength_interpolator(loop, g.live)
    v = excited_state_batch(*lam(smoothstep(g.tau[owner] + (pos + 0.5) * h[owner])))
    a = np.where(pos < m[owner], (np.exp(-1j * total_time * np.diff(g.tau) / m) - 1.0)[owner], 0.0)
    return embed(loop.n, g.live, fold_left(rank1_product(a, v)))


def embed(n: int, live: np.ndarray, block: np.ndarray) -> np.ndarray:
    levels = np.append(live, n)
    u = np.eye(n + 1, dtype=complex)
    u[np.ix_(levels, levels)] = block
    return u


def interp_propagator(loop: LoopPath, total_time: float, nodes: np.ndarray,
                      live: np.ndarray | None = None) -> np.ndarray:
    """Ordered product of the rank-1 steps at the nodes, each of dt = total_time / len(nodes).

    The steps act on the levels in live and level n+1, embedded in the
    identity; live defaults to the levels whose theta is nonzero at some
    node. The nodes are laid out as one run; the padding takes the node
    s = 1, as kick_evolution's smoothstep(pos / N) does, and a zero
    coefficient.
    """
    if live is None:
        live = np.flatnonzero(np.any(arclength_interpolator(loop)(nodes)[0] != 0.0, axis=0))
    m = len(nodes)
    _, _, pos = run_layout(np.array([m]))
    s = np.where(pos < m, nodes[np.minimum(pos, m - 1)], 1.0)
    v = excited_state_batch(*arclength_interpolator(loop, live)(s))
    a = np.where(pos < m, np.exp(-1j * total_time / m) - 1.0, 0.0)
    return embed(loop.n, live, fold_left(rank1_product(a, v)))


def rank1_steps(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ordered product of the steps I + a_j |v_j><v_j|, later left, for a of shape (M,)
    and v of shape (M, d): rank1_product on them laid out as one run, with zero
    coefficients as padding, and fold_left of its chunk products."""
    m = len(a)
    _, _, pos = run_layout(np.array([m]))
    at = np.minimum(pos, m - 1)
    return fold_left(rank1_product(np.where(pos < m, a[at], 0.0), v[at]))
