"""The np.interp sampling route of the dynamical oracles: a test oracle for dynamics.

Both oracles step rank-1 factors of dynamics at nodes of s in [0, 1]:
left endpoints smoothstep(k/N) for kick_evolution; for propagate_frames,
on a loop without two-level edges, the start knot of each constant-H edge
and the midpoints of the equal time steps of every other edge, on the
knot-aligned grid of dynamics._grid. dynamics samples the loop per edge;
here every column is sampled at every node by np.interp on the same knots,
and v comes from the angles (chart_oracle.excited_state_batch).
"""
import numpy as np

from chart_oracle import excited_state_batch
from cpn_holonomy.dynamics import CONSTANT, PHI, THETA, _grid, _knots, smoothstep
from cpn_holonomy.linalg import fold_left, rank1_product
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

    Returns the grid and, per edge, the nodes of its steps and their dt: a
    constant-H edge is one step at its start knot over its window, any
    other edge takes the midpoints of its counts equal time steps.
    """
    g = _grid(loop, steps)
    assert not np.any((g.kind == THETA) | (g.kind == PHI)), "a two-level edge has no rank-1 steps"
    knots = _knots(loop)[0]
    window = total_time * np.diff(g.tau)
    nodes, dts = [], []
    for e, kind in enumerate(g.kind):
        if kind == CONSTANT:
            nodes.append(knots[e:e + 1])
            dts.append(window[e:e + 1])
        else:
            m = g.counts[e]
            h = np.diff(g.tau)[e] / m
            nodes.append(smoothstep(g.tau[e] + (np.arange(m) + 0.5) * h))
            dts.append(np.full(m, window[e] / m))
    return g, nodes, dts


def interp_grid_propagator(loop: LoopPath, total_time: float, steps: int) -> np.ndarray:
    """propagate_frames on a loop without two-level edges, from np.interp samples.

    Each constant-H edge is its own factor I + (e^{-i w} - 1)|v><v|, each
    run of consecutive rank-1 edges one rank1_product; the factors multiply
    in time order.
    """
    g, nodes, _ = grid_steps(loop, total_time, steps)
    lam = arclength_interpolator(loop, g.live)
    window = total_time * np.diff(g.tau)
    d = g.live.size + 1
    factors, run = [], []
    for e, kind in enumerate(g.kind):
        v = excited_state_batch(*lam(nodes[e]))
        if kind == CONSTANT:
            factors.append(np.eye(d) + (np.exp(-1j * window[e:e + 1]) - 1.0)[:, None, None]
                           * v[:, :, None] * v.conj()[:, None, :])
            continue
        run.append((np.repeat(np.exp(-1j * window[e:e + 1] / g.counts[e]) - 1.0, g.counts[e]), v))
        if e + 1 == g.kind.size or g.kind[e + 1] == CONSTANT:
            factors.append(rank1_product(np.concatenate([a for a, _ in run]),
                                         np.concatenate([v for _, v in run]))[None])
            run = []
    return embed(loop.n, g.live, fold_left(np.concatenate(factors)))


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
    node.
    """
    if live is None:
        live = np.flatnonzero(np.any(arclength_interpolator(loop)(nodes)[0] != 0.0, axis=0))
    v = excited_state_batch(*arclength_interpolator(loop, live)(nodes))
    a = np.full(len(nodes), np.exp(-1j * total_time / len(nodes)) - 1.0)
    return embed(loop.n, live, rank1_product(a, v))
