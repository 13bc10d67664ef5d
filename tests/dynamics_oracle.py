"""The np.interp sampling route of the dynamical oracles: a test oracle for dynamics.

Both oracles step the rank-1 factors of dynamics at nodes of s in [0, 1]:
midpoints smoothstep((k + 1/2)/M) for propagate_frames, left endpoints
smoothstep(k/N) for kick_evolution. dynamics samples the loop per edge;
here every column is sampled at every node by np.interp on the same knots,
and v comes from the angles (chart_oracle.excited_state_batch).
"""
import numpy as np

from chart_oracle import excited_state_batch
from cpn_holonomy.dynamics import _knots, smoothstep
from cpn_holonomy.linalg import rank1_product
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
    return smoothstep((np.arange(steps) + 0.5) / steps)


def kick_nodes(intervals: int) -> np.ndarray:
    return smoothstep(np.arange(intervals) / intervals)


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
    dt = total_time / len(nodes)
    block = rank1_product(np.exp(-1j * dt) - 1.0, v)
    levels = np.append(live, loop.n)
    u = np.eye(loop.n + 1, dtype=complex)
    u[np.ix_(levels, levels)] = block
    return u
