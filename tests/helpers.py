"""Loop builders and a dense register embedding that only the tests use."""
import numpy as np

from cpn_holonomy.chart import ControlPoint
from cpn_holonomy.loops import LoopPath, PlaneTag, loop_from_plane_vertices
from cpn_holonomy.multipartite import EmbeddedGate


def origin(n: int) -> ControlPoint:
    """The chart origin: every theta and phi zero."""
    return ControlPoint(n, np.zeros(n), np.zeros(n))


def concatenate(a: LoopPath, b: LoopPath) -> LoopPath:
    """Traverse a then b. Both must be closed at the same base point."""
    if a.n != b.n:
        raise ValueError("loops live on different charts")
    if (np.max(np.abs(a.thetas[0] - b.thetas[0])) > 1e-12
            or np.max(np.abs(a.phis[0] - b.phis[0])) > 1e-12):
        raise ValueError("base-point mismatch: loops must share their base point")
    same_plane = a.plane == b.plane and a.plane is not None
    return LoopPath(
        a.n,
        np.concatenate([a.thetas, b.thetas[1:]]),
        np.concatenate([a.phis, b.phis[1:]]),
        plane=a.plane if same_plane else None,
        family=a.family if (same_plane and a.family == b.family) else None,
    )


def reverse(loop: LoopPath) -> LoopPath:
    """Same loop traversed backwards."""
    return LoopPath(loop.n, loop.thetas[::-1], loop.phis[::-1],
                    plane=loop.plane, family=loop.family)


def circle_loop(n: int, plane: PlaneTag, center: tuple[float, float], radius: float,
                num_vertices: int = 256, clockwise: bool = False,
                family: str | None = None) -> LoopPath:
    """Polygonal circle in the tagged plane (num_vertices edges)."""
    t = np.linspace(0.0, 2 * np.pi, num_vertices + 1)
    if clockwise:
        t = -t
    verts = [(center[0] + radius * np.cos(a), center[1] + radius * np.sin(a)) for a in t]
    verts[-1] = verts[0]
    return loop_from_plane_vertices(n, plane, verts, family)


def l_shape_loop(n: int, plane: PlaneTag, extent0: float, extent1: float,
                 notch0: float, notch1: float, clockwise: bool,
                 family: str | None = None) -> LoopPath:
    """Rectangle with the corner [notch0, extent0] x [notch1, extent1] removed."""
    if not (0 < notch0 < extent0 and 0 < notch1 < extent1):
        raise ValueError("notch must lie strictly inside the rectangle")
    ccw = [(0.0, 0.0), (extent0, 0.0), (extent0, notch1), (notch0, notch1),
           (notch0, extent1), (0.0, extent1), (0.0, 0.0)]
    verts = ccw[::-1] if clockwise else ccw
    return loop_from_plane_vertices(n, plane, verts, family)


def dense(gate: EmbeddedGate) -> np.ndarray:
    """Full register matrix of an embedded gate, one basis column at a time."""
    dim = gate.reg.dim
    return np.stack([gate.apply(e) for e in np.eye(dim, dtype=complex)], axis=1)
