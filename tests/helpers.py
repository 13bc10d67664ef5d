"""Loop builders, a per-part schedule builder and a dense register embedding that only
the tests use."""
import numpy as np

from cpn_holonomy.chart import ControlPoint
from cpn_holonomy.gates import GateProgram, realize_step_as_loop, split_step
from cpn_holonomy.loops import LoopPath, PlaneTag, _bulk_point, loop_from_plane_vertices
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


def program_schedule_by_parts(program: GateProgram) -> LoopPath:
    """gates.program_schedule built one part at a time: the oracle of its vertex arrays.

    Every part pushes its base point, the vertices of its own validated
    realize_step_as_loop rectangle, its base point and the origin; a vertex
    equal to the last one pushed is skipped.
    """
    n = program.n
    origin = np.zeros(n)
    ths, phs = [origin], [origin]

    def push(t, p):
        if np.max(np.abs(t - ths[-1])) > 0 or np.max(np.abs(p - phs[-1])) > 0:
            ths.append(np.asarray(t, dtype=float))
            phs.append(np.asarray(p, dtype=float))

    for step in program.steps:
        for part in split_step(step):
            base = _bulk_point(n, part.frozen_coords())
            loop = realize_step_as_loop(part, n)
            for t, p in [base, *zip(loop.thetas, loop.phis), base, (origin, origin)]:
                push(t, p)
    if len(ths) < 3:  # empty program: degenerate loop at the origin
        ths, phs = [origin] * 3, [origin] * 3
    return LoopPath(n, np.stack(ths), np.stack(phs))
