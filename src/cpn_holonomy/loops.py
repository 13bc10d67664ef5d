"""Closed control loops: representation, builders and oriented enclosed areas.

A LoopPath is a closed polyline of chart points, optionally tagged with the
two-coordinate plane it lives in plus the frozen values of other
coordinates; every vertex must sit at those values, to CLOSURE_TOL, and
move no coordinate outside the plane. Loop vertex angles are stored as
given (phi vertices must stay inside [0, 2pi) so linear interpolation
between vertices never wraps).

Orientation and area conventions, fixed project-wide and validated against
the dynamical oracles:

- families C1/C2 (planes (theta_b, phi_*)):  area = -closed-line-integral of
  sin^2(theta_b) d phi along the traversal, i.e. positive for clockwise
  traversal in the (theta, phi) plane;
- families C3/C4 (planes (theta_b, theta_c)): area = +closed-line-integral of
  sin(theta_first) d theta_second, i.e. positive for counterclockwise
  traversal.

With these signs every family's loop holonomy equals its single-generator
closed form with the signed area as coefficient, for either traversal
direction. Per-edge integrals are evaluated in closed form (the integrands
are trigonometric in a linearly interpolated angle), so areas carry no
quadrature error.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .chart import ControlPoint

CLOSURE_TOL = 1e-14
FAMILIES = ("C1", "C2", "C3", "C4")
# rectangle_loop's corners, counter-clockwise: whether each sits at extent0, at extent1
RECTANGLE_CORNERS = ((False, False), (True, False), (True, True), (False, True),
                     (False, False))


@dataclass(frozen=True)
class PlaneTag:
    """Names the two varying coordinates ('theta:1', 'phi:2') and frozen non-zero values."""

    coords: tuple[str, str]
    frozen: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for c in (*self.coords, *self.frozen):
            _split_coord(c)
        for c, value in self.frozen.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not -np.inf < value < np.inf:
                raise ValueError(f"frozen {c} must be a finite number, got {value!r}")

    def axes(self) -> tuple[tuple[str, int], tuple[str, int]]:
        return _split_coord(self.coords[0]), _split_coord(self.coords[1])


def _split_coord(name: str) -> tuple[str, int]:
    kind, _, idx = name.partition(":")
    if kind not in ("theta", "phi") or not idx.isdigit() or int(idx) < 1:
        raise ValueError(f"bad coordinate name {name!r}; expected 'theta:<k>' or 'phi:<k>'")
    return kind, int(idx)


def as_int(value, name: str) -> int:
    """An integer JSON field or count; int() would truncate 4.7 to 4 and read true as 1.

    Integral floats and numpy integers pass; booleans and NaN do not.
    """
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or
                                       isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class LoopPath:
    """An oriented closed polyline in the chart.

    thetas/phis have shape (m, n) with m >= 3 vertices, first == last.
    """

    n: int
    thetas: np.ndarray
    phis: np.ndarray
    plane: PlaneTag | None = None
    family: str | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        th = np.asarray(self.thetas, dtype=float)
        ph = np.asarray(self.phis, dtype=float)
        if th.ndim != 2 or th.shape != ph.shape or th.shape[1] != self.n or th.shape[0] < 3:
            raise ValueError("need matching (m, n) vertex arrays with m >= 3")
        if not (np.isfinite(th).all() and np.isfinite(ph).all()):
            raise ValueError("loop vertices must be finite")
        if np.abs(th[0] - th[-1]).max() > CLOSURE_TOL or np.abs(ph[0] - ph[-1]).max() > CLOSURE_TOL:
            raise ValueError("loop is not closed: first and last vertices differ")
        if (th < -CLOSURE_TOL).any() or (th > np.pi / 2 + CLOSURE_TOL).any():
            raise ValueError("theta vertices must lie in [0, pi/2]")
        if (ph < 0).any() or (ph >= 2 * np.pi).any():
            raise ValueError("phi vertices must lie in [0, 2pi)")
        if self.family is not None and self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        th = th.copy(); ph = ph.copy()
        th.setflags(write=False); ph.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "phis", ph)
        if self.plane is not None:
            self._check_plane()

    def _check_plane(self):
        """The loop moves only its plane's coordinates and sits at its frozen values."""
        varying = np.zeros(2 * self.n, dtype=bool)
        for kind, idx in self.plane.axes():
            varying[(0 if kind == "theta" else self.n) + idx - 1] = True
        coords = np.concatenate([self.thetas, self.phis], axis=1)
        drift = np.abs(coords - coords[0]).max(axis=0)
        if ((drift > CLOSURE_TOL) & ~varying).any():
            raise ValueError("plane-tagged loop varies coordinates outside its plane")
        for name, value in self.plane.frozen.items():
            kind, idx = _split_coord(name)
            if idx > self.n:
                raise ValueError(f"frozen {name} is not a coordinate at n = {self.n}")
            column = (self.thetas if kind == "theta" else self.phis)[:, idx - 1]
            if np.abs(column - value).max() > CLOSURE_TOL:
                raise ValueError(f"frozen {name} = {value!r} differs from the loop's vertices")

    @property
    def num_vertices(self) -> int:
        return self.thetas.shape[0]

    @property
    def base_point(self) -> ControlPoint:
        return ControlPoint(self.n, self.thetas[0], self.phis[0])

    def is_degenerate(self) -> bool:
        return (np.abs(self.thetas - self.thetas[0]).max() <= CLOSURE_TOL
                and np.abs(self.phis - self.phis[0]).max() <= CLOSURE_TOL)

    # ---------- serialization ----------

    def to_json_dict(self, segments_per_edge: int = 64) -> dict:
        plane = None
        if self.plane is not None:
            plane = {"coords": list(self.plane.coords),
                     "frozen": {k: float(v) for k, v in sorted(self.plane.frozen.items())}}
        return {
            "n": self.n,
            "plane": plane,
            "family": self.family,
            "points": [[list(map(float, t)), list(map(float, p))]
                       for t, p in zip(self.thetas, self.phis)],
            "segments_per_edge": segments_per_edge,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> tuple["LoopPath", int]:
        pts = d["points"]
        if any(len(v) != 2 for v in pts):
            raise ValueError("each loop point must be a [thetas, phis] pair")
        th = np.array([v[0] for v in pts], dtype=float)
        ph = np.array([v[1] for v in pts], dtype=float)
        plane = None
        if d.get("plane"):
            plane = PlaneTag(tuple(d["plane"]["coords"]), dict(d["plane"].get("frozen", {})))
        loop = cls(as_int(d["n"], "n"), th, ph, plane, d.get("family"))
        return loop, as_int(d.get("segments_per_edge", 64), "segments_per_edge")


# ---------- oriented enclosed areas ----------

def enclosed_area(loop: LoopPath, family: str) -> float:
    """Signed enclosed area of a plane-tagged loop under the family's convention.

    Each edge adds the mean of sin^2 (C1/C2) or sin (C3/C4) of its first
    plane coordinate, in closed form over the linearly traversed edge (the
    value at its start when it moves that coordinate by less than 1e-12),
    times its move in the second. The terms add in edge order.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if loop.plane is None:
        raise ValueError("enclosed_area needs a plane-tagged loop")
    (k0, i0), (k1, i1) = loop.plane.axes()
    if family in ("C1", "C2"):
        if k0 != "theta" or k1 != "phi" or (family == "C1" and i0 != i1):
            raise ValueError(f"plane {loop.plane.coords} does not match family {family}")
        y = loop.phis[:, i1 - 1]
    elif k0 != "theta" or k1 != "theta" or i0 == i1:
        raise ValueError(f"plane {loop.plane.coords} does not match family {family}")
    else:
        y = loop.thetas[:, i1 - 1]
    t0, t1 = loop.thetas[:-1, i0 - 1], loop.thetas[1:, i0 - 1]
    dt = t1 - t0
    flat = np.abs(dt) < 1e-12
    dt = np.where(flat, 1.0, dt)
    if family in ("C1", "C2"):  # float_power squares by C pow, as a float64 scalar's ** does
        mean = np.where(flat, np.float_power(np.sin(t0), 2),
                        0.5 - (np.sin(2 * t1) - np.sin(2 * t0)) / (4 * dt))
    else:
        mean = np.where(flat, np.sin(t0), (np.cos(t0) - np.cos(t1)) / dt)
    # a running sum from 0.0, so the total is the edge-ordered sum to the bit
    area = np.cumsum(np.append(0.0, mean * (y[1:] - y[:-1])))[-1]
    return -area if family in ("C1", "C2") else area  # C1/C2: positive clockwise in (theta, phi)


# ---------- loop builders ----------

def _bulk_point(n: int, frozen: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
    th, ph = np.zeros(n), np.zeros(n)
    for name, val in frozen.items():
        kind, idx = _split_coord(name)
        (th if kind == "theta" else ph)[idx - 1] = val
    return th, ph


def loop_from_plane_vertices(n: int, plane: PlaneTag, verts: list[tuple[float, float]],
                             family: str | None = None) -> LoopPath:
    """Build a loop from 2D vertices in the tagged plane (closing vertex appended)."""
    (k0, i0), (k1, i1) = plane.axes()
    if verts[0] != verts[-1]:
        verts = verts + [verts[0]]
    th0, ph0 = _bulk_point(n, plane.frozen)
    ths, phs = [], []
    for x, y in verts:
        t, p = th0.copy(), ph0.copy()
        (t if k0 == "theta" else p)[i0 - 1] = x
        (t if k1 == "theta" else p)[i1 - 1] = y
        ths.append(t)
        phs.append(p)
    return LoopPath(n, np.stack(ths), np.stack(phs), plane=plane, family=family)


def rectangle_loop(n: int, plane: PlaneTag, extent0: float, extent1: float,
                   clockwise: bool, family: str | None = None) -> LoopPath:
    """Axis-aligned rectangle [0, extent0] x [0, extent1] in the tagged plane."""
    ccw = [(extent0 if at0 else 0.0, extent1 if at1 else 0.0) for at0, at1 in RECTANGLE_CORNERS]
    verts = ccw[::-1] if clockwise else ccw
    return loop_from_plane_vertices(n, plane, verts, family)
