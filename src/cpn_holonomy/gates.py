"""Gate synthesis: primitive loop holonomies, loop realization, compilers.

Primitive steps come in four families of two-coordinate loops; each family's
holonomy is a single-generator exponential whose coefficient is the signed
enclosed area (conventions in loops.py):

    C1 on (theta_b, phi_b):                exp(-i |b><b| S)
    C2 on (theta_b, phi_bb), theta_bb=pi/2: exp(+i |b><b| S)   (needs bb > b)
    C3 on (theta_b, theta_bb), phi = 0:     exp(-(|b><bb| - |bb><b|) S)
    C4 on (theta_b, theta_bb), phi_b=pi/2:  exp(-i (|b><bb| + |bb><b|) S)

C2 with bb < b gives the identity (the two active connection legs cancel by
phase conjugation around any rectangle); such steps are accepted with a
warning. Every family but C1 rejects bb == b: a C2 rectangle's theta_b axis
would overwrite its own frozen theta_bb = pi/2. C3/C4 accept either index
order: swapping (b, bb) conjugates the generator, which the realized loop
absorbs as an orientation flip.

A GateProgram is an ordered list of steps (first-executed first). evaluate
composes the closed forms, later steps on the left; evaluate_integrated is
the holonomy of the program's one composite loop (program_schedule), which
the dynamical oracles also run. Its edges move one chart coordinate each,
where the midpoint engine is exact, so one segment per edge suffices.
program_schedule builds that loop in one pass, from the same rectangle
rules as realize_step_as_loop (_rectangle: extents and orientation), and
validates one LoopPath.
Diagonal phases on a single level b are realized as C1(b, -gamma) [phase
e^{i gamma}]. The compilers use C1 and C3 alone, the phases and real
rotations of a Reck mesh (Reck, Zeilinger, Bernstein & Bertani, Phys. Rev.
Lett. 73 (1994) 58): compile_u2_block is one two-level elimination step,
and compile_unitary calls it once per Givens factor of its target.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .holonomy import UnitaryMatrix, check_segment_budget, holonomy
from .loops import (CLOSURE_TOL, FAMILIES, RECTANGLE_CORNERS, LoopPath, PlaneTag, _bulk_point,
                    as_int, rectangle_loop)

MAX_RECT_AREA = {"C1": 1.5 * np.pi, "C2": 1.5 * np.pi, "C3": np.pi / 2, "C4": np.pi / 2}
_ZERO_AREA = 1e-14
_CORNERS = np.array(RECTANGLE_CORNERS)


class AreaRangeError(ValueError):
    """Requested area exceeds a single rectangle's capacity for this family."""


@dataclass(frozen=True)
class GateStep:
    """One primitive loop: family, level indices, signed target area."""

    family: str
    beta: int
    beta_bar: int | None
    area: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family != "C1" and self.beta_bar is None:
            raise ValueError(f"{self.family} needs a beta_bar index")
        if self.family != "C1" and self.beta_bar == self.beta:
            raise ValueError(f"{self.family} requires beta != beta_bar")
        if not np.isfinite(self.area):
            raise ValueError(f"area must be finite, got {self.area!r}")

    def validate_for(self, n: int):
        if not 1 <= self.beta <= n:
            raise ValueError(f"beta={self.beta} out of range 1..{n}")
        if self.beta_bar is not None and not 1 <= self.beta_bar <= n:
            raise ValueError(f"beta_bar={self.beta_bar} out of range 1..{n}")

    def frozen_coords(self) -> dict[str, float]:
        if self.family == "C2":
            return {f"theta:{self.beta_bar}": np.pi / 2}
        if self.family == "C4":
            return {f"phi:{self.beta}": np.pi / 2}
        return {}

    def plane(self) -> PlaneTag:
        if self.family == "C1":
            return PlaneTag((f"theta:{self.beta}", f"phi:{self.beta}"))
        if self.family == "C2":
            return PlaneTag((f"theta:{self.beta}", f"phi:{self.beta_bar}"),
                            self.frozen_coords())
        lo, hi = sorted((self.beta, self.beta_bar))
        return PlaneTag((f"theta:{lo}", f"theta:{hi}"), self.frozen_coords())

    def to_json_dict(self) -> dict:
        return {"family": self.family, "beta": self.beta,
                "beta_bar": self.beta_bar, "area": float(self.area),
                "frozen": {k: float(v) for k, v in sorted(self.frozen_coords().items())}}


def primitive_holonomy(step: GateStep, n: int) -> UnitaryMatrix:
    """Closed-form holonomy of one step on the n-dimensional code (no integration)."""
    step.validate_for(n)
    s = step.area
    g = np.zeros((n, n), dtype=complex)
    b = step.beta - 1
    if step.family == "C1":
        g[b, b] = -1j * s
    elif step.family == "C2":
        if step.beta_bar < step.beta:
            warnings.warn(
                f"C2 with beta_bar={step.beta_bar} < beta={step.beta} is a "
                "trivial-holonomy configuration; returning identity", stacklevel=2)
            return UnitaryMatrix.from_raw(np.eye(n, dtype=complex))
        g[b, b] = 1j * s
    else:
        bb = step.beta_bar - 1
        if step.family == "C3":
            g[b, bb] = -s
            g[bb, b] = s
        else:
            g[b, bb] = -1j * s
            g[bb, b] = -1j * s
    return UnitaryMatrix.from_raw(linalg.expm_antihermitian(g))


def _rectangle(step: GateStep) -> tuple[float, float, bool]:
    """(extent0, extent1, clockwise) of the step's rectangle in its sorted plane.

    The rectangle is [0, extent0] x [0, extent1] in the coordinates of
    step.plane(). A zero area gives the degenerate (0, 0); an area over the
    family's capacity is an AreaRangeError. The capacity is allowed
    loops.CLOSURE_TOL, the slack LoopPath allows a theta past pi/2, so a C3
    or C4 rectangle that passes here is a valid loop.
    """
    cap = MAX_RECT_AREA[step.family]
    if abs(step.area) > cap + CLOSURE_TOL:
        raise AreaRangeError(
            f"|area|={abs(step.area):.6g} exceeds the single-rectangle capacity "
            f"{cap:.6g} for {step.family}; split the step first")
    if abs(step.area) < _ZERO_AREA:
        return 0.0, 0.0, False
    target = step.area
    if step.family in ("C3", "C4") and step.beta > step.beta_bar:
        target = -target  # sorted-plane line integral runs the other way
    if step.family in ("C1", "C2"):
        return np.pi / 2, abs(target), target > 0
    return np.pi / 2, abs(target), target < 0


def realize_step_as_loop(step: GateStep, n: int) -> LoopPath:
    """Rectangle loop whose engine holonomy equals the step's closed form.

    C1/C2 rectangles span theta in [0, pi/2] with phi extent |area| (clockwise
    in (theta, phi) for positive area); C3/C4 rectangles span the lower-index
    theta in [0, pi/2] with the other theta extent |area|. For C3/C4 given
    with beta > beta_bar the realized orientation flips, absorbing the
    conjugated generator, so the loop's enclosed_area is -area in that case.
    """
    step.validate_for(n)
    extent0, extent1, clockwise = _rectangle(step)
    return rectangle_loop(n, step.plane(), extent0, extent1, clockwise, family=step.family)


def _split_parts(step: GateStep) -> float:
    """How many parts split_step cuts the step into, as a float (it may be huge).

    The fewest equal parts that each pass _rectangle's capacity check.
    """
    area, fits = abs(step.area), MAX_RECT_AREA[step.family] + CLOSURE_TOL
    parts = max(1.0, float(np.ceil(area / fits)))
    return parts + (area / parts > fits)  # the quotient may round past the capacity


def split_step(step: GateStep) -> list[GateStep]:
    """Split an over-capacity step into equal-area steps within capacity."""
    parts = int(_split_parts(step))
    if parts == 1:
        return [step]
    each = step.area / parts
    return [GateStep(step.family, step.beta, step.beta_bar, each) for _ in range(parts)]


def _schedule_edges(program: GateProgram) -> float:
    """Edge count of program_schedule's loop, computed without building it.

    Each part of a step adds its rectangle's four edges (none at zero area)
    and, if the step freezes a coordinate (C2, C4), the legs from the origin
    to its base point and back; every other vertex it pushes repeats the one
    before. An empty or all-zero loop has the two edges of its 3 vertices.
    """
    edges = 0.0
    for step in program.steps:
        rect = 0.0 if abs(step.area) < _ZERO_AREA else 4.0  # a split part is never zero
        edges += _split_parts(step) * (rect + 2.0 * bool(step.frozen_coords()))
    return max(edges, 2.0)


@dataclass(frozen=True)
class GateProgram:
    """Ordered loop program; steps listed first-executed first."""

    n: int
    steps: tuple[GateStep, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"program dimension n must be >= 1, got {self.n!r}")
        object.__setattr__(self, "steps", tuple(self.steps))
        for s in self.steps:
            s.validate_for(self.n)

    def evaluate(self) -> UnitaryMatrix:
        """Closed-form product; later steps multiply on the left."""
        u = np.eye(self.n, dtype=complex)
        for s in self.steps:
            u = primitive_holonomy(s, self.n).matrix @ u
        return UnitaryMatrix.from_raw(u)

    def evaluate_integrated(self, segments_per_edge: int = 1) -> UnitaryMatrix:
        """Holonomy of the composite loop, integrated from the connection."""
        return holonomy(program_schedule(self), segments_per_edge)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "steps": [s.to_json_dict() for s in self.steps]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GateProgram":
        steps = tuple(GateStep(s["family"], as_int(s["beta"], "beta"),
                               None if s.get("beta_bar") is None
                               else as_int(s["beta_bar"], "beta_bar"), float(s["area"]))
                      for s in d["steps"])
        if float(d.get("residual_phase", 0.0)) != 0.0:
            raise ValueError("a nonzero residual_phase is not supported: a program's "
                             "matrix is the product of its steps")
        return cls(as_int(d["n"], "n"), steps)


def program_schedule(program: GateProgram) -> LoopPath:
    """One closed chart loop through all program steps, based at the origin.

    Each step's rectangle is entered and left through its base point, the
    origin with the step's one frozen coordinate (if any) set. The connector
    legs origin -> base -> origin move that coordinate alone at zero theta
    elsewhere, so they transport nothing: the composite loop's holonomy (and
    its adiabatic transport) is the program product.

    The loop's edge count is checked against holonomy.MAX_SEGMENT_ENTRIES at
    one segment per edge before any part is built, so a huge area is a
    ValueError at once. Then each part of a step writes its fixed pattern of
    rows (base point, the five rectangle corners, base point, origin) into
    one (rows, 2n) array of theta and phi columns; the equal parts of a split
    step repeat one pattern. A row equal to the one before it is dropped,
    and one LoopPath is validated.
    """
    n = program.n
    check_segment_budget(_schedule_edges(program), 1, n)
    rows = [np.zeros((1, 2 * n))]  # the origin
    for step in program.steps:
        parts = split_step(step)
        part = parts[0]
        extent0, extent1, clockwise = _rectangle(part)
        pattern = np.zeros((8, 2 * n))
        pattern[:7] = np.concatenate(_bulk_point(n, part.frozen_coords()))
        corners = _CORNERS[::-1] if clockwise else _CORNERS
        for (kind, idx), at, extent in zip(part.plane().axes(), corners.T,
                                           (extent0, extent1)):
            pattern[1:6, (0 if kind == "theta" else n) + idx - 1] = np.where(at, extent, 0.0)
        rows.append(np.tile(pattern, (len(parts), 1)))
    rows = np.concatenate(rows)
    rows = rows[np.append(True, np.any(rows[1:] != rows[:-1], axis=1))]
    if len(rows) < 3:  # empty program: degenerate loop at the origin
        rows = np.zeros((3, 2 * n))
    return LoopPath(n, rows[:, :n], rows[:, n:])


# ---------- single-block compiler ----------

def _wrap_angle(x: float) -> float:
    """Reduce to (-pi, pi]."""
    y = float(np.mod(x + np.pi, 2 * np.pi) - np.pi)
    return np.pi if y == -np.pi else y


def compile_u2_block(target: np.ndarray, beta: int, beta_bar: int, n: int) -> GateProgram:
    """Compile a 2x2 unitary on levels (beta, beta_bar), beta < beta_bar <= n.

    One two-level Reck step. A C1 phase on beta_bar gives the first column's
    two entries one phase; a C3 rotation by t in [0, pi/2] then zeroes its
    lower entry, and what is left is a diagonal, one C1 per level. The
    program runs the inverses, diagonal first, so it reproduces the embedded
    target exactly in at most four C1/C3 steps; steps of zero area are left
    out.
    """
    if not 1 <= beta < beta_bar <= n:
        raise ValueError(f"need 1 <= beta < beta_bar <= n, got ({beta}, {beta_bar}, n={n})")
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ValueError("target must be a 2x2 matrix")
    if linalg.unitarity_defect(target) > 1e-9:
        raise ValueError("target is not unitary to 1e-9")
    (a, b), (c, d) = target
    t = float(np.arctan2(abs(c), abs(a)))  # the C3 angle that zeroes c
    lift = float(np.angle(c) - np.angle(a)) if t > _ZERO_AREA else 0.0  # c's phase to a's
    last = np.cos(t) * d * np.exp(-1j * lift) - np.sin(t) * b  # lower entry of the diagonal
    steps = (GateStep("C1", beta, None, -_wrap_angle(np.angle(a))),
             GateStep("C1", beta_bar, None, -_wrap_angle(np.angle(last))),
             GateStep("C3", beta, beta_bar, t),
             GateStep("C1", beta_bar, None, -_wrap_angle(lift)))
    return GateProgram(n, tuple(s for s in steps if abs(s.area) > _ZERO_AREA))


def embed_two_level(u2: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Embed a 2x2 matrix on levels (i, j), 1-based, identity elsewhere."""
    m = np.eye(n, dtype=complex)
    ii, jj = i - 1, j - 1
    m[ii, ii], m[ii, jj] = u2[0, 0], u2[0, 1]
    m[jj, ii], m[jj, jj] = u2[1, 0], u2[1, 1]
    return m


def givens_decompose(u: np.ndarray, tol: float = 1e-12):
    """Two-level factorization U = T_1† T_2† ... T_K† D.

    Returns (factors, diag) where factors is a list of (i, j, g2) acting on
    1-based level pairs (the T_k, in elimination order) and diag the final
    diagonal phases. Elimination pairs adjacent rows (the triangular-mesh
    scheme), so tensor-product sparsity of an embedded gate fills in and the
    factor count reflects the generic quadratic-in-dimension cost of compiling
    into a single large code; used for primitive counting and full-unitary
    compilation.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if linalg.unitarity_defect(u) > 1e-9:
        raise ValueError("matrix is not unitary to 1e-9")
    m = u.copy()
    factors = []
    for c in range(d - 1):
        for r in range(d - 1, c, -1):
            if abs(m[r, c]) <= tol:
                continue
            x, y = m[r - 1, c], m[r, c]
            nu = np.sqrt(abs(x) ** 2 + abs(y) ** 2)
            g = np.array([[np.conj(x), np.conj(y)], [-y, x]], dtype=complex) / nu
            factors.append((r, r + 1, g))
            rows = np.array([r - 1, r])
            m[rows, :] = g @ m[rows, :]
    return factors, np.diag(m).copy()


def compile_unitary(u: np.ndarray, n: int) -> GateProgram:
    """Compile an arbitrary n x n unitary into C1 and C3 steps (exact).

    Two-level factorization, then one compile_u2_block call per factor; the
    final diagonal is realized as single-level C1 phase loops. No step
    freezes a coordinate, so the program's loop has no connector legs. Step
    count grows with the square of the dimension for dense targets, which is
    what the monolithic-encoding cost reports measure.
    """
    factors, diag = givens_decompose(np.asarray(u, dtype=complex))
    steps: list[GateStep] = []
    for j, z in enumerate(diag):  # D acts first
        gamma = float(np.angle(z))
        if abs(gamma) > 1e-12:
            steps.append(GateStep("C1", j + 1, None, -gamma))
    for i, j, g in reversed(factors):  # then T_K†, ..., T_1†
        steps.extend(compile_u2_block(g.conj().T, i, j, n).steps)
    return GateProgram(n, tuple(steps))


# ---------- named two-qubit constructions (n = 4) ----------

def _uph_steps(beta: int, beta_bar: int, sigma1: float, sigma3: float) -> list[GateStep]:
    """Conjugated rotation D R D^{-1} on the (beta, beta_bar) block.

    D = diag(e^{-2i sigma1}, 1) from one C1 and one opposite-oriented C2 loop
    of equal |area|; temporal order runs the D^{-1} pair first.
    """
    return [
        GateStep("C1", beta, None, -sigma1),
        GateStep("C2", beta, beta_bar, sigma1),
        GateStep("C3", beta, beta_bar, sigma3),
        GateStep("C2", beta, beta_bar, -sigma1),
        GateStep("C1", beta, None, sigma1),
    ]


def two_qubit_gate(name: str, sigma1: float = np.pi / 4,
                   sigma3: float = np.pi / 4) -> GateProgram:
    """Loop program for a named two-qubit gate on the n=4 code.

    Each program is built from the four loop families only; diagonal
    correction loops are placed on the level they must phase (a C2 loop
    phases its lower index beta, so pi/2 phases on levels 2..4 use C2 planes
    (theta_b, phi_bb) with b the phased level, and a phase on level 4 needs
    the C1 plane (theta_4, phi_4)). sigma1/sigma3 parametrize the UPH1/PHASE
    constructions and are ignored for XOR/CROT/SWAP.
    """
    key = name.strip().upper()
    q = np.pi / 2
    if key == "CROT":
        steps = [GateStep("C1", 4, None, q), GateStep("C1", 4, None, q)]
    elif key == "XOR":
        steps = [GateStep("C4", 3, 4, q), GateStep("C2", 3, 4, q),
                 GateStep("C1", 4, None, -q)]
    elif key == "SWAP":
        steps = [GateStep("C4", 2, 3, q), GateStep("C2", 2, 3, q),
                 GateStep("C2", 3, 4, q)]
    elif key == "UPH1":
        steps = _uph_steps(1, 2, sigma1, sigma3)
    elif key == "PHASE1":
        steps = _uph_steps(1, 2, sigma1, sigma3) + _uph_steps(3, 4, sigma1, sigma3)
    elif key == "PHASE2":
        swap = two_qubit_gate("SWAP").steps
        steps = list(swap) + _uph_steps(1, 2, sigma1, sigma3) \
            + _uph_steps(3, 4, sigma1, sigma3) + list(swap)
    else:
        raise ValueError(f"unknown gate name {name!r}; "
                         "expected XOR|CROT|SWAP|PHASE1|PHASE2|UPH1")
    return GateProgram(4, tuple(steps))


def single_qubit_block(sigma1: float, sigma3: float) -> np.ndarray:
    """The 2x2 rotation produced by the UPH1 construction."""
    return np.array([
        [np.cos(sigma3), -np.sin(sigma3) * np.exp(-2j * sigma1)],
        [np.sin(sigma3) * np.exp(2j * sigma1), np.cos(sigma3)],
    ], dtype=complex)


def named_gate_matrix(name: str, sigma1: float = np.pi / 4,
                      sigma3: float = np.pi / 4) -> np.ndarray:
    """Reference 4x4 matrix for a named gate in the |00>,|01>,|10>,|11> basis."""
    key = name.strip().upper()
    if key == "CROT":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if key == "XOR":
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = [[0, 1], [1, 0]]
        return m
    if key == "SWAP":
        return np.eye(4, dtype=complex)[:, [0, 2, 1, 3]]
    uq = single_qubit_block(sigma1, sigma3)
    if key == "UPH1":
        m = np.eye(4, dtype=complex)
        m[:2, :2] = uq
        return m
    if key == "PHASE1":
        return np.kron(np.eye(2), uq)
    if key == "PHASE2":
        return np.kron(uq, np.eye(2))
    raise ValueError(f"unknown gate name {name!r}")
