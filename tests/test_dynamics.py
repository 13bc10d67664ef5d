"""Dynamical verifiers: adiabatic transport and the kick scheme."""
import ast
import functools
import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

from chart_oracle import excited_state_batch, hamiltonian_at
from cpn_holonomy import (ControlPoint, GateProgram, GateStep, LoopPath, PlaneTag,
                          adiabatic_transport, compile_unitary, holonomy, kick_evolution,
                          loop_from_plane_vertices, primitive_holonomy, program_schedule,
                          propagate_frames, realize_step_as_loop, rectangle_loop, two_qubit_gate)
from cpn_holonomy import dynamics
from cpn_holonomy.chart import frame_unitary_batch
from cpn_holonomy.dynamics import MAX_STEPS
from cpn_holonomy.gates import split_step
from cpn_holonomy.linalg import fold_left, max_abs_diff, unitarity_defect
from dynamics_oracle import (arclength_interpolator, grid_steps, interp_grid_propagator,
                             interp_propagator, kick_nodes, midpoint_nodes, rank1_steps)

C1_QUARTER = GateStep("C1", 1, None, np.pi / 4)


def c1_loop(n=1, area=np.pi / 4):
    return realize_step_as_loop(GateStep("C1", 1, None, area), n)


def test_oracle_never_reaches_the_integrator():
    # the Schrodinger oracle stays an independent check of the loop integrator:
    # nothing from the connection or the gate compilers, and not holonomy()
    tree = ast.parse(Path(dynamics.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("cpn_holonomy." * (node.level > 0) + (node.module or "")).rstrip(".")
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            module, names = "", [alias.name for alias in node.names]
        else:
            continue
        for name in [module, *(f"{module}.{n}" for n in names)]:
            assert not name.startswith(("cpn_holonomy.connection", "cpn_holonomy.gates")), name
        assert "holonomy" not in names


def test_degenerate_loop_transport_is_identity():
    pts = np.full((3, 2), 0.4)
    loop = LoopPath(2, pts, pts * 0.0)
    tr, diag = adiabatic_transport(loop, 5.0, steps=50)
    # code sits at eigenvalue zero: stationary up to stepper roundoff
    assert tr.distance(np.eye(2)) < 1e-12
    assert np.max(diag.leakage) < 1e-12


def test_c1_transport_matches_closed_form_default_budget():
    loop = c1_loop()
    tr, diag = adiabatic_transport(loop, 2000.0)
    assert abs(tr.matrix[0, 0] - np.exp(-1j * np.pi / 4)) < 1e-2
    assert np.max(diag.leakage) < 1e-3
    assert tr.distance(holonomy(loop, 64)) < 1e-2
    assert diag.steps >= 40000  # dt <= 0.05 enforced


def test_adiabatic_error_decreases_with_time():
    loop = c1_loop()
    expect = holonomy(loop, 64).matrix
    errs = {}
    for total in (200.0, 2000.0):
        tr, _ = adiabatic_transport(loop, total)
        errs[total] = max_abs_diff(tr.matrix, expect)
    assert errs[2000.0] < errs[200.0] / 2


@pytest.mark.parametrize("step", [
    GateStep("C1", 1, None, np.pi / 4),
    GateStep("C2", 1, 2, np.pi / 4),
    GateStep("C3", 1, 2, 0.6),
    GateStep("C4", 1, 2, 0.6),
])
def test_oracle_agreement_every_family(step):
    n = 2
    loop = realize_step_as_loop(step, n)
    tr, _ = adiabatic_transport(loop, 2000.0)
    assert tr.distance(holonomy(loop, 64)) < 5e-2
    assert tr.distance(primitive_holonomy(step, n).matrix) < 5e-2


def test_oracle_agreement_nonabelian_composite():
    # a rotation loop followed by a phase loop: the two sub-holonomies do not
    # commute, so this pins the path-ordering direction end to end, not just
    # the per-family signs
    from helpers import concatenate
    n = 2
    rot = GateStep("C3", 1, 2, 0.6)
    phase = GateStep("C1", 1, None, 0.8)
    loop = concatenate(realize_step_as_loop(rot, n), realize_step_as_loop(phase, n))
    engine = holonomy(loop, 96).matrix
    ordered = primitive_holonomy(phase, n).matrix @ primitive_holonomy(rot, n).matrix
    swapped = primitive_holonomy(rot, n).matrix @ primitive_holonomy(phase, n).matrix
    assert max_abs_diff(engine, ordered) < 1e-8
    assert max_abs_diff(ordered, swapped) > 0.3  # the ordering genuinely matters
    tr, _ = adiabatic_transport(loop, 4000.0)
    assert tr.distance(holonomy(loop, 64)) < 5e-2
    assert tr.distance(ordered) < 5e-2
    assert tr.distance(swapped) > 0.25


def test_oracle_agreement_crot_program():
    # ground truth for sign and ordering conventions; budget is 2000 per loop
    prog = two_qubit_gate("CROT")
    loop = program_schedule(prog)
    tr, diag = adiabatic_transport(loop, 2000.0 * len(prog.steps))
    assert tr.distance(holonomy(loop, 64)) < 5e-2
    assert tr.distance(prog.evaluate().matrix) < 5e-2
    assert np.max(diag.leakage) < 1e-3


NAMED_GATES = ("XOR", "CROT", "SWAP", "PHASE1", "PHASE2", "UPH1")


def per_step_product(prog, segments_per_edge):
    """Product of the separately integrated step loops, later steps on the left."""
    u = np.eye(prog.n, dtype=complex)
    for step in prog.steps:
        for part in split_step(step):
            u = holonomy(realize_step_as_loop(part, prog.n), segments_per_edge).matrix @ u
    return u


@settings(max_examples=8, deadline=None)
@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.integers(0, 2 ** 32 - 1))
@example(0.4, 0.9, 0)
def test_program_schedule_equals_program_product(sigma1, sigma3, seed):
    # connector legs transport nothing: composite-loop holonomy == step product
    for name in ("CROT", "XOR", "UPH1"):
        prog = two_qubit_gate(name, sigma1=0.4, sigma3=0.9)
        comp = program_schedule(prog)
        assert holonomy(comp, 64).distance(prog.evaluate().matrix) < 1e-10
    # the composite loop's edges run along single chart axes, on which the
    # midpoint engine is exact: one segment per edge reaches roundoff, and the
    # composite agrees with the product of separately integrated steps
    for name in NAMED_GATES:
        prog = two_qubit_gate(name, sigma1=sigma1, sigma3=sigma3)
        assert prog.evaluate_integrated(1).distance(prog.evaluate()) <= 1e-14
        for segs in (1, 8, 64):
            assert prog.evaluate_integrated(segs).distance(per_step_product(prog, segs)) <= 1e-13
    rng = np.random.default_rng(seed)
    programs = [compile_unitary(unitary_group.rvs(n, random_state=rng), n)
                for n in range(2, 7)]
    programs.append(GateProgram(2, (GateStep("C3", 1, 2, 2.0),)))  # capacity pi/2: two parts
    for prog in programs:
        assert prog.evaluate_integrated(1).distance(prog.evaluate()) <= 1e-14


def test_propagator_unitarity():
    loop = realize_step_as_loop(GateStep("C3", 1, 2, 0.7), 2)
    u = propagate_frames(loop, 50.0, 1200)
    assert unitarity_defect(u) < 1e-9
    # every factor carries the same rounding of exp(-i dt), so the defect
    # grows linearly in the step count even with a pairwise product
    u = propagate_frames(program_schedule(two_qubit_gate("CROT")), 4000.0, 80000)
    assert unitarity_defect(u) <= 1e-11


def test_propagator_second_order():
    # midpoint sampling is second order in dt on edges that move several
    # coordinates; left endpoints would be first order
    loop = _random_loop(np.random.default_rng(7), 2)
    ref = propagate_frames(loop, 50.0, 2 ** 17)
    errs = [max_abs_diff(propagate_frames(loop, 50.0, steps), ref)
            for steps in (1000, 2000, 4000, 8000)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def _random_loop(rng, n, vertices=5):
    th = rng.uniform(0.1, 1.4, (vertices, n))
    ph = rng.uniform(0.1, 6.0, (vertices, n))
    th[-1], ph[-1] = th[0], ph[0]
    return LoopPath(n, th, ph)


def _dense_product(thetas, phis, dt):
    """prod_k expm(-i H(lambda_k) dt_k), later left, from the dense Hamiltonian."""
    n = thetas.shape[1]
    u = np.eye(n + 1, dtype=complex)
    for th, ph, step in zip(thetas, phis, np.broadcast_to(dt, len(thetas))):
        h = hamiltonian_at(ControlPoint(n, th, ph))
        u = expm(-1j * h * step) @ u
    return u


@pytest.mark.parametrize("n", [1, 4, 8])
def test_rank1_stepper_matches_dense_expm(n):
    # step counts inside one chunk of the stepper, at its edge and past it;
    # every edge moves every coordinate, so each takes rank-1 midpoint steps
    rng = np.random.default_rng(40 + n)
    loop = _random_loop(rng, n)
    total = 1.3 * 30.0
    for steps in (1, 31, 32, 33, 300):
        _, nodes, dts = grid_steps(loop, total, steps)
        th, ph = arclength_interpolator(loop)(np.concatenate(nodes))
        expect = _dense_product(th, ph, np.concatenate(dts))
        assert max_abs_diff(propagate_frames(loop, total, steps), expect) <= 1e-12

        th, ph = arclength_interpolator(loop)(kick_nodes(steps))
        expect = _dense_product(th, ph, total / steps)
        assert max_abs_diff(kick_evolution(loop, total, steps), expect) <= 1e-12


LEVEL_KINDS = ("free", "dead", "half_pi", "spike")


def _loop_with_levels(rng, kinds, vertices):
    """Closed polyline whose theta column j is, by kinds[j]: random, exactly 0,
    frozen at pi/2, or nonzero at one interior vertex only. Every phi moves."""
    n = len(kinds)
    th = np.zeros((vertices, n))
    ph = rng.uniform(0.1, 6.0, (vertices, n))
    for j, kind in enumerate(kinds):
        if kind == "free":
            th[:, j] = rng.uniform(0.1, 1.4, vertices)
        elif kind == "half_pi":
            th[:, j] = np.pi / 2
        elif kind == "spike":
            th[rng.integers(1, vertices - 1), j] = rng.uniform(0.3, 1.4)
    th[-1], ph[-1] = th[0], ph[0]
    return LoopPath(n, th, ph)


def _check_against_all_levels(u, thetas, phis, dt):
    """u against the stepper run on all n+1 levels; levels whose theta is 0 at
    every sample must come out as exact identity rows and columns."""
    a = np.exp(-1j * np.broadcast_to(dt, len(thetas))) - 1.0
    expect = rank1_steps(a, excited_state_batch(thetas, phis))
    assert max_abs_diff(u, expect) <= 1e-13
    dead = np.flatnonzero(np.all(thetas == 0.0, axis=0))
    eye = np.eye(len(u))
    assert np.array_equal(u[dead], eye[dead])
    assert np.array_equal(u[:, dead], eye[:, dead])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(LEVEL_KINDS), min_size=1, max_size=5),
       st.integers(3, 6), st.sampled_from([1, 37, 200]), st.integers(0, 2 ** 32 - 1))
@example(["dead", "half_pi", "spike", "free"], 5, 200, 0)
@example(["spike", "dead"], 3, 37, 1)
@example(["dead", "dead"], 4, 200, 2)
def test_live_level_stepping_matches_all_levels(kinds, vertices, steps, seed):
    # both oracles step only the levels whose theta moves, plus level n+1
    rng = np.random.default_rng(seed)
    loop = _loop_with_levels(rng, kinds, vertices)
    total = 1.3 * 20.0
    _, nodes, dts = grid_steps(loop, total, steps)
    _check_against_all_levels(propagate_frames(loop, total, steps),
                              *arclength_interpolator(loop)(np.concatenate(nodes)),
                              np.concatenate(dts))
    _check_against_all_levels(kick_evolution(loop, total, steps),
                              *arclength_interpolator(loop)(kick_nodes(steps)), total / steps)


# ---------- sampling ----------

def _same_bits(a, b):
    """Equal values and equal signs of zero, entry by entry."""
    a, b = np.asarray(a), np.asarray(b)
    if np.iscomplexobj(a):
        a, b = a.view(float), b.view(float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


THETA_KINDS = ("free", "const", "half_pi", "zero", "neg_zero")
EDGE_KINDS = ("axis", "oblique", "still")


def _sampled_loop(rng, kinds, edges):
    """Closed polyline whose theta column j is, by kinds[j]: free to move, a
    nonzero constant, frozen at pi/2, 0, or 0 with -0.0 at some vertices. Each
    edge moves one coordinate ("axis"), every free one ("oblique") or none
    ("still", a zero-length edge). A phi column moves or stays 0 (or -0.0)."""
    n = len(kinds)
    theta = np.array([{"const": rng.uniform(0.1, 1.4), "half_pi": np.pi / 2}.get(k, 0.0)
                      for k in kinds])
    phi = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 6.0, n))
    free = [j for j, k in enumerate(kinds) if k == "free"] + [n + j for j in range(n)
                                                             if phi[j] != 0.0]
    point = np.concatenate([theta, phi])
    points = [point]
    for kind in edges:
        point = point.copy()
        moved = []
        if kind == "oblique":
            moved = free
        elif kind == "axis" and free:
            moved = [free[rng.integers(len(free))]]
        for c in moved:
            point[c] = rng.uniform(0.05, 1.5) if c < n else rng.uniform(0.1, 6.0)
        points.append(point)
    points.append(points[0])
    pts = np.array(points)
    for j, k in enumerate(kinds):
        if k == "neg_zero":
            pts[rng.random(len(pts)) < 0.5, j] = -0.0
        if pts[0, n + j] == 0.0 and rng.random() < 0.5:
            pts[rng.random(len(pts)) < 0.5, n + j] = -0.0
    pts[-1] = pts[0]
    return LoopPath(n, pts[:, :n], pts[:, n:])


def test_steps_whose_phase_has_no_correct_digit_are_rejected(monkeypatch):
    # rounding dt = T / N moves e^{-i dt} by up to 0.125 rad from 2^50 on:
    # both propagators reject such a step before any sampling
    def no_sampling(*args):
        raise AssertionError("sampled before the inputs were checked")

    limit = dynamics.PHASE_DT_LIMIT
    assert limit == 2.0 ** 50
    assert kick_evolution(c1_loop(), np.nextafter(limit, 0.0), 1).shape == (2, 2)
    monkeypatch.setattr(dynamics, "_excited_states", no_sampling)
    monkeypatch.setattr(dynamics, "_grid", no_sampling)
    for total, count in ((limit, 1), (3 * limit, 3), (1e300, MAX_STEPS)):
        with pytest.raises(ValueError, match="intervals: a step of length"):
            kick_evolution(c1_loop(), total, count)
        with pytest.raises(ValueError, match="steps: a step of length"):
            propagate_frames(c1_loop(), total, count)
    # adiabatic_transport raises its count to T / MAX_EPS_DT, so only that count can fail
    with pytest.raises(ValueError, match="steps must be <="):
        adiabatic_transport(c1_loop(), 1e300, steps=1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(THETA_KINDS), min_size=1, max_size=4),
       st.lists(st.sampled_from(EDGE_KINDS), min_size=1, max_size=6),
       st.sampled_from([1, 2, 7, 33, 200]), st.integers(0, 2 ** 32 - 1))
@example(["free", "half_pi", "zero", "const"], ["axis", "axis", "still", "oblique"], 200, 0)
@example(["neg_zero", "free"], ["axis", "axis", "axis"], 33, 1)
@example(["zero", "neg_zero"], ["oblique", "still"], 7, 2)  # no live level
@example(["free"], ["axis", "axis", "axis"], 7, 3)  # odd step count: a sample at s = 0.5
@example(["free", "const"], ["oblique", "still", "oblique"], 33, 4)  # rank-1 edges only
@example(["free", "const"], ["axis", "axis", "axis"], 33, 62)  # phi_2 -0.0 at every vertex
@example(["const", "free"], ["oblique", "axis"], 7, 7)  # a moving theta's phi -0.0 throughout
@example(["const", "free", "half_pi"], ["axis", "oblique", "axis"], 33, 5)  # frozen thetas
def test_sampler_matches_interp(kinds, edges, steps, seed):
    # the sampler passes a column with one value and no sign bit as that
    # value and takes np.interp of every other; its states are the np.interp
    # path's, bit for bit, -0.0 included; so is the propagator of a loop
    # without two-level edges, fed the nodes of the knot-aligned grid
    rng = np.random.default_rng(seed)
    loop = _sampled_loop(rng, kinds, edges)
    _check_sampler(loop, midpoint_nodes(steps))
    g = dynamics._grid(loop, steps)
    if not np.any((g.kind == dynamics.THETA) | (g.kind == dynamics.PHI)):
        assert _same_bits(propagate_frames(loop, 1.3 * 20.0, steps),
                          interp_grid_propagator(loop, 1.3 * 20.0, steps))


def _check_sampler(loop, nodes):
    live, v = dynamics._excited_states(loop, nodes)
    assert _same_bits(v, excited_state_batch(*arclength_interpolator(loop, live)(nodes)))


def test_sampler_of_programs_matches_interp():
    # the named gates' composite loops move one coordinate per edge; the kick
    # scheme samples them at its left endpoints
    for name in NAMED_GATES:
        loop = program_schedule(two_qubit_gate(name))
        for steps in (1, 33, 5001):
            _check_sampler(loop, midpoint_nodes(steps))
            assert _same_bits(kick_evolution(loop, 250.0, steps),
                              interp_propagator(loop, 250.0, kick_nodes(steps),
                                                dynamics._live_levels(loop.thetas))), (name, steps)


# ---------- knot-aligned grid and two-level steps ----------

def _rectangle(n, level, corners, thetas, phis):
    """Axis-aligned rectangle in the (theta_level, phi_level) plane, 1-based level,
    from (corners[0], corners[1]) to (corners[2], corners[3]); every other
    coordinate is frozen at thetas/phis."""
    t0, p0, t1, p1 = corners
    th, ph = np.tile(thetas, (5, 1)), np.tile(phis, (5, 1))
    th[:, level - 1] = [t0, t1, t1, t0, t0]
    ph[:, level - 1] = [p0, p0, p1, p1, p0]
    return LoopPath(n, th, ph)


def _dense_grid_product(loop, total, steps, refine):
    """prod expm(-i H dt) over midpoints of each grid edge's counts * refine
    equal time steps, on the knot times of dynamics._grid. H = |v><v| takes
    v from the frame's rotation product, and expm is scipy's, batched."""
    g = dynamics._grid(loop, steps)
    nodes, dts = [], []
    for e, m in enumerate(g.counts * refine):
        window = g.tau[e + 1] - g.tau[e]
        nodes.append(dynamics.smoothstep(g.tau[e] + (np.arange(m) + 0.5) * window / m))
        dts.append(np.full(m, total * window / m))
    v = frame_unitary_batch(*arclength_interpolator(loop)(np.concatenate(nodes)))[:, :, -1]
    h = v[:, :, None] * v.conj()[:, None, :]
    return fold_left(expm(-1j * h * np.concatenate(dts)[:, None, None]))


TWO_LEVEL_LOOPS = {
    # theta_2 and phi_2 edges below theta_3 = 0.9: c spans levels 3 and 4
    "rect": (3, 2, (0.3, 0.5, 1.1, 2.2), [0.0, 0.0, 0.9], [0.3, 0.0, 2.0]),
    # from theta_1 = 0: its phi edge at theta_1 = 0 leaves H constant
    "origin": (2, 1, (0.0, 0.4, 0.8, 1.9), [0.0, 0.6], [0.0, 1.2]),
}


@pytest.mark.parametrize("name", sorted(TWO_LEVEL_LOOPS))
def test_two_level_steps_match_dense_expm(name):
    # the co-rotating steps of theta and phi edges converge at second order
    # to the dense midpoint product at 32 times the steps, far below theirs
    loop = _rectangle(*TWO_LEVEL_LOOPS[name])
    assert {dynamics.THETA, dynamics.PHI} <= set(dynamics._grid(loop, 200).kind)
    total = 10.0
    fine, finer = (_dense_grid_product(loop, total, 200, r) for r in (16, 32))
    coarse = max_abs_diff(propagate_frames(loop, total, 200), finer)
    assert coarse <= 1e-4
    assert max_abs_diff(propagate_frames(loop, total, 800), finer) <= coarse / 10
    assert max_abs_diff(fine, finer) <= coarse / 50


@pytest.mark.parametrize("name", NAMED_GATES)
def test_named_gates_match_midpoint_path_at_16x(name):
    # the uniform-grid midpoint path at 16 and 32 times the steps converges
    # towards the two-level steps: they sit within its own error
    loop = program_schedule(two_qubit_gate(name))
    total, steps = 250.0, 5000
    u = propagate_frames(loop, total, steps)
    live = dynamics._live_levels(loop.thetas)
    fine, finer = (interp_propagator(loop, total, midpoint_nodes(r * steps), live) for r in (16, 32))
    assert max_abs_diff(u, fine) <= 2.0 * max_abs_diff(fine, finer)
    assert max_abs_diff(u, finer) <= max_abs_diff(fine, finer)


@pytest.mark.filterwarnings("ignore:leakage exceeds")
@pytest.mark.parametrize("name", NAMED_GATES)
def test_named_gate_transport_converged_at_default_steps(name):
    # the transport moves by less than 1e-5 when the steps double
    loop = program_schedule(two_qubit_gate(name))
    for total in (250.0, 484.375, 1000.0):
        u, diag = adiabatic_transport(loop, total)
        v, _ = adiabatic_transport(loop, total, 2 * diag.steps)
        assert diag.steps == np.ceil(20 * total)
        assert max_abs_diff(u.matrix, v.matrix) < 1e-5, total


def _check_grid(loop, total, steps):
    g = dynamics._grid(loop, steps)
    knot_times = total * g.tau
    assert knot_times[0] == 0.0 and knot_times[-1] == total
    assert np.all(np.diff(g.tau) > 0)
    knots = dynamics._knots(loop)[0]
    if knots.size > 1:
        assert max_abs_diff(dynamics.smoothstep(g.tau), knots) <= 1e-15
    moving = g.kind != dynamics.CONSTANT
    dt = total * np.diff(g.tau) / g.counts
    assert np.all(dt[moving] <= total / steps * (1 + 1e-14))
    assert np.all(g.counts[~moving] == 1) and np.all(g.counts >= 1)
    # the budget, or the least that keeps dt <= T / steps; constant edges alone take one each
    least = np.sum(~moving) + np.sum(np.maximum(np.ceil(np.diff(g.tau)[moving] * steps), 1))
    assert np.sum(g.counts) == (max(steps, least) if np.any(moving) else g.kind.size)
    return g


def test_grid_of_named_gates():
    # constant-H edges take one step; the other edges share the rest of the
    # budget, so the counts add up to steps and dt <= T / steps where H moves
    expect = {"CROT": (8, 4), "XOR": (16, 9), "SWAP": (18, 11), "PHASE2": (84, 52)}
    for name in NAMED_GATES:
        loop = program_schedule(two_qubit_gate(name))
        for total in (250.0, 484.375, 1000.0):
            steps = int(20 * total)
            g = _check_grid(loop, total, steps)
            assert np.sum(g.counts) == steps
            assert set(g.kind) <= {dynamics.CONSTANT, dynamics.THETA}
            if name in expect:
                assert (g.kind.size, np.sum(g.kind != dynamics.CONSTANT)) == expect[name]


CONSTANT_H_LOOPS = {
    # cos(theta_1) = 0 hides level 2: v = e_1 on every edge of the rectangle
    "half_pi_rectangle": rectangle_loop(2, PlaneTag(("theta:2", "phi:2"), {"theta:1": np.pi / 2}),
                                        1.0, 2.0, False),
    # theta_2 = 0 leaves phi_2 out of v, so only a dead column moves
    "phi_at_zero_theta": LoopPath(2, np.array([[0.7, 0.0]] * 4),
                                  np.array([[0.3, 0.0], [0.3, 1.5], [0.3, 0.4], [0.3, 0.0]])),
}


@pytest.mark.parametrize("name", CONSTANT_H_LOOPS)
@pytest.mark.parametrize("steps", [1, 7, 4000])
def test_constant_h_loop_matches_expm(name, steps):
    # every edge keeps H constant, so each takes one step, and the whole
    # traversal is exp(-i T |v0><v0|) whatever the budget
    loop = CONSTANT_H_LOOPS[name]
    total = 1.3 * 20.0
    assert dynamics._live_levels(loop.thetas).size > 0
    assert np.all(dynamics._grid(loop, steps).counts == 1)
    expect = expm(-1j * total * hamiltonian_at(loop.base_point))
    assert max_abs_diff(propagate_frames(loop, total, steps), expect) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(THETA_KINDS), min_size=1, max_size=4),
       st.lists(st.sampled_from(EDGE_KINDS), min_size=1, max_size=6),
       st.sampled_from([1, 2, 7, 33, 200, 4000]), st.integers(0, 2 ** 32 - 1))
@example(["free", "half_pi", "zero", "const"], ["axis", "axis", "still", "oblique"], 200, 0)
@example(["zero"], ["still"], 7, 1)  # a degenerate loop: one constant edge
def test_grid_of_random_loops(kinds, edges, steps, seed):
    loop = _sampled_loop(np.random.default_rng(seed), kinds, edges)
    _check_grid(loop, 1.3 * 20.0, steps)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@example(2, 0)
def test_phi_shift_conjugates_two_level_steps(n, seed):
    # the phi shift of test_phi_shift_conjugates_both_propagators on loops
    # whose edges move one coordinate each, every lower theta 0: the
    # co-rotating steps on theta and phi edges conjugate exactly too
    rng = np.random.default_rng(seed)
    level = int(rng.integers(1, n + 1))
    thetas = np.where(np.arange(n) < level - 1, 0.0, rng.uniform(0.2, 1.4, n))
    phis = rng.uniform(0.5, 2.5, n)
    t0, t1 = np.sort(rng.uniform(0.0, np.pi / 2, 2))
    p0, p1 = rng.uniform(0.5, 2.5, 2)
    shift = rng.uniform(0.0, 3.0, n)
    p = np.append(np.exp(1j * shift), 1.0)
    base = _rectangle(n, level, (t0, p0, t1, p1), thetas, phis)
    moved = LoopPath(n, base.thetas, base.phis + shift)
    assert dynamics.THETA in dynamics._grid(base, 200).kind
    u, v = (propagate_frames(loop, 1.3 * 20.0, 200) for loop in (base, moved))
    assert max_abs_diff(v, p[:, None] * u * p.conj()) <= 1e-12
    for name in ("CROT", "PHASE2"):
        loop = program_schedule(two_qubit_gate(name))
        shift = rng.uniform(0.0, 2 * np.pi - np.max(loop.phis), loop.n)
        p = np.append(np.exp(1j * shift), 1.0)
        u = propagate_frames(loop, 250.0, 5000)
        v = propagate_frames(LoopPath(loop.n, loop.thetas, loop.phis + shift), 250.0, 5000)
        assert max_abs_diff(v, p[:, None] * u * p.conj()) <= 1e-12


@pytest.mark.parametrize("total,steps", [(0.0, 10), (-1.0, 10), (np.inf, 10),
                                         (np.nan, 10), (10.0, 0), (10.0, MAX_STEPS + 1)])
def test_propagate_frames_validation(total, steps):
    with pytest.raises(ValueError):
        propagate_frames(c1_loop(), total, steps)


def test_transport_leakage_warning():
    with pytest.warns(UserWarning, match="non-adiabatic"):
        adiabatic_transport(c1_loop(), 3.0, steps=60)


def test_schedule_validation(monkeypatch):
    # bad times and step counts are ValueErrors raised before any sampling
    def no_sampling(*args):
        raise AssertionError("propagated before the inputs were checked")

    monkeypatch.setattr(dynamics, "propagate_frames", no_sampling)
    loop = c1_loop()
    with pytest.raises(ValueError):
        adiabatic_transport(loop, 0.0)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        adiabatic_transport(loop, 10.0, steps=0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            adiabatic_transport(loop, bad)
    with pytest.raises(ValueError, match="steps must be <="):
        adiabatic_transport(loop, 10.0, steps=10 ** 14)
    # the count that dt <= MAX_EPS_DT asks for is checked too
    for total in (1e300, 1.0 + MAX_STEPS * dynamics.MAX_EPS_DT):
        with pytest.raises(ValueError, match="steps must be <="):
            adiabatic_transport(loop, total, steps=10)


COUNTED = {  # entry point -> (call on a loop and a count, the count's name)
    "propagate_frames": (lambda loop, c: propagate_frames(loop, 10.0, c), "steps"),
    "adiabatic_transport": (lambda loop, c: adiabatic_transport(loop, 4000.0, c)[0].matrix, "steps"),
    "kick_evolution": (lambda loop, c: kick_evolution(loop, 10.0, c), "intervals"),
    "holonomy": (lambda loop, c: holonomy(loop, c).matrix, "segments_per_edge"),
}


@pytest.mark.parametrize("entry", sorted(COUNTED))
def test_counts_must_be_integers(entry, monkeypatch):
    # a boolean, fractional or NaN count is a ValueError naming it, raised
    # before any work; numpy integers are counts like any other
    # the module: as an attribute of the package, the name is the function
    holonomy_module = importlib.import_module("cpn_holonomy.holonomy")

    def no_work(*args):
        raise AssertionError("worked before the count was checked")

    call, name = COUNTED[entry]
    loop = program_schedule(two_qubit_gate("CROT"))
    for module, helper in ((dynamics, "_grid"), (dynamics, "_excited_states"),
                           (holonomy_module, "connection_along")):
        monkeypatch.setattr(module, helper, no_work)
    for bad in (2.5, np.float64(2.5), np.nan, True, False):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(loop, bad)
    monkeypatch.undo()
    assert np.array_equal(call(loop, np.int64(3)), call(loop, 3))


def _family_polygon(family, seed, vertices=7):
    """A seeded random polygon in the plane of a C1-C4 step at n = 3."""
    step = GateStep(family, 1, None if family == "C1" else 2, 0.0)
    rng = np.random.default_rng(seed)
    (k0, _), (k1, _) = step.plane().axes()
    x, y = (rng.uniform(0.1, 1.4 if kind == "theta" else 6.0, vertices) for kind in (k0, k1))
    return loop_from_plane_vertices(3, step.plane(), list(zip(x, y)), family)


REPEATABLE = {
    "CROT": lambda: program_schedule(two_qubit_gate("CROT")),
    "PHASE2": lambda: program_schedule(two_qubit_gate("PHASE2")),
    **{family: functools.partial(_family_polygon, family, seed)
       for seed, family in enumerate(("C1", "C2", "C3", "C4"))},
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(REPEATABLE)), st.integers(0, 2 ** 16))
@example("CROT", 0)  # the first vertex
@example("PHASE2", -1)  # the last vertex
def test_repeated_vertex_changes_no_bit(name, at):
    # a zero-length edge is dropped by both propagators and by the integrator,
    # so repeating any vertex gives the same bytes
    loop = REPEATABLE[name]()
    at %= loop.num_vertices
    keep = np.insert(np.arange(loop.num_vertices), at, at)
    twin = LoopPath(loop.n, loop.thetas[keep], loop.phis[keep], loop.plane, loop.family)
    for run in (lambda l: propagate_frames(l, 300.0, 3000), lambda l: kick_evolution(l, 30.0, 500),
                lambda l: holonomy(l, 8).matrix):
        assert _same_bits(run(twin), run(loop))


# ---------- kick scheme ----------

def test_kick_all_base_is_free_evolution():
    # a degenerate loop at one point: every kick cancels
    th = np.array([0.5, 0.2])
    loop = LoopPath(2, np.tile(th, (3, 1)), np.tile(th * 0.4, (3, 1)))
    got = kick_evolution(loop, 1.3 * 2.0, 8)
    f0 = frame_unitary_batch(th, th * 0.4)
    expect = f0 @ np.diag([1, 1, np.exp(-1j * 1.3 * 2.0)]) @ f0.conj().T
    assert max_abs_diff(got, expect) < 1e-12


def test_kick_first_order_convergence():
    loop = c1_loop()
    total = 40.0
    ref = propagate_frames(loop, total, 16384)
    errs = {n_int: max_abs_diff(kick_evolution(loop, total, n_int), ref)
            for n_int in (250, 500, 1000)}
    assert 1.6 < errs[250] / errs[500] < 2.4
    assert 1.6 < errs[500] / errs[1000] < 2.4


def kick_code_block(loop: LoopPath, total: float, intervals: int) -> np.ndarray:
    """Code-subspace block of the kick propagator, in the base-point frame."""
    code = frame_unitary_batch(loop.thetas[0], loop.phis[0])[:, : loop.n]
    return code.conj().T @ kick_evolution(loop, total, intervals) @ code


def test_kick_plus_adiabatic_reproduces_holonomy():
    # large N, slow traversal: code block of the kick propagator ~ loop holonomy
    loop = c1_loop()
    block = kick_code_block(loop, 2000.0, 50000)
    assert max_abs_diff(block, holonomy(loop, 64).matrix) < 5e-2


def test_kick_evolution_validation(monkeypatch):
    # bad times and interval counts are ValueErrors raised before any sampling
    def no_sampling(*args):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(dynamics, "_excited_states", no_sampling)
    loop = c1_loop()
    with pytest.raises(ValueError, match="positive"):
        kick_evolution(loop, -0.1, 10)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            kick_evolution(loop, bad, 10)
    with pytest.raises(ValueError, match="intervals must be >= 1"):
        kick_evolution(loop, 10.0, 0)
    with pytest.raises(ValueError, match="intervals must be <="):
        kick_evolution(loop, 10.0, MAX_STEPS + 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(THETA_KINDS), min_size=1, max_size=4),
       st.lists(st.sampled_from(EDGE_KINDS), min_size=1, max_size=6),
       st.sampled_from([1, 2, 7, 31, 32, 33, 250]), st.integers(0, 2 ** 32 - 1))
@example(["free", "half_pi", "zero", "const"], ["axis", "axis", "still", "oblique"], 250, 0)
@example(["neg_zero", "free"], ["axis", "axis", "axis"], 33, 1)  # -0.0 vertices
@example(["free", "const"], ["still", "still"], 32, 2)  # a degenerate loop
@example(["free"], ["axis", "oblique"], 1, 3)
@example(["zero", "neg_zero"], ["oblique", "still"], 31, 4)  # no live level
def test_kick_evolution_matches_interp(kinds, edges, intervals, seed):
    # the kicks are sampled at the left-endpoint nodes; the propagator is
    # the one of np.interp samples at those nodes
    rng = np.random.default_rng(seed)
    loop = _sampled_loop(rng, kinds, edges)
    assert np.array_equal(kick_evolution(loop, 1.3 * 20.0, intervals),
                          interp_propagator(loop, 1.3 * 20.0, kick_nodes(intervals)))


@pytest.mark.parametrize("intervals", [1, 3, 5])
def test_kick_level_live_only_at_an_unhit_vertex(intervals):
    # theta_2 is nonzero only on the two short edges around vertex 2, between
    # kick nodes: the sampler steps it (live at a vertex), the np.interp
    # route at the nodes does not, and the propagators agree
    th = np.array([[0.3, 0.0], [1.2, 0.0], [1.2, 0.01], [1.2, 0.0], [0.3, 0.0]])
    loop = LoopPath(2, th, np.full((5, 2), 0.7))
    nodes = kick_nodes(intervals)
    assert np.all(arclength_interpolator(loop)(nodes)[0][:, 1] == 0.0)
    assert list(dynamics._live_levels(loop.thetas)) == [0, 1]
    u = kick_evolution(loop, 1.3 * 20.0, intervals)
    assert np.array_equal(u, interp_propagator(loop, 1.3 * 20.0, nodes))
    assert np.array_equal(u[1], [0, 1, 0]) and np.array_equal(u[:, 1], [0, 1, 0])


def _peak_mb(f) -> float:
    """Peak memory that tracemalloc traces while f runs, above what it held before, in MB."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        if started:
            tracemalloc.stop()


# The rank-1 steps are sampled straight into the chunk layout of
# linalg.run_layout, with no zero-padded copy of v; with the copy, the two
# peaks below were 57.2 MB and 37.5 MB.

def test_kick_peak_memory():
    loop = program_schedule(two_qubit_gate("PHASE2"))
    assert _peak_mb(lambda: kick_evolution(loop, 1.0, 2 ** 18)) < 48


def test_rank1_propagation_peak_memory():
    a = np.linspace(0.0, 2 * np.pi, 33)[:-1]
    loop = loop_from_plane_vertices(3, PlaneTag(("theta:1", "theta:3")),
                                    [(0.7 + 0.3 * np.cos(t), 0.8 + 0.3 * np.sin(t)) for t in a],
                                    "C3")
    assert set(dynamics._grid(loop, 2 ** 18).kind) == {dynamics.RANK1}
    assert _peak_mb(lambda: propagate_frames(loop, 1.0, 2 ** 18)) < 32


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_phi_shift_conjugates_both_propagators(n, seed):
    # H(theta, phi + c) = P_c H P_c^dagger with P_c = diag(e^{i c}, 1) (the excited
    # level n+1 carries no phi), so both oracles' propagators conjugate exactly
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, np.pi / 2, (4, n))
    ph = rng.uniform(0.5, 2.5, (4, n))
    th[-1], ph[-1] = th[0], ph[0]
    shift = rng.uniform(0.0, 3.0, n)
    p = np.append(np.exp(1j * shift), 1.0)
    base, moved = LoopPath(n, th, ph), LoopPath(n, th, ph + shift)
    for oracle in (propagate_frames, kick_evolution):
        u, v = (oracle(loop, 1.3 * 20.0, 200) for loop in (base, moved))
        assert max_abs_diff(v, p[:, None] * u * p.conj()) <= 1e-12
