"""Holonomy engine: closed-form laws, loop algebra, convergence, shape invariance."""
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cpn_holonomy import (GateStep, LoopPath, PlaneTag, UnitarityError, UnitaryMatrix,
                          enclosed_area, holonomies, holonomy, loop_from_plane_vertices,
                          primitive_holonomy, program_schedule, realize_step_as_loop,
                          rectangle_loop, two_qubit_gate)
from cpn_holonomy.chart import frame_unitary_batch
from cpn_holonomy.connection import connection_along
from cpn_holonomy.holonomy import MAX_SEGMENT_ENTRIES, _silent_edges
from helpers import circle_loop, concatenate, l_shape_loop, reverse
from test_connection import oracle_along  # per-entry closed forms of the connection

HOLONOMY = importlib.import_module("cpn_holonomy.holonomy")  # the package attribute is the function

C1_PLANE = PlaneTag(("theta:1", "phi:1"))


def random_wiggle_loop(rng, n, num_verts=6, amp=0.25):
    """Closed random polyline around an interior point, vertices over all coords."""
    center_t = rng.uniform(0.35, np.pi / 2 - 0.35, n)
    center_p = rng.uniform(1.0, 2 * np.pi - 1.0, n)
    th = center_t + rng.uniform(-amp, amp, (num_verts, n))
    ph = center_p + rng.uniform(-amp, amp, (num_verts, n))
    th = np.vstack([th, th[0]])
    ph = np.vstack([ph, ph[0]])
    return LoopPath(n, th, ph)


def test_degenerate_loop_is_identity():
    p = np.full((3, 2), 0.3)
    loop = LoopPath(2, p, p * 0.5)
    u = holonomy(loop, 16)
    assert u.distance(np.eye(2)) == 0.0


def test_c1_law_at_pi():
    step = GateStep("C1", 1, None, np.pi)
    loop = realize_step_as_loop(step, 1)
    got = holonomy(loop, 8).matrix
    assert abs(got[0, 0] - (-1.0)) < 1e-12


def test_c3_law_at_half_pi():
    step = GateStep("C3", 1, 2, np.pi / 2)
    loop = realize_step_as_loop(step, 2)
    got = holonomy(loop, 8).matrix
    assert np.max(np.abs(got - np.array([[0, -1], [1, 0]]))) < 1e-12


@pytest.mark.parametrize("area", [0.1, np.pi / 4, np.pi / 2, np.pi, 3.0])
@pytest.mark.parametrize("beta", [1, 2, 3])
def test_c1_closed_form_law(beta, area):
    n = 3
    step = GateStep("C1", beta, None, area)
    loop = realize_step_as_loop(step, n)
    expect = np.eye(n, dtype=complex)
    expect[beta - 1, beta - 1] = np.exp(-1j * area)
    assert abs(enclosed_area(loop, "C1") - area) < 1e-12
    assert holonomy(loop, 64).distance(expect) < 1e-7


@pytest.mark.parametrize("family,beta,beta_bar", [
    ("C2", 1, 2), ("C2", 1, 3), ("C2", 2, 3),
    ("C3", 1, 2), ("C3", 2, 3), ("C3", 3, 1),
    ("C4", 1, 2), ("C4", 2, 1), ("C4", 1, 3),
])
def test_c2_c3_c4_closed_form_laws(family, beta, beta_bar):
    n = 3
    for area in (0.1, np.pi / 4, 1.2, -0.8):
        step = GateStep(family, beta, beta_bar, area)
        loop = realize_step_as_loop(step, n)
        got = holonomy(loop, 64)
        assert got.distance(primitive_holonomy(step, n).matrix) < 1e-7


def test_unitarity_of_engine_output():
    rng = np.random.default_rng(71)
    for _ in range(10):
        loop = random_wiggle_loop(rng, 3)
        u = holonomy(loop, 24)
        assert u.defect < 1e-9
        m = u.matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(3))) < 1e-12


def test_concatenation_homomorphism():
    rng = np.random.default_rng(73)
    for _ in range(8):
        a = random_wiggle_loop(rng, 2)
        b = LoopPath(2,
                     np.vstack([a.thetas[:1], a.thetas[:1] + 0.1, a.thetas[:1] - 0.05, a.thetas[:1]]),
                     np.vstack([a.phis[:1], a.phis[:1] + 0.15, a.phis[:1] + 0.3, a.phis[:1]]))
        ab = concatenate(a, b)
        lhs = holonomy(ab, 32).matrix
        rhs = holonomy(b, 32).matrix @ holonomy(a, 32).matrix  # later loop on the left
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_concatenate_with_degenerate_is_neutral():
    rng = np.random.default_rng(79)
    a = random_wiggle_loop(rng, 2)
    base_t, base_p = a.thetas[:1], a.phis[:1]
    degen = LoopPath(2, np.repeat(base_t, 3, axis=0), np.repeat(base_p, 3, axis=0))
    assert np.max(np.abs(holonomy(concatenate(a, degen), 32).matrix
                         - holonomy(a, 32).matrix)) < 1e-10


def test_loop_times_inverse_is_identity():
    rng = np.random.default_rng(83)
    for _ in range(5):
        a = random_wiggle_loop(rng, 2)
        round_trip = concatenate(a, reverse(a))
        assert holonomy(round_trip, 24).distance(np.eye(2)) < 1e-8


def test_reverse_gives_dagger():
    rng = np.random.default_rng(89)
    for _ in range(8):
        loop = random_wiggle_loop(rng, 3)
        u = holonomy(loop, 32).matrix
        v = holonomy(reverse(loop), 32).matrix
        assert np.max(np.abs(v - u.conj().T)) < 1e-8


def test_retraced_path_zero_area_identity():
    # out-and-back excursions enclose nothing and transport nothing
    rng = np.random.default_rng(97)
    for _ in range(5):
        n = 2
        base_t = rng.uniform(0.3, 1.2, n)
        base_p = rng.uniform(0.5, 2.0, n)
        out_t = base_t + rng.uniform(-0.2, 0.2, (3, n))
        out_p = base_p + rng.uniform(-0.2, 0.2, (3, n))
        th = np.vstack([base_t, out_t, out_t[::-1], base_t])
        ph = np.vstack([base_p, out_p, out_p[::-1], base_p])
        loop = LoopPath(n, th, ph)
        assert holonomy(loop, 16).distance(np.eye(n)) < 1e-12


def test_shape_invariance_equal_area():
    """Rectangle, circle and L-shape of equal C1 area give equal holonomies."""
    circle = circle_loop(1, C1_PLANE, (0.75, 1.2), 0.35, num_vertices=512,
                         clockwise=True, family="C1")
    target = enclosed_area(circle, "C1")
    assert target > 0
    # rectangle with the same area: full theta edge at Theta, solve phi span
    theta_edge = 1.1
    rect = rectangle_loop(1, C1_PLANE, theta_edge, target / np.sin(theta_edge) ** 2,
                          clockwise=True, family="C1")
    # L-shape: fix outer box and first notch edge, solve the second
    e0, e1, n0 = 1.2, 0.7, 0.5
    notch_span = (e1 * np.sin(e0) ** 2 - target) / (np.sin(e0) ** 2 - np.sin(n0) ** 2)
    assert 0 < notch_span < e1
    lshape = l_shape_loop(1, C1_PLANE, e0, e1, n0, e1 - notch_span,
                          clockwise=True, family="C1")
    for loop in (rect, lshape):
        assert abs(enclosed_area(loop, "C1") - target) < 1e-12
    h_rect = holonomy(rect, 64).matrix
    h_circ = holonomy(circle, 16).matrix  # 512 edges x 16 = 8192 segments
    h_lsh = holonomy(lshape, 64).matrix
    assert np.max(np.abs(h_rect - h_circ)) < 1e-6
    assert np.max(np.abs(h_rect - h_lsh)) < 1e-6
    assert np.max(np.abs(h_circ - h_lsh)) < 1e-6


def test_discretization_fourth_order_on_circle():
    # rectangles are segment-exact, so convergence is measured on a curve; its
    # oblique edges take two Gauss nodes per segment, so the error falls at
    # fourth order
    circle = circle_loop(1, C1_PLANE, (0.7, 1.0), 0.3, num_vertices=64,
                         clockwise=True, family="C1")
    area = enclosed_area(circle, "C1")
    expect = np.array([[np.exp(-1j * area)]])
    err = [np.max(np.abs(holonomy(circle, s).matrix - expect)) for s in (1, 2, 4)]
    assert 14.0 < err[0] / err[1] < 18.0
    assert 14.0 < err[1] / err[2] < 18.0


def _tilted_ellipse(plane, family):
    """64-edge ellipse at 45 degrees: no mirror symmetry about either plane axis."""
    a = np.linspace(0.0, 2 * np.pi, 65)[:-1]
    x, y = 0.35 * np.cos(a), 0.15 * np.sin(a)
    c = np.cos(np.pi / 4)
    verts = [(0.75 + c * (u - v), 0.8 + c * (u + v)) for u, v in zip(x, y)]
    return loop_from_plane_vertices(4, plane, verts, family)


@pytest.mark.parametrize("family,plane,shape", [
    ("C1", ("theta:2", "phi:2"), "circle"), ("C3", ("theta:1", "theta:3"), "circle"),
    ("C4", ("theta:2", "theta:4"), "circle"), ("C1", ("theta:2", "phi:2"), "ellipse"),
])
def test_integrator_fourth_order(family, plane, shape):
    # n = 4, 64 oblique edges; the two-node Magnus rule must cut the error 16x per
    # doubling. At 8 segments per edge C3 and C4 reach roundoff, so the
    # doublings run over 1, 2 and 4. On the circles odd-order terms of
    # off-centre nodes cancel by mirror symmetry, so the tilted ellipse is the
    # case that tells the Gauss nodes from others.
    tag = PlaneTag(plane, {"phi:2": np.pi / 2} if family == "C4" else {})
    if shape == "circle":
        loop = circle_loop(4, tag, (0.75, 0.8), 0.3, num_vertices=64, family=family)
    else:
        loop = _tilted_ellipse(tag, family)
    (_, b), (_, bb) = loop.plane.axes()
    step = GateStep(family, b, None if family == "C1" else bb, enclosed_area(loop, family))
    expect = primitive_holonomy(step, 4).matrix
    err = [holonomy(loop, s).distance(expect) for s in (1, 2, 4)]
    ratios = np.array(err[:-1]) / np.array(err[1:])
    assert np.all((14.0 <= ratios) & (ratios <= 18.0)), ratios


def _segment_generators(th, ph, segments, along):
    """Per edge of the polyline (th, ph), the generators g of its factors
    e^{D/2} expm(-(g + D)) e^{D/2}, as (factors, n, n), and the diagonal of D.

    along(theta, phi, d_theta, d_phi) is the full n x n A_delta. An edge that
    moves one coordinate takes one factor: g is A_delta at its midpoint, and
    D = i d_phi (zero on a theta edge). An edge that moves several takes
    `segments` factors with D = 0: g is the fourth-order Magnus term of the
    two Gauss nodes at (seg + 1/2 -+ sqrt(3)/6) / segments,
    g = (A1 + A2)/2 + (sqrt(3)/12) [A1, A2].
    """
    out = []
    for t0, t1, p0, p1 in zip(th[:-1], th[1:], ph[:-1], ph[1:]):
        d_th, d_ph = t1 - t0, p1 - p0
        oblique = np.count_nonzero(d_th) + np.count_nonzero(d_ph) >= 2
        m = segments if oblique else 1

        def at(offset):
            frac = ((np.arange(m) + 0.5 + offset) / m)[:, None]
            return along(t0 + d_th * frac, p0 + d_ph * frac,
                         np.tile(d_th / m, (m, 1)), np.tile(d_ph / m, (m, 1)))

        if oblique:
            a1, a2 = at(-np.sqrt(3) / 6), at(np.sqrt(3) / 6)
            out.append(((a1 + a2) / 2 + np.sqrt(3) / 12 * (a1 @ a2 - a2 @ a1), np.zeros(th.shape[1])))
        else:
            out.append((at(0.0), 1j * d_ph))
    return out


def _ordered_product(generators, n):
    """The product of the factors of _segment_generators by scipy expm, later on the left."""
    u = np.eye(n, dtype=complex)
    for g, d in generators:
        half = np.exp(d / 2)
        for gi in g:
            u = half[:, None] * expm(-(gi + np.diag(d))) * half @ u
    return u


def _dense_reference(loop, segments_per_edge):
    """Full n x n generators from the per-entry forms, scipy expm, sequential product."""
    return _ordered_product(_segment_generators(loop.thetas, loop.phis, segments_per_edge,
                                                oracle_along), loop.n)


def _pairwise_product(factors):
    """factors[-1] @ ... @ factors[0], multiplied pairwise."""
    while factors.shape[0] > 1:
        pairs = factors[1::2] @ factors[0:-1:2]
        if factors.shape[0] % 2:
            pairs[-1] = factors[-1] @ pairs[-1]
        factors = pairs
    return factors[0]


def _midpoint_limit(th, ph):
    """Richardson limit (4 U_2048 - U_1024) / 3 of the midpoint products
    expm(-A_delta(midpoint)) at 2^10 and 2^11 segments per edge, scipy expm,
    from the per-entry forms. The midpoint rule is second order on every
    edge, so the limit is fourth order, independent of the engine's factors."""
    n = th.shape[1]
    limit = []
    for m in (1024, 2048):
        u = np.eye(n, dtype=complex)
        frac = ((np.arange(m) + 0.5) / m)[:, None]
        for t0, t1, p0, p1 in zip(th[:-1], th[1:], ph[:-1], ph[1:]):
            if np.any(t1 != t0) or np.any(p1 != p0):
                a = oracle_along(t0 + (t1 - t0) * frac, p0 + (p1 - p0) * frac,
                                 np.tile((t1 - t0) / m, (m, 1)), np.tile((p1 - p0) / m, (m, 1)))
                u = _pairwise_product(expm(-a)) @ u
        limit.append(u)
    return (4 * limit[1] - limit[0]) / 3


@pytest.mark.parametrize("family,plane,frozen", [
    ("C1", ("theta:16", "phi:16"), {}),
    ("C2", ("theta:5", "phi:16"), {"theta:16": np.pi / 2}),
    ("C3", ("theta:3", "theta:16"), {"theta:1": 0.4, "theta:9": 0.9}),
    ("C4", ("theta:7", "theta:12"), {"phi:7": np.pi / 2, "theta:2": 0.6}),
])
def test_touched_block_matches_dense_reference(family, plane, frozen):
    n = 16
    circle = circle_loop(n, PlaneTag(plane, frozen), (0.7, 0.8), 0.3, num_vertices=32,
                         family=family)
    got = holonomy(circle, 4).matrix
    assert np.max(np.abs(got - _dense_reference(circle, 4))) <= 1e-12


def test_all_coordinate_loop_matches_dense_reference():
    rng = np.random.default_rng(101)
    loop = random_wiggle_loop(rng, 16, num_verts=8, amp=0.2)
    got = holonomy(loop, 8).matrix
    assert np.max(np.abs(got - _dense_reference(loop, 8))) <= 1e-12


@pytest.mark.parametrize("name", ["CROT", "XOR", "SWAP", "PHASE1", "PHASE2"])
def test_gate_program_loop_matches_dense_reference(name):
    """Most edges of a program loop are silent connector legs; the dense
    reference exponentiates every segment, the engine skips those edges."""
    loop = program_schedule(two_qubit_gate(name))
    assert np.any(_silent(loop.thetas, loop.phis))
    got = holonomy(loop, 4).matrix
    assert np.max(np.abs(got - _dense_reference(loop, 4))) <= 1e-12


# theta_1 frozen at 0.5 puts w_2 != 0, so phi_2 edges off theta_2 = 0 rotate their generator
OFF_ORIGIN_PLANE = PlaneTag(("theta:2", "phi:2"), {"theta:1": 0.5})


def test_off_origin_phi_edge_matches_midpoint_limit():
    """The rectangle's one live phi edge, at theta_2 = 1, takes one rotating-frame
    factor; its theta edges are exact at the midpoint, its phi edge at
    theta_2 = 0 is silent. The midpoint rule alone is off by 7.6e-2 here."""
    loop = rectangle_loop(2, OFF_ORIGIN_PLANE, 1.0, 2.0, False)
    assert _silent(loop.thetas, loop.phis).tolist() == [False, False, False, True]
    got = holonomy(loop, 1).matrix
    assert np.max(np.abs(got - _midpoint_limit(loop.thetas, loop.phis))) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1), num_steps=st.integers(1, 5))
def test_axis_aligned_loop_matches_midpoint_limit(n, seed, num_steps):
    # off the origin every phi edge's generator rotates; one factor per edge is exact
    th, ph = _axis_polyline(seed, n, num_steps)
    got = holonomy(LoopPath(n, th, ph), 1).matrix
    assert np.max(np.abs(got - _midpoint_limit(th, ph))) <= 1e-9


def test_mixed_loop_converges_at_fourth_order():
    """A hexagon with four oblique edges and two phi edges off the origin: the
    phi edges are exact, so the Magnus segments of the oblique ones set the
    order. With midpoint phi edges the ratios read 4."""
    verts = [(0.6, 1.0), (0.6, 1.8), (0.9, 2.2), (1.2, 1.8), (1.2, 1.0), (0.9, 0.6)]
    loop = loop_from_plane_vertices(2, OFF_ORIGIN_PLANE, verts)
    expect = _midpoint_limit(loop.thetas, loop.phis)
    err = [np.max(np.abs(holonomy(loop, s).matrix - expect)) for s in (1, 2, 4, 8)]
    ratios = np.array(err[:-1]) / np.array(err[1:])
    assert np.all((14.0 <= ratios) & (ratios <= 18.0)), ratios


@pytest.mark.parametrize("loop", [
    rectangle_loop(2, OFF_ORIGIN_PLANE, 1.0, 2.0, False),
    rectangle_loop(3, PlaneTag(("theta:1", "theta:3"), {"phi:1": 0.7, "theta:2": 0.4}), 0.9, 1.1,
                   True),
    *(realize_step_as_loop(GateStep(f, 1, None if f == "C1" else 2, 0.8), 3)
      for f in ("C1", "C2", "C3", "C4")),
    *(program_schedule(two_qubit_gate(name))
      for name in ("CROT", "XOR", "SWAP", "PHASE1", "PHASE2", "UPH1")),
], ids=["off-origin", "theta-plane", "C1", "C2", "C3", "C4",
        "CROT", "XOR", "SWAP", "PHASE1", "PHASE2", "UPH1"])
def test_axis_aligned_loop_ignores_segment_count(loop):
    # every live edge moves one coordinate and takes one factor, whatever the count
    assert np.array_equal(holonomy(loop, 64).matrix, holonomy(loop, 1).matrix)


def _full_along(theta, phi, d_theta, d_phi):
    """connection_along embedded in the full n x n matrices."""
    levels, block = connection_along(theta, phi, d_theta, d_phi)
    full = np.zeros(theta.shape[:-1] + (theta.shape[-1],) * 2, dtype=complex)
    full[..., levels[:, None], levels] = block
    return full


def _edge_generators(th, ph, segments):
    """_segment_generators from connection_along, full n x n."""
    return _segment_generators(th, ph, segments, _full_along)


def _silent(th, ph):
    return _silent_edges(th, np.diff(th, axis=0), np.diff(ph, axis=0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 4))
def test_silent_edges_have_zero_generators(n, seed, num_verts, segments):
    """Every edge flagged silent has exactly zero generators, on polylines whose
    vertices put many coordinates exactly at theta = 0 or hold them fixed."""
    rng = np.random.default_rng(seed)
    th = np.where(rng.random((num_verts, n)) < 0.5, 0.0,
                  rng.choice([0.3, np.pi / 2, 1.1], (num_verts, n)))
    ph = np.where(rng.random((num_verts, n)) < 0.5, 0.4, rng.uniform(0, 2 * np.pi, (num_verts, n)))
    th, ph = np.vstack([th, th[0]]), np.vstack([ph, ph[0]])
    silent = _silent(th, ph)
    gens = _edge_generators(th, ph, segments)
    assert not any(np.any(g) for (g, _), quiet in zip(gens, silent) if quiet)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 4),
       st.sampled_from([1, 3, 2 ** 14]))
def test_blocked_holonomy_matches_full_sequential_product(n, seed, num_verts, segments,
                                                          block_entries):
    """Silent edges left out, idle levels never evaluated, blocks of any size
    (one factor each at 1): the holonomy is still the ordered product of the
    full n x n factors (the Magnus term of two Gauss nodes on each segment of
    an oblique edge, the rotating-frame midpoint factor on the others)."""
    rng = np.random.default_rng(seed)
    th = np.where(rng.random((num_verts, n)) < 0.5, 0.0, rng.uniform(0.0, np.pi / 2, (num_verts, n)))
    th[:, rng.random(n) < 0.4] = 0.0  # whole levels at theta = 0, some with a moving phi
    ph = np.where(rng.random((num_verts, n)) < 0.5, 0.4, rng.uniform(0, 2 * np.pi, (num_verts, n)))
    th, ph = np.vstack([th, th[0]]), np.vstack([ph, ph[0]])
    expect = _ordered_product(_edge_generators(th, ph, segments), n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HOLONOMY, "BLOCK_ENTRIES", block_entries)
        got = holonomy(LoopPath(n, th, ph), segments).matrix
    assert np.max(np.abs(got - expect)) <= 1e-13


def test_silent_edges_of_program_loops_are_exactly_the_zero_edges():
    for name in ("CROT", "XOR", "SWAP", "PHASE1", "PHASE2"):
        loop = program_schedule(two_qubit_gate(name))
        zero = [not np.any(g) for g, _ in _edge_generators(loop.thetas, loop.phis, 2)]
        assert np.array_equal(_silent(loop.thetas, loop.phis), zero), name


def test_loop_of_silent_edges_is_identity():
    # theta_1 out and back at phi = 0, then phi_1 turned at theta_1 = 0
    loop = LoopPath(2, np.array([[0, 0], [0.4, 0], [0, 0], [0, 0], [0, 0.0]]),
                    np.array([[0, 0], [0, 0], [0, 0], [0.5, 0], [0, 0.0]]))
    assert np.all(_silent(loop.thetas, loop.phis))
    assert np.array_equal(holonomy(loop, 8).matrix, np.eye(2))


@pytest.mark.parametrize("block_entries", [8, 2 ** 13])  # four factors a block, or all
def test_live_edges_whose_segment_moves_underflow_add_nothing(block_entries):
    # a zigzag of oblique edges moving by (a, 2a), a the least subnormal, is
    # live, but a quarter of either move rounds to 0: connection_along sees
    # no moving level, and a block of such factors touches none
    a = 5e-324
    triangle = [(0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 0.0)]
    zigzag = np.array([(0.0, 0.0), (a, 2 * a)] * 3 + [(0.0, 0.0)])
    assert not np.any(_silent(zigzag[:, :1], zigzag[:, 1:]))
    pts, ref = np.vstack([zigzag[:-1], triangle]), np.array(triangle)
    assert connection_along(0.0, 0.0, a / 4, 2 * a / 4)[0].size == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HOLONOMY, "BLOCK_ENTRIES", block_entries)
        got = holonomy(LoopPath(1, pts[:, :1], pts[:, 1:]), 4).matrix
        expect = holonomy(LoopPath(1, ref[:, :1], ref[:, 1:]), 4).matrix
    assert np.array_equal(got, expect)


def test_open_loop_rejected():
    with pytest.raises(ValueError, match="not closed"):
        LoopPath(1, np.array([[0.0], [0.3], [0.2]]), np.zeros((3, 1)))


def test_holonomy_memory_is_bounded_by_its_blocks():
    # 3 x 2^18 live segments would take over 70 MB built at once; numpy reports
    # its allocations to tracemalloc. The rectangle's axis-aligned edges take
    # one factor each, the triangle's oblique edges 2^18 segments of two
    # connection nodes.
    rectangle = realize_step_as_loop(GateStep("C1", 1, None, 0.7), 1)
    triangle = loop_from_plane_vertices(1, C1_PLANE, [(0.4, 0.5), (1.2, 0.9), (0.7, 2.0)], "C1")
    for loop in (rectangle, triangle):
        tracemalloc.start()
        try:
            u = holonomy(loop, 2 ** 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert abs(u.matrix[0, 0] - np.exp(-1j * enclosed_area(loop, "C1"))) < 1e-9


# ---------- batches: holonomies integrates many loops in one pass ----------

def _random_step(rng, n):
    """A random C1-C4 step on n levels (C1 only at n = 1), within one rectangle."""
    family = "C1" if n == 1 else str(rng.choice(["C1", "C2", "C3", "C4"]))
    if family == "C1":
        return GateStep(family, int(rng.integers(1, n + 1)), None, float(rng.uniform(-3, 3)))
    if family == "C2":
        b = int(rng.integers(1, n))
        return GateStep(family, b, int(rng.integers(b + 1, n + 1)), float(rng.uniform(-3, 3)))
    b, bb = (int(v) for v in rng.choice(np.arange(1, n + 1), 2, replace=False))
    return GateStep(family, b, bb, float(rng.uniform(-1.4, 1.4)))


def _family_circle(rng, n):
    """An oblique polygonal circle in a random step's plane, with its frozen coordinates."""
    step = _random_step(rng, n)
    y_max = 2 * np.pi if step.family in ("C1", "C2") else np.pi / 2
    r = rng.uniform(0.15, 0.35)
    center = (rng.uniform(r + 0.05, np.pi / 2 - r - 0.05), rng.uniform(r + 0.05, y_max - r - 0.05))
    return circle_loop(n, step.plane(), center, r, int(rng.integers(6, 17)),
                       bool(rng.integers(2)), step.family)


def _silent_connector(n):
    """theta_1 out and back at phi = 0, then phi_1 turned at theta_1 = 0: every edge silent."""
    th, ph = np.zeros((5, n)), np.zeros((5, n))
    th[1, 0], ph[3, 0] = 0.4, 0.5
    return LoopPath(n, th, ph)


def _mixed_batch(rng, n):
    """C1-C4 rectangles, oblique circles and polygons, a rectangle with a rotating
    phi edge (n >= 2), a degenerate loop and an all-silent connector loop, shuffled."""
    batch = [realize_step_as_loop(_random_step(rng, n), n) for _ in range(3)]
    batch += [_family_circle(rng, n) for _ in range(2)]
    batch += [random_wiggle_loop(rng, n, num_verts=int(rng.integers(2, 6)))]
    if n >= 2:
        batch.append(rectangle_loop(n, PlaneTag(("theta:2", "phi:2"), {"theta:1": 0.5}),
                                    rng.uniform(0.2, 1.5), rng.uniform(0.2, 3.0),
                                    bool(rng.integers(2))))
    point = np.full((3, n), 0.3)
    batch += [LoopPath(n, point, point * 0.5), _silent_connector(n)]
    return [batch[i] for i in rng.permutation(len(batch))]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), segments=st.sampled_from([1, 3, 8]),
       block_entries=st.sampled_from([64, 2 ** 13]))
def test_holonomies_match_one_call_per_loop(n, seed, segments, block_entries):
    # blocks that hold several loops, and (at 64 entries) loops cut across blocks
    batch = _mixed_batch(np.random.default_rng(seed), n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HOLONOMY, "BLOCK_ENTRIES", block_entries)
        got = holonomies(batch, segments)
        each = [holonomy(loop, segments) for loop in batch]
    assert len(got) == len(batch)
    for g, e in zip(got, each):
        assert g.dim == n and g.distance(e) <= 1e-14
    for i, loop in enumerate(batch):
        if loop.is_degenerate() or np.all(_silent(loop.thetas, loop.phis)):
            assert np.array_equal(got[i].matrix, np.eye(n))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_permuting_a_batch_permutes_its_holonomies(n, seed):
    rng = np.random.default_rng(seed)
    batch = _mixed_batch(rng, n)
    order = rng.permutation(len(batch))
    got = holonomies(batch, 4)
    permuted = holonomies([batch[i] for i in order], 4)
    for i, u in zip(order, permuted):
        assert u.distance(got[i]) <= 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_one_loop_batch_keeps_the_bytes_of_the_loop(seed):
    # a loop alone, or beside loops that transport nothing, is integrated in the
    # same blocks and folded in the same order as by holonomy()
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    name = ("CROT", "XOR", "SWAP", "PHASE1", "PHASE2", "UPH1")[seed]
    loops = [program_schedule(two_qubit_gate(name, sigma1=0.4, sigma3=2.9)),
             _family_circle(rng, n), realize_step_as_loop(_random_step(rng, n), n)]
    for loop in loops:
        point = np.full((3, loop.n), 0.2)
        quiet = [LoopPath(loop.n, point, point), _silent_connector(loop.n)]
        alone = holonomy(loop, 5).entries
        assert np.array_equal(holonomies([loop], 5)[0].entries, alone)
        assert np.array_equal(holonomies([quiet[0], loop, quiet[1]], 5)[1].entries, alone)


def test_holonomies_validation():
    assert holonomies([], 8) == []
    with pytest.raises(ValueError, match="share n"):
        holonomies([_silent_connector(2), _silent_connector(3)], 8)
    with pytest.raises(ValueError, match="segments_per_edge"):
        holonomies([_silent_connector(2)], 0)


def test_batch_budget_counts_every_loop_before_any_connection(monkeypatch):
    # two zigzags of theta_2 below theta_1 = 0.3 (live edges) fill the budget at
    # n = 4 and one segment per edge; each alone is half of it
    def reached(*args):
        raise LookupError("evaluated a connection")

    monkeypatch.setattr(HOLONOMY, "connection_along", reached)
    half = MAX_SEGMENT_ENTRIES // (2 * 16)
    th = np.zeros((half + 1, 4))
    th[:, 0], th[1::2, 1] = 0.3, 0.5
    zigzag = LoopPath(4, th, np.zeros_like(th))
    with pytest.raises(LookupError):  # at the budget: integration starts
        holonomies([zigzag, zigzag], 1)
    with pytest.raises(ValueError, match="exceed the budget"):
        holonomies([zigzag, zigzag, _silent_connector(4)], 1)


def test_segments_validation():
    loop = rectangle_loop(1, C1_PLANE, 0.5, 0.5, clockwise=True)
    with pytest.raises(ValueError):
        holonomy(loop, 0)


def test_unitary_matrix_certification():
    good = np.eye(2, dtype=complex)
    u = UnitaryMatrix.from_raw(good)
    assert u.defect == 0.0
    # small defect: polar-projected, raw defect recorded
    drift = good * (1 + 3e-8)
    u = UnitaryMatrix.from_raw(drift)
    assert 1e-9 < u.defect < 1e-6
    assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(2))) < 1e-12
    with pytest.raises(UnitarityError):
        UnitaryMatrix.from_raw(good * 1.5)
    with pytest.raises(UnitarityError):
        UnitaryMatrix.from_raw(np.full((2, 2), np.nan))


# ---------- exact chart symmetries: no discretization error enters ----------

def _random_polyline(seed, n, num_verts):
    """Closed polyline with theta anywhere in the chart and phi in [0.5, 2.5]."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, np.pi / 2, (num_verts, n))
    ph = rng.uniform(0.5, 2.5, (num_verts, n))
    return np.vstack([th, th[0]]), np.vstack([ph, ph[0]])


def _symmetry_polyline(seed, n, num_verts, axis_aligned):
    """_random_polyline, or an _axis_polyline with phi mapped into [0.5, 2.5],
    each edge still moving one coordinate."""
    if not axis_aligned:
        return _random_polyline(seed, n, num_verts)
    th, ph = _axis_polyline(seed, n, num_verts)
    return th, 0.5 + ph / np.pi


LOOPS = dict(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), num_verts=st.integers(2, 6),
             axis_aligned=st.booleans())


@settings(max_examples=30, deadline=None)
@given(**LOOPS, segments=st.sampled_from([1, 3]))
def test_phi_shift_conjugates_holonomy(n, seed, num_verts, axis_aligned, segments):
    # hol(loop + c) = P_c hol(loop) P_c^dagger, P_c = diag(e^{i c}): every segment
    # generator is conjugated by the same P_c, whatever the segment count, and
    # the rotation D of a phi edge's factor is diagonal, so P_c commutes with it
    th, ph = _symmetry_polyline(seed, n, num_verts, axis_aligned)
    shift = np.random.default_rng(seed + 1).uniform(0.0, 3.0, n)  # one c per level, below 2 pi
    p = np.exp(1j * shift)
    base = holonomy(LoopPath(n, th, ph), segments).matrix
    moved = holonomy(LoopPath(n, th, ph + shift), segments).matrix
    assert np.max(np.abs(moved - p[:, None] * base * p.conj())) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(**LOOPS, segments=st.sampled_from([1, 3]))
def test_phi_mirror_conjugates_holonomy(n, seed, num_verts, axis_aligned, segments):
    # phi -> 2 pi - phi conjugates the frame, so the holonomy is complex-conjugated;
    # on a phi edge it also negates the rotation D of the edge's factor
    th, ph = _symmetry_polyline(seed, n, num_verts, axis_aligned)
    base = holonomy(LoopPath(n, th, ph), segments).matrix
    mirrored = holonomy(LoopPath(n, th, 2 * np.pi - ph), segments).matrix
    assert np.max(np.abs(mirrored - base.conj())) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(**LOOPS, segments=st.sampled_from([1, 3]), start=st.integers(1, 5))
def test_base_vertex_rotation_keeps_eigenphases(n, seed, num_verts, axis_aligned, segments, start):
    # starting the same closed polyline at another vertex turns the ordered
    # product AB into BA, which has the same eigenvalues; power traces fix them
    th, ph = _symmetry_polyline(seed, n, num_verts, axis_aligned)
    k = start % (len(th) - 1)
    rot_th, rot_ph = (np.vstack([x[k:-1], x[:k + 1]]) for x in (th, ph))
    u = holonomy(LoopPath(n, th, ph), segments).matrix
    v = holonomy(LoopPath(n, rot_th, rot_ph), segments).matrix
    for p in range(1, n + 1):
        up, vp = np.linalg.matrix_power(u, p), np.linalg.matrix_power(v, p)
        assert abs(np.trace(up) - np.trace(vp)) <= 1e-12 * n


def _axis_polyline(seed, n, num_steps):
    """Closed polyline whose every edge moves one coordinate: random moves,
    then one leg per coordinate back to the start."""
    rng = np.random.default_rng(seed)
    th, ph = [rng.uniform(0.0, np.pi / 2, n)], [rng.uniform(0.0, 2 * np.pi, n)]

    def move(coords, b, value):
        th.append(th[-1].copy())
        ph.append(ph[-1].copy())
        coords[-1][b] = value

    for _ in range(num_steps):
        b = rng.integers(n)
        if rng.random() < 0.5:
            move(th, b, rng.uniform(0.0, np.pi / 2))
        else:
            move(ph, b, rng.uniform(0.0, 2 * np.pi))
    for coords in (th, ph):
        for b in range(n):
            move(coords, b, coords[0][b])
    return np.array(th), np.array(ph)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1), num_steps=st.integers(1, 8))
def test_determinant_of_axis_aligned_loop(n, seed, num_steps):
    # det U = exp(tr of the summed generators): a phi_b edge adds
    # i sin^2(theta_b) prod_{k<b} cos^2(theta_k) d_phi_b at its fixed thetas, a
    # theta edge nothing; exact at one segment per edge. At n <= 2 every
    # segment factor takes the closed form.
    th, ph = _axis_polyline(seed, n, num_steps)
    weight = np.sin(th[:-1]) ** 2 * np.cumprod(
        np.hstack([np.ones((th.shape[0] - 1, 1)), np.cos(th[:-1, :-1]) ** 2]), axis=1)
    expect = np.exp(1j * np.sum(weight * (ph[1:] - ph[:-1])))
    u = holonomy(LoopPath(n, th, ph), 1).matrix
    assert abs(np.linalg.det(u) - expect) <= 1e-12


def _u1_integrand(th, ph, t):
    """f(t) = sum_b |v_b|^2 d_phi_b on every edge of the polyline (th, ph), as
    (edges, t.size); t in [0, 1] runs along the edge and v is column n+1 of the
    chart frame, never the connection."""
    n = th.shape[1]
    d_th, d_ph = th[1:] - th[:-1], ph[1:] - ph[:-1]
    at = t[None, :, None]
    v = frame_unitary_batch(th[:-1, None] + d_th[:, None] * at, ph[:-1, None] + d_ph[:, None] * at)
    return np.sum(np.abs(v[..., :n, n]) ** 2 * d_ph[:, None, :], axis=-1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), num_verts=st.integers(3, 6))
def test_determinant_of_oblique_loop_falls_at_fourth_order(n, seed, num_verts):
    # tr A_delta = -i sum_b |v_b|^2 d_phi_b and the commutator is traceless, so
    # det hol is exp(i x) of the two-node Gauss-Legendre rule x on the U(1) phase
    # closed-integral of sum_b |v_b|^2 d_phi_b (16 nodes per edge below). On s
    # segments of an edge that rule errs by at most s^-4 max|f''''| / 4320, f as
    # in _u1_integrand. The signed edge errors can cancel, so a ratio between
    # two counts is no property of every loop; this order-4 bound is. The
    # midpoint rule breaks it by orders of magnitude at 2 and 4 segments.
    th, ph = _random_polyline(seed, n, num_verts)  # every edge moves every coordinate
    x, w = np.polynomial.legendre.leggauss(16)
    expect = np.exp(1j * np.sum(_u1_integrand(th, ph, (x + 1) / 2) * w / 2))
    h = 2.0 ** -8  # max|f''''| from fourth differences, t = -2h ... 1 + 2h
    f = _u1_integrand(th, ph, np.arange(-2, 2 ** 8 + 3) * h)
    d4 = (f[:, :-4] - 4 * f[:, 1:-3] + 6 * f[:, 2:-2] - 4 * f[:, 3:-1] + f[:, 4:]) / h ** 4
    constant = np.sum(np.max(np.abs(d4), axis=1)) / 4320
    for s in (1, 2, 4):
        u = holonomy(LoopPath(n, th, ph), s).matrix
        assert abs(np.linalg.det(u) - expect) <= constant / s ** 4 + 1e-13, s
