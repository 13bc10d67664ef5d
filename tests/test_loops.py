"""Loop geometry: closure/plane validation, areas, reversal, concatenation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpn_holonomy import (GateStep, LoopPath, PlaneTag, enclosed_area, loop_from_plane_vertices,
                          realize_step_as_loop, rectangle_loop)
from helpers import circle_loop, concatenate, l_shape_loop, reverse

C1_PLANE = PlaneTag(("theta:1", "phi:1"))


def test_rectangle_positive_area_example():
    # full-chart C1 rectangle traversed positively -> pi (only the theta=pi/2
    # edge carries weight sin^2(pi/2) = 1 over a phi span of pi)
    loop = rectangle_loop(1, C1_PLANE, np.pi / 2, np.pi, clockwise=True, family="C1")
    assert abs(enclosed_area(loop, "C1") - np.pi) < 1e-14


def test_zero_extent_loop_has_zero_area():
    loop = rectangle_loop(1, C1_PLANE, 0.0, 0.0, clockwise=True, family="C1")
    assert enclosed_area(loop, "C1") == 0.0


def test_c3_full_chart_rectangle_area():
    # counterclockwise full-chart rectangle in (theta_1, theta_2): pi/2
    plane = PlaneTag(("theta:1", "theta:2"))
    loop = rectangle_loop(2, plane, np.pi / 2, np.pi / 2, clockwise=False, family="C3")
    assert abs(enclosed_area(loop, "C3") - np.pi / 2) < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, np.pi / 2), st.floats(0.05, 3.0))
def test_c1_rectangle_area_closed_form(extent_theta, extent_phi):
    loop = rectangle_loop(1, C1_PLANE, extent_theta, extent_phi, clockwise=True, family="C1")
    assert abs(enclosed_area(loop, "C1")
               - extent_phi * np.sin(extent_theta) ** 2) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, np.pi / 2), st.floats(0.05, 1.4))
def test_c3_rectangle_area_closed_form(extent0, extent1):
    plane = PlaneTag(("theta:1", "theta:2"))
    loop = rectangle_loop(2, plane, extent0, extent1, clockwise=False, family="C3")
    assert abs(enclosed_area(loop, "C3") - extent1 * np.sin(extent0)) < 1e-12


def test_orientation_flips_area_sign():
    cw = rectangle_loop(1, C1_PLANE, 1.0, 1.0, clockwise=True, family="C1")
    ccw = rectangle_loop(1, C1_PLANE, 1.0, 1.0, clockwise=False, family="C1")
    assert abs(enclosed_area(cw, "C1") + enclosed_area(ccw, "C1")) < 1e-14


def test_reverse_negates_area_and_is_involutive():
    loop = rectangle_loop(1, C1_PLANE, 0.9, 1.3, clockwise=True, family="C1")
    rev = reverse(loop)
    assert abs(enclosed_area(rev, "C1") + enclosed_area(loop, "C1")) < 1e-14
    back = reverse(rev)
    assert np.array_equal(back.thetas, loop.thetas)
    assert np.array_equal(back.phis, loop.phis)


def test_lshape_area_is_rect_minus_notch():
    # the notch [n0, e0] x [n1, e1] removes (e1 - n1)(sin^2 e0 - sin^2 n0) of
    # clockwise-positive C1 area
    e0, e1, n0, n1 = 1.2, 1.0, 0.7, 0.4
    full = e1 * np.sin(e0) ** 2
    notch = (e1 - n1) * (np.sin(e0) ** 2 - np.sin(n0) ** 2)
    loop = l_shape_loop(1, C1_PLANE, e0, e1, n0, n1, clockwise=True, family="C1")
    assert abs(enclosed_area(loop, "C1") - (full - notch)) < 1e-12


def test_circle_area_matches_dense_polyline_limit():
    coarse = circle_loop(1, C1_PLANE, (0.7, 1.0), 0.3, num_vertices=200, clockwise=True)
    fine = circle_loop(1, C1_PLANE, (0.7, 1.0), 0.3, num_vertices=800, clockwise=True)
    a0 = enclosed_area(coarse, "C1")
    a1 = enclosed_area(fine, "C1")
    assert a0 > 0  # clockwise positive
    assert abs(a0 - a1) < 1e-4  # per-edge integrals are exact; only the polygon differs


def test_not_closed_raises():
    with pytest.raises(ValueError, match="not closed"):
        LoopPath(1, np.array([[0.0], [0.5], [0.4]]), np.zeros((3, 1)))


def test_nonpositive_n_rejected():
    # checked before the vertex arrays, whose maxima need at least one column
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            LoopPath(n, np.zeros((3, 0)), np.zeros((3, 0)))


def test_plane_consistency_enforced():
    th = np.array([[0.0, 0.0], [0.5, 0.1], [0.0, 0.0]])
    ph = np.zeros((3, 2))
    with pytest.raises(ValueError, match="outside its plane"):
        LoopPath(2, th, ph, plane=PlaneTag(("theta:1", "phi:1")))


@pytest.mark.parametrize("coords", [("theta:1", "phi:1", "theta:2"), ("theta:1",),
                                    ("theta:1", "theta:1"), ("theta:1", "theta:01")])
def test_plane_names_two_distinct_coordinates(coords):
    with pytest.raises(ValueError, match="theta:1"):
        PlaneTag(coords)


def test_plane_coordinates_above_n_rejected():
    # the builders and a tagged loop check each plane coordinate against n
    tag = PlaneTag(("theta:1", "phi:3"))
    with pytest.raises(ValueError, match="phi:3 is not a coordinate at n = 2"):
        rectangle_loop(2, tag, 0.5, 0.5, clockwise=True)
    with pytest.raises(ValueError, match="phi:3 is not a coordinate at n = 2"):
        LoopPath(2, np.zeros((3, 2)), np.zeros((3, 2)), plane=tag)


def _edge_by_edge_area(loop, family):
    """enclosed_area as a Python loop over the edges, scalar numpy trig on each."""
    (_, i0), (k1, i1) = loop.plane.axes()
    x = loop.thetas[:, i0 - 1]
    y = (loop.phis if k1 == "phi" else loop.thetas)[:, i1 - 1]
    total = 0
    for k in range(len(x) - 1):
        t0, t1 = x[k], x[k + 1]
        if abs(t1 - t0) < 1e-12:
            mean = np.sin(t0) ** 2 if family in ("C1", "C2") else np.sin(t0)
        elif family in ("C1", "C2"):
            mean = 0.5 - (np.sin(2 * t1) - np.sin(2 * t0)) / (4 * (t1 - t0))
        else:
            mean = (np.cos(t0) - np.cos(t1)) / (t1 - t0)
        total += mean * (y[k + 1] - y[k])
    return -total if family in ("C1", "C2") else total


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["C1", "C2", "C3", "C4"]), st.integers(0, 2 ** 32 - 1),
       st.integers(3, 40), st.booleans())
def test_enclosed_area_is_the_edge_ordered_sum(family, seed, num_verts, axis_aligned):
    # the array form adds the same per-edge terms in the same order: equal to the bit
    rng = np.random.default_rng(seed)
    plane = {"C1": ("theta:1", "phi:1"), "C2": ("theta:1", "phi:2"),
             "C3": ("theta:1", "theta:2"), "C4": ("theta:2", "theta:1")}[family]
    x, y = rng.uniform(0.0, np.pi / 2, num_verts), rng.uniform(0.0, np.pi / 2, num_verts)
    if axis_aligned:  # every other vertex repeats one coordinate, so flat edges occur
        x[1::2], y[2::2] = x[:-1:2], y[1:-1:2]
    loop = loop_from_plane_vertices(2, PlaneTag(plane), list(zip(x, y)), family)
    assert repr(enclosed_area(loop, family)) == repr(_edge_by_edge_area(loop, family))


def test_frozen_values_must_match_the_vertices():
    # a C2 loop has theta_2 = pi/2 at every vertex; a tag that says otherwise is an error
    loop = realize_step_as_loop(GateStep("C2", 1, 2, 0.5), 2)
    for frozen, match in (({"theta:2": 0.25}, "differs"), ({"theta:2": np.pi / 2 + 1e-9}, "differs"),
                          ({"theta:3": np.pi / 2}, "not a coordinate")):
        with pytest.raises(ValueError, match=match):
            LoopPath(2, loop.thetas, loop.phis, PlaneTag(loop.plane.coords, frozen), "C2")
    # the builders write their frozen values into every vertex
    assert LoopPath(2, loop.thetas, loop.phis, loop.plane, "C2").plane.frozen == {"theta:2": np.pi / 2}
    tag = PlaneTag(("theta:1", "phi:3"), {"theta:3": np.pi / 2, "phi:2": 1.3})
    for built in (rectangle_loop(3, tag, 0.9, 1.2, True, "C2"),
                  circle_loop(3, tag, (0.6, 2.0), 0.3, num_vertices=16, family="C2")):
        assert LoopPath.from_json_dict(built.to_json_dict())[0].plane == tag


def test_phi_range_enforced():
    with pytest.raises(ValueError, match="phi"):
        LoopPath(1, np.zeros((3, 1)), np.array([[0.0], [7.0], [0.0]]))


def test_nonfinite_vertices_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LoopPath(1, np.array([[0.0], [bad], [0.0]]), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="finite"):
            LoopPath(1, np.zeros((3, 1)), np.array([[0.0], [bad], [0.0]]))


def test_concatenate_requires_shared_base():
    a = rectangle_loop(1, C1_PLANE, 0.4, 0.4, clockwise=True, family="C1")
    shifted = loop_from_plane_vertices(
        1, C1_PLANE, [(0.2, 0.2), (0.6, 0.2), (0.6, 0.5), (0.2, 0.5)], family="C1")
    with pytest.raises(ValueError, match="base-point"):
        concatenate(a, shifted)


def test_concatenate_adds_areas():
    a = rectangle_loop(1, C1_PLANE, 0.8, 0.5, clockwise=True, family="C1")
    b = rectangle_loop(1, C1_PLANE, 0.6, 0.9, clockwise=True, family="C1")
    ab = concatenate(a, b)
    assert abs(enclosed_area(ab, "C1")
               - enclosed_area(a, "C1") - enclosed_area(b, "C1")) < 1e-13


def test_area_requires_matching_plane():
    loop = rectangle_loop(2, PlaneTag(("theta:1", "theta:2")), 0.5, 0.5,
                          clockwise=False, family="C3")
    with pytest.raises(ValueError, match="does not match"):
        enclosed_area(loop, "C1")
    untagged = LoopPath(1, np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="plane-tagged"):
        enclosed_area(untagged, "C1")


def test_json_round_trip():
    loop = rectangle_loop(2, PlaneTag(("theta:1", "phi:2"), {"theta:2": np.pi / 2}),
                          np.pi / 2, 0.7, clockwise=True, family="C2")
    back, segs = LoopPath.from_json_dict(loop.to_json_dict(segments_per_edge=32))
    assert segs == 32
    assert back.family == "C2"
    assert np.max(np.abs(back.thetas - loop.thetas)) == 0.0
    assert np.max(np.abs(back.phis - loop.phis)) == 0.0
    assert back.plane == loop.plane
