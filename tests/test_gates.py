"""Gate synthesis: primitive closed forms, loop realization, compilers, named gates."""
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpn_holonomy import (AreaRangeError, GateProgram, GateStep, compile_u2_block,
                          compile_unitary, enclosed_area, holonomy, named_gate_matrix,
                          primitive_holonomy, program_schedule, realize_step_as_loop,
                          single_qubit_block, two_qubit_gate)
from cpn_holonomy import gates
from cpn_holonomy.gates import embed_two_level, givens_decompose
from cpn_holonomy.holonomy import MAX_SEGMENT_ENTRIES, check_segment_budget
from cpn_holonomy.linalg import dist_up_to_phase, unitarity_defect
from cpn_holonomy.loops import CLOSURE_TOL, FAMILIES
from helpers import program_schedule_by_parts


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------- primitive closed forms ----------

def test_c1_primitive_example():
    u = primitive_holonomy(GateStep("C1", 2, None, np.pi / 2), 4)
    assert u.distance(np.diag([1, -1j, 1, 1])) < 1e-15


def test_zero_area_is_identity():
    for family, bb in (("C1", None), ("C2", 2), ("C3", 2), ("C4", 2)):
        u = primitive_holonomy(GateStep(family, 1, bb, 0.0), 3)
        assert u.distance(np.eye(3)) == 0.0


def test_c4_primitive_example():
    u = primitive_holonomy(GateStep("C4", 1, 2, np.pi / 2), 2)
    assert u.distance(np.array([[0, -1j], [-1j, 0]])) < 1e-15


def test_c2_wrong_order_warns_and_is_identity():
    with pytest.warns(UserWarning, match="trivial-holonomy"):
        u = primitive_holonomy(GateStep("C2", 3, 1, 0.8), 3)
    assert u.distance(np.eye(3)) == 0.0


def test_c2_wrong_order_engine_confirms_identity():
    # the engine integrates the actual loop; the two active legs cancel
    loop = realize_step_as_loop(GateStep("C2", 3, 1, 0.8), 3)
    assert holonomy(loop, 48).distance(np.eye(3)) < 1e-8


def test_step_validation():
    with pytest.raises(ValueError):
        GateStep("C5", 1, None, 0.1)
    with pytest.raises(ValueError):
        GateStep("C3", 2, 2, 0.1)
    with pytest.raises(ValueError):
        GateStep("C2", 1, None, 0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            GateStep("C1", 1, None, bad)
    with pytest.raises(ValueError):
        primitive_holonomy(GateStep("C1", 5, None, 0.1), 4)


# ---------- loop realization ----------

def test_realize_c1_rectangle_example():
    # area pi/2: theta edge spans [0, pi/2], phi spans [0, pi/2]
    loop = realize_step_as_loop(GateStep("C1", 1, None, np.pi / 2), 1)
    assert abs(loop.thetas.max() - np.pi / 2) < 1e-15
    assert abs(loop.phis.max() - np.pi / 2) < 1e-15
    assert abs(enclosed_area(loop, "C1") - np.pi / 2) < 1e-14


def test_realize_zero_area_degenerate():
    loop = realize_step_as_loop(GateStep("C1", 1, None, 0.0), 1)
    assert loop.is_degenerate()


def test_realize_out_of_range_raises():
    with pytest.raises(AreaRangeError):
        realize_step_as_loop(GateStep("C3", 1, 2, 2.0), 2)
    with pytest.raises(AreaRangeError):
        realize_step_as_loop(GateStep("C1", 1, None, 5.0), 1)


def test_realize_c2_freezes_partner_theta():
    loop = realize_step_as_loop(GateStep("C2", 1, 3, 0.5), 3)
    assert np.all(loop.thetas[:, 2] == np.pi / 2)
    assert loop.plane.frozen == {"theta:3": np.pi / 2}


def test_round_trip_random_steps():
    # engine holonomy of the realized loop vs the closed form, 50 random steps
    rng = np.random.default_rng(101)
    n = 4
    for _ in range(50):
        family = str(rng.choice(["C1", "C2", "C3", "C4"]))
        if family == "C1":
            beta, beta_bar = int(rng.integers(1, n + 1)), None
        elif family == "C2":
            beta = int(rng.integers(1, n))
            beta_bar = int(rng.integers(beta + 1, n + 1))
        else:
            beta, beta_bar = map(int, rng.choice(np.arange(1, n + 1), 2, replace=False))
        hi = 1.5 if family in ("C3", "C4") else 3.0
        step = GateStep(family, beta, beta_bar, float(rng.uniform(-hi, hi)))
        loop = realize_step_as_loop(step, n)
        assert holonomy(loop, 48).distance(primitive_holonomy(step, n).matrix) < 1e-6


@pytest.mark.parametrize("family", ["C1", "C2", "C3", "C4"])
def test_engine_law_sweep_all_orders(family):
    # both index orders where legal, 10 areas each
    n = 3
    if family == "C1":
        pairs = [(b, None) for b in range(1, n + 1)]
    elif family == "C2":
        pairs = [(b, bb) for b in range(1, n + 1) for bb in range(b + 1, n + 1)]
    else:
        pairs = [(b, bb) for b in range(1, n + 1) for bb in range(1, n + 1) if b != bb]
    cap = 1.5 if family in ("C3", "C4") else 3.0
    areas = np.linspace(-cap, cap, 10)
    for beta, beta_bar in pairs:
        for area in areas:
            step = GateStep(family, beta, beta_bar, float(area))
            got = holonomy(realize_step_as_loop(step, n), 32)
            assert got.distance(primitive_holonomy(step, n).matrix) < 1e-6


def test_split_step_respects_capacity():
    prog = GateProgram(2, (GateStep("C3", 1, 2, np.pi),))
    expect = primitive_holonomy(GateStep("C3", 1, 2, np.pi), 2).matrix
    got = prog.evaluate_integrated(64)
    assert got.distance(expect) < 1e-7


def test_program_schedule_counts_its_edges_before_building(monkeypatch):
    # the edge count program_schedule checks against the segment budget is the built loop's
    counted = []

    def count(edges, segments_per_edge, n):
        counted.append(edges)
        check_segment_budget(edges, segments_per_edge, n)

    monkeypatch.setattr(gates, "check_segment_budget", count)
    rng = np.random.default_rng(17)
    programs = [two_qubit_gate(name, sigma1=0.4, sigma3=2.9) for name in
                ("XOR", "CROT", "SWAP", "PHASE1", "PHASE2", "UPH1")]
    programs += [compile_unitary(random_unitary(rng, n), n) for n in (2, 3, 5)]
    programs += [GateProgram(3, ()), GateProgram(3, (GateStep("C1", 2, None, 0.0),)),
                 GateProgram(3, (GateStep("C2", 1, 3, 0.0), GateStep("C4", 3, 1, 0.0))),
                 GateProgram(3, (GateStep("C3", 1, 2, 7.0), GateStep("C2", 2, 3, -9.5),
                                 GateStep("C4", 3, 2, 1e-15),
                                 GateStep("C1", 3, None, 1.5 * np.pi)))]
    for prog in programs:
        counted.clear()
        built = program_schedule(prog)
        assert counted == [built.num_vertices - 1]
    # at n = 4 a C3 part adds four edges of 16 budget entries each: the most parts
    # that fit build a loop of exactly that many edges, and one part more fails
    most = MAX_SEGMENT_ENTRIES // (4 * 16)
    counted.clear()
    at_budget = program_schedule(GateProgram(4, (GateStep("C3", 1, 2, most * np.pi / 2),)))
    assert counted == [at_budget.num_vertices - 1] == [4 * most]
    with pytest.raises(ValueError, match="exceed the budget"):
        program_schedule(GateProgram(4, (GateStep("C3", 1, 2, (most + 1) * np.pi / 2),)))

    # a huge area fails the budget before any part or loop is built
    def no_parts(*args, **kwargs):
        raise AssertionError("built a part of an over-budget program")

    for name in ("split_step", "realize_step_as_loop", "LoopPath"):
        monkeypatch.setattr(gates, name, no_parts)
    for area in (1e300, -1e300, 3e5):
        huge = GateProgram(4, (GateStep("C2", 1, 2, area),))
        with pytest.raises(ValueError, match="exceed the budget"):
            program_schedule(huge)
        with pytest.raises(ValueError, match="exceed the budget"):
            huge.evaluate_integrated()


def _schedules_agree(prog):
    """program_schedule against the per-part builder: the same vertex arrays,
    or both a ValueError (a faulty program may name a different faulty step)."""
    try:
        expect = program_schedule_by_parts(prog)
    except ValueError:
        with pytest.raises(ValueError):
            program_schedule(prog)
        return
    got = program_schedule(prog)
    for a, b in ((got.thetas, expect.thetas), (got.phis, expect.phis)):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


AREAS = st.one_of(st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 2e-14, -2e-14]),
                  st.floats(-1.0, 1.0), st.floats(-3.0, 3.0).map(lambda x: x * np.pi))


@st.composite
def gate_steps(draw, n):
    family = draw(st.sampled_from(("C1",) if n == 1 else FAMILIES))
    beta = draw(st.integers(1, n))
    beta_bar = None
    if family != "C1":
        beta_bar = draw(st.integers(1, n).filter(lambda b: b != beta))
    area = draw(AREAS)
    if draw(st.booleans()):  # near or over a rectangle's capacity
        area = np.copysign(draw(st.sampled_from([1.0, 1.0 + 1e-13, 2.0, 2.5, 3.0])), area) \
            * gates.MAX_RECT_AREA[family]
    return GateStep(family, beta, beta_bar, float(area))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n),
                                                     st.lists(gate_steps(n), max_size=6))))
@example((1, []))
@example((3, [GateStep("C2", 3, 1, 0.5), GateStep("C4", 2, 1, -1e-15),
              GateStep("C3", 2, 1, -2.0)]))
def test_program_schedule_matches_per_part_builder(program):
    # one pass over all parts builds the vertex arrays the per-part builder does:
    # every family, both index orders, zero, tiny, negative and over-capacity areas
    n, steps = program
    _schedules_agree(GateProgram(n, tuple(steps)))


def test_program_schedule_of_named_and_compiled_programs_matches_per_part_builder():
    rng = np.random.default_rng(23)
    for name in ("XOR", "CROT", "SWAP", "PHASE1", "PHASE2", "UPH1"):
        for sigma1, sigma3 in ((np.pi / 4, np.pi / 4), (0.4, 2.9), (-1.0, 0.0)):
            _schedules_agree(two_qubit_gate(name, sigma1=sigma1, sigma3=sigma3))
    for n in (2, 3, 4, 5, 6):
        _schedules_agree(compile_unitary(random_unitary(rng, n), n))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(1, 3), st.floats(-1e-11, 1e-11), st.booleans())
@example("C3", 1, 5e-13 / (np.pi / 2), False)  # pi/2 + 5e-13: over pi/2 as a theta extent
@example("C1", 2, 5e-13, True)  # two parts would each be over capacity
@example("C4", 3, 0.0, False)
def test_areas_near_whole_capacities_schedule(family, k, rel, negative):
    # the rectangle check, the part count and LoopPath's theta bound share one
    # tolerance: an area near k capacities is cut into the fewest parts that
    # each fit one rectangle, and its loop carries the closed form
    beta, beta_bar = {"C1": (2, None), "C2": (1, 3), "C3": (3, 2), "C4": (1, 2)}[family]
    cap = gates.MAX_RECT_AREA[family]
    area = (-1.0 if negative else 1.0) * k * cap * (1.0 + rel)
    step = GateStep(family, beta, beta_bar, area)
    parts = gates.split_step(step)
    fits = cap + CLOSURE_TOL
    assert abs(parts[0].area) <= fits
    assert len(parts) == 1 or abs(area) / (len(parts) - 1) > fits
    assert len(parts) in (k, k + 1)
    realize_step_as_loop(parts[0], 3)
    prog = GateProgram(3, (step,))
    assert prog.evaluate_integrated(1).distance(prog.evaluate()) <= 1e-13


# ---------- single-block compiler ----------

def test_compile_identity_is_empty():
    prog = compile_u2_block(np.eye(2), 1, 2, 4)
    assert len(prog.steps) == 0
    assert prog.evaluate().distance(np.eye(4)) == 0.0


def test_compile_pure_y_rotation_single_c3():
    sy = np.array([[0, -1j], [1j, 0]])
    from scipy.linalg import expm
    target = expm(-1j * sy * 0.7)
    prog = compile_u2_block(target, 1, 2, 2)
    assert len(prog.steps) == 1
    assert prog.steps[0].family == "C3"
    assert abs(prog.steps[0].area - 0.7) < 1e-12
    assert prog.evaluate().distance(target) < 1e-12


def test_compile_diagonal_phase_pair():
    target = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    prog = compile_u2_block(target, 1, 2, 2)
    assert sorted(s.family for s in prog.steps) == ["C1", "C1"]
    assert prog.evaluate().distance(target) < 1e-12


def test_compile_soundness_random():
    rng = np.random.default_rng(103)
    n = 4
    for _ in range(100):
        beta = int(rng.integers(1, n))
        beta_bar = int(rng.integers(beta + 1, n + 1))
        target = random_unitary(rng, 2)
        prog = compile_u2_block(target, beta, beta_bar, n)
        assert len(prog.steps) <= 4
        embedded = embed_two_level(target, beta, beta_bar, n)
        assert dist_up_to_phase(prog.evaluate().matrix, embedded) < 1e-8
        # the block compiler actually realizes the phase exactly
        assert prog.evaluate().distance(embedded) < 1e-8


def _special_u2(kind, phases):
    """A diagonal or anti-diagonal 2x2 unitary with the given phases, or the identity."""
    if kind == "identity":
        return np.eye(2, dtype=complex)
    m = np.diag(np.exp(1j * np.asarray(phases)))
    return m if kind == "diagonal" else m[::-1]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["random", "identity", "diagonal", "anti-diagonal"]),
       st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2))
@example(4, 0, "anti-diagonal", [np.pi, -np.pi])
@example(2, 0, "diagonal", [0.0, np.pi])
def test_compile_u2_block_is_four_c1_c3_steps(n, seed, kind, phases):
    # one Reck step: at most four steps, C1 and C3 only, exact both as the
    # closed-form product and as the integrated program loop
    rng = np.random.default_rng(seed)
    beta, beta_bar = (int(v) for v in np.sort(rng.choice(np.arange(1, n + 1), 2, replace=False)))
    target = random_unitary(rng, 2) if kind == "random" else _special_u2(kind, phases)
    prog = compile_u2_block(target, beta, beta_bar, n)
    assert len(prog.steps) <= 4
    assert {s.family for s in prog.steps} <= {"C1", "C3"}
    embedded = embed_two_level(target, beta, beta_bar, n)
    assert prog.evaluate().distance(embedded) <= 1e-12
    assert prog.evaluate_integrated(1).distance(embedded) <= 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_compile_unitary_is_c1_c3_only(n):
    # every factor's block compiles to C1/C3 steps, which freeze no
    # coordinate, so the program's loop has no connector legs
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        u = random_unitary(rng, n)
        prog = compile_unitary(u, n)
        assert {s.family for s in prog.steps} <= {"C1", "C3"}
        assert prog.evaluate().distance(u) <= 1e-12
        assert prog.evaluate_integrated(1).distance(u) <= 1e-12


def test_compile_validation():
    with pytest.raises(ValueError):
        compile_u2_block(np.eye(2), 2, 2, 4)
    with pytest.raises(ValueError):
        compile_u2_block(np.eye(2) * 2.0, 1, 2, 4)
    with pytest.raises(ValueError):
        compile_u2_block(np.eye(3), 1, 2, 4)


def test_givens_decomposition_reconstructs():
    rng = np.random.default_rng(107)
    for d in (2, 4, 8):
        u = random_unitary(rng, d)
        factors, diag = givens_decompose(u)
        m = np.diag(diag)
        for i, j, g in reversed(factors):
            m = embed_two_level(g, i, j, d).conj().T @ m
        assert np.max(np.abs(m - u)) < 1e-10


def test_compile_unitary_random():
    rng = np.random.default_rng(109)
    u = random_unitary(rng, 4)
    prog = compile_unitary(u, 4)
    assert prog.evaluate().distance(u) < 1e-8


# ---------- named two-qubit programs ----------

@pytest.mark.parametrize("name", ["CROT", "XOR", "SWAP"])
def test_named_gates_closed_form_and_integrated(name):
    prog = two_qubit_gate(name)
    target = named_gate_matrix(name)
    assert dist_up_to_phase(prog.evaluate().matrix, target) < 1e-10
    assert dist_up_to_phase(prog.evaluate_integrated(64).matrix, target) < 1e-6


def test_crot_matrix():
    got = two_qubit_gate("CROT").evaluate().matrix
    assert dist_up_to_phase(got, np.diag([1, 1, 1, -1])) < 1e-12


def test_xor_permutes_target_qubit():
    got = two_qubit_gate("XOR").evaluate().matrix
    xor = np.eye(4)[:, [0, 1, 3, 2]]  # swaps |10> and |11>
    assert dist_up_to_phase(got, xor) < 1e-12


def test_swap_exchanges_qubits():
    got = two_qubit_gate("SWAP").evaluate().matrix
    s = np.eye(4)[:, [0, 2, 1, 3]]  # fixes |00>, |11>; exchanges |01>, |10>
    assert dist_up_to_phase(got, s) < 1e-12


@pytest.mark.parametrize("sigma1,sigma3", [(0.4, 0.9), (np.pi / 4, np.pi / 4), (1.1, 0.2)])
def test_uph1_block_matrix(sigma1, sigma3):
    # equal |areas| for the two dressing loops; block entries
    # cos(s3), -sin(s3) e^{-2i s1} / +sin(s3) e^{+2i s1}
    prog = two_qubit_gate("UPH1", sigma1=sigma1, sigma3=sigma3)
    got = prog.evaluate().matrix
    expect = np.eye(4, dtype=complex)
    expect[:2, :2] = single_qubit_block(sigma1, sigma3)
    assert np.max(np.abs(got - expect)) < 1e-12
    assert np.array_equal(np.abs([s.area for s in prog.steps[:2]]),
                          np.array([sigma1, sigma1]))


def test_phase1_is_one_tensor_uq():
    prog = two_qubit_gate("PHASE1", sigma1=0.3, sigma3=0.8)
    uq = single_qubit_block(0.3, 0.8)
    assert dist_up_to_phase(prog.evaluate().matrix, np.kron(np.eye(2), uq)) < 1e-12


def test_phase2_is_uq_tensor_one():
    prog = two_qubit_gate("PHASE2", sigma1=0.3, sigma3=0.8)
    uq = single_qubit_block(0.3, 0.8)
    assert dist_up_to_phase(prog.evaluate().matrix, np.kron(uq, np.eye(2))) < 1e-12


def test_named_gates_integrated_full_sweep():
    for name in ("UPH1", "PHASE1", "PHASE2"):
        prog = two_qubit_gate(name, sigma1=0.5, sigma3=0.7)
        target = named_gate_matrix(name, sigma1=0.5, sigma3=0.7)
        assert dist_up_to_phase(prog.evaluate_integrated(48).matrix, target) < 1e-6


def test_unknown_gate_name():
    with pytest.raises(ValueError, match="unknown gate name"):
        two_qubit_gate("TOFFOLI")


def test_program_unitarity_invariant():
    prog = two_qubit_gate("PHASE2", sigma1=0.9, sigma3=1.3)
    assert unitarity_defect(prog.evaluate().matrix) < 1e-8


def test_program_json_round_trip():
    prog = two_qubit_gate("XOR")
    back = GateProgram.from_json_dict(json.loads(json.dumps(prog.to_json_dict())))
    assert back.n == 4
    assert back.steps == prog.steps
    d = prog.to_json_dict()
    assert d["steps"][0]["frozen"] == {"phi:3": np.pi / 2}
    assert "residual_phase" not in d
