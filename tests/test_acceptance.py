"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with measured values and runtimes. Every tolerance is fixed here, at
the value stated in the project contract; nothing is calibrated at runtime.
"""
import json
import subprocess
import sys
import time

import numpy as np
from connection_oracle import connection_numeric
from cpn_holonomy import (GateProgram, GateStep, PlaneTag,
                          adiabatic_transport, compile_u2_block, connection_analytic,
                          enclosed_area, holonomy, kick_evolution, LoopPath,
                          named_gate_matrix, primitive_holonomy, propagate_frames,
                          realize_step_as_loop, rectangle_loop, two_qubit_gate)
from cpn_holonomy.chart import ControlPoint
from cpn_holonomy.gates import embed_two_level
from cpn_holonomy.linalg import dist_up_to_phase, max_abs_diff
from cpn_holonomy.multipartite import EmbeddedGate, Register
from helpers import circle_loop, concatenate, dense, l_shape_loop, reverse


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def legal_steps(n, family):
    if family == "C1":
        return [(b, None) for b in range(1, n + 1)]
    if family == "C2":
        return [(b, bb) for b in range(1, n + 1) for bb in range(b + 1, n + 1)]
    return [(b, bb) for b in range(1, n + 1) for bb in range(1, n + 1) if b != bb]


def test_criterion_1_closed_form_laws():
    """C1-C4 integrated vs closed form, areas {0.1, pi/4, pi/2, pi}, n <= 4."""
    t0 = time.time()
    worst, cases = 0.0, 0
    for n in (1, 2, 3, 4):
        for family in ("C1", "C2", "C3", "C4"):
            for beta, beta_bar in legal_steps(n, family):
                for area in (0.1, np.pi / 4, np.pi / 2, np.pi):
                    step = GateStep(family, beta, beta_bar, area)
                    prog = GateProgram(n, (step,))
                    got = prog.evaluate_integrated(256)  # splits over-capacity areas
                    worst = max(worst, got.distance(primitive_holonomy(step, n).matrix))
                    cases += 1
    dt = time.time() - t0
    report("criterion 1 (closed-form holonomy laws)",
           worst < 1e-6 and dt < 10.0,
           f"{cases} cases, max distance {worst:.3e}, runtime {dt:.1f}s")


def test_criterion_2_connection_cross_validation():
    """Analytic vs central-difference connection, 100 random interior CP^4 points."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        p = ControlPoint(4, rng.uniform(0.05, np.pi / 2 - 0.05, 4),
                         rng.uniform(0, 2 * np.pi, 4))
        a = connection_analytic(p)
        b = connection_numeric(p, 1e-5)
        worst = max(worst,
                    float(np.max(np.abs(a.a_theta - b.a_theta))),
                    float(np.max(np.abs(a.a_phi - b.a_phi))))
    dt = time.time() - t0
    report("criterion 2 (connection cross-validation)",
           worst < 1e-6 and dt < 5.0,
           f"100 points, max entry distance {worst:.3e}, runtime {dt:.1f}s")


def test_criterion_3_named_gate_fidelity():
    """CROT, XOR, SWAP, UPH1 via full loop integration vs their 4x4 matrices."""
    t0 = time.time()
    worst = {}
    for name in ("CROT", "XOR", "SWAP", "UPH1"):
        prog = two_qubit_gate(name, sigma1=np.pi / 4, sigma3=np.pi / 4)
        got = prog.evaluate_integrated(256)
        target = named_gate_matrix(name, sigma1=np.pi / 4, sigma3=np.pi / 4)
        worst[name] = dist_up_to_phase(got.matrix, target)
    dt = time.time() - t0
    ok = all(v < 1e-6 for v in worst.values()) and dt < 30.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report("criterion 3 (named-gate fidelity)", ok, f"{detail}, runtime {dt:.1f}s")


def test_criterion_4_shape_invariance():
    """Rectangle vs circle vs L-shape of equal area in the C1 plane."""
    plane = PlaneTag(("theta:1", "phi:1"))
    circle = circle_loop(1, plane, (0.75, 1.2), 0.35, num_vertices=512,
                         clockwise=True, family="C1")
    target = enclosed_area(circle, "C1")
    theta_edge = 1.1
    rect = rectangle_loop(1, plane, theta_edge, target / np.sin(theta_edge) ** 2,
                          clockwise=True, family="C1")
    e0, e1, n0 = 1.2, 0.7, 0.5
    span = (e1 * np.sin(e0) ** 2 - target) / (np.sin(e0) ** 2 - np.sin(n0) ** 2)
    lshape = l_shape_loop(1, plane, e0, e1, n0, e1 - span, clockwise=True, family="C1")
    hs = [holonomy(rect, 128).matrix, holonomy(circle, 16).matrix,
          holonomy(lshape, 128).matrix]
    worst = max(max_abs_diff(hs[i], hs[j]) for i in range(3) for j in range(i + 1, 3))
    report("criterion 4 (shape invariance)", worst < 1e-6,
           f"area {target:.4f}, pairwise distance {worst:.3e}")


def test_criterion_5_adiabatic_oracle():
    """C1 with area pi/4 on n=1: transport vs closed form at T = 2000 (units 1/eps0)."""
    t0 = time.time()
    loop = realize_step_as_loop(GateStep("C1", 1, None, np.pi / 4), 1)
    closed = np.array([[np.exp(-1j * np.pi / 4)]])
    errs, leaks = {}, {}
    for total in (200.0, 2000.0):
        tr, diag = adiabatic_transport(loop, total)
        errs[total] = max_abs_diff(tr.matrix, closed)
        leaks[total] = float(np.max(diag.leakage))
    dt = time.time() - t0
    ok = (errs[2000.0] < 5e-2 and leaks[2000.0] < 1e-3
          and errs[2000.0] < errs[200.0] / 2 and dt < 60.0)
    report("criterion 5 (adiabatic oracle)", ok,
           f"err(T=200)={errs[200.0]:.3e}, err(T=2000)={errs[2000.0]:.3e}, "
           f"leakage={leaks[2000.0]:.2e}, runtime {dt:.1f}s")


def test_criterion_6_kick_convergence():
    """Kick vs fine-step continuous propagator: halving ratio in [1.6, 2.4]."""
    t0 = time.time()
    loop = realize_step_as_loop(GateStep("C1", 1, None, np.pi / 4), 1)
    total = 40.0
    ref = propagate_frames(loop, total, 32768)
    errs = {n_int: max_abs_diff(kick_evolution(loop, total, n_int), ref)
            for n_int in (250, 500, 1000)}
    r1, r2 = errs[250] / errs[500], errs[500] / errs[1000]
    dt = time.time() - t0
    ok = 1.6 < r1 < 2.4 and 1.6 < r2 < 2.4 and dt < 60.0
    report("criterion 6 (kick convergence)", ok,
           f"ratios {r1:.2f}, {r2:.2f}, runtime {dt:.1f}s")


def test_criterion_7_compiler_soundness():
    """100 random 2x2 targets: compile + evaluate within 1e-8 up to phase."""
    rng = np.random.default_rng(777)
    n, worst = 4, 0.0
    for _ in range(100):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        target = q * (np.diag(r) / np.abs(np.diag(r)))
        beta = int(rng.integers(1, n))
        beta_bar = int(rng.integers(beta + 1, n + 1))
        prog = compile_u2_block(target, beta, beta_bar, n)
        got = prog.evaluate().matrix
        worst = max(worst, dist_up_to_phase(got, embed_two_level(target, beta, beta_bar, n)))
    report("criterion 7 (compiler soundness)", worst < 1e-8,
           f"100 targets, max distance {worst:.3e}")


def test_criterion_8_algebraic_properties():
    """Unitarity, reversal = dagger, concatenation, zero-area identity; >= 200 cases."""
    rng = np.random.default_rng(888)
    cases = 0
    worst_defect = worst_rev = worst_cat = worst_zero = 0.0

    def wiggle(n, base_t, base_p, k=5, amp=0.22):
        th = base_t + rng.uniform(-amp, amp, (k, n))
        ph = base_p + rng.uniform(-amp, amp, (k, n))
        th[0], ph[0] = base_t, base_p  # anchor so loops can be concatenated
        return LoopPath(n, np.vstack([th, th[:1]]), np.vstack([ph, ph[:1]]))

    for _ in range(60):  # unitarity + reversal on general loops
        n = int(rng.integers(1, 4))
        loop = wiggle(n, rng.uniform(0.4, 1.1, n), rng.uniform(0.5, 2.0, n))
        u = holonomy(loop, 24)
        worst_defect = max(worst_defect, u.defect)
        v = holonomy(reverse(loop), 24).matrix
        worst_rev = max(worst_rev, max_abs_diff(v, u.matrix.conj().T))
        cases += 2
    for _ in range(50):  # concatenation homomorphism
        n = 2
        bt, bp = rng.uniform(0.4, 1.1, n), rng.uniform(0.5, 2.0, n)
        a, b = wiggle(n, bt, bp), wiggle(n, bt, bp)
        lhs = holonomy(concatenate(a, b), 24).matrix
        rhs = holonomy(b, 24).matrix @ holonomy(a, 24).matrix
        worst_cat = max(worst_cat, max_abs_diff(lhs, rhs))
        cases += 1
    for _ in range(50):  # zero-area loops: retraced excursions and C * C^-1
        n = 2
        bt, bp = rng.uniform(0.4, 1.1, n), rng.uniform(0.5, 2.0, n)
        out_t = bt + rng.uniform(-0.2, 0.2, (3, n))
        out_p = bp + rng.uniform(-0.2, 0.2, (3, n))
        th = np.vstack([bt, out_t, out_t[::-1], bt])
        ph = np.vstack([bp, out_p, out_p[::-1], bp])
        worst_zero = max(worst_zero,
                         holonomy(LoopPath(n, th, ph), 16).distance(np.eye(n)))
        a = wiggle(n, bt, bp)
        worst_zero = max(worst_zero,
                         holonomy(concatenate(a, reverse(a)), 24).distance(np.eye(n)))
        cases += 2
    ok = (worst_defect < 1e-9 and worst_rev < 1e-8 and worst_cat < 1e-8
          and worst_zero < 1e-8 and cases >= 200)
    report("criterion 8 (algebraic properties)", ok,
           f"{cases} cases: defect {worst_defect:.1e}, reverse {worst_rev:.1e}, "
           f"concat {worst_cat:.1e}, zero-area {worst_zero:.1e}")


def test_criterion_9_multipartite():
    """Embedded gates match the Kronecker oracle exactly; disjoint pairs commute."""
    rng = np.random.default_rng(999)
    reg = Register(3)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    worst = 0.0
    for (i, j) in ((1, 2), (2, 3), (1, 3)):
        g = EmbeddedGate(reg, i, j, q)
        matrix = dense(g)
        for col in range(reg.dim):
            e = np.zeros(reg.dim, dtype=complex)
            e[col] = 1.0
            worst = max(worst, float(np.max(np.abs(g.apply(e) - matrix @ e))))
    reg4 = Register(4)
    a = EmbeddedGate(reg4, 1, 2, q)
    b = EmbeddedGate(reg4, 3, 4, named_gate_matrix("XOR"))
    state = rng.normal(size=reg4.dim) + 1j * rng.normal(size=reg4.dim)
    state /= np.linalg.norm(state)
    comm = float(np.max(np.abs(a.apply(b.apply(state)) - b.apply(a.apply(state)))))
    report("criterion 9 (multipartite embedding)",
           worst == 0.0 and comm < 1e-12,
           f"kron-oracle distance {worst:.1e}, disjoint commutator {comm:.1e}")


def test_criterion_10_cli_determinism():
    """Identical seed and config give byte-identical CLI JSON output."""
    cmd = [sys.executable, "-m", "cpn_holonomy.cli", "sweep", "--kind", "random-rects",
           "--seed", "42", "--cases", "6", "--n", "4"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    ok = a == b and len(a) > 0 and json.loads(a)["seed"] == 42
    report("criterion 10 (CLI determinism)", ok,
           f"{len(a)} bytes, identical={a == b}")
