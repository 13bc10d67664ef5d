"""Reference checks for the output of each kind of benchmark job.

check(job, out, rerun) returns the job's distance to its reference, or None
for a pass/fail-only check, and raises CheckFailed when the output is wrong.
rerun(extra) runs the job again with the arguments `extra` appended and
returns its stdout; only `verify` uses it. The references:

- holonomy: the closed-form primitive holonomy at the loop's exact area,
  which the benchmark computes itself from the polygon it generated;
- sweep: every row's reported distance to its closed form;
- gate: named_gate_matrix, up to a global phase;
- verify: the same job rerun at twice the propagator steps. The stepper is
  second order, so the distance is three quarters of the job's own stepper
  error. The report's within_tol is never used: at these times it is false
  for every named gate, because the adiabatic error dominates;
- kick: the table converges at first order, the distance halving as N
  doubles. Pass/fail only: its distances are the kick scheme's physical
  error and would hide any change of the stepper;
- compile: the 2x2 target embedded in the identity, up to a global phase;
- circuit: the state evolved by dense register matrices built with kron;
- connection: U^dagger dU from the frame product U = R_n ... R_1 and the
  exact derivatives of its rotations, built here independently of the
  package's closed-form components.
"""
from __future__ import annotations

import json
import math

import numpy as np

from cpn_holonomy.gates import GateStep, named_gate_matrix, primitive_holonomy

# Largest accepted distance to the reference, per job kind. Exact paths
# (closed forms, segment-exact rectangles, dense algebra) sit at roundoff;
# curved loops and the stepper carry their discretisation error.
TOLERANCE = {"holonomy": 1e-3, "verify": 5e-3, "gate": 1e-9, "sweep": 1e-9,
             "compile": 1e-9, "circuit": 1e-9, "connection": 1e-9}
KICK_HALVING = (1.5, 2.6)  # accepted d(N) / d(2N) in a kick table


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


def dec_matrix(rows) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in rows])


def dist_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """max |e^{i a} U - V| with the phase a taken from tr(V^dagger U)."""
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 1e-300 else 1.0
    return float(np.max(np.abs(u / phase - v)))


def digits(distance: float) -> float:
    """Correct decimal digits of a result at this distance from its reference."""
    return -math.log10(max(distance, 1e-17))


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _within(kind: str, dist: float) -> float:
    _require(math.isfinite(dist) and dist <= TOLERANCE[kind],
             f"{kind}: distance {dist:.3e} to reference exceeds {TOLERANCE[kind]:.0e}")
    return dist


def check_holonomy(job, out, rerun):
    d = json.loads(out)
    s = job.spec
    _require(d["family"] == s["family"], "holonomy: wrong family")
    _require(abs(d["enclosed_area"] - s["area"]) <= 1e-9,
             f"holonomy: area {d['enclosed_area']!r} differs from {s['area']!r}")
    _require(d["unitarity_defect"] <= 1e-6, "holonomy: uncertified matrix")
    ref = primitive_holonomy(GateStep(s["family"], s["beta"], s["beta_bar"], s["area"]), s["n"])
    return _within("holonomy", float(np.max(np.abs(dec_matrix(d["entries"]) - ref.matrix))))


def check_sweep(job, out, rerun):
    rows = json.loads(out)["rows"]
    _require([r["case"] for r in rows] == list(range(job.spec["cases"])), "sweep: wrong case list")
    _require(all(r["family"] in ("C1", "C2", "C3", "C4") for r in rows), "sweep: unknown family")
    return _within("sweep", max(float(r["distance"]) for r in rows))


def check_gate(job, out, rerun):
    d = json.loads(out)
    s = job.spec
    target = named_gate_matrix(s["name"], sigma1=s["sigma1"], sigma3=s["sigma3"])
    _require(d["name"] == s["name"], "gate: wrong name")
    closed = dist_up_to_phase(dec_matrix(d["matrix"]), target)
    _within("gate", closed)
    return _within("gate", max(closed, dist_up_to_phase(dec_matrix(d["matrix_integrated"]), target)))


def check_verify(job, out, rerun):
    d = json.loads(out)
    time = float(job.argv[job.argv.index("--time") + 1])
    _require(d["T"] == time, "verify: wrong T")
    _require(d["steps"] >= 20 * time, "verify: fewer steps than eps0 dt <= 0.05 allows")
    _require(all(-1e-9 <= x <= 1.0 for x in d["leakage"]), "verify: leakage outside [0, 1]")
    ref = json.loads(rerun(["--steps", str(2 * d["steps"])]))
    dist = float(np.max(np.abs(dec_matrix(d["transport"]) - dec_matrix(ref["transport"]))))
    # both runs compare against the same integrated holonomy, so their reported
    # distances can differ by at most the distance between the transports
    _require(abs(d["distance_to_holonomy"] - ref["distance_to_holonomy"]) <= dist + 1e-12,
             "verify: distance_to_holonomy inconsistent with the transport matrix")
    return _within("verify", dist)


def check_kick(job, out, rerun):
    lines = out.strip().splitlines()
    _require(lines[0] == "N,delta_t,distance", "kick: bad CSV header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    _require([int(r[0]) for r in rows] == job.spec["n_list"], "kick: wrong N list")
    for n_int, dt, dist in rows:
        _require(abs(dt - job.spec["T"] / n_int) <= 1e-12 * dt, "kick: wrong delta_t")
        _require(0 < dist < 1, f"kick: distance {dist!r} out of range")
    lo, hi = KICK_HALVING
    for (_, _, d1), (_, _, d2) in zip(rows, rows[1:]):
        _require(lo <= d1 / d2 <= hi, f"kick: distance ratio {d1 / d2:.3f} outside [{lo}, {hi}]")
    return None


def check_compile(job, out, rerun):
    d = json.loads(out)
    s = job.spec
    i, j = s["beta"] - 1, s["beta_bar"] - 1
    embedded = np.eye(s["n"], dtype=complex)
    embedded[np.ix_([i, j], [i, j])] = dec_matrix(s["target"])
    _within("compile", float(d["distance_up_to_phase"]))
    return _within("compile", dist_up_to_phase(dec_matrix(d["matrix"]), embedded))


def dense_gate(g4: np.ndarray, i: int, j: int, nbits: int) -> np.ndarray:
    """The 4x4 gate on bits (i, j) (1-based, i first) as a dense 2^nbits matrix."""
    idx = np.moveaxis(np.arange(2 ** nbits).reshape((2,) * nbits), (i - 1, j - 1), (0, 1))
    perm = np.eye(2 ** nbits)[idx.reshape(-1)]
    return perm.T @ np.kron(g4, np.eye(2 ** (nbits - 2))) @ perm


def check_circuit(job, out, rerun):
    d = json.loads(out)
    s = job.spec
    q = s["qubits"]
    state = np.zeros(2 ** (q + 1), dtype=complex)
    state[int(s["state"] + ("0" if s["ancilla"] == "+" else "1"), 2)] = 1.0
    for entry in s["circuit"]:
        gate = entry["gate"]
        g4 = named_gate_matrix(gate) if isinstance(gate, str) else dec_matrix(gate["matrix"])
        state = dense_gate(g4, entry["pair"][0], entry["pair"][1], q + 1) @ state
    got = np.array([complex(re_, im) for re_, im in d["state"]])
    minus = 0.0 if s["ancilla"] == "+" else 1.0
    _require(abs(d["ancilla_minus_weight"] - minus) <= 1e-9, "circuit: ancilla left its sector")
    cost = d["cost"]
    _require(len(cost["per_gate_local"]) == len(s["circuit"]), "circuit: wrong local cost list")
    _require(cost["total_local"] == sum(cost["per_gate_local"]) > 0, "circuit: bad local total")
    mono = cost["per_gate_monolithic"]
    if s["monolithic"] and q <= 4:
        _require(len(mono) == len(s["circuit"]) and min(mono) > 0, "circuit: monolithic cost missing")
    else:
        _require(all(m == -1 for m in mono), "circuit: monolithic cost not skipped")
    return _within("circuit", float(np.max(np.abs(got - state))))


def connection_reference(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A^theta_b, A^phi_b = [U^dagger dU]_code with dU from the rotation product rule."""
    n = len(theta)

    def rotation(a, c, s, e, kind=None):
        r = np.eye(n + 1, dtype=complex)
        if kind is None:
            r[a, a], r[a, n], r[n, a], r[n, n] = c, e * s, -s / e, c
        elif kind == "theta":
            r[:] = 0
            r[a, a], r[a, n], r[n, a], r[n, n] = -s, e * c, -c / e, -s
        else:
            r[:] = 0
            r[a, n], r[n, a] = 1j * e * s, 1j * s / e
        return r

    args = [(a, np.cos(theta[a]), np.sin(theta[a]), np.exp(1j * phi[a])) for a in range(n)]
    rots = [rotation(*x) for x in args]
    prefix = [np.eye(n + 1, dtype=complex)]  # prefix[b] = R_b ... R_1
    for r in rots:
        prefix.append(r @ prefix[-1])
    suffix = [np.eye(n + 1, dtype=complex)]  # suffix[k] = R_n ... R_{n-k+1}
    for r in rots[::-1]:
        suffix.append(suffix[-1] @ r)
    u_dag = prefix[-1].conj().T
    out = []
    for kind in ("theta", "phi"):
        out.append(np.stack([
            (u_dag @ suffix[n - 1 - b] @ rotation(*args[b], kind) @ prefix[b])[:n, :n]
            for b in range(n)]))
    return out[0], out[1]


def check_connection(job, out, rerun):
    d = json.loads(out)
    a_theta, a_phi = connection_reference(np.array(job.spec["theta"]), np.array(job.spec["phi"]))
    got_theta = np.array([[[complex(*z) for z in row] for row in m] for m in d["a_theta"]])
    got_phi = np.array([[[complex(*z) for z in row] for row in m] for m in d["a_phi"]])
    _require(got_theta.shape == a_theta.shape and got_phi.shape == a_phi.shape,
             "connection: wrong component shapes")
    return _within("connection", float(max(np.max(np.abs(got_theta - a_theta)),
                                           np.max(np.abs(got_phi - a_phi)))))


CHECKS = {"holonomy": check_holonomy, "sweep": check_sweep, "gate": check_gate,
          "verify": check_verify, "kick": check_kick, "compile": check_compile,
          "circuit": check_circuit, "connection": check_connection}
# Kinds whose reference reruns the program. They are checked after the timed
# window, so the larger reference runs set neither a timing nor the peak RSS.
DEFERRED = frozenset({"verify"})


def check(job, out: str, rerun) -> float | None:
    """Distance of one job's output to its reference; raises CheckFailed."""
    try:
        return CHECKS[job.kind](job, out, rerun)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"{job.kind}: unparsable output ({exc!r})") from None
