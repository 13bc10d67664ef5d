"""Seeded job lists for the three benchmark workloads.

A job is one `cpn-holo` invocation: an argv list, the JSON files it reads,
and the facts its reference check needs. The program sees only the argv and
the files. Jobs come in rounds of fixed composition, so the mix of job kinds
and sizes is the same in every run however many rounds it reaches. Round r
of a workload is drawn from a generator seeded with (seed, workload, r), so
the same seed gives the same jobs whatever the speed of the program.

Sizes that set a job's cost (time T, segments per edge) are drawn stratified:
each round takes one value from each equal slice of the range. The spread of
job times is then the same in every round, and the percentiles of a run do
not depend on which sizes the seed happened to draw.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("transport", "holonomy", "small_jobs")
FAMILIES = ("C1", "C2", "C3", "C4")
TRANSPORT_GATES = ("CROT", "XOR", "SWAP", "PHASE2")
NAMED_GATES = ("XOR", "CROT", "SWAP", "PHASE1", "PHASE2", "UPH1")
KICK_N_LIST = "250,500,1000"


@dataclass
class Job:
    """One CLI call. argv entries of the form '@name' stand for files[name]."""

    kind: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    spec: dict = field(default_factory=dict)

    def materialize(self, workdir: Path) -> list[str]:
        """Write the job's files under workdir; return argv with real paths."""
        for name, text in self.files.items():
            (workdir / name).write_text(text)
        return [str(workdir / a[1:]) if a.startswith("@") else a for a in self.argv]


def _num(x: float) -> str:
    return repr(float(x))


def _strata(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """One value from each of k equal slices of [lo, hi), in random order."""
    vals = lo + (np.arange(k) + rng.random(k)) * (hi - lo) / k
    return rng.permutation(vals)


def plane_area(family: str, xs: np.ndarray, ys: np.ndarray) -> float:
    """Signed enclosed area of a closed polygon in a family plane.

    Exact line integrals over straight edges: -closed-integral sin^2(x) dy for
    C1/C2 and +closed-integral sin(x) dy for C3/C4, where x is the plane's
    first coordinate (a theta) and y its second.
    """
    x0, x1, dy = xs[:-1], xs[1:], np.diff(ys)
    dx = x1 - x0
    flat = np.abs(dx) < 1e-12
    safe = np.where(flat, 1.0, dx)
    if family in ("C1", "C2"):
        mean = np.where(flat, np.sin(x0) ** 2, 0.5 - (np.sin(2 * x1) - np.sin(2 * x0)) / (4 * safe))
        return float(-np.sum(mean * dy))
    mean = np.where(flat, np.sin(x0), (np.cos(x0) - np.cos(x1)) / safe)
    return float(np.sum(mean * dy))


def family_loop(rng: np.random.Generator, n: int, segments: int, vertices: int | None = None,
                plane: tuple[str, int, int | None] | None = None) -> tuple[str, dict]:
    """Loop JSON for a seeded circle or polygon in a family plane.

    The plane (family, beta, beta_bar) is random unless given; a given
    vertex count makes a circle of that many vertices. Returns the file text
    and the spec its closed-form holonomy needs: family, levels and the
    polygon's exact signed area.
    """
    if plane is not None:
        family, b, bb = plane
    elif (family := FAMILIES[int(rng.integers(4))]) == "C1":
        b, bb = int(rng.integers(1, n + 1)), None
    else:
        b, bb = (int(v) for v in np.sort(rng.choice(np.arange(1, n + 1), 2, replace=False)))
    second = {"C1": f"phi:{b}", "C2": f"phi:{bb}", "C3": f"theta:{bb}", "C4": f"theta:{bb}"}[family]
    frozen = {"C2": {f"theta:{bb}": np.pi / 2}, "C4": {f"phi:{b}": np.pi / 2}}.get(family, {})
    y_max = 2 * np.pi if second.startswith("phi") else np.pi / 2
    r = rng.uniform(0.15, 0.35)
    cx = rng.uniform(r + 0.05, np.pi / 2 - r - 0.05)
    cy = rng.uniform(r + 0.05, y_max - r - 0.05)
    if vertices is not None or rng.random() < 0.5:
        nv = vertices or int(rng.integers(16, 41))
        radii = np.full(nv, r)
    else:
        nv = int(rng.integers(6, 13))
        radii = r * rng.uniform(0.6, 1.0, nv)
    ang = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(nv) / nv
    if rng.random() < 0.5:
        ang = -ang
    xs = np.append(cx + radii * np.cos(ang), cx + radii[0] * np.cos(ang[0]))
    ys = np.append(cy + radii * np.sin(ang), cy + radii[0] * np.sin(ang[0]))
    points = []
    for x, y in zip(xs, ys):
        th, ph = np.zeros(n), np.zeros(n)
        for name, val in frozen.items():
            kind, idx = name.split(":")
            (th if kind == "theta" else ph)[int(idx) - 1] = val
        th[b - 1] = x
        kind, idx = second.split(":")
        (th if kind == "theta" else ph)[int(idx) - 1] = y
        points.append([th.tolist(), ph.tolist()])
    loop = {"n": n, "family": family, "segments_per_edge": segments, "points": points,
            "plane": {"coords": [f"theta:{b}", second], "frozen": frozen}}
    spec = {"n": n, "family": family, "beta": b, "beta_bar": bb,
            "area": plane_area(family, xs, ys)}
    return json.dumps(loop, sort_keys=True), spec


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def enc_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# ---------- rounds ----------

def transport_round(rng: np.random.Generator, tag: str, r: int) -> list[Job]:
    """8 verify jobs (4 named gates, 4 family loops) and 2 kick tables.

    T spans 250-1000 in 8 equal slices, one verify job per slice. The named
    gates take the slice centres in a rotation that brings each gate to
    every slice once in 8 rounds: their stepper error varies erratically
    with T (PHASE2 from 2.7 to 3.5 digits), so the same T values in every
    run keep the minimum accuracy from depending on which T a seed drew.
    The family loops take a random T within the remaining slices.

    Kick tables run on named gates only: on some family loops the kick error
    at these N is not yet in its first-order regime (ratios from 1.4 to 2.7
    were seen), which would make the convergence check fail on good output.
    """
    width = 750.0 / 8
    named = [(2 * k + r) % 8 for k in range(4)]
    loops = rng.permutation([s for s in range(8) if s not in named])
    jobs = []
    for k, name in enumerate(TRANSPORT_GATES):
        time = 250.0 + (named[k] + 0.5) * width
        jobs.append(Job("verify", ["verify", "--name", name, "--time", f"{time:.3f}"]))
    for k, stratum in enumerate(loops):
        time = 250.0 + (stratum + rng.random()) * width
        text, spec = family_loop(rng, 4, 16)
        name = f"{tag}-v{k}.json"
        jobs.append(Job("verify", ["verify", "--loop", f"@{name}", "--time", f"{time:.3f}"],
                        {name: text}, spec))
    for name in rng.choice(TRANSPORT_GATES, 2, replace=False):
        time = f"{rng.uniform(20.0, 40.0):.3f}"
        jobs.append(Job("kick", ["kick", "--name", str(name), "--n-list", KICK_N_LIST, "--time", time],
                        spec={"T": float(time), "n_list": [int(v) for v in KICK_N_LIST.split(",")]}))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def holonomy_round(rng: np.random.Generator, tag: str, r: int) -> list[Job]:
    """12 family-loop holonomies (n = 4, 8, 16), 2 named gates and 1 sweep.

    Nine loops draw their segments per edge from 8-64, stratified. Two are
    n = 16 circles of fixed size, 64 edges of 64 segments, in planes that
    vary phi_16, where the connection components cost most. They are 2 of 15
    jobs, so p90 falls inside their narrow band of times rather than in a
    tail, and the largest job, which sets the peak RSS, is the same in every
    run. The last is the same coarse triangle (8 segments per edge) in every
    round. It is less accurate than the random shapes, so the run's minimum
    accuracy does not depend on which shapes a seed drew.
    """
    text, spec = family_loop(np.random.default_rng(0), 4, 8, vertices=3, plane=("C1", 4, None))
    jobs = [Job("holonomy", ["holonomy", "--loop", f"@{tag}-coarse.json"],
                {f"{tag}-coarse.json": text}, spec)]
    for k, plane in enumerate([("C1", 16, None), ("C2", int(rng.integers(1, 16)), 16)]):
        text, spec = family_loop(rng, 16, 64, vertices=64, plane=plane)
        name = f"{tag}-big{k}.json"
        jobs.append(Job("holonomy", ["holonomy", "--loop", f"@{name}"], {name: text}, spec))
    for n in (4, 8, 16):
        for k, segs in enumerate(np.exp2(_strata(rng, 3.0, 6.0, 3))):
            text, spec = family_loop(rng, n, int(segs))
            name = f"{tag}-h{n}-{k}.json"
            jobs.append(Job("holonomy", ["holonomy", "--loop", f"@{name}"], {name: text}, spec))
    for segs in _strata(rng, 16.0, 128.0, 2):
        jobs.append(_gate_job(rng, int(segs)))
    jobs.append(_sweep_job(rng, int(rng.integers(4, 13)), int(rng.integers(8, 65))))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def small_jobs_round(rng: np.random.Generator, tag: str, r: int) -> list[Job]:
    """Short calls: 3 connection, 2 compile, 2 circuit, 1 gate, 1 sweep."""
    jobs = []
    for n in rng.integers(2, 9, size=3):
        theta = rng.uniform(0.05, np.pi / 2 - 0.05, n)
        phi = rng.uniform(0.0, 2 * np.pi, n)
        jobs.append(Job("connection", ["connection", "--n", str(n),
                                       "--theta", ",".join(map(_num, theta)),
                                       "--phi", ",".join(map(_num, phi))],
                        spec={"theta": theta.tolist(), "phi": phi.tolist()}))
    for k in range(2):
        n = int(rng.integers(2, 7))
        b, bb = (int(v) for v in np.sort(rng.choice(np.arange(1, n + 1), 2, replace=False)))
        u = random_unitary(rng, 2)
        name = f"{tag}-u{k}.json"
        jobs.append(Job("compile", ["compile", "--target", f"@{name}", "--beta", str(b),
                                    "--beta-bar", str(bb), "--n", str(n)],
                        {name: json.dumps({"matrix": enc_matrix(u)})},
                        {"n": n, "beta": b, "beta_bar": bb, "target": enc_matrix(u)}))
    for k, monolithic in enumerate((True, False)):
        qubits = int(rng.integers(3, 5) if monolithic else rng.integers(3, 7))
        circuit = []
        for _ in range(int(rng.integers(2, 5))):
            pair = [int(v) for v in rng.choice(np.arange(1, qubits + 1), 2, replace=False)]
            if rng.random() < 0.5:
                gate = NAMED_GATES[int(rng.integers(len(NAMED_GATES)))]
            else:
                gate = {"matrix": enc_matrix(random_unitary(rng, 4))}
            circuit.append({"pair": pair, "gate": gate})
        bits = "".join(str(int(v)) for v in rng.integers(0, 2, qubits))
        ancilla = "+" if rng.random() < 0.5 else "-"
        name = f"{tag}-c{k}.json"
        argv = ["circuit", "--circuit", f"@{name}", "--qubits", str(qubits), "--state", bits,
                "--ancilla", ancilla] + ([] if monolithic else ["--no-monolithic"])
        jobs.append(Job("circuit", argv, {name: json.dumps(circuit)},
                        {"circuit": circuit, "qubits": qubits, "state": bits,
                         "ancilla": ancilla, "monolithic": monolithic}))
    jobs.append(_gate_job(rng, int(rng.integers(2, 9))))
    jobs.append(_sweep_job(rng, int(rng.integers(2, 5)), int(rng.integers(2, 9))))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _gate_job(rng: np.random.Generator, segments: int) -> Job:
    name = NAMED_GATES[int(rng.integers(len(NAMED_GATES)))]
    sigma1, sigma3 = rng.uniform(-np.pi / 2, np.pi / 2, 2)
    return Job("gate", ["gate", "--name", name, "--sigma1", _num(sigma1), "--sigma3", _num(sigma3),
                        "--segments", str(segments)],
               spec={"name": name, "sigma1": float(sigma1), "sigma3": float(sigma3)})


def _sweep_job(rng: np.random.Generator, cases: int, segments: int) -> Job:
    return Job("sweep", ["sweep", "--kind", "random-rects", "--seed", str(int(rng.integers(1 << 31))),
                         "--cases", str(cases), "--segments", str(segments)],
               spec={"cases": cases})


ROUNDS = {"transport": transport_round, "holonomy": holonomy_round,
          "small_jobs": small_jobs_round}


def job_round(workload: str, seed: int, r: int) -> list[Job]:
    """Round r of a workload's job list; depends only on (workload, seed, r)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), r])
    return ROUNDS[workload](rng, f"r{r}", r)
