"""Tests of the benchmark's own pieces: python3 -m pytest bench"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Job, job_round  # noqa: E402


# ---------- self-time arithmetic ----------

def test_self_times_subtract_direct_children_only():
    spans = [
        [0, "cli.main", 0.0, 10.0, -1],
        [0, "gates.two_qubit_gate", 1.0, 4.0, 0],
        [0, "gates.two_qubit_gate", 2.0, 3.0, 1],  # recursion inside the span above
        [0, "linalg.fold_left", 5.0, 9.0, 0],
        [1, "linalg.fold_left", 20.0, 22.0, -1],
    ]
    assert tracer.self_times(spans) == pytest.approx(
        {"cli.main": 3.0, "gates.two_qubit_gate": 3.0, "linalg.fold_left": 6.0})


def test_layer_metrics_are_per_job_means():
    fake = tracer.Tracer()
    fake.spans[:] = [[0, "cli.main", 0.0, 4.0, -1], [0, "linalg.fold_left", 1.0, 2.0, 0],
                     [1, "cli.main", 10.0, 12.0, -1]]
    fake.counts["linalg.product_factors"] = 6
    m = harness.layer_metrics(fake, jobs=2)
    assert m["cli.self_s"] == pytest.approx((3.0 + 2.0) / 2)
    assert m["cli.calls"] == 1.0
    assert m["linalg.self_s"] == m["linalg.fold_left.self_s"] == pytest.approx(0.5)
    assert m["linalg.product_factors"] == 3.0
    assert m["dynamics.self_s"] == 0.0


# ---------- tracer binding ----------

def test_tracer_patches_by_name_imports_and_restores_them():
    import cpn_holonomy
    from cpn_holonomy import holonomy as holonomy_fn

    hol_mod = sys.modules["cpn_holonomy.holonomy"]
    component_fn = hol_mod.phi_component_batch
    trace = tracer.Tracer()
    keys = trace.install()
    try:
        assert "holonomy.holonomy" in keys and "holonomy.UnitaryMatrix.from_raw" in keys
        assert cpn_holonomy.holonomy is not holonomy_fn
        assert hol_mod.phi_component_batch is not component_fn
        rc, _, _ = harness.run_cli(["gate", "--name", "crot", "--segments", "4"])
    finally:
        trace.uninstall()
    assert rc == 0
    assert cpn_holonomy.holonomy is holonomy_fn and hol_mod.phi_component_batch is component_fn
    layers = {tracer.layer_of(s[1]) for s in trace.spans}
    assert {"cli", "gates", "holonomy", "loops", "connection", "linalg"} <= layers
    assert trace.counts["holonomy.segments"] == 2 * 4 * 4  # two C1 rectangles
    assert trace.counts["linalg.exponentials"] >= 32


# ---------- reference checks ----------

def _perturb_matrix(key):
    def apply(out):
        d = json.loads(out)
        d[key][0][0][0] += 0.01
        return json.dumps(d)
    return apply


def _perturb_sweep(out):
    d = json.loads(out)
    d["rows"][0]["distance"] = 1e-6
    return json.dumps(d)


def _perturb_connection(out):
    d = json.loads(out)
    d["a_phi"][0][0][0][1] += 1e-6
    return json.dumps(d)


def _perturb_circuit(out):
    d = json.loads(out)
    d["state"][-1][0] += 1e-6
    return json.dumps(d)


def _perturb_kick(out):
    lines = out.strip().splitlines()
    n_int, dt, dist = lines[-1].split(",")
    lines[-1] = f"{n_int},{dt},{float(dist) * 2!r}"
    return "\n".join(lines) + "\n"


PERTURB = {"holonomy": _perturb_matrix("entries"), "sweep": _perturb_sweep,
           "gate": _perturb_matrix("matrix_integrated"), "verify": _perturb_matrix("transport"),
           "kick": _perturb_kick, "compile": _perturb_matrix("matrix"),
           "circuit": _perturb_circuit, "connection": _perturb_connection}


def _first_job(kind):
    for workload in WORKLOADS:
        for job in job_round(workload, 11, 0):
            if job.kind == kind:
                return job
    raise LookupError(kind)


@pytest.mark.filterwarnings("ignore:leakage")  # short verify runs are non-adiabatic
@pytest.mark.parametrize("kind", sorted(PERTURB))
def test_check_accepts_output_and_rejects_perturbed_output(kind, tmp_path):
    job = _first_job(kind)
    if kind == "verify":  # the shortest transport keeps the reference rerun cheap
        job.argv[job.argv.index("--time") + 1] = "250"
    argv = job.materialize(tmp_path)

    def rerun(extra):
        return harness.run_cli(argv + extra)[1]

    rc, out, err = harness.run_cli(argv)
    assert rc == 0, err
    distance = checks.check(job, out, rerun)
    assert (distance is None) == (kind == "kick")
    with pytest.raises(checks.CheckFailed):
        checks.check(job, PERTURB[kind](out), rerun)


def test_check_rejects_unparsable_output():
    with pytest.raises(checks.CheckFailed):
        checks.check(_first_job("holonomy"), "not json", None)


def test_connection_reference_matches_a_known_entry():
    # A^{phi_1}_{11} = -i sin^2(theta_1) at n = 1
    a_theta, a_phi = checks.connection_reference(np.array([0.3]), np.array([1.1]))
    assert a_phi[0, 0, 0] == pytest.approx(-1j * np.sin(0.3) ** 2)
    assert abs(a_theta[0, 0, 0]) < 1e-15


# ---------- seeded job lists ----------

def _as_data(jobs: list[Job]):
    return [(j.kind, j.argv, j.files, json.dumps(j.spec, sort_keys=True)) for j in jobs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_jobs(workload):
    for r in range(3):
        assert _as_data(job_round(workload, 5, r)) == _as_data(job_round(workload, 5, r))
    assert _as_data(job_round(workload, 5, 0)) != _as_data(job_round(workload, 6, 0))
    assert _as_data(job_round(workload, 5, 0)) != _as_data(job_round(workload, 5, 1))


# ---------- contract ----------

def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_run_fails_cleanly_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "holonomy", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
