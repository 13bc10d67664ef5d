"""CLI behavior: schemas, exit codes, pi-literals, determinism."""
import argparse
import contextlib
import copy
import io
import json
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cpn_holonomy import (GateProgram, GateStep, PlaneTag, holonomy, primitive_holonomy,
                          program_schedule, realize_step_as_loop, two_qubit_gate)
from cpn_holonomy.cli import build_parser, dump_json, main, parse_angle
from cpn_holonomy.linalg import max_abs_diff
from cpn_holonomy.loops import FAMILIES
from helpers import circle_loop


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


SIGMA_X = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]


# ---------- angle parsing ----------

@pytest.mark.parametrize("text,value", [
    ("pi", np.pi), ("-pi", -np.pi), ("pi/2", np.pi / 2), ("-pi/4", -np.pi / 4),
    ("3pi/4", 3 * np.pi / 4), ("3*pi/4", 3 * np.pi / 4), ("0.5pi", np.pi / 2),
    ("2pi", 2 * np.pi), ("1.25", 1.25), ("-0.75", -0.75), ("PI/2", np.pi / 2),
])
def test_parse_angle_examples(text, value):
    assert abs(parse_angle(text) - value) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from(["", "-"]))
def test_parse_angle_rational_multiples(num, den, sign):
    text = f"{sign}{num}pi/{den}"
    expect = (-1 if sign else 1) * num * np.pi / den
    assert abs(parse_angle(text) - expect) < 1e-12


def test_parse_angle_rejects_garbage():
    for bad in ("pie", "2x", "pi/0", ""):
        with pytest.raises(ValueError):
            parse_angle(bad)


@pytest.mark.parametrize("argv,option,value", [
    (["gate", "--name", "uph1", "--segments", "4"], "--sigma1", "-pi/4"),
    (["gate", "--name", "uph1", "--segments", "4"], "--sigma1", "-3pi/4"),
    (["gate", "--name", "uph1", "--segments", "4"], "--sigma3", "-1e-05"),
    (["gate", "--name", "uph1", "--segments", "4"], "--sigma3", "-0.25"),
    (["connection", "--theta", "0.1,0.2"], "--phi", "-0.5,0.3"),
    (["connection"], "--theta", "-0.5,0.3"),  # out of the chart: exit 2 both ways
    (["verify", "--name", "crot"], "--time", "-pi"),  # adiabatic_transport rejects it: exit 2
    (["kick", "--name", "xor", "--n-list", "10", "--ref-steps", "16"], "--time", "-1e-05"),
    # abbreviated option names, which argparse accepts for the full ones
    (["connection", "--theta", "0.1,0.2"], "--ph", "-0.5,0.3"),
    (["verify", "--name", "crot"], "--tim", "-pi"),
])
def test_negative_angle_as_own_token(argv, option, value, capsys):
    # argparse alone reads '-pi/4' or '-1e-05' after an option as another option
    full = {"--ph": "--phi", "--tim": "--time"}.get(option, option)
    split = main(argv + [option, value]), capsys.readouterr()
    joined = main(argv + [f"{full}={value}"]), capsys.readouterr()
    assert split == joined
    code, captured = split
    if argv[0] in ("verify", "kick") or option == "--theta":
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        if argv[0] == "verify":
            assert "total time must be finite and positive" in captured.err
    else:
        assert code == 0 and json.loads(captured.out)


# ---------- connection ----------

def test_connection_origin_outputs_zeros(capsys):
    code, out = run_cli(["connection", "--n", "2"], capsys)
    assert code == 0
    d = json.loads(out)
    flat = np.array(d["a_theta"], dtype=float)
    assert np.max(np.abs(flat)) == 0.0


def test_connection_known_value(capsys):
    code, out = run_cli(["connection", "--theta", "pi/4"], capsys)
    assert code == 0
    d = json.loads(out)
    re_, im = d["a_phi"][0][0][0]
    assert abs(re_) < 1e-14 and abs(im + 0.5) < 1e-14


def test_connection_takes_n_from_phi_alone(capsys):
    # --phi as the only list sets n, with every theta 0
    code, out = run_cli(["connection", "--phi", "0.1,0.2"], capsys)
    assert code == 0
    for argv in (["--n", "2", "--phi", "0.1,0.2"], ["--theta", "0,0", "--phi", "0.1,0.2"]):
        assert run_cli(["connection", *argv], capsys) == (0, out)


def test_connection_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["connection", "--point", str(bad)]) == 2
    assert main(["connection", "--point", str(tmp_path / "missing.json")]) == 2


# ---------- holonomy ----------

def test_holonomy_loop_file(tmp_path, capsys):
    loop = realize_step_as_loop(GateStep("C1", 1, None, np.pi / 4), 1)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop.to_json_dict(segments_per_edge=16)))
    code, out = run_cli(["holonomy", "--loop", str(path)], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 1
    assert abs(d["enclosed_area"] - np.pi / 4) < 1e-12
    re_, im = d["entries"][0][0]
    assert abs(complex(re_, im) - np.exp(-1j * np.pi / 4)) < 1e-9
    assert d["unitarity_defect"] < 1e-9


C1_STEP = {"family": "C1", "beta": 1, "beta_bar": None, "area": 0.5}
BAD_FILES = {
    "pair_list": [1, 2],
    "null_points": {"n": 1, "points": [None, None, None]},
    "null_step": {"n": 2, "steps": [None]},
    "null_entry": [None],
    "plain_object": {"a": 1},
    "real_matrix": [[1, 0], [0, 1]],  # entries must be [re, im] pairs
    "fractional_n_program": {"n": 4.7, "steps": [C1_STEP]},
    "fractional_beta_program": {"n": 2, "steps": [dict(C1_STEP, beta=1.5)]},
    "boolean_n_program": {"n": True, "steps": [C1_STEP]},
    "zero_n_program": {"n": 0, "steps": []},
    "zero_n_loop": {"n": 0, "points": [[[], []]] * 3},
    "negative_n_program": {"n": -1, "steps": []},
    "fractional_pair": [{"pair": [1.5, 2], "gate": "XOR"}],
    "boolean_pair": [{"pair": [True, 2], "gate": "XOR"}],
    "fractional_n_point": {"n": 1.5, "theta": [0.1], "phi": [0.0]},
    "c2_same_index_program": {"n": 2, "steps": [dict(C1_STEP, family="C2", beta_bar=1)]},
    "huge_area_program": {"n": 4, "steps": [dict(C1_STEP, area=1e300)]},
    "residual_phase_program": {"n": 1, "steps": [C1_STEP], "residual_phase": 0.3},
}


@pytest.mark.parametrize("argv", [
    ["connection", "--theta", "nan,0.3"],
    ["holonomy", "--loop", "{nan_loop}"],
    ["holonomy", "--loop", "{loop}", "--segments", "0"],  # not the loop file's own count
    ["sweep", "--cases", "0", "--format", "csv"],
    ["sweep", "--kind", "segments", "--loop", "{loop}", "--cases", "0"],
    ["gate", "--name", "uph1", "--sigma1", "nan"],
    # an explicit --n below the minimum is an error, never a silent default
    ["connection", "--n", "0", "--theta", "0.1,0.2"],
    ["compile", "--target", "{target}", "--beta", "1", "--beta-bar", "2", "--n", "0"],
    ["sweep", "--n", "0"],
    ["sweep", "--n", "1"],
    ["sweep", "--n", "1", "--family", "C2"],
    ["sweep", "--n", "0", "--family", "C1"],
    # step counts above dynamics.MAX_STEPS fail before anything is sampled
    ["kick", "--name", "crot", "--n-list", "10", "--time", "1",
     "--ref-steps", "100000000000000"],
    ["kick", "--name", "crot", "--n-list", "100000000000000", "--time", "1",
     "--ref-steps", "16"],
    ["verify", "--name", "crot", "--time", "1", "--steps", "100000000000000"],
    ["verify", "--name", "crot", "--time", "1e300"],  # eps0 T / 0.05 steps needed
    # an input file of the wrong shape is one error naming the file, not a traceback
    ["holonomy", "--loop", "{pair_list}"],
    ["holonomy", "--loop", "{null_points}"],
    ["verify", "--program", "{pair_list}", "--time", "1"],
    ["verify", "--program", "{null_step}", "--time", "1"],
    ["kick", "--program", "{pair_list}", "--n-list", "10"],
    ["kick", "--program", "{null_step}", "--n-list", "10"],
    ["circuit", "--circuit", "{null_entry}", "--qubits", "2", "--state", "00"],
    ["circuit", "--circuit", "{plain_object}", "--qubits", "2", "--state", "00"],
    ["compile", "--target", "{real_matrix}", "--beta", "1", "--beta-bar", "2"],
    # integer fields are never truncated nor read from booleans
    ["verify", "--program", "{fractional_n_program}", "--time", "1"],
    ["verify", "--program", "{fractional_beta_program}", "--time", "1"],
    ["verify", "--program", "{boolean_n_program}", "--time", "1"],
    ["verify", "--program", "{zero_n_program}", "--time", "1"],
    ["verify", "--program", "{negative_n_program}", "--time", "1"],
    ["holonomy", "--loop", "{fractional_segments_loop}"],
    ["holonomy", "--loop", "{fractional_n_loop}"],
    ["circuit", "--circuit", "{fractional_pair}", "--qubits", "2", "--state", "00"],
    ["circuit", "--circuit", "{boolean_pair}", "--qubits", "2", "--state", "00"],
    ["connection", "--point", "{fractional_n_point}"],
    # a C2 step with beta_bar == beta would integrate to a different gate
    ["verify", "--program", "{c2_same_index_program}", "--time", "1"],
    # segment counts above holonomy.MAX_SEGMENT_ENTRIES fail before any allocation;
    # the sweep checks its last, doubled count before its first case
    ["holonomy", "--loop", "{loop}", "--segments", "100000000000000"],
    ["sweep", "--kind", "segments", "--loop", "{loop}", "--segments", "1", "--cases", "70"],
    # a random-rects sweep counts four edges per case against it, all cases at once
    ["sweep", "--cases", "2000"],
    ["sweep", "--cases", "100000000"],
    # a program's composite loop is counted against the budget before it is built
    ["gate", "--name", "uph1", "--sigma1", "1e300"],
    ["verify", "--program", "{huge_area_program}", "--time", "1"],
    # a report tolerance is finite and >= 0; inf, nan or a negative one decides nothing
    ["verify", "--name", "crot", "--time", "250", "--tol", "inf"],
    ["gate", "--name", "xor", "--tol", "nan"],
    ["gate", "--name", "xor", "--tol", "-1"],
    ["compile", "--target", "{target}", "--beta", "1", "--beta-bar", "2", "--tol=-inf"],
    # a program's matrix is the product of its steps; a phase beside them would be ignored
    ["verify", "--program", "{residual_phase_program}", "--time", "1"],
    ["kick", "--program", "{residual_phase_program}", "--n-list", "10"],
    # theta and phi of unequal length are an error, never padded with zeros
    ["connection", "--theta", "0.1,0.2", "--phi", "0.3"],
    ["connection", "--n", "3", "--phi", "0.1"],
    ["connection", "--n", "1", "--phi", "0.1,0.2"],
    # a loop file checks its n before its vertex arrays
    ["verify", "--loop", "{zero_n_loop}", "--time", "1"],
    # a loop file's frozen plane values are finite numbers, and its points are pairs
    ["holonomy", "--loop", "{text_frozen_loop}"],
    ["holonomy", "--loop", "{triple_point_loop}"],
    # an --out that cannot be written is an input error, not a traceback
    ["gate", "--name", "xor", "--out", "{missing_dir}/x"],
    ["gate", "--name", "xor", "--out", "{directory}"],
    # a loop file's frozen plane values are those of its vertices
    ["holonomy", "--loop", "{frozen_mismatch_loop}"],
    # a plane names exactly two distinct coordinates, each at most n
    ["holonomy", "--loop", "{three_coord_loop}"],
    ["holonomy", "--loop", "{twice_coord_loop}"],
    ["holonomy", "--loop", "{one_coord_loop}"],
    ["holonomy", "--loop", "{above_n_coord_loop}"],
])
def test_bad_input_exits_2_with_one_error_line(argv, tmp_path, capsys):
    loop = realize_step_as_loop(GateStep("C1", 1, None, np.pi / 4), 1).to_json_dict(
        segments_per_edge=16)
    c2_loop = realize_step_as_loop(GateStep("C2", 1, 2, 0.5), 2).to_json_dict()
    files = {"loop": tmp_path / "loop.json", "nan_loop": tmp_path / "nan.json",
             "target": tmp_path / "target.json", "missing_dir": tmp_path / "missing",
             "directory": tmp_path}
    files["loop"].write_text(json.dumps(loop))
    files["target"].write_text(json.dumps({"matrix": SIGMA_X}))
    contents = dict(BAD_FILES, fractional_segments_loop=dict(loop, segments_per_edge=2.9),
                    fractional_n_loop=dict(loop, n=1.5),
                    text_frozen_loop=dict(loop, plane=dict(loop["plane"], frozen={"theta:2": "x"})),
                    triple_point_loop=dict(loop, points=[p + [[1.0]] for p in loop["points"]]),
                    frozen_mismatch_loop=dict(c2_loop, plane=dict(c2_loop["plane"],
                                                                  frozen={"theta:2": 0.25})),
                    three_coord_loop=dict(c2_loop, plane=dict(
                        c2_loop["plane"], coords=["theta:1", "phi:2", "phi:1"])),
                    twice_coord_loop=dict(loop, plane=dict(loop["plane"],
                                                           coords=["theta:1", "theta:1"])),
                    one_coord_loop=dict(loop, plane=dict(loop["plane"], coords=["theta:1"])),
                    above_n_coord_loop=dict(loop, plane=dict(loop["plane"],
                                                             coords=["theta:1", "phi:2"])))
    for name, value in contents.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(value))
    loop["points"][1][0][0] = float("nan")  # json writes the NaN literal and reads it back
    files["nan_loop"].write_text(json.dumps(loop))
    assert main([a.format(**files) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


FUZZ_DOCS = {  # a valid file of each kind, and the command that reads it
    "loop": (realize_step_as_loop(GateStep("C2", 1, 2, 0.5), 2).to_json_dict(segments_per_edge=2),
             ["holonomy", "--loop", "{}"]),
    "dynamics": (realize_step_as_loop(GateStep("C4", 1, 2, 0.4), 2).to_json_dict(),
                 ["verify", "--loop", "{}", "--time", "1"]),
    "program": (GateProgram(3, (GateStep("C1", 1, None, 0.3), GateStep("C3", 2, 3, -0.8),
                                GateStep("C2", 1, 3, 0.5))).to_json_dict(),
                ["verify", "--program", "{}", "--time", "1"]),
    "circuit": ([{"pair": [1, 2], "gate": "XOR"},
                 {"pair": [2, 1], "gate": {"matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                                      [[0.0, 0.0], [0.0, 1.0]]]}}],
                ["circuit", "--circuit", "{}", "--qubits", "2", "--state", "00"]),
}
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 6), st.floats(-4.0, 4.0),
    st.sampled_from([-0.0, 1e300, -1e300, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from(["", "theta:0", "theta:3", "phi:1", "phi:9", "C3", "XOR"]),
    st.lists(st.floats(0.0, 1.5), max_size=3), st.just({}))


@st.composite
def malformed(draw, doc):
    """doc with one to three values, at any depth, replaced, deleted or repeated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(doc, (dict, list)) or not doc:
            return draw(FUZZ_VALUES)
        parent = doc
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict) else range(len(parent))))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            parent = parent[key]
            key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                       else range(len(parent))))
        action = draw(st.sampled_from(["replace", "delete", "repeat"]))
        if action == "replace":
            parent[key] = draw(FUZZ_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key]] * 2
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(FUZZ_DOCS)).flatmap(
    lambda kind: st.tuples(st.just(kind), malformed(FUZZ_DOCS[kind][0]))))
def test_malformed_input_files_exit_cleanly(tmp_path, case):
    # wrong types and lengths, indices of 0 or above n, non-finite numbers and missing
    # keys: a result, an input error on one line, or a failed unitarity certificate
    kind, doc = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # leakage at --time 1
        code = main([a.format(path) for a in FUZZ_DOCS[kind][1]])
    err = err.getvalue()
    assert code in (0, 2, 3) and "Traceback" not in err
    if code == 2:
        assert [line.startswith("error:") for line in err.splitlines()] == [True]
    if code == 3:
        assert err.startswith("numerical failure:")


# ---------- gates ----------

@pytest.mark.parametrize("name", ["crot", "xor", "swap"])
def test_gate_fidelity(name, capsys):
    code, out = run_cli(["gate", "--name", name, "--segments", "48"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["fidelity"] >= 1 - 1e-6
    assert d["within_tol"]
    assert len(d["program"]["steps"]) >= 2


def test_gate_unknown_name_exits_2(capsys):
    assert main(["gate", "--name", "toffoli"]) == 2


def test_compile_subcommand(tmp_path, capsys):
    target = {"matrix": SIGMA_X}
    path = tmp_path / "target.json"
    path.write_text(json.dumps(target))
    code, out = run_cli(["compile", "--target", str(path), "--beta", "1",
                         "--beta-bar", "2", "--n", "2"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["distance_up_to_phase"] < 1e-12
    assert d["within_tol"]
    assert "residual_phase" not in d and "residual_phase" not in d["program"]
    assert 1 <= len(d["program"]["steps"]) <= 4
    assert {s["family"] for s in d["program"]["steps"]} <= {"C1", "C3"}


def test_program_file_with_zero_or_no_residual_phase_loads(tmp_path, capsys):
    program = {"n": 1, "steps": [C1_STEP]}
    outputs = []
    for extra in ({}, {"residual_phase": 0.0}, {"residual_phase": 0}):
        path = tmp_path / "program.json"
        path.write_text(json.dumps(dict(program, **extra)))
        outputs.append(run_cli(["verify", "--program", str(path), "--time", "400"], capsys))
    assert outputs[0][0] == 0
    assert outputs[1:] == outputs[:1] * 2


def test_repeated_verify_warns_with_one_text(capsys):
    # the leakage warning's text is the same at every T (the values are in the
    # JSON), so repeated in-process calls add no warning-registry entries
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for time in ("100", "150", "300", "600"):
            assert run_cli(["verify", "--name", "xor", "--time", time], capsys)[0] == 0
    texts = {str(w.message) for w in caught}
    assert len(caught) == 4 and len(texts) == 1, texts


def test_compile_evaluates_the_program_once(tmp_path, capsys, monkeypatch):
    # the distance and the printed matrix come from one closed-form product
    from cpn_holonomy.gates import GateProgram
    calls = []
    evaluate = GateProgram.evaluate
    monkeypatch.setattr(GateProgram, "evaluate",
                        lambda self, *a, **k: calls.append(1) or evaluate(self, *a, **k))
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"matrix": SIGMA_X}))
    code, out = run_cli(["compile", "--target", str(path), "--beta", "1",
                         "--beta-bar", "2", "--n", "2"], capsys)
    assert code == 0 and json.loads(out)["within_tol"]
    assert len(calls) == 1


# ---------- verify / kick ----------

def test_verify_report_schema(tmp_path, capsys):
    loop = realize_step_as_loop(GateStep("C1", 1, None, np.pi / 4), 1)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop.to_json_dict()))
    code, out = run_cli(["verify", "--loop", str(path), "--time", "400",
                         "--tol", "5e-2"], capsys)
    assert code == 0
    d = json.loads(out)
    for key in ("transport", "leakage", "distance_to_holonomy", "T", "steps"):
        assert key in d
    assert d["distance_to_holonomy"] < 5e-2
    assert d["within_tol"]


@pytest.mark.parametrize("source", ["loop", "name", "program"])
def test_verify_distance_to_holonomy_segments(source, tmp_path, capsys):
    # a loop file's own segments_per_edge, one segment per edge on a program's loop
    circle = circle_loop(1, PlaneTag(("theta:1", "phi:1")), (0.7, 1.0), 0.3, num_vertices=6)
    prog = two_qubit_gate("CROT")
    path = tmp_path / "input.json"
    if source == "loop":
        path.write_text(json.dumps(circle.to_json_dict(segments_per_edge=3)))
        loop, segs = circle, 3
    else:
        path.write_text(json.dumps(prog.to_json_dict()))
        loop, segs = program_schedule(prog), 1
    value = str(path) if source != "name" else "crot"
    code, out = run_cli(["verify", f"--{source}", value, "--time", "1000"], capsys)
    assert code == 0
    d = json.loads(out)
    transport = np.array(d["transport"])
    transport = transport[..., 0] + 1j * transport[..., 1]
    assert d["distance_to_holonomy"] == max_abs_diff(transport, holonomy(loop, segs).matrix)
    if source == "loop":  # the count matters on this loop
        assert d["distance_to_holonomy"] != max_abs_diff(transport, holonomy(loop, 1).matrix)


def test_verify_zero_time_exits_2(capsys):
    assert main(["verify", "--name", "crot", "--time", "0"]) == 2


def test_verify_program_file(tmp_path, capsys):
    from cpn_holonomy import two_qubit_gate
    prog = two_qubit_gate("CROT")
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(prog.to_json_dict()))
    code, out = run_cli(["verify", "--program", str(path), "--time", "1500",
                         "--tol", "0.2"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["distance_to_holonomy"] < 0.2
    assert len(d["leakage"]) == 4


def test_kick_csv_table(tmp_path, capsys):
    loop = realize_step_as_loop(GateStep("C1", 1, None, np.pi / 4), 1)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop.to_json_dict()))
    code, out = run_cli(["kick", "--loop", str(path), "--n-list", "1,100,200",
                         "--time", "10", "--ref-steps", "2048"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,delta_t,distance"
    assert len(lines) == 4
    assert lines[1].startswith("1,")  # the N=1 row is present
    d100 = float(lines[2].split(",")[2])
    d200 = float(lines[3].split(",")[2])
    assert 1.6 < d100 / d200 < 2.4  # doubling N halves the distance


def _phi_only_loop(tmp_path):
    """A loop that moves only phis at theta = 0: every step is the identity on the code."""
    ph = [[0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [0.0, 0.0]]
    loop = {"n": 2, "points": [[[0.0, 0.0], p] for p in ph], "segments_per_edge": 8}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop))
    return path


def test_verify_phi_only_loop_is_identity(tmp_path, capsys):
    path = _phi_only_loop(tmp_path)
    code, out = run_cli(["verify", "--loop", str(path), "--time", "20"], capsys)
    assert code == 0
    d = json.loads(out)
    transport = np.array(d["transport"])
    assert np.max(np.abs(transport[..., 0] + 1j * transport[..., 1] - np.eye(2))) <= 1e-15
    assert d["leakage"] == [0.0, 0.0]
    assert d["distance_to_holonomy"] <= 1e-15


def test_kick_phi_only_loop_has_no_error(tmp_path, capsys):
    path = _phi_only_loop(tmp_path)
    code, out = run_cli(["kick", "--loop", str(path), "--n-list", "1,10,250",
                         "--time", "5", "--ref-steps", "64"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3
    assert all(float(row.split(",")[2]) <= 1e-12 for row in rows)


def test_kick_empty_nlist_exits_2(capsys):
    assert main(["kick", "--name", "crot", "--n-list", ",", "--time", "5"]) == 2


@pytest.mark.parametrize("argv", [
    ["kick", "--name", "xor", "--n-list", "0"],
    ["kick", "--name", "xor", "--n-list", "250,-4"],
    ["kick", "--name", "xor", "--n-list", "250,abc"],
    ["kick", "--name", "xor", "--n-list", "2.5"],
    ["kick", "--name", "xor", "--n-list", "250", "--ref-steps", "0"],
    ["kick", "--name", "xor", "--n-list", "250", "--time", "inf"],
    ["kick", "--name", "xor", "--n-list", "250", "--time", "nan"],
    # an interval count over the step limit, even after a good one
    ["kick", "--name", "phase2", "--n-list", "250,5000000", "--time", "30",
     "--ref-steps", "1000000"],
    ["kick", "--name", "phase2", "--n-list", "250", "--time", "30", "--ref-steps", "5000000"],
    ["verify", "--name", "crot", "--time", "inf"],
    ["verify", "--name", "crot", "--time", "nan"],
    # a step whose phase e^{-i dt} has no correct digit, in the reference or the table
    ["kick", "--name", "crot", "--n-list", "3", "--time", "1e300"],
    ["kick", "--name", "crot", "--n-list", "3", "--time", "1e16", "--ref-steps", "100000"],
])
def test_oracle_bad_time_or_count_exits_2(argv, capsys, monkeypatch):
    # kick checks every count and the time before its reference run
    import cpn_holonomy.cli as cli

    def no_reference(*args):
        raise AssertionError("ran the reference propagation before checking the inputs")

    monkeypatch.setattr(cli, "propagate_frames", no_reference)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    if argv[-1] in ("250,abc", "2.5"):
        assert "--n-list entries must be integers, got" in captured.err
    if argv[:3] == ["kick", "--name", "crot"]:  # names the count and its step length
        name = "--ref-steps" if argv[-1] == "1e300" else "--n-list entries"
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {name}: a step of length ")


# ---------- circuit ----------

def test_circuit_subcommand(tmp_path, capsys):
    circ = [{"pair": [1, 2], "gate": "XOR"}]
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(circ))
    code, out = run_cli(["circuit", "--circuit", str(path), "--qubits", "2",
                         "--state", "10", "--no-monolithic"], capsys)
    assert code == 0
    d = json.loads(out)
    state = np.array([complex(re_, im) for re_, im in d["state"]])
    expect = np.zeros(8, dtype=complex)
    expect[6] = 1.0  # |11> tensor |+>
    assert np.max(np.abs(state - expect)) < 1e-12
    assert d["ancilla_minus_weight"] == 0.0
    assert d["cost"]["total_local"] == 3


# ---------- options per subcommand ----------

OPTIONS = {
    "connection": {"--out", "--n", "--point", "--theta", "--phi"},
    "holonomy": {"--out", "--loop", "--segments"},
    "gate": {"--out", "--tol", "--name", "--sigma1", "--sigma3", "--segments"},
    "compile": {"--out", "--n", "--tol", "--target", "--beta", "--beta-bar"},
    "verify": {"--out", "--tol", "--loop", "--program", "--name", "--time", "--steps"},
    "kick": {"--out", "--format", "--loop", "--program", "--name", "--n-list", "--time",
             "--ref-steps"},
    "circuit": {"--out", "--circuit", "--qubits", "--state", "--ancilla", "--no-monolithic"},
    "sweep": {"--out", "--n", "--seed", "--format", "--kind", "--family", "--cases",
              "--segments", "--loop"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    got = {name: [opt for a in p._actions if not isinstance(a, argparse._HelpAction)
                  for opt in a.option_strings]
           for name, p in subparsers.choices.items()}
    assert {name: set(opts) for name, opts in got.items()} == OPTIONS
    assert sum(len(opts) for opts in got.values()) == 50


@pytest.mark.parametrize("argv", [
    # options that the subcommand never reads
    ["verify", "--name", "crot", "--time", "250", "--format", "csv"],
    ["holonomy", "--loop", "{loop}", "--tol", "1e-3"],
    ["connection", "--n", "2", "--seed", "3"],
    ["circuit", "--circuit", "{circ}", "--qubits", "2", "--state", "10", "--format", "json"],
    ["gate", "--name", "xor", "--seed", "3"],
    # two input sources where one is read
    ["verify", "--loop", "{loop}", "--name", "crot", "--time", "250"],
    ["kick", "--program", "{program}", "--name", "xor", "--n-list", "10"],
    ["kick", "--n-list", "10"],
    ["connection", "--point", "{point}", "--theta", "0.1"],
    # options of the other sweep kind
    ["sweep", "--loop", "{loop}"],
    ["sweep", "--kind", "segments", "--family", "C1", "--loop", "{loop}"],
    ["sweep", "--kind", "segments"],
    # an option given twice, also through a prefix of its name ("--n" is --name)
    ["gate", "--n", "4", "--name", "xor"],
    ["verify", "--name", "crot", "--time", "250", "--time", "500", "--steps", "10"],
    ["holonomy", "--loop", "{loop}", "--loop", "{loop}"],
    # time is in units of 1/eps0: there is no gap to set
    ["verify", "--name", "crot", "--time", "40", "--epsilon0", "2"],
    ["kick", "--name", "xor", "--n-list", "250", "--epsilon0", "2"],
])
def test_unread_or_conflicting_options_exit_2(argv, tmp_path, capsys):
    files = {name: tmp_path / f"{name}.json" for name in ("loop", "circ", "program", "point")}
    files["loop"].write_text(json.dumps(
        realize_step_as_loop(GateStep("C1", 1, None, np.pi / 4), 1).to_json_dict(8)))
    files["circ"].write_text(json.dumps([{"pair": [1, 2], "gate": "XOR"}]))
    files["program"].write_text(json.dumps(two_qubit_gate("CROT").to_json_dict()))
    files["point"].write_text(json.dumps({"n": 1, "theta": [0.1], "phi": [0.0]}))
    with pytest.raises(SystemExit) as exc:
        main([a.format(**files) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


# ---------- JSON writer ----------

def _reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


KEYS = st.text() | st.sampled_from(["", '"', "\n", "\\", "\u00e9", "\u2603", "\U0001f600", "a\tb"])
FLOATS = st.floats() | st.sampled_from([-0.0, 1e-05, 1e16, 5e-324, float("nan"),
                                        float("inf"), -float("inf")])
SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | FLOATS | st.text()
           | st.sampled_from([[], {}, ()]))
FLOAT_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                                       max_side=3), elements=FLOATS)


@settings(max_examples=200, deadline=None)
@given(st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.lists(inner, max_size=4).map(tuple)
                    | st.dictionaries(KEYS, inner, max_size=4), max_leaves=20))
def test_dump_json_matches_json_dumps(obj):
    assert dump_json(obj) == _reference_json(obj)


@settings(max_examples=200, deadline=None)
@given(FLOAT_ARRAYS, st.booleans(), st.integers(0, 3))
def test_dump_json_float_arrays_match_their_lists(a, transpose, depth):
    # an ndarray is written as its tolist() would be, at any nesting depth,
    # including 0-d arrays, zero-length axes and non-contiguous views
    if transpose:
        a = a.T
    wrapped, listed = a, a.tolist()
    for _ in range(depth):
        wrapped, listed = {"k": [wrapped, 1]}, {"k": [listed, 1]}
    assert dump_json(wrapped) == _reference_json(listed)


@pytest.mark.parametrize("obj", [
    np.int64(3), {"a": np.int64(1)}, np.zeros((2, 2), dtype=complex), np.zeros(3, dtype=np.float32),
    np.arange(3), {1: 2.0}, {"a": 1, 2: "b"}, {None: 1}, {1.5: 1}, [set()], object(),
])
def test_dump_json_rejects_what_it_cannot_write(obj):
    with pytest.raises(TypeError):
        dump_json(obj)


def test_cli_json_is_canonical(tmp_path, capsys):
    # every JSON subcommand prints exactly what json.dumps prints for the same data
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(realize_step_as_loop(GateStep("C2", 1, 2, 0.7), 3)
                               .to_json_dict(segments_per_edge=4)))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"matrix": SIGMA_X}))
    circ = tmp_path / "circ.json"
    circ.write_text(json.dumps([{"pair": [1, 2], "gate": "CROT"}, {"pair": [2, 3], "gate": "XOR"}]))
    calls = [
        ["connection", "--theta", "pi/4,0.3,1.2", "--phi", "0,1.1,-0.25"],
        ["holonomy", "--loop", str(loop)],
        ["gate", "--name", "crot", "--segments", "8"],
        ["compile", "--target", str(target), "--beta", "2", "--beta-bar", "3"],
        ["verify", "--loop", str(loop), "--time", "400", "--steps", "400"],
        ["kick", "--loop", str(loop), "--n-list", "10,20", "--time", "5", "--ref-steps", "64",
         "--format", "json"],
        ["circuit", "--circuit", str(circ), "--qubits", "3", "--state", "101"],
        ["sweep", "--cases", "3", "--n", "3", "--segments", "4", "--seed", "9"],
    ]
    for argv in calls:
        code, out = run_cli(argv, capsys)
        assert code == 0, argv
        assert out == _reference_json(json.loads(out)), argv


# ---------- determinism ----------

def test_seeded_sweep_byte_identical():
    cmd = [sys.executable, "-m", "cpn_holonomy.cli", "sweep", "--kind", "random-rects",
           "--seed", "123", "--cases", "5", "--n", "3"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b
    assert json.loads(a)["seed"] == 123


def _fresh_cli(argv):
    """Exit code and stdout of one call in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "cpn_holonomy.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # main() reuses one parser per process: every subcommand runs with
    # non-default options and then with its defaults, and each output must
    # equal a fresh interpreter's, so no option value leaks into a later call
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(realize_step_as_loop(GateStep("C1", 1, None, np.pi / 4), 1)
                               .to_json_dict(segments_per_edge=8)))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"matrix": SIGMA_X}))
    circ = tmp_path / "circ.json"
    circ.write_text(json.dumps([{"pair": [1, 2], "gate": "XOR"}]))
    kick = ["kick", "--loop", str(loop), "--n-list", "10,20", "--time", "5",
            "--ref-steps", "256"]
    calls = [
        ["connection", "--n", "2", "--theta", "pi/4,0.3", "--phi", "0,1.1",
         "--out", str(tmp_path / "conn.json")],
        ["connection", "--theta", "pi/4"],
        ["holonomy", "--loop", str(loop), "--segments", "4"],
        ["holonomy", "--loop", str(loop)],
        ["gate", "--name", "uph1", "--sigma1", "0.3", "--sigma3", "pi/5",
         "--segments", "8", "--tol", "1e-2"],
        ["gate", "--name", "uph1", "--segments", "8"],
        ["compile", "--target", str(target), "--beta", "1", "--beta-bar", "2",
         "--n", "4", "--tol", "1e-12"],
        ["compile", "--target", str(target), "--beta", "1", "--beta-bar", "2"],
        ["verify", "--loop", str(loop), "--time", "400", "--steps", "2000", "--tol", "1e-2"],
        ["verify", "--loop", str(loop), "--time", "400"],
        kick + ["--format", "json"],
        kick,
        ["circuit", "--circuit", str(circ), "--qubits", "2", "--state", "10",
         "--ancilla", "-", "--no-monolithic"],
        ["circuit", "--circuit", str(circ), "--qubits", "2", "--state", "10"],
        ["sweep", "--family", "C3", "--n", "3", "--cases", "2", "--segments", "4",
         "--seed", "5", "--format", "csv"],
        ["sweep", "--cases", "2"],
    ]
    got = [run_cli(argv, capsys) for argv in calls]
    with pytest.raises(SystemExit) as exc:
        main(["holonomy"])  # usage error: no --loop
    assert exc.value.code == 2
    capsys.readouterr()
    after_error = run_cli(calls[3], capsys)
    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = list(pool.map(_fresh_cli, calls))
    for argv, a, b in zip(calls, got, fresh):
        assert a == b, argv
    assert after_error == fresh[3]
    assert build_parser() is build_parser()


def test_sweep_seed_changes_output(capsys):
    _, out1 = run_cli(["sweep", "--kind", "random-rects", "--seed", "1", "--cases", "3"], capsys)
    _, out2 = run_cli(["sweep", "--kind", "random-rects", "--seed", "2", "--cases", "3"], capsys)
    assert out1 != out2


def _random_rects(seed, cases, n, family=None):
    """The steps of a random-rects sweep, drawn one case at a time in its RNG order."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(cases):
        fam = family or str(rng.choice(FAMILIES))
        if fam == "C1":
            beta, beta_bar = int(rng.integers(1, n + 1)), None
        elif fam == "C2":
            beta = int(rng.integers(1, n))
            beta_bar = int(rng.integers(beta + 1, n + 1))
        else:
            pair = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            beta, beta_bar = int(pair[0]), int(pair[1])
        hi = 1.4 if fam in ("C3", "C4") else 3.0
        steps.append(GateStep(fam, beta, beta_bar, float(rng.uniform(-hi, hi))))
    return steps


@pytest.mark.parametrize("n,family", [(2, None), (4, None), (6, None), (3, "C2"), (1, "C1")])
@pytest.mark.parametrize("seed", [0, 7, 4242])
def test_sweep_rows_match_one_evaluation_per_case(n, family, seed, capsys):
    # the rectangles are integrated in one pass; every row keeps the fields of
    # its case drawn alone, and its distance stays at roundoff
    argv = ["sweep", "--n", str(n), "--seed", str(seed), "--cases", "20", "--segments", "3"]
    code, out = run_cli(argv + (["--family", family] if family else []), capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    steps = _random_rects(seed, 20, n, family)
    assert len(rows) == len(steps)
    for case, (row, step) in enumerate(zip(rows, steps)):
        assert {k: row[k] for k in ("case", "family", "beta", "beta_bar", "area")} == {
            "case": case, "family": step.family, "beta": step.beta,
            "beta_bar": step.beta_bar, "area": step.area}
        alone = holonomy(realize_step_as_loop(step, n), 3)
        assert alone.distance(primitive_holonomy(step, n).matrix) <= 1e-15
        assert row["distance"] <= 1e-15


def test_benchmark_sized_sweep_is_within_the_segment_budget(capsys):
    # 12 rectangles x 4 edges x 64 segments at n = 4, the largest sweep the benchmark runs
    code, out = run_cli(["sweep", "--seed", "3", "--cases", "12", "--segments", "64"], capsys)
    assert code == 0
    assert [r["case"] for r in json.loads(out)["rows"]] == list(range(12))


def test_sweep_segments_convergence(tmp_path, capsys):
    # a curved loop shows the second-order segment convergence in the table
    loop = circle_loop(1, PlaneTag(("theta:1", "phi:1")), (0.7, 1.0), 0.3,
                       num_vertices=64, clockwise=True, family="C1")
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(loop.to_json_dict()))
    code, out = run_cli(["sweep", "--kind", "segments", "--loop", str(path),
                         "--segments", "2", "--cases", "3"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert rows[0]["distance"] > rows[1]["distance"] > rows[2]["distance"]


@pytest.mark.parametrize("name", ["uph1", "phase1", "phase2"])
def test_gate_phase_constructions(name, capsys):
    code, out = run_cli(["gate", "--name", name, "--sigma1", "pi/8",
                         "--sigma3", "pi/5", "--segments", "32"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["within_tol"]


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "conn.json"
    code, _ = run_cli(["connection", "--n", "1", "--out", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["n"] == 1


def test_numerical_failure_exits_3(monkeypatch, capsys):
    from cpn_holonomy.holonomy import UnitarityError
    import cpn_holonomy.cli as cli

    def boom(args):
        raise UnitarityError("defect 1e-3 exceeds bound")

    monkeypatch.setattr(cli, "cmd_connection", boom)
    parser = cli.build_parser()
    args = parser.parse_args(["connection", "--n", "1"])
    monkeypatch.setattr(args, "func", boom)
    # go through main() so the exit-code mapping itself is exercised
    monkeypatch.setattr(cli, "build_parser", lambda: _FixedParser(args))
    assert cli.main(["connection", "--n", "1"]) == 3


class _FixedParser:
    def __init__(self, args):
        self._args = args

    def parse_args(self, argv=None):
        return self._args
