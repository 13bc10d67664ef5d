"""Command-line front end with machine-readable JSON/CSV output.

Each subcommand takes only the options it reads; any other is a usage
error (exit 2). Every one takes --out (a path, '-' for stdout), and

    connection  --n --theta --phi, or --point (a file, excluding the three)
    holonomy    --loop --segments
    gate        --name --sigma1 --sigma3 --segments --tol
    compile     --target --beta --beta-bar --n --tol
    verify      one of --loop/--program/--name; --time --steps --tol
    kick        one of --loop/--program/--name; --n-list --time --ref-steps
                --format (csv by default)
    circuit     --circuit --qubits --state --ancilla --no-monolithic
    sweep       --kind random-rects (default) with --n --family, or --kind
                segments with --loop; --cases --segments --seed --format
                (json by default)

argparse also reads a unique prefix of an option's name ("--tim"), so a
bare "--n" on gate and verify means --name, and on kick it is ambiguous.
An option given twice, under any of its prefixes, is a usage error (exit
2): "gate --n 4 --name xor" names --name twice. The report tolerance --tol
must be finite and >= 0.
Angle-valued arguments accept pi-literals such as "pi", "pi/2",
"-3pi/4" alongside plain floats, so areas stay exact; a negative angle may
follow its option as its own token ("--sigma1 -pi/4"). All JSON output goes
through `dump_json`, whose bytes are those of
`json.dumps(obj, sort_keys=True, indent=2)` plus a newline; complex values
are [re, im] pairs from `linalg.complex_pairs`. Identical inputs (including
the seed for randomized sweeps) produce byte-identical bytes.

Exit codes: 0 success, 2 usage/input error, 3 numerical failure (a matrix
failed its unitarity certification).

`main(argv)` is reentrant: it builds its parser once per process and keeps
no state between calls, so library code and tests may call it repeatedly.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import linalg
from .chart import ControlPoint
from .connection import connection_analytic
from .dynamics import _check_time_and_count, adiabatic_transport, kick_evolution, \
    propagate_frames
from .gates import GateProgram, GateStep, compile_u2_block, embed_two_level, \
    named_gate_matrix, primitive_holonomy, program_schedule, realize_step_as_loop, \
    two_qubit_gate
from .holonomy import UnitarityError, check_segment_budget, holonomies, holonomy
from .loops import FAMILIES, LoopPath, as_int, enclosed_area
from .multipartite import Register, apply_circuit, gate_count

_PI_RE = re.compile(r"^\s*([+-]?)(\d+(?:\.\d*)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$",
                    re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Float or pi-literal: 'pi', '-pi/2', '3pi/4', '0.5pi', '1.25'."""
    m = _PI_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        return sign * num * np.pi / den
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None


def parse_angle_list(text: str) -> list[float]:
    return [parse_angle(tok) for tok in text.split(",") if tok.strip()]


def dec_matrix(rows: list) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in rows])


_encode_str = json.encoder.encode_basestring_ascii


def dump_json(obj) -> str:
    """The bytes of `json.dumps(obj, sort_keys=True, indent=2) + "\n"`.

    Takes dict with str keys, list, tuple, str, int, float, bool and None as
    json does, and float64 ndarrays, written as their `tolist()` would be:
    each array goes through one cached layout with a slot per float. Any
    other type, and any non-str key, raises TypeError. (json's C encoder
    skips indented output, which made json.dumps the slow part of small
    calls.)
    """
    return _encode(obj, 0) + "\n"


def _encode(obj, level: int) -> str:
    """JSON text of obj whose first line sits at indent depth `level`."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        if not np.isfinite(obj).all():  # NaN / Infinity need json's literals
            return _encode(obj.tolist(), level)
        return _array_layout(obj.shape, level) % tuple(map(float.__repr__, obj.ravel().tolist()))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _block("[", [_encode(x, level + 1) for x in obj], level, "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        return _block("{", [_encode_str(key) + ": " + _encode(obj[key], level + 1)
                            for key in sorted(obj)], level, "}")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _block(open_: str, items: list[str], level: int, close: str) -> str:
    """Non-empty array or object: one item per line, two spaces per depth."""
    pad = "\n" + "  " * (level + 1)
    return open_ + pad + ("," + pad).join(items) + "\n" + "  " * level + close


@functools.lru_cache(maxsize=64)
def _array_layout(shape: tuple[int, ...], level: int) -> str:
    """Text of a finite float array of this shape at depth `level`, '%s' per float."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    return _block("[", [_array_layout(shape[1:], level + 1)] * shape[0], level, "]")


def _emit(args, text: str):
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json_file(path: str, decode):
    """decode(the file's JSON value); a value of the wrong shape (a list for an
    object, null for a number, a missing key) is a ValueError naming the file."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return decode(data)
    except (TypeError, KeyError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed input file {path}: {type(exc).__name__}: {exc}") from None


def _decode_point(d) -> ControlPoint:
    return ControlPoint(as_int(d["n"], "n"), np.array(d["theta"], float),
                        np.array(d["phi"], float))


def _decode_target(d) -> np.ndarray:
    return dec_matrix(d["matrix"] if isinstance(d, dict) else d)


def _decode_circuit(entries) -> list:
    circuit = []
    for entry in entries:
        gate = entry["gate"]
        if isinstance(gate, dict):
            gate = dec_matrix(gate["matrix"])
        elif not isinstance(gate, str):  # a bare nested list of numbers
            gate = np.asarray(gate, dtype=complex)
        i, j = entry["pair"]
        circuit.append(((as_int(i, "pair"), as_int(j, "pair")), gate))
    return circuit


# ---------- subcommand implementations ----------

def cmd_connection(args) -> str:
    if args.point is not None:
        if (args.n, args.theta, args.phi) != (None, None, None):
            args.error("argument --point: not allowed with --n, --theta or --phi")
        p = _load_json_file(args.point, _decode_point)
    else:
        theta = parse_angle_list(args.theta) if args.theta else []
        phi = parse_angle_list(args.phi) if args.phi else []
        # n from --n, else from the lists given (--phi alone sets it too)
        n = len(theta or phi) if args.n is None else args.n
        theta = theta or [0.0] * n
        phi = phi or [0.0] * len(theta)
        p = ControlPoint(n, np.array(theta), np.array(phi))
    return dump_json(connection_analytic(p).to_json_dict())


def cmd_holonomy(args) -> str:
    loop, segs = _load_json_file(args.loop, LoopPath.from_json_dict)
    if args.segments is not None:
        segs = args.segments
    u = holonomy(loop, segs)
    out = u.to_json_dict()
    if loop.family:
        out["enclosed_area"] = float(enclosed_area(loop, loop.family))
        out["family"] = loop.family
    return dump_json(out)


def _check_tol(tol: float):
    """The report tolerance: a distance below it is within_tol, so it is finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"--tol must be finite and >= 0, got {tol!r}")


def cmd_gate(args) -> str:
    _check_tol(args.tol)
    program = two_qubit_gate(args.name, sigma1=args.sigma1, sigma3=args.sigma3)
    target = named_gate_matrix(args.name, sigma1=args.sigma1, sigma3=args.sigma3)
    evaluated = program.evaluate()
    integrated = program.evaluate_integrated(args.segments)
    dist = integrated.distance_up_to_phase(target)
    return dump_json({
        "name": args.name.upper(),
        "program": program.to_json_dict(),
        "matrix": linalg.complex_pairs(evaluated.matrix),
        "matrix_integrated": linalg.complex_pairs(integrated.matrix),
        "target": linalg.complex_pairs(target),
        "fidelity": linalg.phase_fidelity(integrated.matrix, target),
        "distance_up_to_phase": dist,
        "within_tol": bool(dist < args.tol),
    })


def cmd_compile(args) -> str:
    _check_tol(args.tol)
    target = _load_json_file(args.target, _decode_target)
    n = max(args.beta_bar, 2) if args.n is None else args.n
    program = compile_u2_block(target, args.beta, args.beta_bar, n)
    embedded = embed_two_level(target, args.beta, args.beta_bar, n)
    evaluated = program.evaluate()
    dist = evaluated.distance_up_to_phase(embedded)
    return dump_json({
        "program": program.to_json_dict(),
        "matrix": linalg.complex_pairs(evaluated.matrix),
        "distance_up_to_phase": dist,
        "within_tol": bool(dist < args.tol),
    })


def _loop_from_args(args) -> tuple[LoopPath, int]:
    """The loop and its segments per edge; a program loop is exact at one."""
    if args.loop is not None:
        return _load_json_file(args.loop, LoopPath.from_json_dict)
    if args.program is not None:
        return program_schedule(_load_json_file(args.program, GateProgram.from_json_dict)), 1
    return program_schedule(two_qubit_gate(args.name)), 1


def cmd_verify(args) -> str:
    _check_tol(args.tol)
    loop, segs = _loop_from_args(args)
    transport, diag = adiabatic_transport(loop, args.time, args.steps)
    dist = transport.distance(holonomy(loop, segs))
    report = {"transport": linalg.complex_pairs(transport.matrix), **diag.to_json_dict(),
              "distance_to_holonomy": dist, "within_tol": bool(dist < args.tol)}
    return dump_json(report)


def _interval_count(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--n-list entries must be integers, got {text.strip()!r}") from None


def cmd_kick(args) -> str:
    loop, _ = _loop_from_args(args)
    n_list = [_interval_count(x) for x in args.n_list.split(",") if x.strip()]
    if not n_list:
        raise ValueError("--n-list must contain at least one interval count")
    # every count and the time are checked before the reference run starts
    _check_time_and_count(args.time, args.ref_steps, "--ref-steps")
    for N in n_list:
        _check_time_and_count(args.time, N, "--n-list entries")
    ref = propagate_frames(loop, args.time, args.ref_steps)
    rows = [(N, args.time / N, linalg.max_abs_diff(kick_evolution(loop, args.time, N), ref))
            for N in n_list]
    if args.format == "json":
        return dump_json({"T": args.time, "ref_steps": args.ref_steps,
                          "rows": [{"N": N, "delta_t": dt, "distance": d}
                                   for N, dt, d in rows]})
    lines = ["N,delta_t,distance"]
    lines += [f"{N},{dt!r},{d!r}" for N, dt, d in rows]
    return "\n".join(lines) + "\n"


def cmd_circuit(args) -> str:
    circuit = _load_json_file(args.circuit, _decode_circuit)
    reg = Register(args.qubits, +1 if args.ancilla != "-" else -1)
    state = apply_circuit(reg, circuit, reg.basis_state(args.state))
    cost = gate_count(circuit, args.qubits, monolithic=not args.no_monolithic)
    return dump_json({
        "state": linalg.complex_pairs(state),
        "ancilla_minus_weight": reg.ancilla_minus_weight(state),
        "cost": cost.to_json_dict(),
    })


def cmd_sweep(args) -> str:
    if args.kind == "segments" and (args.n, args.family) != (None, None):
        args.error("arguments --n and --family: not allowed with --kind segments")
    if args.kind == "segments" and args.loop is None:
        args.error("--kind segments requires --loop")
    if args.kind == "random-rects" and args.loop is not None:
        args.error("argument --loop: not allowed with --kind random-rects")
    if args.cases < 1:
        raise ValueError("--cases must be >= 1")
    rng = np.random.default_rng(args.seed)
    rows: list[dict] = []
    if args.kind == "random-rects":
        n = 4 if args.n is None else args.n
        if n < (1 if args.family == "C1" else 2):
            raise ValueError("--n must be >= 2 for random-rects (>= 1 with --family C1)")
        check_segment_budget(4 * args.cases, args.segments, n)  # four edges per rectangle
        steps = []
        for _ in range(args.cases):
            family = args.family or str(rng.choice(FAMILIES))
            if family == "C1":
                beta, beta_bar = int(rng.integers(1, n + 1)), None
            elif family == "C2":
                beta = int(rng.integers(1, n))
                beta_bar = int(rng.integers(beta + 1, n + 1))
            else:
                beta, beta_bar = rng.choice(np.arange(1, n + 1), size=2, replace=False)
                beta, beta_bar = int(beta), int(beta_bar)
            hi = 1.4 if family in ("C3", "C4") else 3.0
            steps.append(GateStep(family, beta, beta_bar, float(rng.uniform(-hi, hi))))
        integrated = holonomies([realize_step_as_loop(step, n) for step in steps], args.segments)
        for case, (step, u) in enumerate(zip(steps, integrated)):
            rows.append({"case": case, "family": step.family, "beta": step.beta,
                         "beta_bar": step.beta_bar, "area": step.area,
                         "distance": u.distance(primitive_holonomy(step, n).matrix)})
    else:
        loop, _ = _load_json_file(args.loop, LoopPath.from_json_dict)
        if not loop.family:
            raise ValueError("segments sweep needs a family-tagged loop")
        area = enclosed_area(loop, loop.family)
        tag = loop.plane.axes()
        beta = tag[0][1]
        beta_bar = tag[1][1] if tag[1][1] != beta else None
        ref = primitive_holonomy(GateStep(loop.family, beta, beta_bar, area), loop.n).matrix
        # the last case's count; past 64 doublings every count is over the budget
        check_segment_budget(loop.num_vertices - 1, args.segments << min(args.cases - 1, 64),
                             loop.n)
        segs = args.segments
        for _ in range(args.cases):
            rows.append({"segments_per_edge": segs,
                         "distance": holonomy(loop, segs).distance(ref)})
            segs *= 2
    if args.format == "csv":
        keys = list(rows[0].keys())
        lines = [",".join(keys)]
        lines += [",".join(repr(r[k]) if isinstance(r[k], float) else str(r[k]) for k in keys)
                  for r in rows]
        return "\n".join(lines) + "\n"
    return dump_json({"kind": args.kind, "seed": args.seed, "rows": rows})


# ---------- parser ----------

class _Once(argparse.Action):
    """Store an option's value; a second occurrence is a usage error.

    argparse would keep the last value. The options seen so far are kept on
    the namespace of the parse, so the cached parser keeps no state.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            parser.error(f"argument {'/'.join(self.option_strings)}: given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpn-holo",
        description="Holonomic gates on the CP^n control manifold: connection, "
                    "holonomies, gate programs and dynamical verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.register("action", None, _Once)  # the default action of every option below
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.set_defaults(func=func, error=p.error)
        return p

    def loop_sources(p: argparse.ArgumentParser):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--loop", help="loop JSON file")
        group.add_argument("--program", help="gate program JSON file")
        group.add_argument("--name", help="named two-qubit gate")

    p = subcommand("connection", cmd_connection,
                   "dump the connection components at a chart point")
    p.add_argument("--n", type=int, default=None, help="code dimension")
    p.add_argument("--point", help="JSON file {n, theta, phi}; excludes --n, --theta, --phi")
    p.add_argument("--theta", help="comma-separated angles (pi-literals ok)")
    p.add_argument("--phi", help="comma-separated angles")

    p = subcommand("holonomy", cmd_holonomy, "integrate a loop JSON file")
    p.add_argument("--loop", required=True)
    p.add_argument("--segments", type=int, default=None)

    p = subcommand("gate", cmd_gate, "emit and evaluate a named gate program")
    p.add_argument("--tol", type=float, default=1e-6, help="report tolerance")
    p.add_argument("--name", required=True, help="XOR|CROT|SWAP|PHASE1|PHASE2|UPH1")
    p.add_argument("--sigma1", type=parse_angle, default=np.pi / 4)
    p.add_argument("--sigma3", type=parse_angle, default=np.pi / 4)
    p.add_argument("--segments", type=int, default=1)

    p = subcommand("compile", cmd_compile, "compile a 2x2 target onto a block")
    p.add_argument("--n", type=int, default=None, help="code dimension")
    p.add_argument("--tol", type=float, default=1e-6, help="report tolerance")
    p.add_argument("--target", required=True, help="JSON file with 2x2 'matrix' of [re,im]")
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--beta-bar", dest="beta_bar", type=int, required=True)

    p = subcommand("verify", cmd_verify, "adiabatic-transport report for a loop or program")
    p.add_argument("--tol", type=float, default=1e-6, help="report tolerance")
    loop_sources(p)
    p.add_argument("--time", type=parse_angle, required=True, help="total time (units 1/eps0)")
    p.add_argument("--steps", type=int, default=1000)

    p = subcommand("kick", cmd_kick, "kick-scheme convergence table")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    loop_sources(p)
    p.add_argument("--n-list", dest="n_list", required=True,
                   help="comma-separated interval counts, e.g. 250,500,1000")
    p.add_argument("--time", type=parse_angle, default=40.0, help="total time (units 1/eps0)")
    p.add_argument("--ref-steps", dest="ref_steps", type=int, default=16384)

    p = subcommand("circuit", cmd_circuit, "run a local-gate circuit on a register")
    p.add_argument("--circuit", required=True, help="JSON list of {pair, gate}")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--state", required=True, help="initial bit string, e.g. 010")
    p.add_argument("--ancilla", choices=("+", "-"), default="+")
    p.add_argument("--no-monolithic", nargs=0, const=True, default=False)

    p = subcommand("sweep", cmd_sweep, "randomized/convergence sweeps")
    p.add_argument("--n", type=int, default=None, help="code dimension")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--kind", choices=("random-rects", "segments"), default="random-rects",
                   help="segments: --cases rows of a --loop file's distance to its closed "
                        "form, the segment count doubling from --segments; on oblique "
                        "loops (edges moving two or more coordinates) it falls about 16x "
                        "a row, and an edge that moves one coordinate takes one exact "
                        "factor at any count, so an axis-aligned loop prints the same "
                        "distance on every row")
    p.add_argument("--family", choices=FAMILIES, help="random-rects only")
    p.add_argument("--cases", type=int, default=8)
    p.add_argument("--segments", type=int, default=64)
    p.add_argument("--loop", help="family-tagged loop JSON file; segments only")
    return parser


_ANGLE_OPTIONS = frozenset({"--sigma1", "--sigma3", "--time", "--theta", "--phi"})
_NEGATIVE_ANGLE_RE = re.compile(r"-(?:\.?\d|\s*pi)", re.IGNORECASE)


def _is_angle_option(tok: str) -> bool:
    """An angle option's name or a prefix of one, as argparse accepts ('--tim')."""
    return len(tok) > 2 and any(opt.startswith(tok) for opt in _ANGLE_OPTIONS)


def _join_negative_angles(argv: list[str]) -> list[str]:
    """Rewrite `--opt -<angle>` as `--opt=-<angle>` for the angle-valued options.

    argparse reads a token that starts with '-' as an option unless it is a
    plain negative number, so '-pi/4', '-1e-05' and '-0.5,0.3' would not
    reach parse_angle as values. Abbreviated names are joined too; argparse
    then resolves `--ph=-0.5` as it would `--ph -0.5`, or rejects it.
    """
    out: list[str] = []
    for tok in argv:
        if out and _is_angle_option(out[-1]) and _NEGATIVE_ANGLE_RE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_angles(sys.argv[1:] if argv is None else argv))
    try:
        _emit(args, args.func(args))
    except UnitarityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
