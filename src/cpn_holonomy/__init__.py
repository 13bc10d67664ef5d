"""Holonomic quantum computation on the CP^n control manifold.

Numerical engine and CLI for: the adiabatic gauge connection over the chart,
path-ordered loop holonomies, compilation of target unitaries into loop
programs (including the explicit two-qubit constructions on n = 4), and two
independent dynamical verifiers (adiabatic Schrodinger transport and the
repeated-pulse kick scheme).
"""
from .chart import ControlPoint, frame_unitary
from .connection import ConnectionValue, connection_along, connection_analytic
from .dynamics import adiabatic_transport, kick_evolution, propagate_frames, smoothstep
from .gates import (AreaRangeError, GateProgram, GateStep, compile_u2_block,
                    compile_unitary, named_gate_matrix, primitive_holonomy,
                    program_schedule, realize_step_as_loop, single_qubit_block,
                    two_qubit_gate)
from .holonomy import UnitarityError, UnitaryMatrix, holonomies, holonomy
from .loops import LoopPath, PlaneTag, enclosed_area, loop_from_plane_vertices, rectangle_loop
from .multipartite import CostReport, EmbeddedGate, Register, apply_circuit, gate_count

__all__ = [
    "ControlPoint", "frame_unitary",
    "ConnectionValue", "connection_along", "connection_analytic",
    "LoopPath", "PlaneTag", "enclosed_area", "rectangle_loop", "loop_from_plane_vertices",
    "UnitaryMatrix", "UnitarityError", "holonomy", "holonomies",
    "GateStep", "GateProgram", "AreaRangeError", "primitive_holonomy",
    "realize_step_as_loop", "compile_u2_block", "compile_unitary",
    "two_qubit_gate", "named_gate_matrix", "single_qubit_block",
    "adiabatic_transport", "kick_evolution", "propagate_frames",
    "program_schedule", "smoothstep",
    "Register", "EmbeddedGate", "apply_circuit", "gate_count",
    "CostReport",
]

__version__ = "0.1.0"
