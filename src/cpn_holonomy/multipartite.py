"""Local two-qubit holonomic gates on a multi-qubit register with an ancilla.

The register state space is (C^2)^{tensor n_qubits} tensor C^2, the last
factor being an ancilla that selects the code sector and is never touched by
embedded gates. A 4x4 gate acting on qubit pair (i, j) is applied factor-wise
on the state tensor (no 4^(n+1)-sized matrices are materialized).

Cost reports compare the two encodings of a k-qubit algorithm:
- local: each two-qubit gate costs a fixed number of primitive loops
  (its program length, independent of k);
- monolithic: the same gate embedded in one 2^k-level code and compiled
  into two-level primitives, whose measured count grows ~4^k for dense
  targets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gates import GateProgram, compile_unitary, named_gate_matrix, two_qubit_gate
from .linalg import unitarity_defect

ANCILLA_PLUS, ANCILLA_MINUS = 0, 1  # ancilla axis basis order: |+>, |->


@dataclass(frozen=True)
class Register:
    """n_qubits data qubits plus one ancilla qubit selecting the code sector."""

    n_qubits: int
    ancilla_sign: int = +1  # +1 -> code C^+, -1 -> code C^-

    def __post_init__(self):
        if not 2 <= self.n_qubits <= 6:
            raise ValueError("n_qubits must be between 2 and 6 at desk scale")
        if self.ancilla_sign not in (+1, -1):
            raise ValueError("ancilla_sign must be +1 or -1")

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits * 2

    def basis_state(self, bits: str) -> np.ndarray:
        """Product state |bits> tensor |+/-> as a flat state vector."""
        if len(bits) != self.n_qubits or any(b not in "01" for b in bits):
            raise ValueError(f"bits must be {self.n_qubits} characters of 0/1")
        state = np.zeros((2,) * (self.n_qubits + 1), dtype=complex)
        anc = ANCILLA_PLUS if self.ancilla_sign > 0 else ANCILLA_MINUS
        state[tuple(int(b) for b in bits) + (anc,)] = 1.0
        return state.reshape(-1)

    def ancilla_minus_weight(self, state: np.ndarray) -> float:
        t = state.reshape((2,) * (self.n_qubits + 1))
        return float(np.sum(np.abs(np.take(t, ANCILLA_MINUS, axis=self.n_qubits)) ** 2))


def _apply_on_pair(g4: np.ndarray, t: np.ndarray, i: int, j: int) -> np.ndarray:
    """g4 applied to axes (i-1, j-1) of the qubit tensor t; other axes ride along."""
    t = np.moveaxis(t, (i - 1, j - 1), (0, 1))
    shape = t.shape
    t = (g4 @ t.reshape(4, -1)).reshape(shape)
    return np.moveaxis(t, (0, 1), (i - 1, j - 1))


@dataclass(frozen=True)
class EmbeddedGate:
    """A 4x4 unitary acting on qubits (i, j) of a register, identity elsewhere."""

    reg: Register
    i: int  # 1-based qubit indices
    j: int
    matrix4: np.ndarray

    def __post_init__(self):
        nq = self.reg.n_qubits
        if not (1 <= self.i <= nq and 1 <= self.j <= nq) or self.i == self.j:
            raise ValueError(f"need distinct qubit indices in 1..{nq}")
        m = np.asarray(self.matrix4, dtype=complex)
        if m.shape != (4, 4) or unitarity_defect(m) > 1e-9:
            raise ValueError("gate must be a 4x4 unitary")
        object.__setattr__(self, "matrix4", m)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Factor-wise application to a flat state vector of the register."""
        t = np.asarray(state, dtype=complex).reshape((2,) * (self.reg.n_qubits + 1))
        return _apply_on_pair(self.matrix4, t, self.i, self.j).reshape(-1)


def _gate_matrix(gate) -> np.ndarray:
    if isinstance(gate, str):
        return named_gate_matrix(gate)
    return np.asarray(gate, dtype=complex)


def apply_circuit(reg: Register, circuit: list[tuple[tuple[int, int], object]],
                  state: np.ndarray) -> np.ndarray:
    """Run [( (i, j), gate ), ...] on a state; gate is a name or a 4x4 matrix."""
    for (i, j), gate in circuit:
        state = EmbeddedGate(reg, i, j, _gate_matrix(gate)).apply(state)
    return state


def _local_program(gate) -> GateProgram:
    if isinstance(gate, str):
        return two_qubit_gate(gate)
    return compile_unitary(np.asarray(gate, dtype=complex), 4)


def _embed_in_monolithic(g4: np.ndarray, i: int, j: int, k: int) -> np.ndarray:
    """The 4x4 gate on qubits (i, j) as a dense 2^k unitary (monolithic code).

    All 2^k basis columns go through one matmul, as a trailing batch axis.
    """
    dim = 2 ** k
    basis = np.eye(dim, dtype=complex).reshape((2,) * k + (dim,))
    return _apply_on_pair(g4, basis, i, j).reshape(dim, dim)


@dataclass
class CostReport:
    """Measured primitive-loop counts for a circuit under the two encodings."""

    n_qubits: int
    per_gate_local: list[int] = field(default_factory=list)
    per_gate_monolithic: list[int] = field(default_factory=list)

    @property
    def total_local(self) -> int:
        return sum(self.per_gate_local)

    @property
    def total_monolithic(self) -> int:
        return sum(self.per_gate_monolithic)

    def to_json_dict(self) -> dict:
        return {"n_qubits": self.n_qubits,
                "per_gate_local": self.per_gate_local,
                "per_gate_monolithic": self.per_gate_monolithic,
                "total_local": self.total_local,
                "total_monolithic": self.total_monolithic}


def gate_count(circuit: list[tuple[tuple[int, int], object]], n_qubits: int,
               monolithic: bool = True) -> CostReport:
    """Primitive-loop counts per gate: local embedding vs one monolithic code.

    The local count is the length of the gate's own loop program. The
    monolithic count compiles the gate embedded into the full 2^k-level code
    through two-level factorization; counts are measured, not estimated.
    Monolithic compilation is skipped (reported as -1) for k > 4, where the
    dense embedding is no longer desk-scale.
    """
    rep = CostReport(n_qubits)
    for (i, j), gate in circuit:
        g4 = _gate_matrix(gate)
        rep.per_gate_local.append(len(_local_program(gate).steps))
        if monolithic and n_qubits <= 4:
            embedded = _embed_in_monolithic(g4, i, j, n_qubits)
            rep.per_gate_monolithic.append(len(compile_unitary(embedded, 2 ** n_qubits).steps))
        else:
            rep.per_gate_monolithic.append(-1)
    return rep
