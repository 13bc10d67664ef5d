"""Local embedded gates on a register, Kronecker oracles, cost scaling."""
import numpy as np
import pytest

from cpn_holonomy import EmbeddedGate, Register, apply_circuit, gate_count, named_gate_matrix
from helpers import dense


def kron_embed(g4, i, j, n_qubits):
    """Brute-force register matrix via basis-state Kronecker products (oracle).

    Built independently of EmbeddedGate: expand each basis ket as a tensor of
    one-qubit kets, act with g4 on slots (i, j) by explicit index arithmetic.
    """
    dim = 2 ** n_qubits * 2
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        # qubit 1 is the most significant bit, the ancilla the least
        bits = [(col >> (n_qubits + 1 - k)) & 1 for k in range(1, n_qubits + 1)]
        anc = col & 1
        sub_in = 2 * bits[i - 1] + bits[j - 1]
        for sub_out in range(4):
            amp = g4[sub_out, sub_in]
            if amp == 0:
                continue
            new_bits = bits.copy()
            new_bits[i - 1] = sub_out >> 1
            new_bits[j - 1] = sub_out & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            row = (row << 1) | anc
            out[row, col] += amp
    return out


def test_identity_embeds_to_identity():
    reg = Register(3)
    g = EmbeddedGate(reg, 1, 2, np.eye(4))
    assert np.max(np.abs(dense(g) - np.eye(reg.dim))) == 0.0


def test_xor_on_pair_flips_target():
    reg = Register(2)
    g = EmbeddedGate(reg, 1, 2, named_gate_matrix("XOR"))
    out = g.apply(reg.basis_state("10"))
    assert np.max(np.abs(out - reg.basis_state("11"))) == 0.0


def test_embedding_matches_kronecker_oracle_n3():
    reg = Register(3)
    rng = np.random.default_rng(211)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(z)
    for (i, j) in ((1, 3), (2, 3), (1, 2)):
        g = EmbeddedGate(reg, i, j, q)
        oracle = kron_embed(q, i, j, 3)
        dim = reg.dim
        for col in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[col] = 1.0
            assert np.max(np.abs(g.apply(e) - oracle[:, col])) == 0.0


def test_disjoint_pairs_commute_exactly():
    reg = Register(4)
    rng = np.random.default_rng(223)
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    a = EmbeddedGate(reg, 1, 2, q1)
    b = EmbeddedGate(reg, 3, 4, q2)
    state = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    state /= np.linalg.norm(state)
    assert np.max(np.abs(a.apply(b.apply(state)) - b.apply(a.apply(state)))) < 1e-12


def test_ancilla_never_touched():
    reg = Register(3, ancilla_sign=+1)
    circuit = [((1, 2), "XOR"), ((2, 3), "SWAP"), ((1, 3), "CROT")]
    state = apply_circuit(reg, circuit, reg.basis_state("101"))
    assert reg.ancilla_minus_weight(state) == 0.0


def test_universality_smoke_circuit():
    # five-gate circuit on 3 qubits vs an independent dense-matrix computation
    reg = Register(3)
    rng = np.random.default_rng(227)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    circuit = [((1, 2), "XOR"), ((2, 3), q), ((1, 3), "CROT"),
               ((1, 2), "SWAP"), ((2, 3), "XOR")]
    state = reg.basis_state("010")
    got = apply_circuit(reg, circuit, state)
    ref = state.copy()
    for (i, j), gate in circuit:
        g4 = named_gate_matrix(gate) if isinstance(gate, str) else gate
        ref = kron_embed(g4, i, j, 3) @ ref
    assert np.max(np.abs(got - ref)) < 1e-10


def test_gate_count_empty_circuit():
    rep = gate_count([], 3)
    assert rep.total_local == 0
    assert rep.total_monolithic == 0


def test_gate_count_local_xor_constant():
    rep = gate_count([((1, 2), "XOR")], 4, monolithic=False)
    assert rep.per_gate_local == [3]  # the XOR program's own step count


def test_monolithic_count_grows_exponentially():
    # a dense two-qubit target compiled into one 2^k-level code: the measured
    # primitive count keeps multiplying as qubits are added (the embedded
    # gate retains tensor structure, so the per-qubit factor sits between 2
    # and the fully generic 4; it stays exponential in k either way)
    rng = np.random.default_rng(229)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    counts = {k: gate_count([((1, 2), q)], k).per_gate_monolithic[0] for k in (2, 3, 4)}
    assert counts[3] >= 2.5 * counts[2]
    assert counts[4] >= 2.5 * counts[3]
    assert counts[4] >= 6 * counts[2]
    assert gate_count([((1, 2), q)], 5).per_gate_monolithic == [-1]  # beyond desk scale


def test_register_validation():
    with pytest.raises(ValueError):
        Register(1)
    with pytest.raises(ValueError):
        Register(3, ancilla_sign=0)
    reg = Register(2)
    with pytest.raises(ValueError):
        reg.basis_state("0")
    with pytest.raises(ValueError):
        EmbeddedGate(reg, 1, 1, np.eye(4))
    with pytest.raises(ValueError):
        EmbeddedGate(reg, 1, 2, np.eye(4) * 2)


def test_minus_sector_register():
    reg = Register(2, ancilla_sign=-1)
    s = reg.basis_state("01")
    assert reg.ancilla_minus_weight(s) == 1.0
    out = EmbeddedGate(reg, 1, 2, named_gate_matrix("XOR")).apply(s)
    assert reg.ancilla_minus_weight(out) == 1.0  # stays in its sector
