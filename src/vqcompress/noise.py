"""Exact depolarizing-noise evaluation of lowered circuits.

After every physical gate, each qubit the gate touched is depolarized with
probability p: rho -> (1 - p) rho + p I/2 (x) Tr_q rho (Nielsen & Chuang
section 8.3).  That is the expectation of applying, with probability p, a
Pauli drawn uniformly from {I, X, Y, Z}; at p = 1 the qubit is fully
depolarized.  The outputs are exact expectations, so they depend on nothing
but the circuit, the input state and p.

rho is held as a state of 2n qubits, kron(conj(psi), psi): qubits 0..n-1
index its ket and qubits n..2n-1 its bra.  A physical gate U acts as
rho -> U rho U^dagger, which is U on the ket qubits and conj(U) on the bra
qubits, each through `simulator.apply_basis_gate`: X and CX are real
permutations and take no operand, RZ takes its (conjugated) diagonal, and SX
its (conjugated) matrix.  The channel on qubit q acts on the pair of its
bra and ket bits (q + n, q) as the fixed 4x4 matrix (1 - p) I + (p/2) |v><v|
with v = |00> + |11>; `_depolarize` applies it in place, so a pass holds
rho and a temporary of at most its size.  The outputs are diag(rho) @ W.T.
"""

import numpy as np

from .circuit import Circuit, MeasurementSpec
from .data import stack
from .errors import ConfigError
from .gates import GateKind, gate_mats_batch
from .simulator import PERMUTATIONS, apply_basis_gate, readout_weights
from .training import input_states, softmax
from .transpile import DepthScan, PhysicalGate, TranspiledCircuit, lower_gate


def _operands(gates: list[PhysicalGate]) -> list:
    """Each basis gate's `apply_basis_gate` operand: None for X and CX, the
    diagonal for RZ, the fixed matrix for SX (and ID).  All RZ diagonals come
    from one `gate_mats_batch` call, and each fixed kind's matrix from one."""
    out, members = [None] * len(gates), {}
    for k, pg in enumerate(gates):
        if pg.kind not in PERMUTATIONS:
            members.setdefault(pg.kind, []).append(k)
    for kind, ks in members.items():
        if kind is GateKind.RZ:
            mats = gate_mats_batch(kind, np.array([gates[k].params[0] for k in ks]))
            operands = np.diagonal(mats, axis1=1, axis2=2)
        else:
            operands = [gate_mats_batch(kind, None)] * len(ks)
        for k, operand in zip(ks, operands):
            out[k] = operand
    return out


def _depolarize(rho: np.ndarray, q: int, n: int, p: float) -> None:
    """The channel on qubit q, in place on a contiguous rho.  The view's axes
    1 and 3 are its bra bit (q + n) and ket bit (q).  Every block scales by
    1 - p, and each of the two diagonal blocks gains p/2 times their sum."""
    view = rho.reshape(-1, 2, 1 << (n - 1), 2, 1 << q)
    mixed = (view[:, 0, :, 0] + view[:, 1, :, 1]) * (p / 2)
    view *= 1.0 - p
    view[:, 0, :, 0] += mixed
    view[:, 1, :, 1] += mixed


def noisy_outputs(tc: TranspiledCircuit, input_state: np.ndarray, spec: MeasurementSpec,
                  p: float, shots=None, seed=None) -> np.ndarray:
    """Exact measurement outputs of a physical circuit under depolarizing
    noise, from one pass of its density matrix.

    `shots` and `seed` are ignored; they stay in the signature only until
    the benchmark stops passing them.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"depolarizing probability {p} outside [0, 1]")
    n = tc.n_qubits
    rho = np.kron(input_state.conj(), input_state)[None, :]
    for pg, operand in zip(tc.gates, _operands(tc.gates)):
        bra = tuple(q + n for q in pg.qubits)
        rho = apply_basis_gate(rho, pg.kind, pg.qubits, operand)
        rho = apply_basis_gate(rho, pg.kind, bra, None if operand is None else operand.conj())
        if p > 0:
            for q in pg.qubits:
                _depolarize(rho, q, n, p)
    probs = np.diagonal(rho.reshape(1 << n, 1 << n)).real
    return probs @ readout_weights(spec, n).T


def noisy_accuracy(circuit: Circuit, params, samples, p: float, shots=None, seed=None) -> float:
    """Classification accuracy when every physical gate is followed by noise.

    Noise hits the encoder's physical gates too, so each sample starts from
    its `input_states` row and runs the whole lowered circuit.  The layers
    are lowered once per call and only the encoder per sample; one keep-mode
    `DepthScan` over both applies the peephole rule across their boundary,
    as `transpile_circuit` does.  `shots` and `seed` go to `noisy_outputs`
    unchanged, which ignores them.
    """
    feats, labels = stack(samples)
    states = input_states(circuit, feats)
    thetas = np.atleast_2d(params)
    layers = [lower_gate(gate, thetas, None)[1] for gate in circuit.layers]
    correct = 0
    for i, label in enumerate(labels):
        scan = DepthScan(circuit.n_qubits, keep=True)
        for gate in circuit.encoder:
            scan.feed(lower_gate(gate, thetas, feats[i:i + 1])[1])
        for physical in layers:
            scan.feed(physical)
        scan.close()
        tc = TranspiledCircuit(circuit.n_qubits, [g for g in scan.gates if g is not None])
        outs = noisy_outputs(tc, states[i], circuit.measurement, p, shots, seed)
        if int(np.argmax(softmax(outs[None, :])[0])) == label:
            correct += 1
    return correct / len(labels)
