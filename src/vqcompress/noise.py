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

One `transpile.lower_gates` call lowers every sample's encoder.  Samples
whose physical gates have the same kinds on the same qubits share one pass:
their rhos are the rows of one (S, 4^n) batch of at most `BATCH_AMPLITUDES`
amplitudes.  X, CX and SX apply one operand to every row; RZ takes one
diagonal per row, because the encoder's angles, and the layer RZs merged
into them, differ by sample.  Every step acts on each row alone, and the
readout takes one row at a time, so a batched row equals the one-row pass
of `noisy_outputs` bit for bit.
"""

import numpy as np

from .circuit import Circuit, MeasurementSpec
from .data import stack
from .errors import ConfigError
from .gates import GateKind, gate_mats_batch
from .simulator import PERMUTATIONS, apply_basis_gate, readout_weights
from .training import hits, input_states
from .transpile import PhysicalGate, TranspiledCircuit, kept_gates, lower_gates


# Amplitudes in one rho batch (1 MiB of complex128).  A 4-qubit rho has 256,
# so up to 256 samples share a pass; an 8-qubit rho fills the batch alone.
BATCH_AMPLITUDES = 1 << 16


def _operands(rows: list[list[PhysicalGate]]) -> list:
    """Each gate's `apply_basis_gate` operand for gate lists that share their
    sequence of (kind, qubits): None for X and CX, the (R, 2) stack of the
    rows' diagonals for RZ, the fixed matrix for SX (and ID).  All RZ
    diagonals come from one `gate_mats_batch` call, and each fixed kind's
    matrix from one."""
    out, members = [None] * len(rows[0]), {}
    for k, pg in enumerate(rows[0]):
        if pg.kind not in PERMUTATIONS:
            members.setdefault(pg.kind, []).append(k)
    for kind, ks in members.items():
        if kind is GateKind.RZ:
            angles = np.array([[row[k].params[0] for row in rows] for k in ks])
            mats = gate_mats_batch(kind, angles.ravel())
            operands = np.diagonal(mats, axis1=1, axis2=2).reshape(angles.shape + (2,))
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


def _density_pass(rows: list[list[PhysicalGate]], states: np.ndarray,
                  spec: MeasurementSpec, p: float) -> np.ndarray:
    """Exact outputs (R, C) of R gate lists that share their sequence of
    (kind, qubits), each run on its row of `states`, as one (R, 4^n) rho
    batch.  The readout takes one row at a time, as a one-row pass does."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"depolarizing probability {p} outside [0, 1]")
    n = states.shape[1].bit_length() - 1
    rho = (states.conj()[:, :, None] * states[:, None, :]).reshape(len(rows), -1)
    for pg, operand in zip(rows[0], _operands(rows)):
        bra = tuple(q + n for q in pg.qubits)
        rho = apply_basis_gate(rho, pg.kind, pg.qubits, operand)
        rho = apply_basis_gate(rho, pg.kind, bra, None if operand is None else operand.conj())
        if p > 0:
            for q in pg.qubits:
                _depolarize(rho, q, n, p)
    probs = np.diagonal(rho.reshape(-1, 1 << n, 1 << n), axis1=1, axis2=2).real
    weights = readout_weights(spec, n).T
    return np.stack([row @ weights for row in probs])


def noisy_outputs(tc: TranspiledCircuit, input_state: np.ndarray, spec: MeasurementSpec,
                  p: float) -> np.ndarray:
    """Exact measurement outputs of a physical circuit under depolarizing
    noise: the one-row case of `noisy_accuracy`'s rho pass."""
    return _density_pass([tc.gates], np.asarray(input_state)[None, :], spec, p)[0]


def noisy_accuracy(circuit: Circuit, params, samples, p: float, shots=None, seed=None) -> float:
    """Hit rate (`training.hits`) when every physical gate is followed by noise.

    Noise hits the encoder's physical gates too, so each sample starts from
    its `input_states` row and runs the whole lowered circuit.  One
    `lower_gates` call lowers the layers, one every sample's encoder, and
    `kept_gates` of both applies the peephole rule across their boundary, as
    `transpile_circuit` does.  Samples whose kept gates share their
    sequence of (kind, qubits) run as one rho batch of at most
    `BATCH_AMPLITUDES` amplitudes; they differ only in their RZ angles.  The
    outputs equal `noisy_outputs` of each sample bit for bit.  `shots` and
    `seed` are ignored.
    """
    feats, labels = stack(samples)
    states = input_states(circuit, feats)
    layers = lower_gates(tuple(circuit.layers), np.atleast_2d(params))[0]
    kept, groups = [], {}
    for i, encoder in enumerate(lower_gates(tuple(circuit.encoder), np.pi * feats)):
        kept.append(kept_gates(circuit.n_qubits, encoder + layers))
        groups.setdefault(tuple((g.kind, g.qubits) for g in kept[i]), []).append(i)
    step = max(1, BATCH_AMPLITUDES >> (2 * circuit.n_qubits))
    correct = 0
    for members in groups.values():
        for start in range(0, len(members), step):
            index = members[start:start + step]
            outs = _density_pass([kept[i] for i in index], states[index],
                                 circuit.measurement, p)
            correct += int(hits(outs, labels[index]).sum())
    return correct / len(labels)
