"""Shot-based depolarizing-noise evaluation of transpiled circuits.

After every physical gate, each qubit the gate touched suffers, with
probability p, a Pauli drawn uniformly from {I, X, Y, Z}; at p = 1 this fully
depolarizes the qubit.  Expectations are the average of exact per-trajectory
readouts over a fixed shot count, so results are deterministic given the seed.

A sample's trajectories are one amplitude-major (2^n, shots) batch, handed to
`simulator.apply_basis_gate` as a single row whose trailing axis holds the
shots, so the shot axis is the contiguous inner loop.  Each physical gate is
applied by its structure: X and CX are permutations that swap amplitude
blocks in place, RZ is diagonal and scales them, and only SX runs the dense
kernel.  A sample builds its RZ diagonals with one `gate_mats_batch` call and
its SX matrix with one more.  The values equal the dense kernel's bit for bit.
Per touched qubit the sampler draws `shots` uniforms, then `shots` Pauli
indices, and the readout averages (shots, C) outputs in shot order, so a seed
gives the same bits as a (shots, 2^n) batch would.
"""

import numpy as np

from .circuit import Circuit, MeasurementSpec
from .data import stack
from .errors import ConfigError
from .gates import GateKind, gate_mats_batch
from .simulator import PERMUTATIONS, apply_basis_gate, measure_outputs_batch
from .training import input_states, softmax
from .transpile import PhysicalGate, TranspiledCircuit, transpile_circuit


def _apply_pauli(states: np.ndarray, cols: np.ndarray, q: int, which: int):
    """In-place X/Y/Z on one qubit for a subset of trajectory columns."""
    low = 1 << q
    view = states.reshape(states.shape[0] // (2 * low), 2, low, -1)
    sub = view[..., cols]
    if which == 1:    # X
        sub = sub[:, ::-1]
    elif which == 2:  # Y
        sub = sub[:, ::-1].copy()
        sub[:, 0] *= -1j
        sub[:, 1] *= 1j
    else:             # Z
        sub[:, 1] *= -1
    view[..., cols] = sub


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


def noisy_outputs(tc: TranspiledCircuit, input_state: np.ndarray, spec: MeasurementSpec,
                  p: float, shots: int, seed: int) -> np.ndarray:
    """Shot-averaged measurement outputs of a physical circuit under noise."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"depolarizing probability {p} outside [0, 1]")
    if shots < 1:
        raise ConfigError(f"shots must be at least 1, got {shots}")
    rng = np.random.default_rng(seed)
    states = np.empty((1, input_state.shape[0], shots), dtype=complex)
    states[0] = input_state[:, None]
    for pg, operand in zip(tc.gates, _operands(tc.gates)):
        states = apply_basis_gate(states, pg.kind, pg.qubits, operand)
        for q in pg.qubits:
            hit = np.flatnonzero(rng.random(shots) < p)
            paulis = rng.integers(0, 4, size=shots)[hit]
            for which in (1, 2, 3):
                cols = hit[paulis == which]
                if cols.size:
                    _apply_pauli(states[0], cols, q, which)
    states = np.ascontiguousarray(states[0].T)    # (shots, 2^n); frees the batch
    return measure_outputs_batch(states, spec).mean(axis=0)


def noisy_accuracy(circuit: Circuit, params, samples, p: float, shots: int, seed: int) -> float:
    """Classification accuracy when every physical gate is followed by noise.

    Noise hits the encoder's physical gates too, so each sample starts from
    its `input_states` row and runs the whole transpiled circuit.  Features
    bound to encoder gates change that circuit, so each sample then gets its
    own transpilation; a circuit that binds no feature shares one.  Each
    sample gets its own derived noise seed.
    """
    feats, labels = stack(samples)
    states = input_states(circuit, feats)
    thetas = np.atleast_2d(params)
    shared = None if circuit.n_data else transpile_circuit(circuit, thetas)
    correct = 0
    for i, label in enumerate(labels):
        tc = (transpile_circuit(circuit, thetas, feats=feats[i:i + 1])
              if shared is None else shared)
        outs = noisy_outputs(tc, states[i], circuit.measurement, p, shots, seed + i)
        if int(np.argmax(softmax(outs[None, :])[0])) == label:
            correct += 1
    return correct / len(labels)
