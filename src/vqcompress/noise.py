"""Exact depolarizing-noise evaluation of lowered circuits.

After every physical gate, each qubit the gate touched is depolarized with
probability p: rho -> (1 - p) rho + p I/2 (x) Tr_q rho (Nielsen & Chuang
section 8.3).  That is the expectation of applying, with probability p, a
Pauli drawn uniformly from {I, X, Y, Z}; at p = 1 the qubit is fully
depolarized.  The outputs are exact expectations, so they depend on nothing
but the circuit, the input state and p.

rho is held as a register of n base-4 digits: digit q = 2 bra_q + ket_q,
at bits (2q + 1, 2q), so each qubit's ket and bra bit sit side by side.  A
pass builds it from kron(conj(psi), psi) with one transpose, and the outputs
are diag(rho) @ W.T, diag(rho) being the amplitudes whose every digit is 0
or 3.  A one-qubit gate U with its channel acts on its digit as the 4x4
superoperator S = D_p (conj(U) (x) U), with D_p = (1 - p) I + (p/2) |v><v|
and v = |00> + |11>.  Gates on one qubit commute with the others', so each
qubit's run of one-qubit gates multiplies into one pending 4x4 product,
which reaches rho in one digit apply (`simulator.apply_matrix`) when a CX
touches the qubit or the pass ends.  A CX is real and permutes: it swaps
rho's blocks in place (`simulator._swap_blocks`) on its ket bits (2c, 2t)
and its bra bits (2c + 1, 2t + 1), and leaves D_p pending on both qubits.
A pass makes at most two applies per CX and one per qubit, and holds rho,
one apply's output and the channel stacks (16 amplitudes per gate and row).

One `transpile.lower_gates` call lowers every sample's encoder.  Samples
whose physical gates have the same kinds on the same qubits share one pass:
their rhos are the rows of one (S, 4^n) batch of at most `BATCH_AMPLITUDES`
amplitudes.  SX and X take one superoperator for every row; RZ takes one
per row, because the encoder's angles, and the layer RZs merged into them,
differ by sample.  Every step acts on each row alone, and the readout takes
one row at a time, so a batched row equals the one-row pass of
`noisy_outputs` bit for bit.
"""

from functools import lru_cache

import numpy as np

from .circuit import Circuit, MeasurementSpec
from .data import stack
from .errors import ConfigError
from .gates import GateKind, gate_mats_batch
from .simulator import _swap_blocks, apply_matrix, readout_weights
from .training import hits, input_states
from .transpile import PhysicalGate, TranspiledCircuit, kept_gates, lower_gates


# Amplitudes in one rho batch (1 MiB of complex128).  A 4-qubit rho has 256,
# so up to 256 samples share a pass; an 8-qubit rho fills the batch alone.
BATCH_AMPLITUDES = 1 << 16


def _channels(rows: list[list[PhysicalGate]], depolarizing: np.ndarray) -> list:
    """Each gate's superoperator S = D_p (conj U (x) U) on its qubit's digit,
    for gate lists that share their sequence of (kind, qubits): the (R, 4, 4)
    stack of the rows' for RZ, one (4, 4) for a fixed kind, None for CX.
    Every RZ comes from one `gate_mats_batch` call and each fixed kind from
    one; one product makes every kron and one matmul applies D_p to them."""
    first = rows[0]
    rz = [k for k, pg in enumerate(first) if pg.kind is GateKind.RZ]
    fixed = list(dict.fromkeys(pg.kind for pg in first
                               if len(pg.qubits) == 1 and pg.kind is not GateKind.RZ))
    angles = np.array([[row[k].params[0] for row in rows] for k in rz], dtype=float)
    u = np.concatenate([gate_mats_batch(GateKind.RZ, angles.ravel())]
                       + [gate_mats_batch(kind, None)[None] for kind in fixed])
    krons = (u.conj()[:, :, None, :, None] * u[:, None, :, None, :]).reshape(-1, 4, 4)
    channels = depolarizing @ krons
    shared = dict(zip(fixed, channels[angles.size:]))
    out = [shared.get(pg.kind) if len(pg.qubits) == 1 else None for pg in first]
    for k, stack in zip(rz, channels[:angles.size].reshape(len(rz), len(rows), 4, 4)):
        out[k] = stack
    return out


@lru_cache(maxsize=None)
def _diagonal(n: int) -> np.ndarray:
    """The interleaved indices of diag(rho): digit 0 or 3 on every qubit."""
    i = np.arange(1 << n)
    index = sum(((i >> q) & 1) * (3 << (2 * q)) for q in range(n))
    index.setflags(write=False)
    return index


def _density_pass(rows: list[list[PhysicalGate]], states: np.ndarray,
                  spec: MeasurementSpec, p: float) -> np.ndarray:
    """Exact outputs (R, C) of R gate lists that share their sequence of
    (kind, qubits), each run on its row of `states`, as one (R, 4^n) rho
    batch in the interleaved layout.  Each qubit's pending channel product,
    (R, 4, 4) or (4, 4), reaches rho when a CX touches the qubit or at the
    end.  The readout takes one row at a time, as a one-row pass does."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"depolarizing probability {p} outside [0, 1]")
    n = states.shape[1].bit_length() - 1
    rho = (states.conj()[:, :, None] * states[:, None, :]).reshape((len(rows),) + (2,) * (2 * n))
    # axes 1..n are the bra bits n-1..0 and axes n+1..2n the ket bits
    rho = rho.transpose([0] + [a for j in range(n) for a in (1 + j, 1 + n + j)])
    rho = rho.reshape(len(rows), -1)
    depolarizing = (1.0 - p) * np.eye(4, dtype=complex)
    depolarizing[::3, ::3] += p / 2
    pending = [None] * n
    for pg, channel in zip(rows[0], _channels(rows, depolarizing)):
        if channel is not None:
            q = pg.qubits[0]
            pending[q] = channel if pending[q] is None else channel @ pending[q]
            continue
        for q in pg.qubits:
            if pending[q] is not None:
                rho = apply_matrix(rho, pending[q], (q,))
            pending[q] = depolarizing
        c, t = pg.qubits
        _swap_blocks(rho, (2 * c, 2 * t))
        _swap_blocks(rho, (2 * c + 1, 2 * t + 1))
    for q, channel in enumerate(pending):
        if channel is not None:
            rho = apply_matrix(rho, channel, (q,))
    probs = rho[:, _diagonal(n)].real
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
