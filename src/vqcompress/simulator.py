"""Exact dense state-vector simulation.

States are complex128 arrays of 2^n amplitudes; qubit 0 is the least
significant bit of the basis-state index.  Everything is batched: a state
batch has shape (rows, 2^n).  A gate acts on every row either through one
shared matrix or through one matrix per row, so a batch can mix samples
(per-row data angles).  A batch may also carry a trailing axis,
(rows, 2^n, cols), of columns that share their row's matrix; ReCL runs its
samples that way, along the contiguous axis.

`apply_matrix` is the dense kernel, one einsum per gate.  The noise
evaluator holds a density matrix as a state of 2n qubits, one sample's per
row, and its physical gates go through `apply_basis_gate`, which applies
each basis kind by its structure: X and CX permute amplitude blocks in
place, RZ multiplies by its diagonal (one shared, or one per row), and SX
(dense) falls through to `apply_matrix`.  Both give the same values bit for
bit.

The matrices come from `gates.gate_mats_batch`, through a cached `GatePlan`
per gate sequence: gates of one kind are one group, and each group's
matrices come from one stacked call.  The encoder's plan reads pi * features
(`training.initial_states`), the layers' plan reads theta: `run_batch`
applies the layers to the states it is given.  `training.loss_and_gradient`
takes its forward matrices, their adjoints and its angle derivatives from
the layers' plan, on states `sgd_train` encoded once, and ReCL takes its
matrices from the same plans.
"""

from functools import lru_cache

import numpy as np

from .circuit import BindKind, Circuit, Gate, MeasureScheme, MeasurementSpec
from .errors import SpecError
from .gates import ARITY, GateKind, gate_mats_batch


def zero_state(n_qubits: int, rows: int | None = None) -> np.ndarray:
    """|0...0> as a single state or a batch of identical rows."""
    dim = 2 ** n_qubits
    if rows is None:
        s = np.zeros(dim, dtype=complex)
        s[0] = 1.0
        return s
    s = np.zeros((rows, dim), dtype=complex)
    s[:, 0] = 1.0
    return s


@lru_cache(maxsize=None)
def _pair_indices(n_qubits: int, qa: int, qb: int):
    """Index groups for a two-qubit gate; qa is the high bit of the 4-dim block."""
    i = np.arange(2 ** n_qubits)
    ma, mb = 1 << qa, 1 << qb
    base = i[(i & (ma | mb)) == 0]
    idx = np.stack([base, base | mb, base | ma, base | ma | mb])
    idx.setflags(write=False)
    return idx


def _batched_1q(states: np.ndarray, mats: np.ndarray, q: int) -> np.ndarray:
    rows, dim = states.shape[:2]
    low = 1 << q
    high = dim // (2 * low)
    t = states.reshape(rows, high, 2, -1)      # trailing columns join the low bits
    if mats.ndim == 2:
        out = np.einsum("ab,rhbl->rhal", mats, t)
    else:
        out = np.einsum("rab,rhbl->rhal", mats, t)
    return np.ascontiguousarray(out.reshape(states.shape))


def _batched_2q(states: np.ndarray, mats: np.ndarray, qa: int, qb: int) -> np.ndarray:
    n = states.shape[1].bit_length() - 1
    idx = _pair_indices(n, qa, qb)
    cols = states[:, idx]                      # (rows, 4, dim/4[, cols])
    if mats.ndim == 2:
        new = np.einsum("jk,rk...->rj...", mats, cols)
    else:
        new = np.einsum("rjk,rk...->rj...", mats, cols)
    out = states.copy()
    out[:, idx] = new
    return out


def resolve_angles(gate: Gate, thetas: np.ndarray, feats: np.ndarray | None) -> np.ndarray | None:
    """Per-row angle array for a gate: (R,) or (R, 3), or None for fixed kinds.

    Trainable slots read from `thetas` (R, P); data slots read pi * feature
    from `feats` (R, F); constants broadcast, and so does a one-row `thetas`
    against per-row data angles.
    """
    if ARITY[gate.kind] == 0:
        return None
    rows = thetas.shape[0]
    cols = []
    for b in gate.bindings:
        if b.kind is BindKind.CONST:
            cols.append(np.full(rows, b.value))
        elif b.kind is BindKind.THETA:
            cols.append(thetas[:, b.slot])
        else:
            if feats is None:
                raise SpecError("circuit has data-bound gates but no features were given")
            cols.append(np.pi * feats[:, b.slot])
    if len(cols) == 1:
        return cols[0]
    return np.stack(np.broadcast_arrays(*cols), axis=1)


class GateGroup:
    """The gates of a `GatePlan` that share a kind.

    `positions` index the plan's gates.  Angle j of the group's g-th gate is
    column `cols[g, j]` of [constants | values]; one-angle kinds drop the j
    axis.
    """

    def __init__(self, kind: GateKind, members: list, trainable: bool):
        positions, cols = zip(*members)
        self.kind, self.positions, self.trainable = kind, positions, trainable
        self.cols = np.array(cols, dtype=int)
        if ARITY[kind] == 1:
            self.cols = self.cols[:, 0]


class GatePlan:
    """Stacked gate-matrix building for one gate sequence.

    Each angle reads a constant or a column of one value source: theta for
    the layers, pi * features for the encoder (`Circuit` keeps the two
    apart).  Gates are grouped by kind.  Per call, a group gathers all of
    its angles at once and makes one `gate_mats_batch` call, and each gate's
    matrices are its slice of the stacked result.  They equal the per-gate
    `gate_mats_batch(kind, resolve_angles(...))` matrices bit for bit, with
    one row per value row.
    """

    def __init__(self, gates: tuple[Gate, ...]):
        self.gates = gates
        consts = [b.value for g in gates for b in g.bindings if b.kind is BindKind.CONST]
        self.consts = np.array(consts, dtype=float)[None, :]
        members, next_const = {}, 0
        for k, gate in enumerate(gates):
            cols = []
            for b in gate.bindings:
                if b.kind is BindKind.CONST:
                    cols.append(next_const)
                    next_const += 1
                else:
                    cols.append(len(consts) + b.slot)
            members.setdefault(gate.kind, []).append((k, cols))
        self.groups = tuple(GateGroup(kind, m, any(gates[k].trainable for k, _ in m))
                            for kind, m in members.items())

    def stacked(self, values: np.ndarray):
        """Yield (group, angles, mats) for every group.

        `values` is (rows, V).  `angles` is the group's (G * rows,) or
        (G * rows, 3) angle array, None for fixed kinds.  `mats` is
        (G, rows, d, d), or (G, d, d) for fixed kinds, so `mats[g]` is gate
        g's matrix argument to `apply_matrix`.
        """
        src, rows = values, values.shape[0]
        if self.consts.size:
            consts = np.broadcast_to(self.consts, (rows, self.consts.shape[1]))
            src = np.concatenate([consts, values], axis=1)
        for group in self.groups:
            n = len(group.positions)
            if ARITY[group.kind] == 0:
                m = gate_mats_batch(group.kind, None)
                yield group, None, np.broadcast_to(m, (n,) + m.shape)
                continue
            angles = src[:, group.cols].swapaxes(0, 1).reshape((n * rows,) + group.cols.shape[1:])
            mats = gate_mats_batch(group.kind, angles)
            yield group, angles, mats.reshape((n, rows) + mats.shape[1:])

    def matrices(self, values: np.ndarray) -> list[np.ndarray]:
        """Each gate's matrix argument to `apply_matrix`, in gate order."""
        out = [None] * len(self.gates)
        for group, _, mats in self.stacked(values):
            for g, k in enumerate(group.positions):
                out[k] = mats[g]
        return out

    def apply(self, states: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The plan's gates, in order, on a (rows, 2^n) state batch."""
        for gate, mats in zip(self.gates, self.matrices(values)):
            states = apply_matrix(states, mats, gate.qubits)
        return states


@lru_cache(maxsize=1024)
def gate_plan(gates: tuple[Gate, ...]) -> GatePlan:
    """The cached plan of a gate sequence, such as tuple(circuit.layers).

    Gates are frozen and hashable, so the tuple is a safe cache key; a
    `Circuit` is mutable and is never one.
    """
    return GatePlan(gates)


def apply_matrix(states: np.ndarray, mats: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply 2x2/4x4 matrices to `qubits`: shared (d, d) or (1, d, d), or one
    per row (R, d, d).  `states` is (R, 2^n) or (R, 2^n, cols)."""
    if len(qubits) == 1:
        return _batched_1q(states, mats, qubits[0])
    return _batched_2q(states, mats, qubits[0], qubits[1])


# Basis kinds that only permute amplitudes: `apply_basis_gate` takes no operand.
PERMUTATIONS = (GateKind.X, GateKind.CX)


def _swap_blocks(states: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """X or CX in place on a contiguous batch: swap the amplitude blocks where
    the target (the last qubit) is 0 and 1, within control = 1 for CX."""
    rows, dim = states.shape[:2]                # trailing columns join the low bits
    if len(qubits) == 1:
        view = states.reshape(rows, dim >> (qubits[0] + 1), 2, -1)
        low, high = view[:, :, 0], view[:, :, 1]
    else:
        hi, lo = max(qubits), min(qubits)
        view = states.reshape(rows, dim >> (hi + 1), 2, 1 << (hi - lo - 1), 2, -1)
        if qubits[0] == hi:
            low, high = view[:, :, 1, :, 0], view[:, :, 1, :, 1]
        else:
            low, high = view[:, :, 0, :, 1], view[:, :, 1, :, 1]
    tmp = low.copy()
    low[...] = high
    high[...] = tmp
    return states


def apply_basis_gate(states: np.ndarray, kind: GateKind, qubits: tuple[int, ...],
                     operand: np.ndarray | None) -> np.ndarray:
    """One physical gate by its structure, on a batch the caller owns.

    X and CX (`PERMUTATIONS`) take no operand: they swap amplitude blocks in
    place.  RZ takes its diagonal, shared (2,) or one per row (R, 2), and
    scales the two halves of its qubit's axis.  Any other kind (SX) takes its
    matrix and runs `apply_matrix`.  `states` is (R, 2^n) or (R, 2^n, cols),
    and the result equals `apply_matrix` with the gate's (d, d) or (R, d, d)
    matrices bit for bit: a permutation does no arithmetic, and the diagonal
    einsum computes d * t where the dense one computes d * t + 0 * t'.
    """
    if kind in PERMUTATIONS:
        return _swap_blocks(np.ascontiguousarray(states), qubits)
    if kind is GateKind.RZ:
        rows = states.shape[0]
        t = states.reshape(rows, states.shape[1] >> (qubits[0] + 1), 2, -1)
        diag = np.broadcast_to(operand, (rows, 2))
        return np.einsum("ra,rhal->rhal", diag, t).reshape(states.shape)
    return apply_matrix(states, operand, qubits)


def apply_gate_batch(states: np.ndarray, gate: Gate, thetas: np.ndarray,
                     feats: np.ndarray | None = None) -> np.ndarray:
    mats = gate_mats_batch(gate.kind, resolve_angles(gate, thetas, feats))
    return apply_matrix(states, mats, gate.qubits)


def run_batch(circuit: Circuit, params, states: np.ndarray) -> np.ndarray:
    """The circuit's layers, with one parameter vector, on a (rows, 2^n) state
    batch; returns the final states.

    The matrices come from the layers' `GatePlan`, one (1, d, d) matrix per
    gate shared by all rows.  The states the layers start from are
    `training.initial_states`.
    """
    thetas = np.atleast_2d(np.asarray(params, dtype=float))
    return gate_plan(tuple(circuit.layers)).apply(states, thetas)


def run_circuit(circuit: Circuit, params, input_state: np.ndarray | None = None) -> np.ndarray:
    """The layers, with one parameter vector, on one state (|0...0> by
    default); the encoder is state preparation and is not applied."""
    state = zero_state(circuit.n_qubits) if input_state is None else input_state
    return run_batch(circuit, params, np.asarray(state, dtype=complex)[None, :])[0]


@lru_cache(maxsize=None)
def readout_weights(spec: MeasurementSpec, n_qubits: int) -> np.ndarray:
    """(C, 2^n) table W with outputs = |psi|^2 @ W.T.

    Rows are Pauli-Z signs for per-qubit-Z readout and 0/1 group indicators
    for basis-state grouping.
    """
    spec = spec.validated(n_qubits)
    if spec.scheme is MeasureScheme.PER_QUBIT_Z:
        i = np.arange(2 ** n_qubits)
        w = np.stack([1.0 - 2.0 * ((i >> q) & 1) for q in range(spec.n_classes)])
    else:
        w = np.zeros((spec.n_classes, 2 ** n_qubits))
        for k, group in enumerate(spec.groups):
            w[k, list(group)] = 1.0
    w.setflags(write=False)
    return w


def measure_outputs_batch(states: np.ndarray, spec: MeasurementSpec) -> np.ndarray:
    n_qubits = states.shape[1].bit_length() - 1
    return (np.abs(states) ** 2) @ readout_weights(spec, n_qubits).T
