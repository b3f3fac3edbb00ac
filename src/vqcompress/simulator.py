"""Exact dense state-vector simulation.

States are complex128 arrays of 2^n amplitudes; qubit 0 is the least
significant bit of the basis-state index.  Everything is batched: a state
batch has shape (rows, 2^n).  A gate acts on every row either through one
shared matrix or through one matrix per row, so a batch can mix samples
(per-row data angles).  A batch may also carry a trailing axis,
(rows, 2^n, cols), of columns that share their row's matrix; ReCL runs its
samples that way, along the contiguous axis, through a candidate gate's
readers, and the gates past them as one product built on an identity.

`apply_matrix` is the dense kernel, one einsum per gate.  The kernels call
numpy's C einsum, to which `np.einsum` passes its operands unchanged at its
default optimize=False, so the values are the same bit for bit and an apply
skips about 1 us of Python dispatch, a fifth of its time on a training
batch; where that import fails they call `np.einsum`.  The noise
evaluator holds a density matrix as a register of n base-4 digits, each
qubit's ket and bra bit side by side, one sample's per row.  Its one-qubit
channels reach it as 4x4 matrices on a digit through `apply_matrix`, and
its CXs as in-place block swaps (`_swap_blocks`) on the ket and bra bits.

The matrices come from `gates.stacked_blocks` and `gates.controlled_mats`,
through a cached `GatePlan` per gate sequence: one build per call for all of
its gates, whatever their kinds.  The encoder's plan reads pi * features
(`training.initial_states`), the layers' plan reads theta: `run_batch`
applies the layers to the states it is given.  `training.loss_and_gradient`
takes every layer gate's U, U^dagger and U3 partials from one build of the
layers' plan, on states `sgd_train` encoded once, and every rotation slot's
term from one `generator_overlaps` on its `generator_table`s.  ReCL and
`transpile.lower_gates` read the same plans, so the transpiler lowers what
the simulator runs.
"""

from functools import lru_cache

import numpy as np

try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

from .circuit import BindKind, Circuit, Gate, MeasureScheme, MeasurementSpec
from .gates import (ARITY, CONTROLLED_TARGET, FORMULAS, GENERATORS, GateKind,
                    controlled_mats, gate_mats_batch, stacked_blocks)


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
    d = mats.shape[-1]                         # 2 on bit q, 4 on digit q
    t = states.reshape(rows, dim // d ** (q + 1), d, -1)   # trailing columns join the low bits
    if mats.ndim == 2:
        out = _einsum("ab,rhbl->rhal", mats, t)
    else:
        out = _einsum("rab,rhbl->rhal", mats, t)
    return np.ascontiguousarray(out.reshape(states.shape))


def _batched_2q(states: np.ndarray, mats: np.ndarray, qa: int, qb: int) -> np.ndarray:
    n = states.shape[1].bit_length() - 1
    idx = _pair_indices(n, qa, qb)
    cols = states[:, idx]                      # (rows, 4, dim/4[, cols])
    if mats.ndim == 2:
        new = _einsum("jk,rk...->rj...", mats, cols)
    else:
        new = _einsum("rjk,rk...->rj...", mats, cols)
    out = np.empty_like(states)                # idx covers every amplitude
    out[:, idx] = new
    return out


class GatePlan:
    """Stacked gate-matrix building for one gate sequence.

    Each angle reads a constant or a column of one value source: theta for
    the layers, pi * features for the encoder (`Circuit` keeps the two
    apart).  What does not depend on the values is worked out once, here:
    each angle's column of [constants | values], the build order of the
    gates with angles (by formula, `gates.FORMULAS`), which of them are
    controlled, and the fixed kinds' read-only matrices.  Per call, `build`
    makes a fixed number of numpy calls however many kinds the gates have:
    one gather of every angle, one `stacked_blocks` call, one
    `controlled_mats` embedding and, with derivatives, one conj-transpose
    per gate size.  Each gate's matrices are (rows, d, d) views into those
    stacks, one row per value row, and equal the matrices of the gate built
    from its own angles bit for bit.
    """

    def __init__(self, gates: tuple[Gate, ...]):
        self.gates = gates
        consts = [b.value for g in gates for b in g.bindings if b.kind is BindKind.CONST]
        self.consts = np.array(consts, dtype=float)[None, :]
        cols, next_const = [], 0
        for gate in gates:
            cols.append([])
            for b in gate.bindings:
                if b.kind is BindKind.CONST:
                    cols[-1].append(next_const)
                    next_const += 1
                else:
                    cols[-1].append(len(consts) + b.slot)
        # per gate, (angle index, slot) of each THETA binding
        self.theta_slots = tuple(tuple((j, b.slot) for j, b in enumerate(g.bindings)
                                       if b.kind is BindKind.THETA) for g in gates)
        formula = {k: CONTROLLED_TARGET.get(g.kind, g.kind) for k, g in enumerate(gates)
                   if ARITY[g.kind]}
        self.order = sorted(formula, key=lambda k: FORMULAS.index(formula[k]))
        self.cols = np.array([(cols[k] * 3)[:3] for k in self.order], dtype=int).reshape(-1, 3).T
        runs = [formula[k] for k in self.order]
        # (formula, stop) of each run of one formula in `order`
        self.runs = tuple((f, len(runs) - runs[::-1].index(f)) for f in FORMULAS if f in runs)
        # `stacked_blocks`' entries: each gate's U in `order`, then, with
        # derivatives, three partials per U3-formula gate, the last in order
        n_u, first_u3 = len(self.order), len(runs) - runs.count(GateKind.U3)
        partials = {i: n_u + 3 * (i - first_u3) for i in range(first_u3, n_u)}
        two = [i for i, k in enumerate(self.order) if len(gates[k].qubits) == 2]
        # the entries `controlled_mats` embeds, with their control-0 block:
        # the controlled gates' U (1) and, with derivatives, the CU3 partials (0)
        embedded = two + [partials[i] + j for i in two if i in partials for j in range(3)]
        self.embed = [(np.array(e, dtype=int),
                       np.repeat([[1.0], [0.0]], [len(two), len(e) - len(two)], axis=0))
                      for e in (two, embedded)]
        # per gate, (stack, entry, first partial entry or None): stack 0 is
        # `stacked_blocks`' result, stack 1 the controlled gates' embedding
        # of theirs; a fixed gate is None, with its read-only (U, U^dagger)
        # in `fixed`
        self.where, self.fixed = [None] * len(gates), {}
        for i, k in enumerate(self.order):
            d_at = partials.get(i)
            if i in two:
                self.where[k] = (1, two.index(i), None if d_at is None else embedded.index(d_at))
            else:
                self.where[k] = (0, i, d_at)
        for k, gate in enumerate(gates):
            if self.where[k] is None:
                u = gate_mats_batch(gate.kind, None)
                self.fixed[k] = (u, np.conj(u.T))
                for m in self.fixed[k]:
                    m.setflags(write=False)

    def angles(self, values: np.ndarray) -> np.ndarray:
        """(3, G, rows): angle j of each gate with angles, in build order
        (`order`), on each row of `values` (rows, V); a one-angle kind's is
        at j = 0 and repeats at 1 and 2."""
        src = values
        if self.consts.size:
            consts = np.broadcast_to(self.consts, (values.shape[0], self.consts.shape[1]))
            src = np.concatenate([consts, values], axis=1)
        return src.T[self.cols]

    def build(self, values: np.ndarray, derivatives: bool = False):
        """(mats, daggers, partials) of the gates on the rows of `values`, in
        gate order.

        mats are the gates' matrix arguments to `apply_matrix`: (rows, d, d),
        or a fixed kind's (d, d).  With `derivatives`, daggers are their
        conj-transposes and partials, per gate, a U3 or CU3's (3, rows, d, d)
        dU/d(angle) of its three angles (`stacked_blocks`), and () for any
        other kind: a rotation's derivative comes from its generator
        (`generator_table`).  Without, both are None.  Each is a view into
        the stacks, made only for the gate it belongs to.
        """
        stacks = []
        if self.order:
            blocks = stacked_blocks(self.runs, self.angles(values), derivatives)
            stacks.append(blocks)
            entries, control0 = self.embed[derivatives]
            if entries.size:
                stacks.append(controlled_mats(blocks[entries], control0))
        mats = [self.fixed[k][0] if w is None else stacks[w[0]][w[1]]
                for k, w in enumerate(self.where)]
        if not derivatives:
            return mats, None, None
        dag = [np.conj(np.swapaxes(stack, -1, -2)) for stack in stacks]
        daggers = [self.fixed[k][1] if w is None else dag[w[0]][w[1]]
                   for k, w in enumerate(self.where)]
        partials = [() if w is None or w[2] is None else stacks[w[0]][w[2]:w[2] + 3]
                    for w in self.where]
        return mats, daggers, partials

    def matrices(self, values: np.ndarray) -> list[np.ndarray]:
        """Each gate's matrix argument to `apply_matrix`, in gate order."""
        return self.build(values)[0]

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
    per row (R, d, d).  `states` is (R, 2^n) or (R, 2^n, cols).  A 4x4 on
    one index q acts on digit q of base 4, bits (2q + 1, 2q): the noise
    evaluator's interleaved density matrix."""
    if len(qubits) == 1:
        return _batched_1q(states, mats, qubits[0])
    return _batched_2q(states, mats, qubits[0], qubits[1])


@lru_cache(maxsize=None)
def generator_table(kind: GateKind, qubits: tuple[int, ...],
                    n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (perm, phase), each (2^n,), of a rotation gate's Pauli
    generator P on the register (`gates.GENERATORS`): P psi = phase *
    psi[:, perm], with the phase 0 where a controlled gate's control reads 0."""
    flip, phases = GENERATORS[CONTROLLED_TARGET.get(kind, kind)]
    i = np.arange(2 ** n_qubits)
    perm = i ^ (flip << qubits[-1])
    phase = np.array(phases, dtype=complex)[(i >> qubits[-1]) & 1]
    if len(qubits) == 2:
        phase *= (i >> qubits[0]) & 1
    for table in (perm, phase):
        table.setflags(write=False)
    return perm, phase


def generator_overlaps(costates: np.ndarray, states: np.ndarray, perms: np.ndarray,
                       phases: np.ndarray) -> np.ndarray:
    """Im <lambda_g| P_g phi_g>, (G,), of G stacked (B, 2^n) co-state and
    state batches, (G, B, 2^n) each, where P_g is given by its
    `generator_table` rows in (G, 2^n) `perms` and `phases`: one gather and
    one contraction."""
    moved = states[np.arange(len(perms))[:, None], :, perms]   # (G, 2^n, B)
    return _einsum("gbd,gd,gdb->g", costates.conj(), phases, moved).imag


def _swap_blocks(states: np.ndarray, qubits: tuple[int, int]) -> np.ndarray:
    """CX in place on a contiguous batch: swap the amplitude blocks where the
    target (the second qubit) is 0 and 1, within control = 1."""
    rows, dim = states.shape[:2]                # trailing columns join the low bits
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


def apply_gate_batch(states: np.ndarray, gate: Gate, thetas: np.ndarray,
                     feats: np.ndarray | None = None) -> np.ndarray:
    """A one-gate plan on `thetas` or, given `feats`, on pi * `feats`."""
    return gate_plan((gate,)).apply(states, thetas if feats is None else np.pi * feats)


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
