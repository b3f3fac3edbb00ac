"""Independent dense-matrix oracle for simulator, transpiler and gradient tests.

Deliberately reimplements gate matrices and full-register embedding from
scratch (cmath trig, explicit Kronecker products over per-qubit factors) so
agreement with the package is evidence, not tautology.  Qubit 0 is the least
significant bit of the basis index, matching the package convention.  The
references at the end are the exceptions: the per-gate ones reuse the
package's kernels to pin its stacked matrix building bit for bit, the dense
adjoint reuses them to cross-check the generator-form gradient, and the
fixpoint peephole reuses its gate records and snap test to pin the one-pass
peephole's output, and the row-major shot sampler reuses its kernel and
readout to cross-check the exact noise evaluator by its shot mean.
"""

import cmath
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def rx(t):
    return np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                     [-1j * math.sin(t / 2), math.cos(t / 2)]])


def ry(t):
    return np.array([[math.cos(t / 2), -math.sin(t / 2)],
                     [math.sin(t / 2), math.cos(t / 2)]], dtype=complex)


def rz(t):
    return np.array([[cmath.exp(-0.5j * t), 0], [0, cmath.exp(0.5j * t)]])


def u3(t, p, l):
    return np.array([[math.cos(t / 2), -cmath.exp(1j * l) * math.sin(t / 2)],
                     [cmath.exp(1j * p) * math.sin(t / 2),
                      cmath.exp(1j * (p + l)) * math.cos(t / 2)]])


def sxm():
    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


ONE_QUBIT = {"RX": rx, "RY": ry, "RZ": rz, "U3": u3,
             "X": lambda: PAULI_X.copy(), "SX": sxm, "ID": lambda: I2.copy()}
CONTROLLED = {"CRX": rx, "CRY": ry, "CRZ": rz, "CU3": u3, "CX": lambda: PAULI_X.copy()}


def embed_factors(n_qubits, factors):
    """Kron together per-qubit 2x2 factors; factors keyed by qubit index."""
    full = np.array([[1.0 + 0j]])
    for q in reversed(range(n_qubits)):  # highest qubit is the leftmost factor
        full = np.kron(full, factors.get(q, I2))
    return full


def embed_gate(n_qubits, kind_name, qubits, params):
    """Full 2^n x 2^n unitary of one gate."""
    if kind_name in ONE_QUBIT:
        return embed_factors(n_qubits, {qubits[0]: ONE_QUBIT[kind_name](*params)})
    control, target = qubits
    body = CONTROLLED[kind_name](*params)
    return (embed_factors(n_qubits, {control: P0})
            + embed_factors(n_qubits, {control: P1, target: body}))


def circuit_unitary(n_qubits, gate_specs):
    """Product of embedded gates, applied in list order."""
    u = np.eye(2 ** n_qubits, dtype=complex)
    for kind_name, qubits, params in gate_specs:
        u = embed_gate(n_qubits, kind_name, qubits, params) @ u
    return u


def transpiled_unitary(tc):
    """Unitary of a TranspiledCircuit including its tracked global phase."""
    specs = [(g.kind.value, g.qubits, g.params) for g in tc.gates]
    return cmath.exp(1j * tc.global_phase) * circuit_unitary(tc.n_qubits, specs)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Max elementwise error after aligning on the largest-magnitude entry."""
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(a[idx]) < tol or abs(b[idx]) < 1e-14:
        return np.max(np.abs(a - b)) <= tol
    phase = a[idx] / b[idx]
    return abs(abs(phase) - 1.0) <= 1e-9 and np.max(np.abs(a - phase * b)) <= tol


def gate_spec_of(gate, params, feats=None):
    """(kind, qubits, resolved angles) for a logical circuit Gate."""
    from vqcompress.circuit import BindKind
    angles = []
    for b in gate.bindings:
        if b.kind is BindKind.CONST:
            angles.append(b.value)
        elif b.kind is BindKind.THETA:
            angles.append(params[b.slot])
        else:
            angles.append(math.pi * feats[b.slot])
    return gate.kind.value, gate.qubits, tuple(angles)


def logical_unitary(circuit, params, feats=None):
    specs = [gate_spec_of(g, params, feats) for g in circuit.all_gates]
    return circuit_unitary(circuit.n_qubits, specs)


# Parameter-shift rules (Mitarai et al. 2018; Wierichs et al. 2022).  A plain
# rotation's expectation has the single frequency 1, so two points at +-pi/2
# are exact.  A controlled rotation adds frequency 1/2, so it takes four
# points at +-pi/2 and +-3pi/2.
_C1 = (math.sqrt(2) + 1) / (4 * math.sqrt(2))
_C2 = (math.sqrt(2) - 1) / (4 * math.sqrt(2))
_HALF_PI = math.pi / 2
_TWO_POINT = ((_HALF_PI, 0.5), (-_HALF_PI, -0.5))
_FOUR_POINT = ((_HALF_PI, _C1), (-_HALF_PI, -_C1), (3 * _HALF_PI, -_C2), (-3 * _HALF_PI, _C2))
SHIFT_RULES = {"RX": _TWO_POINT, "RY": _TWO_POINT, "RZ": _TWO_POINT,
               "CRX": _FOUR_POINT, "CRY": _FOUR_POINT, "CRZ": _FOUR_POINT}


def readout(states, measurement, n_qubits):
    """(R, C) classifier outputs: per-qubit <Z> or basis-state group weights."""
    return readout_probs(np.abs(states) ** 2, measurement, n_qubits)


def readout_probs(probs, measurement, n_qubits):
    """Classifier outputs of (R, 2^n) basis-state probabilities."""
    from vqcompress.circuit import MeasureScheme
    spec = measurement.validated(n_qubits)
    if spec.scheme is MeasureScheme.PER_QUBIT_Z:
        signs = [[1.0 - 2.0 * ((i >> q) & 1) for i in range(2 ** n_qubits)]
                 for q in range(spec.n_classes)]
        return probs @ np.array(signs).T
    return np.stack([probs[:, list(g)].sum(axis=1) for g in spec.groups], axis=1)


def param_shift_gradient(circuit, params, feats, labels, initial_states=None):
    """Gradient of the batch-mean cross-entropy by parameter shift.

    Every evaluation runs dense unitaries: the encoder per sample (on
    |0...0> or on `initial_states`), then the layers per shifted parameter
    vector.  Each trainable slot must belong to exactly one single-angle
    rotation gate, the case in which the shift rules are exact.
    """
    params = np.asarray(params, dtype=float)
    owner = {}
    for g in circuit.layers:
        for s in g.theta_slots:
            assert s not in owner and g.kind.value in SHIFT_RULES, f"slot {s}: no exact rule"
            owner[s] = g.kind.value
    n, dim = circuit.n_qubits, 2 ** circuit.n_qubits
    if initial_states is None:
        initial_states = np.zeros((len(feats), dim), dtype=complex)
        initial_states[:, 0] = 1.0
    encoded = np.stack([circuit_unitary(n, [gate_spec_of(g, params, f) for g in circuit.encoder])
                        @ s0 for f, s0 in zip(feats, initial_states)])

    def outputs(p):
        u = circuit_unitary(n, [gate_spec_of(g, p) for g in circuit.layers])
        return readout(encoded @ u.T, circuit.measurement, n)

    out = outputs(params)
    e = np.exp(out - out.max(axis=1, keepdims=True))
    dl_dout = e / e.sum(axis=1, keepdims=True)
    dl_dout[np.arange(len(labels)), labels] -= 1.0
    grad = np.zeros(params.size)
    for s, kind in owner.items():
        for shift, coeff in SHIFT_RULES[kind]:
            p = params.copy()
            p[s] += shift
            grad[s] += coeff * float((dl_dout * outputs(p)).sum())
    return grad / len(labels)


# Per-gate references for the stacked gate-matrix plan.  Unlike the dense
# oracle above, these use the package's own kernels on purpose: every gate
# resolves its angles and builds its matrices on its own, as the simulator
# and training did before the plan, and the derivative blocks come from the
# per-kind rule here, not from the plan's stacked build.  They pin
# bit-identity, not correctness.

def resolve_angles(gate, thetas, feats):
    """Per-row angle array of one gate: (R,) or (R, 3), or None for fixed
    kinds.  THETA slots read `thetas` (R, P), DATA slots pi * `feats`
    (R, F); constants broadcast, and so does a one-row `thetas` against
    per-row data angles."""
    from vqcompress.circuit import BindKind
    from vqcompress.gates import ARITY
    if ARITY[gate.kind] == 0:
        return None
    cols = []
    for b in gate.bindings:
        if b.kind is BindKind.CONST:
            cols.append(np.full(thetas.shape[0], b.value))
        elif b.kind is BindKind.THETA:
            cols.append(thetas[:, b.slot])
        else:
            cols.append(np.pi * feats[:, b.slot])
    if len(cols) == 1:
        return cols[0]
    return np.stack(np.broadcast_arrays(*cols), axis=1)


def mats_and_derivatives(kind, angles):
    """A gate's matrices U and dU/d(angle) for each of its angles, all
    (R, d, d), from one `gate_mats_batch` call on [angles; angles + pi]:
    the per-kind build the gradient made before the stacked one.

    For a rotation exp(-i t P / 2), dU/dt = U(t + pi) / 2; U3's theta obeys
    the same rule and its phi/lambda partials are i|1><1| U and U i|1><1|.
    A controlled kind embeds the target blocks of both halves in one zeroed
    array, with a control-0 block of 1s in the U half only.
    """
    from vqcompress.gates import CONTROLLED_TARGET, GateKind, controlled_mats, gate_mats_batch
    p1 = np.diag([0.0, 1.0j])
    base, n = CONTROLLED_TARGET.get(kind, kind), len(angles)
    shift = np.array([math.pi, 0.0, 0.0]) if base is GateKind.U3 else math.pi
    both = gate_mats_batch(base, np.concatenate([angles, angles + shift]))
    extra = [p1 @ both[:n], both[:n] @ p1] if base is GateKind.U3 else []
    if base is not kind:
        both = controlled_mats(both, control0=np.repeat([1.0, 0.0], n))
        extra = [controlled_mats(b, control0=0.0) for b in extra]
    return both[:n], [0.5 * both[n:]] + extra


def per_gate_initial_states(circuit, feats):
    """`initial_states` built here: amplitude-encoded rows or |0...0>, then
    each encoder gate's matrices from that gate's own angles."""
    from vqcompress.data import amplitude_state
    from vqcompress.gates import gate_mats_batch
    from vqcompress.simulator import apply_matrix
    feats = np.asarray(feats, dtype=float)
    rows = feats.shape[0]
    if circuit.amplitude_input:
        states = np.stack([amplitude_state(f, circuit.n_qubits) for f in feats])
    else:
        states = np.zeros((rows, 2 ** circuit.n_qubits), dtype=complex)
        states[:, 0] = 1.0
    no_thetas = np.zeros((rows, 0))  # encoder gates read no theta; constants get a row each
    for gate in circuit.encoder:
        u = gate_mats_batch(gate.kind, resolve_angles(gate, no_thetas, feats))
        states = apply_matrix(states, u, gate.qubits)
    return states


def per_gate_run_batch(circuit, params, states):
    """`run_batch`: the layers on the given states, each layer gate's matrix
    built from that gate's own angles."""
    from vqcompress.gates import gate_mats_batch
    from vqcompress.simulator import apply_matrix
    thetas = np.atleast_2d(np.asarray(params, dtype=float))
    for gate in circuit.layers:
        u = gate_mats_batch(gate.kind, resolve_angles(gate, thetas, None))
        states = apply_matrix(states, u, gate.qubits)
    return states


PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
GENERATOR_OF = {"RX": PAULI_X, "RY": PAULI_Y, "RZ": PAULI_Z,
                "CRX": PAULI_X, "CRY": PAULI_Y, "CRZ": PAULI_Z}


def generator_perm_phase(kind_name, qubits, n_qubits):
    """(perm, phase) of a rotation gate's Pauli generator on the register,
    read off its dense embedding: row i holds one entry, phase[i] at column
    perm[i], or none (phase 0) where a controlled gate's control is 0."""
    pauli = GENERATOR_OF[kind_name]
    factors = {qubits[0]: pauli} if len(qubits) == 1 else {qubits[0]: P1, qubits[1]: pauli}
    full = embed_factors(n_qubits, factors)
    perm = np.argmax(np.abs(full), axis=1)
    return perm, full[np.arange(full.shape[0]), perm]


def per_gate_loss_and_gradient(circuit, params, feats, labels):
    """`batch_loss_and_gradient` with each gate's matrices, adjoint and U3
    partials built from that gate's own angles, each rotation's generator
    table read off its dense Pauli embedding here, and each rotation's
    overlap taken on its own (a stack of one).  The arithmetic is the
    package's: the forward states are kept, the co-state alone is undone,
    a U3 or CU3 slot adds its partial's term during the walk, and the
    rotation slots add theirs after it, in walk order."""
    from vqcompress.circuit import BindKind
    from vqcompress.gates import gate_mats_batch
    from vqcompress.simulator import (apply_matrix, generator_overlaps, measure_outputs_batch,
                                      readout_weights)
    from vqcompress.training import softmax
    params = np.asarray(params, dtype=float)
    n_batch = feats.shape[0]
    forward = [per_gate_initial_states(circuit, feats)]
    tape = []
    for gate in circuit.layers:
        angles = resolve_angles(gate, params[None, :], None)
        u = gate_mats_batch(gate.kind, angles)
        forward.append(apply_matrix(forward[-1], u, gate.qubits))
        tape.append((gate, angles, u))

    weights = readout_weights(circuit.measurement, circuit.n_qubits)
    probs = softmax(measure_outputs_batch(forward[-1], circuit.measurement))
    rows = np.arange(n_batch)
    loss = float(-np.log(np.maximum(probs[rows, labels], 1e-300)).mean())
    dl_dout = probs - np.eye(probs.shape[1])[labels]
    costate = ((dl_dout / n_batch) @ weights) * forward[-1]

    grad = np.zeros(params.size)
    overlaps = []
    for k in reversed(range(len(tape))):
        gate, angles, u = tape[k]
        slots = [b.slot for b in gate.bindings if b.kind is BindKind.THETA]
        if slots and gate.kind.value in GENERATOR_OF:
            perm, phase = generator_perm_phase(gate.kind.value, gate.qubits, circuit.n_qubits)
            overlaps.append((slots[0], generator_overlaps(
                costate[None], forward[k + 1][None], perm[None], phase[None])[0]))
        elif slots:
            for b, d in zip(gate.bindings, mats_and_derivatives(gate.kind, angles)[1]):
                if b.kind is BindKind.THETA:
                    d_states = apply_matrix(forward[k], d, gate.qubits)
                    grad[b.slot] += 2.0 * np.vdot(costate, d_states).real
        costate = apply_matrix(costate, np.conj(np.swapaxes(u, -1, -2)), gate.qubits)
    for slot, overlap in overlaps:
        grad[slot] += overlap
    return loss, grad


def dense_adjoint_gradient(circuit, params, states, labels, frozen=None):
    """The mean cross-entropy's gradient by the dense adjoint method, from
    the layers' initial states: [phi; lambda] undone together per gate, and
    2 Re <lambda| dU phi> per live slot, with each dU a dense derivative
    matrix of the gate's own angles (`mats_and_derivatives`), for every
    kind.  Frozen slots read 0."""
    from vqcompress.circuit import BindKind
    from vqcompress.gates import gate_mats_batch
    from vqcompress.simulator import apply_matrix, measure_outputs_batch, readout_weights
    from vqcompress.training import softmax
    params = np.asarray(params, dtype=float)
    n_batch = states.shape[0]
    tape = []
    for gate in circuit.layers:
        angles = resolve_angles(gate, params[None, :], None)
        u = gate_mats_batch(gate.kind, angles)
        states = apply_matrix(states, u, gate.qubits)
        tape.append((gate, angles, u))

    weights = readout_weights(circuit.measurement, circuit.n_qubits)
    probs = softmax(measure_outputs_batch(states, circuit.measurement))
    costate = (((probs - np.eye(probs.shape[1])[labels]) / n_batch) @ weights) * states
    grad = np.zeros(params.size)
    for gate, angles, u in reversed(tape):
        costate_after = costate
        both = apply_matrix(np.concatenate([states, costate]),
                            np.conj(np.swapaxes(u, -1, -2)), gate.qubits)
        states, costate = both[:n_batch], both[n_batch:]
        if gate.theta_slots:
            for b, d in zip(gate.bindings, mats_and_derivatives(gate.kind, angles)[1]):
                if b.kind is BindKind.THETA:
                    grad[b.slot] += 2.0 * np.vdot(costate_after,
                                                  apply_matrix(states, d, gate.qubits)).real
    if frozen is not None:
        grad[frozen] = 0.0
    return grad


# Fixpoint peephole reference: the rule looped until nothing changes, each
# pass rebuilding the gate list.  It shares the package's gate record and
# 0-mod-2pi snap test, so it pins the one-pass scan's output, not the snap.

def fixpoint_peephole(tc):
    """Merge adjacent same-qubit RZs; drop ID and RZ(0 mod 2pi) gates; repeat."""
    from vqcompress.gates import GateKind
    from vqcompress.transpile import PhysicalGate, TranspiledCircuit, snap_class

    def zero(angle):
        k = snap_class(angle)
        return k is not None and k % 4 == 0

    gates, phase = list(tc.gates), tc.global_phase
    changed = True
    while changed:
        changed = False
        kept = []
        for g in gates:
            if g.kind is GateKind.ID:
                changed = True
                continue
            if g.kind is GateKind.RZ and zero(g.params[0]):
                phase -= g.params[0] / 2
                changed = True
                continue
            kept.append(g)
        merged, last_on = [], {}
        for g in kept:
            if g.kind is GateKind.RZ:
                j = last_on.get(g.qubits[0])
                if j is not None and merged[j].kind is GateKind.RZ:
                    merged[j] = PhysicalGate(GateKind.RZ, g.qubits,
                                             (merged[j].params[0] + g.params[0],))
                    changed = True
                    continue
            merged.append(g)
            for q in g.qubits:
                last_on[q] = len(merged) - 1
        gates = merged
    return TranspiledCircuit(tc.n_qubits, gates, phase)


def dag_depth(gates):
    """Longest path through the explicit dependency DAG: gate j precedes gate
    i (j < i) iff they share a qubit."""
    depth = []
    for i, g in enumerate(gates):
        preds = [depth[j] for j in range(i) if set(gates[j].qubits) & set(g.qubits)]
        depth.append(1 + max(preds, default=0))
    return max(depth, default=0)


PAULIS = (I2, PAULI_X, np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]], dtype=complex))


def dense_noisy_outputs(tc, input_state, spec, p):
    """Exact noisy outputs from a full 2^n x 2^n density matrix: each physical
    gate's oracle unitary U as rho -> U rho U^dagger, then on each qubit it
    touched (1 - p) rho + p/4 sum_P P rho P^dagger over the Paulis P."""
    n = tc.n_qubits
    rho = np.outer(input_state, np.conj(input_state))
    for pg in tc.gates:
        u = embed_gate(n, pg.kind.value, pg.qubits, pg.params)
        rho = u @ rho @ u.conj().T
        for q in pg.qubits:
            twirl = sum(e @ rho @ e.conj().T
                        for e in (embed_factors(n, {q: pauli}) for pauli in PAULIS))
            rho = (1 - p) * rho + (p / 4) * twirl
    return readout_probs(np.diag(rho).real[None, :], spec, n)[0]


# Row-major shot sampler: the noise evaluator as it kept its trajectories
# before the exact evaluator replaced it, one (shots, 2^n) row per shot.  It
# shares the package's kernel and readout; its shot mean estimates the exact
# outputs, so it cross-checks the noise model statistically.

def _apply_pauli_rows(states, rows, q, which):
    """In-place X/Y/Z on one qubit for a subset of trajectory rows."""
    dim = states.shape[1]
    low = 1 << q
    sub = states[rows].reshape(len(rows), dim // (2 * low), 2, low)
    if which == 1:    # X
        sub = sub[:, :, ::-1, :]
    elif which == 2:  # Y
        sub = sub[:, :, ::-1, :].copy()
        sub[:, :, 0, :] *= -1j
        sub[:, :, 1, :] *= 1j
    else:             # Z
        sub = sub.copy()
        sub[:, :, 1, :] *= -1
    states[rows] = sub.reshape(len(rows), dim)


def noisy_outputs(tc, input_state, spec, p, shots, seed):
    """Shot-averaged measurement outputs of a physical circuit under noise."""
    from vqcompress.errors import ConfigError
    from vqcompress.gates import gate_matrix
    from vqcompress.simulator import apply_matrix, measure_outputs_batch
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"depolarizing probability {p} outside [0, 1]")
    if shots < 1:
        raise ConfigError(f"shots must be at least 1, got {shots}")
    rng = np.random.default_rng(seed)
    states = np.broadcast_to(input_state, (shots, input_state.shape[0])).astype(complex).copy()
    for pg in tc.gates:
        states = apply_matrix(states, gate_matrix(pg.kind, pg.params), pg.qubits)
        for q in pg.qubits:
            hit = rng.random(shots) < p
            paulis = rng.integers(0, 4, size=shots)
            for which in (1, 2, 3):
                rows = np.flatnonzero(hit & (paulis == which))
                if rows.size:
                    _apply_pauli_rows(states, rows, q, which)
    return measure_outputs_batch(states, spec).mean(axis=0)
