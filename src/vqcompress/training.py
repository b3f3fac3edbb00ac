"""Input states, forward pass, cross-entropy loss, adjoint-method gradients,
and SGD.

Features enter in one place: `input_states` makes the states before the
encoder (amplitudes or |0...0>) and `initial_states` runs the encoder on
them.  The encoder is state preparation and is never compressed; everything
downstream takes the states it returns and one theta vector.

Gradients are exact for every gate kind.  `loss_and_gradient` takes a
batch's initial states, runs the layers forward once, keeping each layer
gate's matrix, then walks the layer gates backward with the adjoint method
(Jones & Gacon, arXiv 2009.02823): one state and one co-state per sample,
undone together by one apply per gate, so the cost is O(gates) on the batch
rows whatever the number of parameters.  A gate group with a live slot
builds U and dU = U(t + pi) / 2 in one call.  Frozen slots cost nothing:
they get no derivative apply, and the walk stops at the earliest gate with
a live slot.  `sgd_train` encodes its samples once, indexes their states
per batch and passes its frozen mask on, so a step runs only the layers and
a retrain's masked gates add no derivative work; `batch_loss_and_gradient`
is the same gradient from features.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .data import amplitude_state, stack
from .errors import ConfigError, DataError
from .gates import (CONTROLLED_TARGET, GateKind, circ_residual, controlled_mats,
                    gate_mats_batch, wrap_params)
from .simulator import (apply_matrix, gate_plan, measure_outputs_batch, readout_weights,
                        run_batch, zero_state)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")


def init_params(circuit: Circuit, config: TrainConfig) -> np.ndarray:
    """Seeded uniform [0, 2pi) initialization of all trainable slots."""
    rng = np.random.default_rng(config.seed)
    return rng.uniform(0.0, 2 * math.pi, size=circuit.n_thetas)


def input_states(circuit: Circuit, feats: np.ndarray) -> np.ndarray:
    """(rows, 2^n) states before the encoder: each sample's amplitudes on an
    amplitude-input circuit, |0...0> otherwise."""
    if circuit.amplitude_input:
        return np.stack([amplitude_state(f, circuit.n_qubits) for f in feats])
    return zero_state(circuit.n_qubits, rows=len(feats))


def initial_states(circuit: Circuit, feats: np.ndarray) -> np.ndarray:
    """(rows, 2^n) states the layers start from: the encoder, reading
    pi * features, applied to `input_states`."""
    states = input_states(circuit, feats)
    return gate_plan(tuple(circuit.encoder)).apply(states, np.pi * feats)


def outputs_batch(circuit: Circuit, params, feats: np.ndarray) -> np.ndarray:
    """Measurement outputs (R, C) of one parameter vector on R samples."""
    final = run_batch(circuit, params, initial_states(circuit, feats))
    return measure_outputs_batch(final, circuit.measurement)


def softmax(outputs: np.ndarray) -> np.ndarray:
    e = np.exp(outputs - outputs.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def loss_and_accuracy(circuit: Circuit, params, samples) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy over a sample list."""
    feats, labels = stack(samples)
    probs = softmax(outputs_batch(circuit, np.atleast_2d(params), feats))
    n = len(labels)
    loss = float(-np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean())
    acc = float((probs.argmax(axis=1) == labels).mean())
    return loss, acc


_P1 = np.diag([0.0, 1.0j])  # i * |1><1|


def _mats_and_derivatives(kind: GateKind, angles: np.ndarray):
    """A trainable group's matrices U and dU/d(angle) for each of its angles,
    all (R, d, d), from one `gate_mats_batch` call on [angles; angles + pi].

    For a rotation exp(-i t P / 2), dU/dt = U(t + pi) / 2; U3's theta obeys
    the same rule and its phi/lambda partials are i|1><1| U and U i|1><1|.
    A controlled kind embeds the target blocks of both halves in one zeroed
    array, with a control-0 block of 1s in the U half only.
    """
    base, n = CONTROLLED_TARGET.get(kind, kind), len(angles)
    shift = np.array([math.pi, 0.0, 0.0]) if base is GateKind.U3 else math.pi
    both = gate_mats_batch(base, np.concatenate([angles, angles + shift]))
    extra = [_P1 @ both[:n], both[:n] @ _P1] if base is GateKind.U3 else []
    if base is not kind:
        both = controlled_mats(both, control0=np.repeat([1.0, 0.0], n))
        extra = [controlled_mats(b, control0=0.0) for b in extra]
    return both[:n], [0.5 * both[n:]] + extra


def loss_and_gradient(circuit: Circuit, params: np.ndarray, states: np.ndarray,
                      labels: np.ndarray, frozen: np.ndarray | None = None
                      ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient w.r.t. all slots,
    from the batch's `initial_states`.

    Forward: every layer gate once, with one (1, d, d) matrix shared by all
    rows.  Seed: lambda = (dL/d(outputs) @ W) * psi for the readout table W.
    Backward, per layer gate U in reverse: [phi; lambda] <- U^dagger [phi;
    lambda] as one (2B, 2^n) apply, then add 2 Re <lambda| dU phi> to each of
    its live slots, with phi after the apply and lambda from before it.

    `frozen`, a boolean mask over the slots, marks slots whose gradient is
    not wanted: they read 0 and cost no derivative apply, and the walk
    stops at the earliest gate with a live slot, since no gate before it
    feeds one.  The live entries equal the unfrozen call's bit for bit.

    Every matrix comes from the layers' `GatePlan`, per gate group: one
    stacked `gate_mats_batch` call, which for a group with a live slot is
    `_mats_and_derivatives`' single call for U and dU, and one
    conj-transpose for the U^dagger.
    """
    params = np.asarray(params, dtype=float)
    n_batch = states.shape[0]
    plan = gate_plan(tuple(circuit.layers))
    n_gates = len(plan.gates)
    live = np.ones(params.size, dtype=bool)
    if frozen is not None:
        live[frozen] = False
    live = live.tolist()
    live_gates = [any(live[s] for _, s in slots) for slots in plan.theta_slots]
    mats, daggers, derivs = [None] * n_gates, [None] * n_gates, [None] * n_gates
    for group, angles in plan.angles(params[None, :]):
        if any(live_gates[k] for k in group.positions):
            u, blocks = _mats_and_derivatives(group.kind, angles)
        else:
            u, blocks = gate_mats_batch(group.kind, angles), []
        stacked, blocks = group.shaped(u), [group.shaped(b) for b in blocks]
        dagger = np.conj(np.swapaxes(stacked, -1, -2))
        for g, k in enumerate(group.positions):
            mats[k], daggers[k] = stacked[g], dagger[g]
            derivs[k] = [b[g] for b in blocks]
    for gate, u in zip(plan.gates, mats):
        states = apply_matrix(states, u, gate.qubits)

    weights = readout_weights(circuit.measurement, circuit.n_qubits)
    probs = softmax(measure_outputs_batch(states, circuit.measurement))
    rows = np.arange(n_batch)
    loss = float(-np.log(np.maximum(probs[rows, labels], 1e-300)).mean())
    dl_dout = probs - np.eye(probs.shape[1])[labels]
    costate = ((dl_dout / n_batch) @ weights) * states

    grad = np.zeros(params.size)
    both = np.concatenate([states, costate])   # rows: the states, then the co-states
    first_live = live_gates.index(True) if any(live_gates) else n_gates
    for k in reversed(range(first_live, n_gates)):
        qubits, prev = plan.gates[k].qubits, both
        both = apply_matrix(prev, daggers[k], qubits)
        for j, slot in plan.theta_slots[k]:
            if live[slot]:
                d_states = apply_matrix(both[:n_batch], derivs[k][j], qubits)
                grad[slot] += 2.0 * np.vdot(prev[n_batch:], d_states).real
    return loss, grad


def batch_loss_and_gradient(circuit: Circuit, params: np.ndarray, feats: np.ndarray,
                            labels: np.ndarray) -> tuple[float, np.ndarray]:
    """`loss_and_gradient` on the batch's features."""
    return loss_and_gradient(circuit, params, initial_states(circuit, feats), labels)


def sgd_train(circuit: Circuit, params0, samples, config: TrainConfig,
              proximal: tuple | None = None,
              frozen: np.ndarray | None = None) -> np.ndarray:
    """Minibatch SGD on cross-entropy, optionally plus a proximal anchor term.

    `proximal` is (z, lam, rho); its gradient contribution is
    rho * (theta - z) + lam with the difference taken on the angle circle.
    Frozen slots receive zero gradient and keep their initial values; the
    mask goes to `loss_and_gradient`, which skips their derivative work.
    Parameters are wrapped to [0, 4pi) after every step; two runs with the
    same seed produce bit-identical results.
    """
    if not samples:
        raise DataError("cannot train on an empty sample list")
    rng = np.random.default_rng(config.seed)
    theta = wrap_params(np.asarray(params0, dtype=float).copy())
    feats, labels = stack(samples)
    states = initial_states(circuit, feats)
    n = len(labels)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            _, grad = loss_and_gradient(circuit, theta, states[idx], labels[idx], frozen)
            if proximal is not None:
                z, lam, rho = proximal
                grad = grad + rho * circ_residual(theta, z) + lam
            if frozen is not None:
                grad[frozen] = 0.0
            theta = wrap_params(theta - config.learning_rate * grad)
    return theta
