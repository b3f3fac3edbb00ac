"""Input states, forward pass, the scoring rule, cross-entropy loss,
adjoint-method gradients, and SGD.

`hits` alone decides a correct prediction, here, in ReCL and under noise: a
label's output must beat every other by more than `TIE_MARGIN`, so a tie
(outputs equal up to roundoff) is a miss on every path.  Softmax is the loss's.

Features enter in one place, `encode`: the encoder run on the `input_states`
(amplitudes or |0...0>) gives the `initial_states`, held with the labels as a
read-only `Encoded`.  The encoder is state preparation and is never
compressed, so a run encodes each split once and passes its `Encoded` on.

Gradients are exact for every gate kind.  `loss_and_gradient` runs the
layers forward once from a batch's initial states, keeping each state, then
walks them backward with the adjoint method (Jones & Gacon, arXiv
2009.02823), undoing one co-state per sample by one apply per gate, so the
cost is O(gates) on the batch rows whatever the number of parameters.  A
rotation exp(-i t P / 2) applies no derivative matrix: one
`generator_overlaps` after the walk gives every rotation slot's Im <lambda|
P phi>.  U, U^dagger and the U3 partials come from one `GatePlan.build`.
Frozen slots cost nothing, and the walk stops at the earliest live gate.
`sgd_train` builds once per call what its steps share: it `encode`s its
samples, applies the kept gates before the earliest live one, and builds the
readout table, the one-hot targets and the backward walk with its generator
tables.  A step builds only its theta-dependent matrices, runs the gates
from the earliest live one, and computes no loss, which `sgd_train` would
discard; `batch_loss_and_gradient` is the same gradient from features.  A
retrain simulates the compressed circuit: its steps run the plan of the
layers without the frozen gates whose matrix is exactly the identity (pruned
at 0), which cost nothing, as a compiled circuit holds no gate for them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .data import amplitude_state, stack
from .errors import ConfigError
from .gates import CONTROLLED_TARGET, GENERATORS, circ_residual, wrap_params
from .simulator import (apply_matrix, gate_plan, generator_overlaps, generator_table,
                        measure_outputs_batch, readout_weights, run_batch, zero_state)


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


@dataclass(frozen=True, eq=False)
class Encoded:
    """A split as the layers read it: read-only `initial_states` and labels."""
    states: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def encode(circuit: Circuit, samples) -> Encoded:
    """A sample list's `Encoded` split; an `Encoded` comes back unchanged."""
    if isinstance(samples, Encoded):
        return samples
    feats, labels = stack(samples)
    states = initial_states(circuit, feats)
    states.setflags(write=False)
    labels.setflags(write=False)
    return Encoded(states, labels)


def outputs_batch(circuit: Circuit, params, states: np.ndarray) -> np.ndarray:
    """Measurement outputs (R, C) of one parameter vector on R layer-input states."""
    return measure_outputs_batch(run_batch(circuit, params, states), circuit.measurement)


def softmax(outputs: np.ndarray) -> np.ndarray:
    e = np.exp(outputs - outputs.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# How far a row's label output must beat every other output to score a hit.
TIE_MARGIN = 1e-12


def hits(outputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Which rows of (R, C) outputs predict their label: the label's output
    beats each of the C - 1 others (never itself) by more than `TIE_MARGIN`,
    so a tie is a miss."""
    own = outputs[np.arange(len(labels)), labels]
    return (own[:, None] - outputs > TIE_MARGIN).sum(axis=1) == outputs.shape[1] - 1


def loss_and_accuracy(circuit: Circuit, params, samples) -> tuple[float, float]:
    """Mean cross-entropy and hit rate (`hits`) over a sample list or `Encoded`."""
    split = encode(circuit, samples)
    outputs = outputs_batch(circuit, np.atleast_2d(params), split.states)
    probs = softmax(outputs)
    loss = float(-np.log(np.maximum(probs[np.arange(len(split)), split.labels], 1e-300)).mean())
    return loss, float(hits(outputs, split.labels).mean())


def loss_and_gradient(circuit: Circuit, params: np.ndarray, states: np.ndarray,
                      labels: np.ndarray, frozen: np.ndarray | None = None
                      ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient w.r.t. all slots,
    from the batch's `initial_states`.

    Forward: every layer gate once, with one (1, d, d) matrix shared by all
    rows.  Seed: lambda = (dL/d(outputs) @ W) * psi for the readout table W.
    Backward, per layer gate U in reverse, with phi the forward state after
    U and lambda the co-state there: a rotation exp(-i t P / 2) has
    dU U^dagger = -iP/2, so its slot gets Im <lambda| P phi>, for all of
    them at once after the walk; a U3 or CU3 slot gets 2 Re <lambda| dU
    U^dagger phi> from its partial; then lambda <- U^dagger lambda.

    `frozen`, a boolean mask over the slots, marks slots whose gradient is
    not wanted: they read 0 and cost nothing, and the walk stops at the
    earliest gate with a live slot, since no gate before it feeds one.  The
    live entries equal the unfrozen call's bit for bit.

    Every matrix comes from one `GatePlan.build` of the layers' plan.
    """
    params = np.asarray(params, dtype=float)
    plan = gate_plan(tuple(circuit.layers))
    weights = readout_weights(circuit.measurement, circuit.n_qubits)
    return _loss_and_gradient(weights, plan, _live(plan, circuit.n_qubits, params.size, frozen),
                              params, states, np.eye(weights.shape[0])[labels], labels)


def _live(plan, n_qubits: int, n_slots: int, frozen: np.ndarray | None) -> tuple:
    """The backward walk of `plan` on an n-qubit register under a frozen
    mask: (steps, slots, perms, phases).  Each step is a gate from the last
    down to the earliest with a live slot, as (index, qubits, live (angle,
    slot) pairs of a U3 or CU3, whether it is a rotation with a live slot).
    The live rotation slots, in walk order, are `slots`, and their gates'
    `generator_table` rows are stacked in `perms` and `phases`."""
    live = np.ones(n_slots, dtype=bool)
    if frozen is not None:
        live[frozen] = False
    live = live.tolist()
    steps, slots, perms, phases = [], [], [], []
    for k in reversed(range(len(plan.gates))):
        gate, pairs = plan.gates[k], [(j, s) for j, s in plan.theta_slots[k] if live[s]]
        rotation = bool(pairs) and CONTROLLED_TARGET.get(gate.kind, gate.kind) in GENERATORS
        if rotation:
            perm, phase = generator_table(gate.kind, gate.qubits, n_qubits)
            slots.append(pairs[0][1])
            perms.append(perm)
            phases.append(phase)
        steps.append((k, gate.qubits, [] if rotation else pairs, rotation))
    while steps and not (steps[-1][2] or steps[-1][3]):
        steps.pop()          # the gates before the earliest live one
    dim = 2 ** n_qubits
    return (steps, np.array(slots, dtype=int), np.array(perms, dtype=int).reshape(-1, dim),
            np.array(phases, dtype=complex).reshape(-1, dim))


def _loss_and_gradient(weights: np.ndarray, plan, walk: tuple, params: np.ndarray,
                       states: np.ndarray, targets: np.ndarray,
                       labels: np.ndarray | None = None) -> tuple[float | None, np.ndarray]:
    """`loss_and_gradient` given the readout table, the layers' plan, its
    `_live` walk and the batch's one-hot targets; the loss is None without
    `labels`."""
    n_batch = states.shape[0]
    mats, daggers, partials = plan.build(params[None, :], derivatives=True)
    forward = [states]           # forward[k + 1]: the states after gate k
    for gate, u in zip(plan.gates, mats):
        forward.append(apply_matrix(forward[-1], u, gate.qubits))

    probs = softmax((np.abs(forward[-1]) ** 2) @ weights.T)
    loss = None if labels is None else float(
        -np.log(np.maximum(probs[np.arange(n_batch), labels], 1e-300)).mean())
    costate = (((probs - targets) / n_batch) @ weights) * forward[-1]

    steps, slots, perms, phases = walk
    grad = np.zeros(params.size)
    phis, lams = [], []
    # i reaches 0 at the earliest live gate, whose undone co-state is not read
    for i, (k, qubits, pairs, rotation) in enumerate(steps, 1 - len(steps)):
        if rotation:
            phis.append(forward[k + 1])
            lams.append(costate)
        for j, slot in pairs:
            d_states = apply_matrix(forward[k], partials[k][j], qubits)
            grad[slot] += 2.0 * np.vdot(costate, d_states).real
        if i:
            costate = apply_matrix(costate, daggers[k], qubits)
    if lams:
        both = np.concatenate(phis + lams).reshape((2, len(lams)) + states.shape)
        np.add.at(grad, slots, generator_overlaps(both[1], both[0], perms, phases))
    return loss, grad


def batch_loss_and_gradient(circuit: Circuit, params: np.ndarray, feats: np.ndarray,
                            labels: np.ndarray) -> tuple[float, np.ndarray]:
    """`loss_and_gradient` on the batch's features."""
    return loss_and_gradient(circuit, params, initial_states(circuit, feats), labels)


def _step_plans(plan, theta: np.ndarray, frozen: np.ndarray | None):
    """The constant prefix and the step plan of an `sgd_train` call: `plan`'s
    gates minus every gate with no live slot whose matrix at `theta` is
    exactly the identity, split before the earliest gate with a live slot.

    Such a gate is an exact no-op for as long as its slots stay frozen, and
    the gates before the split are constant, so they are applied
    once per call.  Both sub-plans read the same global slots, so training
    on them keeps every bit.  A gate that is the identity only up to a phase
    or a rounding, such as RX(2 pi), is kept.
    """
    live = {k for k, slots in enumerate(plan.theta_slots)
            if any(frozen is None or not frozen[s] for _, s in slots)}
    kept = [k for k, u in enumerate(plan.matrices(theta[None, :]))
            if k in live or not np.array_equal(u.reshape(u.shape[-2:]), np.eye(u.shape[-1]))]
    first = next((i for i, k in enumerate(kept) if k in live), len(kept))
    gates = tuple(plan.gates[k] for k in kept)
    step = plan if len(gates) - first == len(plan.gates) else gate_plan(gates[first:])
    return gate_plan(gates[:first]), step


def sgd_train(circuit: Circuit, params0, samples, config: TrainConfig,
              proximal: tuple | None = None,
              frozen: np.ndarray | None = None) -> np.ndarray:
    """Minibatch SGD on cross-entropy, optionally plus a proximal anchor term.

    `proximal` is (z, lam, rho); its gradient contribution is
    rho * (theta - z) + lam with the difference taken on the angle circle.
    Frozen slots receive zero gradient and keep their initial values, and
    cost the gradient no derivative work.  The steps simulate the compressed
    circuit: a gate with no live slot whose matrix at the start is exactly
    the identity (a prune level at 0) is left out of the steps' plan and
    costs nothing, the kept gates before the earliest live one are applied
    once, and the result keeps every bit of the full circuit's.
    `samples` may be `Encoded`.  Parameters are wrapped to [0, 4pi) after
    every step; two runs with the same seed produce bit-identical results.
    """
    rng = np.random.default_rng(config.seed)
    theta = wrap_params(np.asarray(params0, dtype=float).copy())
    split = encode(circuit, samples)
    prefix, plan = _step_plans(gate_plan(tuple(circuit.layers)), theta, frozen)
    states = prefix.apply(split.states, theta[None, :])
    walk = _live(plan, circuit.n_qubits, theta.size, frozen)
    weights = readout_weights(circuit.measurement, circuit.n_qubits)
    targets = np.eye(weights.shape[0])[split.labels]
    n = len(split)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            _, grad = _loss_and_gradient(weights, plan, walk, theta, states[idx], targets[idx])
            if proximal is not None:
                z, lam, rho = proximal
                grad = grad + rho * circ_residual(theta, z) + lam
            if frozen is not None:
                grad[frozen] = 0.0
            theta = wrap_params(theta - config.learning_rate * grad)
    return theta
