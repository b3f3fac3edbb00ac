import math

import numpy as np
import pytest

from conftest import random_circuit
from oracle import SHIFT_RULES, param_shift_gradient
from vqcompress.circuit import (Circuit, Gate, MeasureScheme, MeasurementSpec, const, data,
                                theta)
from vqcompress.data import Sample, amplitude_state, generate_synthetic, stack
from vqcompress.errors import DataError
from vqcompress.gates import GateKind
from vqcompress import simulator, training
from vqcompress.circfile import load_reference
from vqcompress.gates import circ_residual, wrap_params
from vqcompress.training import (TIE_MARGIN, TrainConfig, batch_loss_and_gradient, hits,
                                 init_params, initial_states, loss_and_accuracy,
                                 loss_and_gradient, outputs_batch, sgd_train, softmax)

PI = math.pi


def _samples(feats, labels):
    return [Sample(np.asarray(f, dtype=float), int(l)) for f, l in zip(feats, labels)]


def test_softmax_symmetry_and_ratio():
    assert np.allclose(softmax(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-12)
    p = softmax(np.array([0.3, 0.3 + 0.9]))
    assert p[1] / p[0] == pytest.approx(math.exp(0.9), rel=1e-12)
    assert softmax(np.array([[2.0, 5.0, 1.0]])).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("outputs, label, hit", [
    ([0.3, 0.3], 0, False),                         # an exact tie is a miss for both
    ([0.3, 0.3], 1, False),
    ([0.3 + TIE_MARGIN / 2, 0.3], 0, False),        # a gap below the margin is a tie
    ([0.3 + 4 * TIE_MARGIN, 0.3], 0, True),         # a gap above it is a hit
    ([0.5, -0.2, 0.1], 2, False),                   # the label is not the top class
    ([0.5, -0.2, 0.1], 0, True),
    ([-0.7], 0, True),                              # one class: nothing to beat
], ids=["tie-0", "tie-1", "gap-below", "gap-above", "not-top", "top-of-3", "one-class"])
def test_hits_score_the_label_by_margin(outputs, label, hit):
    assert hits(np.array([outputs]), np.array([label])).tolist() == [hit]


def test_hits_score_each_row_alone():
    outputs = np.array([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5], [0.9, 0.1]])
    assert hits(outputs, np.array([1, 0, 0, 1])).tolist() == [True, True, False, False]


def test_forward_probabilities_sum_to_one():
    circ = load_reference("syn4")
    params = init_params(circ, TrainConfig(seed=0))
    probs = softmax(outputs_batch(circ, params[None],
                                  initial_states(circ, np.array([[0.2, 0.8, 0.4, 0.6]]))))[0]
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs.shape == (2,)


def test_loss_uniform_predictions_is_ln2():
    # circuit with no gates: outputs (1, 1) -> probabilities (1/2, 1/2)
    circ = Circuit(2, [], [], MeasurementSpec(2))
    samples = _samples(np.zeros((6, 1)), [0, 1, 0, 1, 0, 1])
    loss, acc = loss_and_accuracy(circ, [], samples)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    assert acc == 0.0   # every row is an exact tie, and a tie is a miss


def test_loss_empty_dataset_raises():
    circ = Circuit(2, [], [], MeasurementSpec(2))
    with pytest.raises(DataError):
        loss_and_accuracy(circ, [], [])


def test_gradient_zero_for_unmeasured_ancilla():
    # trainable gate on qubit 2, measurement reads qubits 0 and 1 only
    gates = [Gate(GateKind.RX, (2,), (theta(0),))]
    circ = Circuit(3, [], gates, MeasurementSpec(2))
    samples = _samples(np.zeros((4, 1)), [0, 1, 1, 0])
    g = batch_loss_and_gradient(circ, np.array([1.3]), *stack(samples))[1]
    assert abs(g[0]) < 1e-9


def test_single_rx_z_expectation_gradient():
    # <Z>(theta) = cos(theta).  The oracle's two-point rule on the raw output
    # gives -sin(theta); the loss gradient carries it through the chain rule
    # dL/dtheta = (p0 - [label == 0]) * d<Z0>/dtheta, since <Z1> = 1 throughout.
    circ1 = Circuit(1, [], [Gate(GateKind.RX, (0,), (theta(0),))], MeasurementSpec(1))
    feats = np.zeros((1, 1))

    def dz_dtheta(t):
        states = initial_states(circ1, feats)
        return sum(coeff * outputs_batch(circ1, np.array([[t + shift]]), states)[0, 0]
                   for shift, coeff in SHIFT_RULES["RX"])

    assert dz_dtheta(0.0) == pytest.approx(0.0, abs=1e-9)
    assert dz_dtheta(PI / 2) == pytest.approx(-1.0, abs=1e-9)

    circ2 = Circuit(2, [], [Gate(GateKind.RX, (0,), (theta(0),))], MeasurementSpec(2))
    for t in (0.0, PI / 2, 1.3):
        p0 = softmax(np.array([math.cos(t), 1.0]))[0]
        for label in (0, 1):
            _, grad = batch_loss_and_gradient(circ2, np.array([t]), feats, np.array([label]))
            assert grad[0] == pytest.approx((p0 - (label == 0)) * -math.sin(t), abs=1e-12)


def _grouping_amplitude_case():
    gates = [Gate(GateKind.RY, (0,), (theta(0),)),
             Gate(GateKind.RX, (1,), (theta(1),)),
             Gate(GateKind.CRX, (0, 1), (theta(2),)),
             Gate(GateKind.CRZ, (1, 2), (theta(3),)),
             Gate(GateKind.RZ, (2,), (theta(4),)),
             Gate(GateKind.CRY, (2, 0), (theta(5),)),
             Gate(GateKind.RY, (1,), (theta(6),))]
    circ = Circuit(3, [], gates, MeasurementSpec(3, MeasureScheme.STATE_GROUPING),
                   amplitude_input=True)
    rng = np.random.default_rng(21)
    feats = rng.uniform(0.05, 1.0, (6, 8))
    labels = np.array([0, 1, 2, 2, 1, 0])
    return circ, rng.uniform(0, 4 * PI, 7), feats, labels


def _reference_case(name, n_features):
    circ = load_reference(name)
    feats, labels = stack(generate_synthetic(n_features, 40, seed=12).train[:10])
    return circ, init_params(circ, TrainConfig(seed=12)), feats, labels


@pytest.mark.parametrize("case", ["syn4", "syn16", "grouping-amplitude"])
def test_gradient_matches_param_shift_oracle(case):
    if case == "grouping-amplitude":
        circ, params, feats, labels = _grouping_amplitude_case()
        states = np.stack([amplitude_state(f, circ.n_qubits) for f in feats])
    else:
        circ, params, feats, labels = _reference_case(case, 4 if case == "syn4" else 16)
        states = None
    _, grad = batch_loss_and_gradient(circ, params, feats, labels)
    expected = param_shift_gradient(circ, params, feats, labels, initial_states=states)
    assert np.max(np.abs(expected)) > 1e-3  # the comparison is not between zeros
    assert np.max(np.abs(grad - expected)) <= 1e-12


def _assert_matches_central_differences(circ, params, feats, labels):
    _, grad = batch_loss_and_gradient(circ, params, feats, labels)
    h = 1e-5
    for i in range(params.size):
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        fd = (batch_loss_and_gradient(circ, up, feats, labels)[0]
              - batch_loss_and_gradient(circ, dn, feats, labels)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("trial, include_u3",
                         [pytest.param(t, False, id=str(t)) for t in range(4)]
                         + [pytest.param(t, True, id=f"u3-{t}") for t in range(4)])
def test_gradient_matches_finite_differences(trial, include_u3):
    rng = np.random.default_rng((200 if include_u3 else 100) + trial)
    n = int(rng.integers(2, 4))
    circ, params = random_circuit(rng, n, int(rng.integers(3, 9)),
                                  include_u3=include_u3, trainable=True)
    feats = rng.uniform(0, 1, (3, 2))
    labels = rng.integers(0, 2, 3)
    _assert_matches_central_differences(circ, params, feats, labels)


def test_u3_slot_gradients_are_exact():
    gates = [Gate(GateKind.U3, (0,), (theta(0), theta(1), theta(2))),
             Gate(GateKind.CRY, (0, 1), (theta(3),)),
             Gate(GateKind.CU3, (1, 0), (theta(4), theta(5), theta(6)))]
    circ = Circuit(2, [], gates, MeasurementSpec(2))
    rng = np.random.default_rng(33)
    params = rng.uniform(0, 4 * PI, 7)
    samples = _samples(rng.uniform(0, 1, (3, 1)), [0, 1, 0])
    fs, ls = stack(samples)
    _assert_matches_central_differences(circ, params, fs, ls)


def test_slot_shared_across_gate_kinds_sums_gradients():
    # one slot drives an RX, a CRY and U3's lambda; its gradient is the sum
    gates = [Gate(GateKind.RY, (1,), (theta(1),)),
             Gate(GateKind.RX, (0,), (theta(0),)),
             Gate(GateKind.CRY, (0, 1), (theta(0),)),
             Gate(GateKind.U3, (1,), (theta(1), theta(2), theta(0))),
             Gate(GateKind.CRZ, (1, 0), (theta(2),))]
    circ = Circuit(2, [], gates, MeasurementSpec(2))
    rng = np.random.default_rng(44)
    params = rng.uniform(0, 4 * PI, 3)
    _assert_matches_central_differences(circ, params, np.zeros((4, 1)), np.array([0, 1, 1, 0]))


def test_gradient_with_const_and_data_encoder_u3_matches_finite_differences():
    # the encoder's U3 mixes a CONST angle with data; the layers read only theta
    encoder = [Gate(GateKind.RY, (0,), (data(0),)),
               Gate(GateKind.U3, (1,), (const(0.8), data(1), data(0)))]
    layers = [Gate(GateKind.RY, (0,), (theta(0),)),
              Gate(GateKind.U3, (1,), (theta(1), const(0.6), theta(2))),
              Gate(GateKind.CRX, (1, 0), (theta(3),)),
              Gate(GateKind.RX, (1,), (theta(4),))]
    circ = Circuit(2, encoder, layers, MeasurementSpec(2))
    rng = np.random.default_rng(55)
    params = rng.uniform(0, 4 * PI, 5)
    _assert_matches_central_differences(circ, params, rng.uniform(0, 1, (4, 2)),
                                        np.array([0, 1, 1, 0]))


def _training_case(name):
    """A circuit, a start vector and a training set that splits into uneven
    batches of 10."""
    if name == "grouping-amplitude":
        circ, params, _, _ = _grouping_amplitude_case()
        rng = np.random.default_rng(22)
        samples = _samples(rng.uniform(0.05, 1.0, (25, 8)), rng.integers(0, 3, 25))
        return circ, params, samples
    circ = load_reference(name)
    samples = generate_synthetic(4 if name == "syn4" else 16, 40, seed=13).train[:25]
    return circ, init_params(circ, TrainConfig(seed=13)), samples


def _reference_sgd(circ, params0, samples, config, proximal, frozen):
    """`sgd_train` as a loop over `batch_loss_and_gradient`, which encodes
    every batch from its features."""
    rng = np.random.default_rng(config.seed)
    theta = wrap_params(np.asarray(params0, dtype=float).copy())
    feats, labels = stack(samples)
    for _ in range(config.epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(labels), config.batch_size):
            idx = order[start:start + config.batch_size]
            _, grad = batch_loss_and_gradient(circ, theta, feats[idx], labels[idx])
            z, lam, rho = proximal
            grad = grad + rho * circ_residual(theta, z) + lam
            grad[frozen] = 0.0
            theta = wrap_params(theta - config.learning_rate * grad)
    return theta


FROZEN_LEVELS = {None: "", 0.0: "-zero", 2 * PI: "-two-pi", PI: "-pi", "all-zero": "-all-zero",
                 "lead-half-pi": "-lead-half-pi"}


@pytest.mark.parametrize("name, level", [pytest.param(name, level, id=name + tag)
                                         for name in ("syn4", "syn16", "grouping-amplitude")
                                         for level, tag in FROZEN_LEVELS.items()])
def test_sgd_train_equals_a_loop_over_batch_loss_and_gradient(name, level, monkeypatch):
    """Every third slot frozen at its start value, or at a level: at 0 its
    gates leave the step's plan; at 2 pi (a phase times I, up to rounding)
    and pi they stay.  With every slot frozen at 0 the plan is empty.  The
    kept gates before the earliest live one are applied once per call, not
    per step: with the first half of the gates frozen at pi / 2, that
    constant prefix holds at least half of them."""
    circ, p0, samples = _training_case(name)
    cfg = TrainConfig(seed=14, epochs=2)
    rng = np.random.default_rng(15)
    proximal = (rng.uniform(0, 4 * PI, p0.size), rng.normal(0, 0.1, p0.size), 2.0)
    frozen = np.zeros(p0.size, dtype=bool)
    frozen[::3] = True
    if level == "all-zero":
        frozen[:], level = True, 0.0
    if level == "lead-half-pi":
        frozen[:], level = False, PI / 2
        for gate in circ.layers[:len(circ.layers) // 2]:
            frozen[list(gate.theta_slots)] = True
    if level is not None:
        p0 = p0.copy()
        p0[frozen] = level
    kept = [g for g in circ.layers
            if not (level == 0.0 and all(frozen[s] for s in g.theta_slots))]
    prefix = next((i for i, g in enumerate(kept) if not all(frozen[s] for s in g.theta_slots)),
                  len(kept))
    plans = []
    step = training._loss_and_gradient
    monkeypatch.setattr(training, "_loss_and_gradient",
                        lambda w, plan, *a: plans.append(len(plan.gates)) or step(w, plan, *a))
    got = sgd_train(circ, p0, samples, cfg, proximal=proximal, frozen=frozen)
    assert set(plans) == {len(kept) - prefix}
    assert (len(kept) < len(circ.layers)) == (level == 0.0)
    if level == PI / 2:
        assert prefix >= len(circ.layers) // 2
    if frozen.all():
        assert np.array_equal(got, wrap_params(p0))
    else:
        assert not np.array_equal(got[~frozen], wrap_params(p0)[~frozen])
    assert np.array_equal(got, _reference_sgd(circ, p0, samples, cfg, proximal, frozen))


@pytest.mark.parametrize("name", ["syn4", "syn16", "grouping-amplitude"])
def test_loss_and_gradient_on_initial_states_equals_the_feature_call(name):
    circ, params, samples = _training_case(name)
    feats, labels = stack(samples[:10])
    loss, grad = loss_and_gradient(circ, params, initial_states(circ, feats), labels)
    want_loss, want_grad = batch_loss_and_gradient(circ, params, feats, labels)
    assert np.max(np.abs(grad)) > 1e-3  # the comparison is not between zeros
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("name, per_call", [("syn4", 27), ("syn16", 43)])
def test_a_gradient_call_applies_only_the_layers(name, per_call, monkeypatch):
    circ, params, samples = _training_case(name)
    layers = len(circ.layers)
    assert circ.layers[0].theta_slots
    assert {g.kind for g in circ.layers} <= {GateKind.RX, GateKind.RY, GateKind.RZ,
                                             GateKind.CRX, GateKind.CRY, GateKind.CRZ}
    # forward, and one undo per gate but the first, whose co-state is not
    # read again; a rotation slot's derivative is its generator's overlap,
    # which applies no matrix
    assert per_call == 2 * layers - 1
    calls = []
    _counting(monkeypatch, training, "apply_matrix", calls)
    _counting(monkeypatch, simulator, "apply_matrix", calls)
    feats, labels = stack(samples[:10])
    states = initial_states(circ, feats)
    calls.clear()
    loss_and_gradient(circ, params, states, labels)
    assert len(calls) == per_call


def _late_live_mask(circ):
    """Every slot frozen except those of every second gate in the layers'
    second half, so the backward walk can stop halfway."""
    frozen = np.ones(circ.n_thetas, dtype=bool)
    for gate in circ.layers[len(circ.layers) // 2::2]:
        frozen[list(gate.theta_slots)] = False
    return frozen


@pytest.mark.parametrize("name, mask, per_call", [("syn4", "late", 20), ("syn4", "all", 14),
                                                  ("syn16", "late", 32), ("syn16", "all", 22)])
def test_a_frozen_gradient_call_skips_the_frozen_work(name, mask, per_call, monkeypatch):
    circ, params, samples = _training_case(name)
    frozen = np.ones(circ.n_thetas, dtype=bool) if mask == "all" else _late_live_mask(circ)
    live = [sum(not frozen[s] for s in g.theta_slots) for g in circ.layers]
    first_live = next((k for k, n in enumerate(live) if n), len(live))
    n_gates = len(circ.layers)
    # forward, and one undo per gate after the earliest live one; a rotation
    # slot's derivative applies no matrix
    assert per_call == n_gates + max(n_gates - first_live - 1, 0)
    calls = []
    _counting(monkeypatch, training, "apply_matrix", calls)
    _counting(monkeypatch, simulator, "apply_matrix", calls)
    feats, labels = stack(samples[:10])
    states = initial_states(circ, feats)
    calls.clear()
    loss_and_gradient(circ, params, states, labels, frozen)
    assert len(calls) == per_call


# A retrain's frozen gates, by index into the layers: those at level 0, which
# leave the step's plan, with their kinds and qubits, and those at level pi,
# which stay.
RETRAIN_MASKS = {
    "syn4": ({0: "RY 0", 1: "RY 1", 4: "RX 1", 8: "CRZ 0,1", 13: "RX 1"}, (2, 6)),
    "syn16": ({0: "RY 0", 5: "CRX 1,2", 10: "RX 3", 14: "RZ 0", 19: "CRZ 2,3", 21: "RY 2"},
              (2, 12)),
}


@pytest.mark.parametrize("name, per_batch", [("syn4", 15), ("syn16", 31)])
def test_a_retrain_batch_applies_only_the_compressed_circuit(name, per_batch, monkeypatch):
    circ, p0, samples = _training_case(name)
    at_zero, at_pi = RETRAIN_MASKS[name]
    assert {k: f"{circ.layers[k].kind.value} {','.join(map(str, circ.layers[k].qubits))}"
            for k in at_zero} == at_zero
    frozen = np.zeros(circ.n_thetas, dtype=bool)
    p0 = p0.copy()
    for indices, level in ((at_zero, 0.0), (at_pi, PI)):
        for k in indices:
            frozen[list(circ.layers[k].theta_slots)] = True
            p0[list(circ.layers[k].theta_slots)] = level
    kept = [g for k, g in enumerate(circ.layers) if k not in at_zero]
    live = [sum(not frozen[s] for s in g.theta_slots) for g in kept]
    first_live = next(k for k, n in enumerate(live) if n)
    # forward from the earliest live kept gate, and one undo per kept gate
    # after it; the kept gates before it are applied once per call, outside
    # the step.  The full circuit makes 24 and 42 applies, and the whole
    # compressed one 16 and 31.
    assert per_batch == 2 * (len(kept) - first_live) - 1
    calls = []
    _counting(monkeypatch, training, "apply_matrix", calls)
    sgd_train(circ, p0, samples[:10], TrainConfig(seed=14, epochs=1), frozen=frozen)
    assert len(calls) == per_batch


@pytest.mark.parametrize("name", ["syn4", "syn16", "grouping-amplitude"])
def test_sgd_train_encodes_its_samples_once(name, monkeypatch):
    circ, p0, samples = _training_case(name)
    encodes, grads = [], []
    _counting(monkeypatch, training, "initial_states", encodes)
    _counting(monkeypatch, training, "_loss_and_gradient", grads)  # one per batch
    sgd_train(circ, p0, samples, TrainConfig(seed=14, epochs=3))
    assert (len(encodes), len(grads)) == (1, 3 * 3)  # 25 samples in batches of 10


def test_sgd_is_deterministic():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=1)
    cfg = TrainConfig(seed=5, epochs=3)
    p0 = init_params(circ, cfg)
    a = sgd_train(circ, p0, ds.train, cfg)
    b = sgd_train(circ, p0, ds.train, cfg)
    assert np.array_equal(a, b)


def test_sgd_wraps_parameters():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=1)
    params = sgd_train(circ, init_params(circ, TrainConfig(seed=2)), ds.train,
                       TrainConfig(seed=2, epochs=2))
    assert np.all(params >= 0) and np.all(params < 4 * PI)


def test_proximal_dominance_pulls_theta_to_z():
    # lr * rho < 1 keeps the prox descent stable; the residual floor is
    # |loss gradient| / rho, so a large rho parks theta at z
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=3)
    cfg = TrainConfig(seed=3, epochs=30, learning_rate=2e-4)
    p0 = init_params(circ, cfg)
    z = np.full(circ.n_thetas, 1.0)
    lam = np.zeros(circ.n_thetas)
    out = sgd_train(circ, p0, ds.train, cfg, proximal=(z, lam, 2000.0))
    assert np.max(np.abs(out - z)) < 1e-3


def test_frozen_slots_do_not_move():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=4)
    cfg = TrainConfig(seed=4, epochs=3)
    p0 = init_params(circ, cfg)
    frozen = np.zeros(circ.n_thetas, dtype=bool)
    frozen[[0, 5, 9]] = True
    out = sgd_train(circ, p0, ds.train, cfg, frozen=frozen)
    assert np.array_equal(out[frozen], p0[frozen])
    assert not np.array_equal(out[~frozen], p0[~frozen])


def test_training_loss_decreases():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=6)
    p0 = init_params(circ, TrainConfig(seed=6))
    trained = [sgd_train(circ, p0, ds.train, TrainConfig(seed=6, epochs=e)) for e in (4, 40)]
    initial, short, long = (loss_and_accuracy(circ, p, ds.train)[0] for p in [p0] + trained)
    assert long < short < initial


def test_training_reaches_high_accuracy():
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=0)
    cfg = TrainConfig(seed=0, epochs=60)
    params = sgd_train(circ, init_params(circ, cfg), ds.train, cfg)
    _, acc = loss_and_accuracy(circ, params, ds.train)
    assert acc >= 0.9


def test_amplitude_encoding_training_path():
    gates = [Gate(GateKind.RY, (0,), (theta(0),)),
             Gate(GateKind.CRX, (0, 1), (theta(1),)),
             Gate(GateKind.RY, (1,), (theta(2),))]
    circ = Circuit(2, [], gates, MeasurementSpec(2), amplitude_input=True)
    ds = generate_synthetic(4, 100, seed=9)           # 4 features == 2^2 amplitudes
    cfg = TrainConfig(seed=9, epochs=10)
    params = sgd_train(circ, init_params(circ, cfg), ds.train, cfg)
    loss, acc = loss_and_accuracy(circ, params, ds.test)
    assert np.isfinite(loss) and 0.0 <= acc <= 1.0
    probs = softmax(outputs_batch(circ, params[None],
                                  initial_states(circ, ds.test[0].features[None])))[0]
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
