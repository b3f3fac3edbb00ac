"""The stacked gate-matrix plan: bit-identical to building every gate's
matrices on its own, with one stacked build per call, however many gate
kinds the plan holds."""

import math

import numpy as np
import pytest

import oracle
from conftest import random_circuit, random_state
from vqcompress import gates, recl, simulator, training
from vqcompress.circfile import load_reference
from vqcompress.circuit import (Circuit, Gate, MeasureScheme, MeasurementSpec,
                                const, data, theta)
from vqcompress.data import Sample, generate_synthetic, stack
from vqcompress.gates import GateKind, gate_mats_batch
from vqcompress.lut import build_lut
from vqcompress.simulator import run_batch, run_circuit
from vqcompress.training import TrainConfig, batch_loss_and_gradient, init_params, initial_states
from vqcompress.transpile import decompose_kind, lower_circuit, lower_gates, probe_features

PI = math.pi
FIXED_KINDS = {GateKind.X, GateKind.SX, GateKind.ID, GateKind.CX}


def _reference_case(name):
    circ = load_reference(name)
    n_features = 4 if name == "syn4" else 16
    feats, labels = stack(generate_synthetic(n_features, 40, seed=12).train[:10])
    return circ, init_params(circ, TrainConfig(seed=12)), feats, labels


def _amplitude_case():
    gates = [Gate(GateKind.RY, (0,), (theta(0),)),
             Gate(GateKind.CRX, (0, 1), (theta(1),)),
             Gate(GateKind.CRZ, (1, 2), (theta(2),)),
             Gate(GateKind.U3, (2,), (theta(3), theta(4), theta(5))),
             Gate(GateKind.CX, (0, 2)),
             Gate(GateKind.CRY, (2, 0), (theta(6),)),
             Gate(GateKind.RY, (1,), (theta(7),))]
    circ = Circuit(3, [], gates, MeasurementSpec(3, MeasureScheme.STATE_GROUPING),
                   amplitude_input=True)
    rng = np.random.default_rng(21)
    feats = rng.uniform(0.05, 1.0, (6, 8))
    labels = np.array([0, 1, 2, 2, 1, 0])
    return circ, rng.uniform(0, 4 * PI, 8), feats, labels


def _random_case(seed):
    rng = np.random.default_rng(seed)
    circ, params = random_circuit(rng, 3, 40, trainable=True)
    kinds = {g.kind for g in circ.layers}
    assert {GateKind.U3, GateKind.CU3} <= kinds and kinds & FIXED_KINDS
    return circ, params, rng.uniform(0, 1, (5, 1)), rng.integers(0, 2, 5)


def _mixed_circuit():
    """Slot 0 drives an RX and a CRY, and U3s hold CONST angles: in the
    encoder next to a data slot, in the layers next to theta slots.  The
    encoder's RY group mixes data and CONST gates, and it holds a fixed gate."""
    encoder = [Gate(GateKind.RY, (0,), (data(0),)),
               Gate(GateKind.RY, (1,), (data(1),)),
               Gate(GateKind.RZ, (2,), (data(2),)),
               Gate(GateKind.CRX, (2, 1), (data(1),)),
               Gate(GateKind.RY, (2,), (const(0.3),)),
               Gate(GateKind.SX, (0,)),
               Gate(GateKind.U3, (2,), (const(1.1), data(2), const(1.9)))]
    layers = [Gate(GateKind.RX, (0,), (theta(0),)),
              Gate(GateKind.U3, (1,), (theta(1), const(0.7), theta(2))),
              Gate(GateKind.CRY, (0, 2), (theta(0),)),
              Gate(GateKind.RY, (2,), (theta(3),)),
              Gate(GateKind.CX, (1, 0)),
              Gate(GateKind.RZ, (1,), (const(2.3),)),
              Gate(GateKind.RZ, (0,), (theta(4),)),
              Gate(GateKind.CU3, (1, 2), (theta(5), theta(6), theta(2)))]
    return Circuit(3, encoder, layers, MeasurementSpec(2))


def _mixed_case():
    rng = np.random.default_rng(23)
    return (_mixed_circuit(), rng.uniform(0, 4 * PI, 7), rng.uniform(0, 1, (6, 3)),
            rng.integers(0, 2, 6))


CASES = {"syn4": lambda: _reference_case("syn4"), "syn16": lambda: _reference_case("syn16"),
         "amplitude": _amplitude_case, "mixed": _mixed_case,
         **{f"random-{s}": (lambda s=s: _random_case(s)) for s in (5, 6, 7)}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_gradient_is_bit_identical_to_per_gate_building(case):
    circ, params, feats, labels = CASES[case]()
    loss, grad = batch_loss_and_gradient(circ, params, feats, labels)
    want_loss, want_grad = oracle.per_gate_loss_and_gradient(circ, params, feats, labels)
    assert np.max(np.abs(grad)) > 1e-3  # the comparison is not between zeros
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)


def _frozen_mask(circ, name):
    """Slots to freeze: none, all, a seeded half, or one slot of the first
    three-angle gate (U3 or CU3), whose group stays live."""
    frozen = np.zeros(circ.n_thetas, dtype=bool)
    if name == "all":
        frozen[:] = True
    elif name == "random":
        frozen = np.random.default_rng(66).random(circ.n_thetas) < 0.5
    elif name == "one-u3-slot":
        u3 = next(g for g in circ.layers if g.kind in (GateKind.U3, GateKind.CU3))
        frozen[u3.theta_slots[0]] = True
    return frozen


FROZEN_CASES = [(case, mask) for case in sorted(CASES)
                for mask in ("none", "all", "random", "one-u3-slot")
                if mask != "one-u3-slot" or case not in ("syn4", "syn16")]


@pytest.mark.parametrize("case, mask", FROZEN_CASES)
def test_frozen_gradient_is_the_unfrozen_one_with_frozen_slots_zeroed(case, mask):
    circ, params, feats, labels = CASES[case]()
    states = initial_states(circ, feats)
    frozen = _frozen_mask(circ, mask)
    full_loss, full = training.loss_and_gradient(circ, params, states, labels)
    loss, grad = training.loss_and_gradient(circ, params, states, labels, frozen)
    want = full.copy()
    want[frozen] = 0.0
    assert np.max(np.abs(full)) > 1e-3  # the comparison is not between zeros
    assert np.any(want != 0.0) == (not frozen.all())
    assert loss == full_loss
    assert np.array_equal(grad, want)


def _half_grid(rng, n):
    """Seeded generic angles, about half of them moved onto the pi/2 grid so
    that the special lowering templates fire."""
    angles = rng.uniform(0, 4 * PI, n)
    on_grid = rng.random(n) < 0.5
    angles[on_grid] = rng.integers(0, 8, on_grid.sum()) * PI / 2
    return angles


def _per_gate_lowering(circ, thetas, feats):
    """Each gate lowered from its own angles, encoder first, then layers."""
    out = []
    for gate in circ.all_gates:
        angles = oracle.resolve_angles(gate, thetas, feats)
        row = () if angles is None else tuple(np.atleast_1d(angles[0]).tolist())
        out.append(decompose_kind(gate.kind, gate.qubits, row))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_lowering_the_plan_angles_keeps_every_bit(case):
    circ, _, feats, _ = CASES[case]()
    rng = np.random.default_rng(71)
    theta_rows = np.stack([_half_grid(rng, circ.n_thetas) for _ in range(5)])
    # lower_circuit equals the per-gate reference, on probe and real features
    for row in [probe_features(circ.n_data)] + [f[None, :] for f in feats]:
        want = _per_gate_lowering(circ, theta_rows[:1], row)
        assert lower_circuit(circ, theta_rows[:1], row) == want
    assert any(physical for physical in want)
    # a (C, P) stack lowers each row as that row alone does
    for gates, values in ((tuple(circ.layers), theta_rows), (tuple(circ.encoder), PI * feats)):
        lowered = lower_gates(gates, values)
        assert len(lowered) == len(values)
        assert all(lowered[c] == lower_gates(gates, values[c:c + 1])[0]
                   for c in range(len(values)))
    # fixed kinds alone yield no angles, and still one lowering per row
    fixed = tuple(g for g in circ.all_gates if g.kind in FIXED_KINDS) + (Gate(GateKind.X, (0,)),)
    want = [decompose_kind(g.kind, g.qubits, ()) for g in fixed]
    assert lower_gates(fixed, theta_rows) == [want] * len(theta_rows)


def test_run_batch_on_state_rows_matches_per_gate_loop():
    rng = np.random.default_rng(61)
    for _ in range(4):
        circ, params = random_circuit(rng, 3, 30, trainable=True)
        states = np.stack([random_state(rng, 3) for _ in range(7)])
        assert np.array_equal(run_batch(circ, params, states),
                              oracle.per_gate_run_batch(circ, params, states))


@pytest.mark.parametrize("case", ["syn16", "mixed"])
def test_run_batch_with_one_theta_row_against_feature_rows_matches_per_gate_loop(case):
    circ, params, feats, _ = CASES[case]()
    states = initial_states(circ, feats)
    assert np.array_equal(states, oracle.per_gate_initial_states(circ, feats))
    assert np.array_equal(run_batch(circ, params, states),
                          oracle.per_gate_run_batch(circ, params, states))


def test_run_circuit_on_one_state_matches_per_gate_loop():
    rng = np.random.default_rng(63)
    circ, params = random_circuit(rng, 3, 30, trainable=True)
    state = random_state(rng, 3)
    got = run_circuit(circ, params, state)
    assert got.shape == (8,)
    assert np.array_equal(got, oracle.per_gate_run_batch(circ, params, state[None, :])[0])


def _bit_for_bit(got, want):
    """Equal values, and equal sign bits of the real and imaginary parts."""
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got.real), np.signbit(want.real))
            and np.array_equal(np.signbit(got.imag), np.signbit(want.imag)))


def _recl_theta_rows(circ, theta, gi, n_rows, rng):
    """(C, P) rows as ReCL builds them for candidate gate gi: theta repeated,
    with the gate's slots set to a different value per row, half of them on
    the pi/2 grid."""
    thetas = np.repeat(theta[None, :], n_rows, axis=0)
    slots = list(circ.layers[gi].theta_slots)
    thetas[:, slots] = np.stack([_half_grid(rng, len(slots)) for _ in range(n_rows)])
    return thetas


@pytest.mark.parametrize("case", sorted(CASES))
def test_multi_row_matrices_are_the_per_gate_ones_bit_for_bit(case):
    circ, params, feats, _ = CASES[case]()
    rng = np.random.default_rng(73)
    # the encoder on each sample row
    got = simulator.gate_plan(tuple(circ.encoder)).matrices(PI * feats)
    no_thetas = np.zeros((len(feats), 0))
    for gate, mats in zip(circ.encoder, got):
        assert _bit_for_bit(mats, gate_mats_batch(
            gate.kind, oracle.resolve_angles(gate, no_thetas, feats)))
    # every candidate gate's C theta rows, through its reader gates' plan as
    # ReCL builds them and through the whole layers' plan
    theta = _half_grid(rng, circ.n_thetas)
    checked = 0
    for gi in circ.trainable_indices():
        thetas = _recl_theta_rows(circ, theta, gi, 4, rng)
        slots = set(circ.layers[gi].theta_slots)
        readers = tuple(g for g in circ.layers if slots & set(g.theta_slots))
        for seq in (readers, tuple(circ.layers)):
            for gate, mats in zip(seq, simulator.gate_plan(seq).matrices(thetas)):
                assert _bit_for_bit(mats, gate_mats_batch(
                    gate.kind, oracle.resolve_angles(gate, thetas, None)))
                checked += 1
    assert checked > len(circ.layers)


@pytest.fixture
def builds(monkeypatch):
    """Per matrix-building call made through the simulator, training or recl
    module, (function, blocks built): `stacked_blocks` builds gates x rows
    blocks, `controlled_mats` embeds, and `gate_mats_batch` builds one kind's
    matrices.  Calls inside `gates`, such as `stacked_blocks`' formula calls,
    are not counted."""
    calls = []

    def counting(name, original):
        def counted(*args):
            n = args[1].shape[1] * args[1].shape[2] if name == "stacked_blocks" else 1
            calls.append((name, n))
            return original(*args)
        return counted

    for name in ("stacked_blocks", "controlled_mats", "gate_mats_batch"):
        original = getattr(gates, name)
        for module in (simulator, training, recl):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return calls


def _all_kinds_circuit():
    """Syn16's layers with one gate of each other kind inserted: all 12."""
    circ = load_reference("syn16")
    slot = circ.n_thetas
    extra = [Gate(GateKind.U3, (0,), (theta(slot), theta(slot + 1), const(0.4))),
             Gate(GateKind.CU3, (2, 1), (theta(slot + 2), theta(slot + 3), theta(slot + 4))),
             Gate(GateKind.CX, (1, 3)), Gate(GateKind.SX, (2,)), Gate(GateKind.X, (0,)),
             Gate(GateKind.ID, (3,))]
    layers = circ.layers[:6] + extra + circ.layers[6:]
    return Circuit(circ.n_qubits, circ.encoder, layers, circ.measurement)


def test_a_gradient_call_builds_once_whatever_the_kinds(builds):
    syn16, params, feats, labels = _reference_case("syn16")
    every = _all_kinds_circuit()
    assert len({g.kind for g in syn16.layers}) == 6
    assert {g.kind for g in every.layers} == set(GateKind)
    counts = []
    for circ in (syn16, every):
        p = np.resize(params, circ.n_thetas)
        states = initial_states(circ, feats)
        training.loss_and_gradient(circ, p, states, labels)  # the plan is built and cached
        builds.clear()
        loss, grad = training.loss_and_gradient(circ, p, states, labels)
        assert np.array_equal(grad, oracle.per_gate_loss_and_gradient(circ, p, feats, labels)[1])
        counts.append(sorted(name for name, _ in builds))
    # one stacked build and one controlled embedding, not one build per kind
    # (6 on syn16, 12 on the other)
    assert counts[0] == counts[1] == ["controlled_mats", "stacked_blocks"]


def test_sgd_train_looks_up_the_layers_plan_once(monkeypatch):
    circ, params, feats, labels = _reference_case("syn4")
    samples = [Sample(f, int(l)) for f, l in zip(feats, labels)]
    lookups, original = [], training.gate_plan

    def counted(gates):
        lookups.append(gates)
        return original(gates)

    monkeypatch.setattr(training, "gate_plan", counted)
    training.sgd_train(circ, params, samples, TrainConfig(seed=3, epochs=3, batch_size=4))
    # 3 epochs of 3 batches; the encoder's plan is looked up once too
    assert lookups.count(tuple(circ.layers)) == 1
    assert lookups.count(tuple(circ.encoder)) == 1


def test_sgd_train_builds_its_targets_and_backward_walk_once(monkeypatch):
    """The one-hot targets and the backward walk are the same for every step
    of a call, so a call of three batches builds as many of each as a call
    of nine, and every step reads the same walk."""
    circ, params, feats, labels = _reference_case("syn4")
    samples = [Sample(f, int(l)) for f, l in zip(feats, labels)]
    eyes, walks, steps = [], [], []
    eye, live, step = np.eye, training._live, training._loss_and_gradient
    monkeypatch.setattr(np, "eye", lambda *a, **k: eyes.append(a) or eye(*a, **k))
    monkeypatch.setattr(training, "_live", lambda *a: walks.append(a) or live(*a))
    monkeypatch.setattr(training, "_loss_and_gradient",
                        lambda w, plan, walk, *a: steps.append(walk) or step(w, plan, walk, *a))
    counts = []
    for epochs in (1, 3):
        eyes.clear(), walks.clear(), steps.clear()
        training.sgd_train(circ, params, samples, TrainConfig(seed=3, epochs=epochs, batch_size=4))
        assert all(walk is steps[0] for walk in steps)
        counts.append((len(steps), len(eyes), len(walks)))
    (steps1, eyes1, walks1), (steps3, eyes3, walks3) = counts
    assert (steps1, steps3) == (3, 9)
    assert (eyes1, walks1) == (eyes3, walks3)


def _shared_slot_circuit():
    gates = [Gate(GateKind.RY, (0,), (theta(0),)),
             Gate(GateKind.CRX, (0, 1), (theta(1),)),
             Gate(GateKind.RX, (1,), (theta(0),))]
    return Circuit(2, [], gates, MeasurementSpec(2))


@pytest.mark.parametrize("name", ["syn16", "shared-slot"])
def test_recl_candidates_rebuild_only_their_reader_gates(name, builds):
    rng = np.random.default_rng(64)
    if name == "syn16":
        circ = load_reference("syn16")
        samples = generate_synthetic(16, 100, seed=64).train[:20]
    else:
        circ = _shared_slot_circuit()
        samples = [Sample(f, int(l)) for f, l in zip(rng.uniform(0, 1, (20, 1)),
                                                      rng.integers(0, 2, 20))]
    th = rng.uniform(0, 4 * PI, circ.n_thetas)
    lut = build_lut(circ)
    candidates = {gi: lut.entries.get(circ.layers[gi].kind, [])
                  for gi in circ.trainable_indices()}
    recl._sweep(circ, th, candidates, samples)

    readers = {gi: [g for g in circ.layers
                    if set(g.theta_slots) & set(circ.layers[gi].theta_slots)]
               for gi in candidates}
    base = len(samples) * len(circ.encoder) + len(circ.layers)
    per_level = sum(len(levels) * len(readers[gi]) for gi, levels in candidates.items())
    built = [n for name, n in builds if name == "stacked_blocks"]
    # the encoder's matrices once (one row per sample), theta's once (one row
    # per layer gate), then one matrix per reader gate and candidate level,
    # built by one stacked call for all of a candidate gate's levels
    assert sum(built) == base + per_level
    # one stacked build per plan call: the encoder's (when it has gates), the
    # layers', and each candidate gate's readers'
    assert len(built) == bool(circ.encoder) + 1 + sum(1 for levels in candidates.values() if levels)
