import itertools
import math

import numpy as np
import pytest

from vqcompress.circfile import load_reference
from vqcompress.circuit import Circuit, Gate, MeasureScheme, MeasurementSpec, theta
from vqcompress.data import Sample, generate_synthetic, stack
from vqcompress.gates import GateKind
from vqcompress.lut import CompressionLUT, CompressionLevel, LevelTag, build_lut
from vqcompress.recl import _sweep, reconstruct_lut
from vqcompress.simulator import run_batch
from vqcompress import recl, transpile
from vqcompress.training import (TrainConfig, init_params, initial_states, outputs_batch,
                                 softmax)
from vqcompress.transpile import DepthScan, lower_circuit, tcd

PI = math.pi


def toy_circuit():
    gates = [Gate(GateKind.RY, (0,), (theta(0),)),
             Gate(GateKind.CRX, (0, 1), (theta(1),)),
             Gate(GateKind.RX, (1,), (theta(2),))]
    return Circuit(2, [], gates, MeasurementSpec(2))


def toy_samples(rng, n=12):
    feats = rng.uniform(0, 1, (n, 2))
    labels = rng.integers(0, 2, n)
    return [Sample(f, int(l)) for f, l in zip(feats, labels)]


def brute_force_metric(circ, th, gi, level, samples):
    """Independent implementation: explicit substitution, accuracy, speedup."""
    new = np.array(th, copy=True)
    new[circ.layers[gi].theta_slots[0]] = level.value[0]
    correct = 0
    for s in samples:
        probs = softmax(outputs_batch(circ, new[None, :], s.features[None, :]))[0]
        correct += int(np.argmax(probs)) == s.label
    acc = correct / len(samples)
    t0, t1 = tcd(circ, th), max(tcd(circ, new), 1)
    return acc * t0 / t1


def test_metric_is_accuracy_when_depth_unchanged():
    circ = toy_circuit()
    rng = np.random.default_rng(1)
    samples = toy_samples(rng)
    th = np.array([1.3, 2.2, 0.9])
    lut = build_lut(circ)
    # quantize RX to 3pi/2 (depth 3): same depth class change alters TCD, so
    # pick a level equal to the current generic depth situation instead:
    # moving RY to a generic-depth-4 value is not in the LUT, so check the
    # tau = 1 identity directly by substituting the gate's own nearest value.
    level = next(lv for lv in lut.entries[GateKind.RY] if lv.value == (PI,))
    m = _sweep(circ, th, {0: [level]}, samples)[0][0]
    base = tcd(circ, th)
    new = th.copy()
    new[0] = PI
    expected_acc = brute_force_metric(circ, th, 0, level, samples)
    assert m == pytest.approx(expected_acc)
    if tcd(circ, new) == base:
        assert m == pytest.approx(sum(int(np.argmax(softmax(outputs_batch(
            circ, new[None, :], s.features[None, :]))[0])) == s.label
            for s in samples) / len(samples))


def test_exhaustive_sweep_matches_brute_force():
    circ = toy_circuit()
    rng = np.random.default_rng(3)
    samples = toy_samples(rng)
    th = rng.uniform(0, 4 * PI, 3)
    lut = build_lut(circ)
    for gi, level in itertools.chain.from_iterable(
            ((gi, lv) for lv in lut.entries[circ.layers[gi].kind])
            for gi in range(3)):
        got = _sweep(circ, th, {gi: [level]}, samples)[gi][0]
        want = brute_force_metric(circ, th, gi, level, samples)
        assert got == pytest.approx(want)


def test_reconstruct_argmax_matches_exhaustive():
    circ = toy_circuit()
    rng = np.random.default_rng(4)
    samples = toy_samples(rng)
    th = rng.uniform(0, 4 * PI, 3)
    lut = build_lut(circ)
    recon = reconstruct_lut(circ, th, lut, samples)
    assert set(recon.levels) == {0, 1, 2}
    for gi in range(3):
        scored = [(brute_force_metric(circ, th, gi, lv, samples),
                   lv) for lv in lut.entries[circ.layers[gi].kind]]
        best = max(s for s, _ in scored)
        ties = [lv for s, lv in scored if s == pytest.approx(best)]
        winner = min(ties, key=lambda lv: (lv.depth, lv.value))
        assert recon.levels[gi] == winner
        assert recon.metrics[gi] == pytest.approx(best)


def test_membership_invariant():
    circ = toy_circuit()
    rng = np.random.default_rng(5)
    samples = toy_samples(rng)
    th = rng.uniform(0, 4 * PI, 3)
    lut = build_lut(circ)
    recon = reconstruct_lut(circ, th, lut, samples)
    for gi, lv in recon.levels.items():
        assert lv in lut.entries[circ.layers[gi].kind]


def test_gate_already_at_pruning_level_selects_it():
    circ = toy_circuit()
    rng = np.random.default_rng(6)
    samples = toy_samples(rng)
    th = np.array([1.1, 0.0, 2.6])  # CRX already at its pruning level
    lut = build_lut(circ)
    recon = reconstruct_lut(circ, th, lut, samples)
    assert recon.levels[1].value == (0.0,)


def test_reconstruct_is_deterministic():
    circ = toy_circuit()
    rng = np.random.default_rng(7)
    samples = toy_samples(rng)
    th = rng.uniform(0, 4 * PI, 3)
    lut = build_lut(circ)
    a = reconstruct_lut(circ, th, lut, samples)
    b = reconstruct_lut(circ, th, lut, samples)
    assert a.levels == b.levels and a.metrics == b.metrics


def test_zero_depth_guard_warns():
    circ = Circuit(1, [], [Gate(GateKind.RX, (0,), (theta(0),))], MeasurementSpec(1))
    samples = [Sample(np.array([0.2]), 0)]
    lut = build_lut(circ)
    prune = lut.entries[GateKind.RX][0]
    with pytest.warns(UserWarning):
        m = _sweep(circ, np.array([1.0]), {0: [prune]}, samples)[0][0]
    assert m == pytest.approx(tcd(circ, np.array([1.0])) / 1.0)


def from_scratch_metric(circ, th, gi, level, samples):
    """Full-batch accuracy and tcd of the substituted vector, no shared state."""
    new = np.array(th, copy=True)
    for slot, val in zip(circ.layers[gi].theta_slots, level.value):
        new[slot] = val
    feats, labels = stack(samples)
    probs = softmax(outputs_batch(circ, new[None, :], feats))
    acc = float((probs.argmax(axis=1) == labels).mean())
    return acc * (tcd(circ, th) / max(tcd(circ, new), 1))


def assert_sweep_matches_from_scratch(circ, th, lut, samples):
    candidates = {gi: lut.entries.get(circ.layers[gi].kind, [])
                  for gi in circ.trainable_indices()}
    swept = _sweep(circ, th, candidates, samples)
    assert set(swept) == set(candidates)
    for gi, levels in candidates.items():
        assert swept[gi] == [from_scratch_metric(circ, th, gi, lv, samples) for lv in levels]


def _grid_theta(circ, seed):
    """Generic angles with every other trainable gate on the pi/2 grid."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0, 4 * PI, circ.n_thetas)
    for gi in circ.trainable_indices()[::2]:
        for slot in circ.layers[gi].theta_slots:
            th[slot] = int(rng.integers(8)) * PI / 2
    return th


def test_sweep_equals_from_scratch_on_syn16_with_grid_angles():
    circ = load_reference("syn16")
    samples = generate_synthetic(16, 100, seed=21).train
    th = _grid_theta(circ, 21)
    lut = build_lut(circ)
    assert_sweep_matches_from_scratch(circ, th, lut, samples)
    recon = reconstruct_lut(circ, th, lut, samples)
    for gi, lv in recon.levels.items():
        assert recon.metrics[gi] == from_scratch_metric(circ, th, gi, lv, samples)


def test_sweep_equals_from_scratch_on_syn4():
    circ = load_reference("syn4")
    lut = build_lut(circ)
    for seed in (601, 1601):
        samples = generate_synthetic(4, 200, seed=seed).train
        for th in (init_params(circ, TrainConfig(seed=seed)), _grid_theta(circ, seed)):
            assert_sweep_matches_from_scratch(circ, th, lut, samples)


def test_sweep_equals_from_scratch_with_one_level_per_gate():
    # C = 1: every candidate batch holds a single row of states
    circ = load_reference("syn16")
    samples = generate_synthetic(16, 100, seed=777).train
    lut = build_lut(circ)
    one = CompressionLUT({kind: levels[:1] for kind, levels in lut.entries.items()})
    assert all(len(levels) == 1 for levels in one.entries.values())
    assert_sweep_matches_from_scratch(circ, _grid_theta(circ, 777), one, samples)


def test_sweep_skips_gates_without_levels():
    # the quantize-only LUT has no RZ or CRZ levels: those gates get an empty
    # metric list, and the gates around them are still evaluated exactly
    circ = load_reference("syn4")
    samples = generate_synthetic(4, 200, seed=777).train
    lut = build_lut(circ).filtered(LevelTag.QUANTIZE)
    empty = [gi for gi in circ.trainable_indices()
             if not lut.entries.get(circ.layers[gi].kind)]
    assert empty and len(empty) < len(circ.trainable_indices())
    th = _grid_theta(circ, 777)
    assert_sweep_matches_from_scratch(circ, th, lut, samples)
    assert all(_sweep(circ, th, {gi: []}, samples) == {gi: []} for gi in empty)


def test_batched_final_states_equal_per_candidate_run_batch(monkeypatch):
    # one candidate gate: its C levels' final states, read as the (C * B, 2^n)
    # rows the readout sees, equal run_batch of each substituted theta
    circ = load_reference("syn16")
    samples = generate_synthetic(16, 100, seed=601).train
    th = init_params(circ, TrainConfig(seed=601))
    gi = next(gi for gi in circ.trainable_indices() if circ.layers[gi].kind is GateKind.RY)
    levels = build_lut(circ).entries[GateKind.RY]
    seen, measure = [], recl.measure_outputs_batch

    def captured(states, spec):
        seen.append(states.copy())
        return measure(states, spec)

    monkeypatch.setattr(recl, "measure_outputs_batch", captured)
    _sweep(circ, th, {gi: levels}, samples)
    feats, _ = stack(samples)
    start = initial_states(circ, feats)
    [rows] = seen
    assert rows.shape == (len(levels) * len(samples), 2 ** circ.n_qubits)
    for c, level in enumerate(levels):
        new = np.array(th, copy=True)
        new[list(circ.layers[gi].theta_slots)] = level.value
        want = run_batch(circ, new, start)
        assert np.array_equal(rows[c * len(samples):(c + 1) * len(samples)], want)


def test_sweep_applies_each_suffix_gate_once_per_candidate_gate(monkeypatch):
    # the prefix runs once up to the last candidate gate's first reader, and
    # each candidate gate applies the gates from its first reader on once for
    # all of its levels
    circ = load_reference("syn16")
    samples = generate_synthetic(16, 100, seed=1601).train
    th = init_params(circ, TrainConfig(seed=1601))
    lut = build_lut(circ)
    candidates = {gi: lut.entries.get(circ.layers[gi].kind, [])
                  for gi in circ.trainable_indices()}
    applied, apply = [], recl.apply_matrix

    def counted(states, mats, qubits):
        applied.append(qubits)
        return apply(states, mats, qubits)

    monkeypatch.setattr(recl, "apply_matrix", counted)
    _sweep(circ, th, candidates, samples)
    firsts = {gi: next(k for k, g in enumerate(circ.layers)
                       if set(g.theta_slots) & set(circ.layers[gi].theta_slots))
              for gi in candidates}
    n = len(circ.layers)
    assert len(applied) == max(firsts.values()) + sum(n - f for f in firsts.values())
    # one suffix per level, as a per-level loop runs it, is several times more
    assert len(applied) < sum(len(candidates[gi]) * (n - f) for gi, f in firsts.items()) / 4


def test_slot_read_before_and_after_another_gate():
    # theta(0) is read by the first and the last gate, with CRX between them:
    # moving RX's slot must re-lower and re-simulate from the RY gate on.
    gates = [Gate(GateKind.RY, (0,), (theta(0),)),
             Gate(GateKind.CRX, (0, 1), (theta(1),)),
             Gate(GateKind.RX, (1,), (theta(0),))]
    circ = Circuit(2, [], gates, MeasurementSpec(2))
    lut = build_lut(circ)
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        samples = toy_samples(rng, n=40)
        th = rng.uniform(0, 4 * PI, 2)
        assert_sweep_matches_from_scratch(circ, th, lut, samples)
        for lv in lut.entries[GateKind.RX]:
            assert _sweep(circ, th, {2: [lv]}, samples)[2][0] == \
                from_scratch_metric(circ, th, 2, lv, samples)
    # pruning theta(0) empties both readers, so the depth sees both re-lowered
    prune = lut.entries[GateKind.RX][0]
    assert prune.value == (0.0,)
    th = np.array([1.3, 2.2])
    new = np.array([0.0, 2.2])
    assert tcd(circ, new) < tcd(circ, th) - 4
    samples = toy_samples(np.random.default_rng(9), n=40)
    assert _sweep(circ, th, {2: [prune]}, samples)[2][0] == \
        from_scratch_metric(circ, th, 2, prune, samples)


def test_sweep_equals_from_scratch_with_amplitude_encoding():
    # amplitude-encoded input states seed the running state instead of |0...0>
    gates = [Gate(GateKind.RY, (0,), (theta(0),)),
             Gate(GateKind.CRX, (0, 1), (theta(1),)),
             Gate(GateKind.RZ, (2,), (theta(2),)),
             Gate(GateKind.CRY, (1, 2), (theta(3),)),
             Gate(GateKind.RX, (2,), (theta(0),))]
    circ = Circuit(3, [], gates, MeasurementSpec(3, MeasureScheme.STATE_GROUPING),
                   amplitude_input=True)
    rng = np.random.default_rng(31)
    samples = [Sample(rng.uniform(0.1, 1.0, 8), int(rng.integers(3))) for _ in range(30)]
    th = rng.uniform(0, 4 * PI, 4)
    th[1] = PI
    assert_sweep_matches_from_scratch(circ, th, build_lut(circ), samples)


def test_rz_merge_across_gate_boundary_changes_candidate_depth():
    # RZ(pi/2) RZ(theta) merge into one RZ; at theta = 3pi/2 the merged angle
    # is 2pi and the peephole pass drops it, which only a global pass sees.
    gates = [Gate(GateKind.SX, (0,)),
             Gate(GateKind.RZ, (0,), (theta(0),)),
             Gate(GateKind.RZ, (0,), (theta(1),)),
             Gate(GateKind.SX, (0,))]
    circ = Circuit(1, [], gates, MeasurementSpec(1))
    th = np.array([PI / 2, 1.3])
    level = CompressionLevel(1, (3 * PI / 2,), LevelTag.QUANTIZE)
    samples = [Sample(np.array([0.5]), 0)] * 4
    assert tcd(circ, th) == 3
    assert tcd(circ, np.array([PI / 2, 3 * PI / 2])) == 2
    assert _sweep(circ, th, {2: [level]}, samples)[2][0] == 1.5
    swept = _sweep(circ, th, {1: [level], 2: [level]}, samples)
    assert swept == {1: [1.0], 2: [1.5]}


def test_candidates_scan_only_the_gates_from_their_first_reader(monkeypatch):
    circ = load_reference("syn16")
    samples = generate_synthetic(16, 100, seed=601).train
    th = init_params(circ, TrainConfig(seed=601))
    lut = build_lut(circ)
    fed, joins, peephole_calls = [], [], []
    feed, join, peephole = DepthScan.feed, DepthScan.join, transpile.peephole_optimize

    def counted_feed(self, gates):
        fed.append(len(gates))
        return feed(self, gates)

    def counted_join(self, summary):
        joins.append(len(summary))
        return join(self, summary)

    def counted_peephole(tc):
        peephole_calls.append(len(tc.gates))
        return peephole(tc)

    monkeypatch.setattr(DepthScan, "feed", counted_feed)
    monkeypatch.setattr(DepthScan, "join", counted_join)
    monkeypatch.setattr(transpile, "peephole_optimize", counted_peephole)
    reconstruct_lut(circ, th, lut, samples)
    assert peephole_calls == []

    full = sum(len(physical) for _, physical in lower_circuit(circ, th))
    expected, n_levels = full, 0  # theta's lowering is scanned once
    for gi in circ.trainable_indices():
        slots = set(circ.layers[gi].theta_slots)
        readers = [k for k, g in enumerate(circ.all_gates) if slots & set(g.theta_slots)]
        for level in lut.entries.get(circ.layers[gi].kind, []):
            new = np.array(th, copy=True)
            new[list(circ.layers[gi].theta_slots)] = level.value
            span = lower_circuit(circ, new)[readers[0]:readers[-1] + 1]
            expected += sum(len(physical) for _, physical in span)
            n_levels += 1
    assert sum(fed) == expected
    assert joins == [circ.n_qubits] * n_levels  # one suffix join per level
