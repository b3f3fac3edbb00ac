import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import oracle
from conftest import random_circuit, random_state
from vqcompress.circuit import Circuit, Gate, MeasurementSpec, const, data, theta
from vqcompress.errors import ConfigError
from vqcompress.gates import GateKind
from vqcompress.noise import noisy_accuracy, noisy_outputs
from vqcompress.simulator import measure_outputs_batch, run_circuit, zero_state
from vqcompress.training import TIE_MARGIN
from vqcompress.transpile import lower_gates, transpile_circuit

PI = math.pi


def chain_circuit(n_pairs):
    """RX(0.4), RX(-0.4) pairs: ideal circuit is the identity on |0>."""
    gates = []
    for _ in range(n_pairs):
        gates.append(Gate(GateKind.RX, (0,), (const(0.4),)))
        gates.append(Gate(GateKind.RX, (0,), (const(-0.4),)))
    return Circuit(1, [], gates, MeasurementSpec(1))


def test_p_zero_matches_noiseless():
    circ = chain_circuit(2)
    tc = transpile_circuit(circ, [])
    out = noisy_outputs(tc, zero_state(1), circ.measurement, p=0.0)
    exact = measure_outputs_batch(run_circuit(circ, [])[None], circ.measurement)[0]
    assert np.allclose(out, exact, atol=1e-12)


def test_p_one_fully_depolarizes():
    circ = Circuit(1, [], [Gate(GateKind.RX, (0,), (const(0.7),))], MeasurementSpec(1))
    tc = transpile_circuit(circ, [])
    out = noisy_outputs(tc, zero_state(1), circ.measurement, p=1.0)
    assert abs(out[0]) < 1e-12  # fully depolarized qubit: <Z> = 0


def test_deterministic_given_seed():
    # the outputs are exact expectations and take no seed: a repeat moves no bit
    circ = chain_circuit(3)
    tc = transpile_circuit(circ, [])
    want = noisy_outputs(tc, zero_state(1), circ.measurement, p=0.05)
    assert np.array_equal(noisy_outputs(tc, zero_state(1), circ.measurement, 0.05), want)


def test_deeper_circuit_loses_more_fidelity():
    # both circuits are the identity; <Z> decay tracks the physical gate count
    shallow = chain_circuit(1)
    deep = chain_circuit(8)
    p = 0.05
    z_shallow = noisy_outputs(transpile_circuit(shallow, []), zero_state(1),
                              shallow.measurement, p)[0]
    z_deep = noisy_outputs(transpile_circuit(deep, []), zero_state(1), deep.measurement, p)[0]
    assert z_deep < z_shallow
    assert z_shallow > 0.5  # shallow circuit keeps most of its signal


def test_p_out_of_range_raises():
    circ = chain_circuit(1)
    tc = transpile_circuit(circ, [])
    with pytest.raises(ConfigError):
        noisy_outputs(tc, zero_state(1), circ.measurement, p=1.5)


def test_noisy_accuracy_on_reference_circuit():
    from vqcompress.circfile import load_reference
    from vqcompress.data import generate_synthetic
    from vqcompress.training import TrainConfig, init_params
    circ = load_reference("syn4")
    ds = generate_synthetic(4, 100, seed=0)
    params = init_params(circ, TrainConfig(seed=0))
    acc = noisy_accuracy(circ, params, ds.test[:4], p=0.02)
    assert 0.0 <= acc <= 1.0


AMPLITUDE_GATES = [Gate(GateKind.RY, (0,), (theta(0),)),
                   Gate(GateKind.CRX, (0, 1), (theta(1),)),
                   Gate(GateKind.RY, (1,), (theta(2),))]


def _accuracy_case(inputs):
    """(circuit, params, samples, [(physical circuit, initial state)] per sample).

    "angle-split" sets feature 0 of every other sample to exactly 0.5, so its
    encoder RY(pi * 0.5) lowers to the pi/2 template and the samples fall into
    two structure groups."""
    from vqcompress.circfile import load_reference
    from vqcompress.data import Sample, amplitude_state, generate_synthetic
    from vqcompress.training import TrainConfig, init_params
    rng = np.random.default_rng(11)
    if inputs == "amplitude":
        circ = Circuit(2, [], AMPLITUDE_GATES, MeasurementSpec(2), amplitude_input=True)
        samples = [Sample(rng.uniform(0.1, 1.0, 4), int(rng.integers(2))) for _ in range(6)]
    else:
        circ = load_reference("syn4")
        samples = generate_synthetic(4, 100, seed=11).test[:6]
        if inputs == "angle-split":
            samples = [Sample(np.concatenate([[0.5], s.features[1:]]) if i % 2 else
                              s.features, s.label) for i, s in enumerate(samples)]
    params = init_params(circ, TrainConfig(seed=11))
    wants = []
    for s in samples:
        if inputs == "amplitude":
            wants.append((transpile_circuit(circ, np.atleast_2d(params)),
                          amplitude_state(s.features, circ.n_qubits)))
        else:
            wants.append((transpile_circuit(circ, np.atleast_2d(params),
                                            feats=s.features[None, :]),
                          zero_state(circ.n_qubits)))
    return circ, params, samples, wants


def _record_passes(monkeypatch):
    """Wrap noise._density_pass; each call appends (gate lists, states, outputs)."""
    import vqcompress.noise as noise
    passes, original = [], noise._density_pass

    def recorded(rows, states, *args):
        outs = original(rows, states, *args)
        passes.append((rows, states, outs))
        return outs

    monkeypatch.setattr(noise, "_density_pass", recorded)
    return passes


def _grouped_order(tcs):
    """Sample indices in the order noisy_accuracy runs them: grouped by their
    sequence of (kind, qubits), groups in order of their first sample."""
    keys = [tuple((g.kind, g.qubits) for g in tc.gates) for tc in tcs]
    return sorted(range(len(keys)), key=lambda i: keys.index(keys[i]))


@pytest.mark.parametrize("inputs", ["amplitude", "angle"])
def test_noisy_accuracy_transpiles_once_per_distinct_circuit(inputs, monkeypatch):
    import vqcompress.noise as noise
    circ, params, samples, wants = _accuracy_case(inputs)
    calls = []

    def counted(gates, values):
        calls.append(len(gates) * len(values))
        return lower_gates(gates, values)

    monkeypatch.setattr(noise, "lower_gates", counted)
    passes = _record_passes(monkeypatch)
    acc = noisy_accuracy(circ, params, samples, p=0.05)
    # two calls: the layers once, then every sample's encoder in one call
    assert len(circ.encoder) == (0 if inputs == "amplitude" else 4)
    assert calls == [len(circ.layers), len(samples) * len(circ.encoder)]

    # the peephole rule merges across the encoder's end, as transpile_circuit's does
    ran = [gates for rows, _, _ in passes for gates in rows]
    assert ran == [wants[i][0].gates for i in _grouped_order([tc for tc, _ in wants])]
    correct = 0
    for (tc, init), s in zip(wants, samples):
        outs = noisy_outputs(tc, init, circ.measurement, 0.05)
        # the scoring rule: the label's output beats every other by more than the margin
        correct += outs[s.label] - np.delete(outs, s.label).max() > TIE_MARGIN
    assert acc == correct / len(samples)


@pytest.mark.parametrize("p", [0.0, 0.02, 1.0])
@pytest.mark.parametrize("inputs", ["amplitude", "angle", "angle-split"])
def test_batched_pass_equals_noisy_outputs_per_sample(inputs, p, monkeypatch):
    # samples of one gate structure share one rho batch, and each row's
    # outputs equal its own one-row pass bit for bit
    circ, params, samples, wants = _accuracy_case(inputs)
    passes = _record_passes(monkeypatch)
    noisy_accuracy(circ, params, samples, p)
    assert [len(rows) for rows, _, _ in passes] == ([3, 3] if inputs == "angle-split" else [6])
    order = _grouped_order([tc for tc, _ in wants])
    outs = [row for _, _, batch in passes for row in batch]
    states = [row for _, batch, _ in passes for row in batch]
    for i, got, state in zip(order, outs, states):
        tc, init = wants[i]
        assert np.array_equal(state, init)
        assert np.array_equal(got, noisy_outputs(tc, init, circ.measurement, p)), i


def _oracle_case(name):
    """(physical circuit, initial state, measurement) for the oracle comparison."""
    from vqcompress.circfile import load_reference
    from vqcompress.data import amplitude_state, generate_synthetic
    from vqcompress.training import TrainConfig, init_params
    rng = np.random.default_rng(5)
    if name in ("syn4", "syn16"):
        circ = load_reference(name)
        sample = generate_synthetic(int(name[3:]), 100, seed=5).test[0]
        params = init_params(circ, TrainConfig(seed=5))
        tc = transpile_circuit(circ, np.atleast_2d(params), feats=sample.features[None, :])
        return tc, zero_state(circ.n_qubits), circ.measurement
    if name == "one-qubit":
        gates = [Gate(GateKind.RX, (0,), (const(0.9),)), Gate(GateKind.RY, (0,), (const(-1.3),)),
                 Gate(GateKind.U3, (0,), (const(0.4), const(1.1), const(-0.7)))]
        circ = Circuit(1, [], gates, MeasurementSpec(1))
        return transpile_circuit(circ, []), zero_state(1), circ.measurement
    if name == "pi-class":
        # RX/RY at multiples of pi/2 lower to X and SX; CXs run with the
        # control above and below the target, adjacent and not
        gates = [Gate(GateKind.RX, (0,), (const(PI),)), Gate(GateKind.RY, (1,), (const(PI),)),
                 Gate(GateKind.RX, (2,), (const(PI / 2),)),
                 Gate(GateKind.RY, (3,), (const(-PI / 2),)),
                 Gate(GateKind.CX, (0, 3)), Gate(GateKind.CX, (3, 1)), Gate(GateKind.CX, (2, 0)),
                 Gate(GateKind.RY, (0,), (const(3 * PI),)), Gate(GateKind.RX, (3,), (const(-PI),)),
                 Gate(GateKind.CX, (1, 2))]
        circ = Circuit(4, [], gates, MeasurementSpec(4), amplitude_input=True)
        return (transpile_circuit(circ, []), amplitude_state(rng.uniform(0.1, 1.0, 16), 4),
                circ.measurement)
    circ = Circuit(2, [], AMPLITUDE_GATES, MeasurementSpec(2), amplitude_input=True)
    tc = transpile_circuit(circ, rng.uniform(-PI, PI, (1, 3)))
    return tc, amplitude_state(rng.uniform(0.1, 1.0, 4), 2), circ.measurement


@pytest.mark.parametrize("shots", [1, 37, 4096])
@pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 1.0])
@pytest.mark.parametrize("name", ["syn4", "syn16", "one-qubit", "amplitude", "pi-class"])
def test_noisy_outputs_equal_the_row_major_sampler(name, p, shots):
    """The exact outputs equal the dense density-matrix oracle's, and the
    row-major shot sampler's mean lies within 3 sigma of them: each
    trajectory's readout lies in [-1, 1], so sigma <= 1 / sqrt(shots)."""
    tc, init, spec = _oracle_case(name)
    if name.startswith("syn"):
        kinds = {g.kind for g in tc.gates}
        assert GateKind.CX in kinds and kinds - {GateKind.CX}
    if name == "pi-class":
        assert {g.kind for g in tc.gates} == {GateKind.CX, GateKind.RZ, GateKind.SX, GateKind.X}
    got = noisy_outputs(tc, init, spec, p)
    assert np.max(np.abs(got - oracle.dense_noisy_outputs(tc, init, spec, p))) <= 1e-12
    sampled = oracle.noisy_outputs(tc, init, spec, p, shots, seed=601)
    assert np.max(np.abs(sampled - got)) <= 3 / math.sqrt(shots)


def _random_case(case):
    """(circuit, physical circuit, initial state) of a seeded random circuit
    on 1-5 qubits: `random_circuit`'s layers behind amplitude input
    on even cases, and behind an RY/RX angle encoder on odd ones, whose
    features sit on the pi/2 grid at every second gate.  The amplitude
    inputs are complex: on a real rho, conj(U) (x) U and U (x) conj(U) give
    the same diagonal."""
    rng = np.random.default_rng(900 + case)
    n = 1 + case % 5
    layers, params = random_circuit(rng, n, int(rng.integers(4, 13)), trainable=True)
    if case % 2 == 0:
        circ = Circuit(n, [], layers.layers, layers.measurement, amplitude_input=True)
        return circ, transpile_circuit(circ, params[None]), random_state(rng, n)
    encoder = [Gate((GateKind.RY, GateKind.RX)[k % 2], (k % n,), (data(k),)) for k in range(n + 1)]
    circ = Circuit(n, encoder, layers.layers, layers.measurement)
    feats = rng.uniform(0.0, 2.0, n + 1)
    feats[::2] = rng.integers(0, 4, len(feats[::2])) / 2
    return circ, transpile_circuit(circ, params[None], feats=feats[None]), zero_state(n)


def test_noisy_outputs_equal_the_dense_oracle_on_random_circuits():
    # 30 seeded circuits, every layer kind and every physical kind among
    # them: the fused channels equal the oracle's gate-by-gate twirl
    kinds, physical = set(), set()
    for case in range(30):
        circ, tc, init = _random_case(case)
        kinds |= {g.kind for g in circ.layers}
        physical |= {g.kind for g in tc.gates}
        for p in (0.0, 0.003, 0.02, 0.3, 1.0):
            got = noisy_outputs(tc, init, circ.measurement, p)
            want = oracle.dense_noisy_outputs(tc, init, circ.measurement, p)
            assert np.max(np.abs(got - want)) <= 1e-12, (case, p)
    assert kinds == set(GateKind)
    assert physical == {GateKind.CX, GateKind.RZ, GateKind.SX, GateKind.X}


def test_a_pass_applies_each_qubits_channels_once_per_cx(monkeypatch):
    # a one-qubit gate and its channel wait on their qubit for the next CX
    # or the end: a syn16 pass makes at most two digit applies per CX and one
    # per qubit, and two in-place block swaps per CX (ket and bra); doubling
    # every one-qubit gate adds no apply, and one qubit's run of gates is one
    import vqcompress.noise as noise
    from vqcompress.transpile import PhysicalGate
    tc, init, spec = _oracle_case("syn16")
    events = []

    def counted(name, kernel):
        def wrapped(*args):
            events.append(name)
            return kernel(*args)
        return wrapped

    monkeypatch.setattr(noise, "apply_matrix", counted("apply", noise.apply_matrix))
    monkeypatch.setattr(noise, "_swap_blocks", counted("swap", noise._swap_blocks))

    def counts(gates, state, spec=spec):
        events.clear()
        noise._density_pass([gates], state[None, :], spec, 0.02)
        return Counter(events)

    n_cx = sum(g.kind is GateKind.CX for g in tc.gates)
    n_one = len(tc.gates) - n_cx
    assert n_cx == 16 and n_one > 100
    got = counts(tc.gates, init)
    assert got["swap"] == 2 * n_cx and got["apply"] <= 2 * n_cx + tc.n_qubits, got
    doubled = [h for g in tc.gates for h in ([g] if g.kind is GateKind.CX else [g, g])]
    assert counts(doubled, init) == got
    run = [PhysicalGate(GateKind.SX, (0,)), PhysicalGate(GateKind.RZ, (0,), (0.3,)),
           PhysicalGate(GateKind.X, (0,))]
    assert counts(run, zero_state(1), MeasurementSpec(1)) == Counter(apply=1)


def test_operands_are_built_once_per_kind(monkeypatch):
    # one gate_mats_batch call for all RZ angles and one for each fixed
    # one-qubit kind (SX, X), however many gates the circuit has; CX needs
    # none, as it permutes rho in place.  Per-gate building makes one call
    # per one-qubit gate, through gate_matrix.  syn16's lowering holds no X,
    # so the pi-class case, which holds several, checks X.
    import vqcompress.gates as gates
    import vqcompress.noise as noise
    original, calls = gates.gate_mats_batch, []

    def counted(kind, angles):
        calls.append(kind)
        return original(kind, angles)

    for module in (gates, noise):
        if getattr(module, "gate_mats_batch", None) is original:
            monkeypatch.setattr(module, "gate_mats_batch", counted)
    for name in ("syn16", "pi-class"):
        tc, init, spec = _oracle_case(name)
        kinds = Counter(g.kind for g in tc.gates)
        assert len(tc.gates) > 100 if name == "syn16" else kinds[GateKind.X] > 1
        calls.clear()
        noisy_outputs(tc, init, spec, 0.02)
        assert set(calls) == set(kinds) - {GateKind.CX}
        assert max(Counter(calls).values()) == 1


def test_density_matrix_memory_stays_within_three_matrices():
    # rho plus one rho-sized temporary, and room for the operands and readout;
    # at 8 qubits rho (1 MiB) outweighs the per-gate bookkeeping
    rng = np.random.default_rng(601)
    circ, params = random_circuit(rng, 8, 16)
    tc = transpile_circuit(circ, np.atleast_2d(params))
    init, spec = random_state(rng, 8), circ.measurement
    assert {GateKind.CX, GateKind.RZ, GateKind.SX} <= {g.kind for g in tc.gates}
    matrix = 4 ** 8 * np.dtype(complex).itemsize
    noisy_outputs(tc, init, spec, 0.02)    # warm the caches
    tracemalloc.start()
    try:
        noisy_outputs(tc, init, spec, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * matrix, peak / matrix


def test_noisy_accuracy_memory_stays_within_the_batch_cap_and_three_matrices():
    # at 8 qubits rho fills a batch alone, so six samples run one at a time:
    # the peak is one batch, rho's temporaries, and the per-sample gate lists
    import vqcompress.noise as noise
    from vqcompress.data import Sample
    rng = np.random.default_rng(601)
    circ, params = random_circuit(rng, 8, 16)
    circ = Circuit(8, [], circ.layers, circ.measurement, amplitude_input=True)
    samples = [Sample(rng.uniform(0.1, 1.0, 256), int(rng.integers(2))) for _ in range(6)]
    matrix = 4 ** 8 * np.dtype(complex).itemsize
    assert 4 ** 8 <= noise.BATCH_AMPLITUDES < 2 * 4 ** 8  # one 8-qubit rho per batch
    noisy_accuracy(circ, params, samples[:1], 0.02)    # warm the caches
    tracemalloc.start()
    try:
        noisy_accuracy(circ, params, samples, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= noise.BATCH_AMPLITUDES * np.dtype(complex).itemsize + 3 * matrix, \
        peak / matrix
