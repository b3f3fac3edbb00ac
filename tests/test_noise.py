import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import oracle
from conftest import random_circuit, random_state
from vqcompress.circuit import Circuit, Gate, MeasurementSpec, const, theta
from vqcompress.errors import ConfigError
from vqcompress.gates import GateKind
from vqcompress.noise import noisy_accuracy, noisy_outputs
from vqcompress.simulator import measure_outputs_batch, run_circuit, zero_state
from vqcompress.transpile import lower_gate, transpile_circuit

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
    # the outputs are exact expectations: the ignored seed and shot count move no bit
    circ = chain_circuit(3)
    tc = transpile_circuit(circ, [])
    want = noisy_outputs(tc, zero_state(1), circ.measurement, p=0.05)
    for shots, seed in ((256, 9), (256, 10), (1, 0), (4096, 601)):
        got = noisy_outputs(tc, zero_state(1), circ.measurement, 0.05, shots, seed)
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("inputs", ["amplitude", "angle"])
def test_noisy_accuracy_transpiles_once_per_distinct_circuit(inputs, monkeypatch):
    import vqcompress.noise as noise
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
    params = init_params(circ, TrainConfig(seed=11))
    lowered, ran = [], []

    def counted(gate, *args):
        lowered.append(gate)
        return lower_gate(gate, *args)

    def recorded(tc, *args):
        ran.append(tc.gates)
        return noisy_outputs(tc, *args)

    monkeypatch.setattr(noise, "lower_gate", counted)
    monkeypatch.setattr(noise, "noisy_outputs", recorded)
    acc = noisy_accuracy(circ, params, samples, p=0.05)
    # the layers once per call, the encoder once per sample
    assert len(circ.encoder) == (0 if inputs == "amplitude" else 4)
    assert len(lowered) == len(circ.layers) + len(samples) * len(circ.encoder)

    correct = 0
    for i, s in enumerate(samples):
        if inputs == "angle":
            tc = transpile_circuit(circ, np.atleast_2d(params), feats=s.features[None, :])
            init = zero_state(circ.n_qubits)
        else:
            tc = transpile_circuit(circ, np.atleast_2d(params))
            init = amplitude_state(s.features, circ.n_qubits)
        assert ran[i] == tc.gates  # the peephole rule merges across the encoder's end
        outs = noisy_outputs(tc, init, circ.measurement, 0.05)
        correct += int(np.argmax(outs)) == s.label
    assert acc == correct / len(samples)


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


def test_operands_are_built_once_per_kind(monkeypatch):
    # one gate_mats_batch call for all RZ angles and one for SX, however many
    # gates the circuit has; X and CX need none.  Per-gate building makes one
    # call per RZ and SX gate, through gate_matrix.
    import vqcompress.gates as gates
    import vqcompress.noise as noise
    tc, init, spec = _oracle_case("syn16")
    assert len(tc.gates) > 100
    original, calls = gates.gate_mats_batch, []

    def counted(kind, angles):
        calls.append(kind)
        return original(kind, angles)

    for module in (gates, noise):
        if getattr(module, "gate_mats_batch", None) is original:
            monkeypatch.setattr(module, "gate_mats_batch", counted)
    noisy_outputs(tc, init, spec, 0.02)
    assert set(calls) <= {GateKind.RZ, GateKind.SX}
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
