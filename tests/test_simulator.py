import itertools
import math

import numpy as np
import pytest

import oracle
from conftest import random_circuit, random_state
from vqcompress.circuit import (Circuit, Gate, MeasureScheme, MeasurementSpec,
                                const, data, theta)
from vqcompress import simulator
from vqcompress.errors import SpecError
from vqcompress.gates import GateKind, gate_matrix
from vqcompress.simulator import (apply_matrix, measure_outputs_batch, run_batch, run_circuit,
                                  zero_state)

PI = math.pi


def _one_gate(n_qubits, gate):
    return Circuit(n_qubits, [], [gate], MeasurementSpec(1))


def test_rx_zero_is_identity():
    s = zero_state(1)
    out = run_circuit(_one_gate(1, Gate(GateKind.RX, (0,), (const(0.0),))), [], s)
    assert np.allclose(out, s, atol=1e-12)


def test_rx_pi_on_zero_gives_minus_i_one():
    out = run_circuit(_one_gate(1, Gate(GateKind.RX, (0,), (const(PI),))), [])
    assert np.allclose(out, [0, -1j], atol=1e-12)


@pytest.mark.parametrize("section", ["encoder", "layers"])
@pytest.mark.parametrize("qubits", [(3,), (-1,), (0, 2)], ids=["high", "negative", "2q"])
def test_circuit_rejects_out_of_range_qubit(section, qubits):
    kind = GateKind.RX if len(qubits) == 1 else GateKind.CRX
    gate = Gate(kind, qubits, (const(1.0),))
    encoder, layers = ([gate], []) if section == "encoder" else ([], [gate])
    with pytest.raises(IndexError, match="out of range"):
        Circuit(2, encoder, layers, MeasurementSpec(2))


@pytest.mark.parametrize("bindings", [(data(0),), (theta(0), data(0), const(0.4))],
                         ids=["RY-data", "U3-theta-data"])
def test_circuit_rejects_data_bound_layer_gate(bindings):
    kind = GateKind.RY if len(bindings) == 1 else GateKind.U3
    gate = Gate(kind, (0,), bindings)
    with pytest.raises(SpecError, match="layer gates must not read data"):
        Circuit(2, [], [gate], MeasurementSpec(2))


def test_random_cry_matches_kron_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        state = random_state(rng, 3)
        q = rng.choice(3, size=2, replace=False)
        angle = rng.uniform(0, 4 * PI)
        gate = Gate(GateKind.CRY, (int(q[0]), int(q[1])), (const(angle),))
        got = run_circuit(_one_gate(3, gate), [], state)
        want = oracle.embed_gate(3, "CRY", gate.qubits, (angle,)) @ state
        assert np.max(np.abs(got - want)) < 1e-10


def test_norm_preserved_for_all_kinds():
    rng = np.random.default_rng(8)
    for _ in range(60):
        circ, _ = random_circuit(rng, int(rng.integers(1, 5)), 1)
        state = random_state(rng, circ.n_qubits)
        out = run_circuit(_one_gate(circ.n_qubits, circ.layers[0]), [], state)
        assert abs(np.vdot(out, out).real - 1.0) < 1e-9


def test_empty_circuit_returns_input():
    circ = Circuit(2, [], [], MeasurementSpec(2))
    state = random_state(np.random.default_rng(0), 2)
    assert np.allclose(run_circuit(circ, [], state), state, atol=1e-12)


def test_run_circuit_is_sequential_composition():
    g1 = Gate(GateKind.RY, (0,), (const(0.7),))
    g2 = Gate(GateKind.CRX, (0, 1), (const(2.1),))
    circ = Circuit(2, [], [g1, g2], MeasurementSpec(2))
    state = random_state(np.random.default_rng(1), 2)
    step = run_circuit(_one_gate(2, g2), [], run_circuit(_one_gate(2, g1), [], state))
    assert np.allclose(run_circuit(circ, [], state), step, atol=1e-12)


def test_random_circuits_match_dense_oracle():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        circ, params = random_circuit(rng, n, int(rng.integers(5, 15)), trainable=True)
        state = random_state(rng, n)
        got = run_circuit(circ, params, state)
        want = oracle.logical_unitary(circ, params) @ state
        assert np.max(np.abs(got - want)) < 1e-10


def test_fourteen_gate_two_qubit_circuit_vs_oracle():
    rng = np.random.default_rng(10)
    circ, params = random_circuit(rng, 2, 14, trainable=True)
    state = random_state(rng, 2)
    got = run_circuit(circ, params, state)
    want = oracle.logical_unitary(circ, params) @ state
    assert np.max(np.abs(got - want)) < 1e-10


def test_batched_rows_match_single_runs():
    rng = np.random.default_rng(11)
    circ, params = random_circuit(rng, 3, 8, trainable=True)
    states = np.stack([random_state(rng, 3) for _ in range(6)])
    batch = run_batch(circ, params, states)
    for row in range(6):
        single = run_circuit(circ, params, states[row])
        assert np.max(np.abs(batch[row] - single)) < 1e-12


def test_measure_per_qubit_z_basis_states():
    assert np.allclose(measure_outputs_batch(zero_state(2)[None], MeasurementSpec(2))[0], [1, 1])
    one_one = np.zeros(4, dtype=complex)
    one_one[3] = 1.0
    assert np.allclose(measure_outputs_batch(one_one[None], MeasurementSpec(2))[0], [-1, -1])


def test_measure_grouping_uniform_state():
    state = np.full(16, 0.25, dtype=complex)
    spec = MeasurementSpec(3, MeasureScheme.STATE_GROUPING)
    out = measure_outputs_batch(state[None], spec)[0]
    assert np.allclose(out, [5 / 16, 5 / 16, 5 / 16], atol=1e-12)


def test_measure_too_many_classes_raises():
    with pytest.raises(SpecError):
        measure_outputs_batch(zero_state(2)[None], MeasurementSpec(3))


def test_grouping_rejects_overlapping_groups():
    spec = MeasurementSpec(2, MeasureScheme.STATE_GROUPING, ((0, 1), (1, 2)))
    with pytest.raises(SpecError):
        measure_outputs_batch(zero_state(2)[None], spec)


def test_global_phase_gate_leaves_outputs_unchanged():
    # replacing a c*I gate (RX(2pi)) by nothing changes no measured value
    rng = np.random.default_rng(12)
    for _ in range(10):
        circ, params = random_circuit(rng, 2, 6, trainable=True)
        with_phase = Circuit(2, [], circ.layers + [Gate(GateKind.RX, (0,), (const(2 * PI),))],
                             MeasurementSpec(2))
        a = run_circuit(circ, params)
        b = run_circuit(with_phase, params)
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)) < 1e-12
        outs = measure_outputs_batch(np.stack([a, b]), circ.measurement)
        assert np.allclose(outs[0], outs[1], atol=1e-12)


@pytest.mark.parametrize("mat_rows", [None, 1, 3], ids=["dd", "1dd", "Rdd"])
@pytest.mark.parametrize("qubits", [(1,), (0,), (2,), (2, 0), (0, 2), (1, 2)],
                         ids=["q1", "q0", "q2", "q2q0", "q0q2", "q1q2"])
def test_trailing_axis_equals_each_column_slice(qubits, mat_rows):
    # columns of a (rows, 2^n, cols) batch share their row's matrix
    rng = np.random.default_rng(21)
    rows, n, cols, d = 3, 3, 5, 2 ** len(qubits)
    states = rng.normal(size=(rows, 2 ** n, cols)) + 1j * rng.normal(size=(rows, 2 ** n, cols))
    shape = (d, d) if mat_rows is None else (mat_rows, d, d)
    mats = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = apply_matrix(states, mats, qubits)
    assert got.shape == states.shape and got.flags.c_contiguous
    for c in range(cols):
        assert np.array_equal(got[:, :, c], apply_matrix(states[:, :, c].copy(), mats, qubits))


@pytest.mark.parametrize("shape", ["rows", "cols1", "cols37"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_basis_gates_equal_the_dense_kernel(n, shape):
    # CX on a register of n ket-bra digits, at the noise evaluator's
    # interleaved bit pairs, a CX's ket bits (2c, 2t) and bra bits
    # (2c + 1, 2t + 1), and on the two bits of one digit.  A swap does no
    # arithmetic, so every value equals apply_matrix with CX's matrix bit for bit
    rng = np.random.default_rng(40 + n)
    dim = 4 ** n
    size = {"rows": (5, dim), "cols1": (1, dim, 1), "cols37": (1, dim, 37)}[shape]
    states = rng.normal(size=size) + 1j * rng.normal(size=size)
    cx = gate_matrix(GateKind.CX, ())
    cases = [(2 * c + side, 2 * t + side)
             for c, t in itertools.permutations(range(n), 2) for side in (0, 1)]
    cases += [pair for q in range(n) for pair in ((2 * q, 2 * q + 1), (2 * q + 1, 2 * q))]
    for bits in cases:   # adjacent and not, control above and below, and one digit's own bits
        got = simulator._swap_blocks(states.copy(), bits)
        assert got.shape == states.shape, bits
        assert np.array_equal(got, apply_matrix(states, cx, bits)), bits


def test_the_kernels_call_numpys_c_einsum():
    c_einsum = pytest.importorskip("numpy._core.multiarray").c_einsum
    assert simulator._einsum is c_einsum


# (rows, qubits, trailing columns): the training batches of syn4 and syn16,
# and ReCL's (candidates, 2^n, samples) layout
@pytest.mark.parametrize("rows, n, cols", [(10, 2, None), (20, 4, None), (3, 4, 7)],
                         ids=["10x4", "20x16", "3x16x7"])
@pytest.mark.parametrize("mat_rows", [None, 1, "R"], ids=["dd", "1dd", "Rdd"])
def test_the_c_einsum_equals_np_einsum_byte_for_byte(rows, n, cols, mat_rows, monkeypatch):
    # every kernel subscript: the 1q and 2q dense ones on every placement,
    # and the noise evaluator's 4x4 on every base-4 digit; exact and signed
    # zeros in the states and the matrices, so that tobytes tells -0.0 from 0.0
    rng = np.random.default_rng(50 + rows + n)
    shape = (rows, 2 ** n) + (() if cols is None else (cols,))
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    states[:, ::3] = 0.0
    states[:, 1::5] = -0.0 - 0.0j
    states.imag[:, 2::4] = -0.0
    m = rows if mat_rows == "R" else mat_rows
    cases = ([((q,), 2) for q in range(n)] + [(pair, 4) for pair in itertools.permutations(range(n), 2)]
             + [((q,), 4) for q in range(n // 2)])     # the digits of 2^n = 4^(n/2) amplitudes
    for qubits, d in cases:
        mats = rng.normal(size=(d, d) if m is None else (m, d, d)) + 0j
        mats.imag[..., ::2, :] = rng.normal(size=mats[..., ::2, :].shape)
        mats[..., 0, -1] = -0.0
        got = apply_matrix(states, mats, qubits)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_einsum", np.einsum)
            want = apply_matrix(states, mats, qubits)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (qubits, d)
