import itertools
import math

import numpy as np
import pytest

import oracle
from vqcompress.errors import ArityError
from vqcompress.gates import (ARITY, FOUR_PI, GateKind, circ_dist, circ_residual,
                              gate_matrix, phase_identity_factor, wrap_param,
                              wrap_params)

PI = math.pi


def test_rx_matrix_entries():
    # published form: [[cos t/2, -i sin t/2], [-i sin t/2, cos t/2]]
    m = gate_matrix(GateKind.RX, [PI])
    assert np.allclose(m, [[0, -1j], [-1j, 0]], atol=1e-12)
    assert np.allclose(gate_matrix(GateKind.RX, [0]), np.eye(2), atol=1e-12)
    assert np.allclose(gate_matrix(GateKind.RX, [2 * PI]), -np.eye(2), atol=1e-12)


def test_crx_matrix_blocks():
    m = gate_matrix(GateKind.CRX, [2 * PI])
    assert np.allclose(m[:2, :2], np.eye(2), atol=1e-12)
    assert np.allclose(m[2:, 2:], -np.eye(2), atol=1e-12)
    assert np.allclose(m[:2, 2:], 0) and np.allclose(m[2:, :2], 0)
    assert np.allclose(gate_matrix(GateKind.CRX, [0]), np.eye(4), atol=1e-12)


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_gate_matrix_matches_oracle_entry_by_entry(kind):
    """Every gate matrix in the package comes from `gate_mats_batch`, and
    `gate_matrix` is its one-row view, so this pins the one builder against
    the independent cmath-built oracle: at every angle tuple on the pi/2 grid
    of [0, 4pi) and at random angles.  Controlled kinds are diag(I, body),
    the control being the high bit of the index."""
    rng = np.random.default_rng(4)
    grid = [k * PI / 2 for k in range(8)]
    cases = list(itertools.product(grid, repeat=ARITY[kind]))
    if ARITY[kind]:
        cases += [tuple(rng.uniform(-20, 20, ARITY[kind])) for _ in range(200)]
    for angles in cases:
        if kind.value in oracle.ONE_QUBIT:
            want = oracle.ONE_QUBIT[kind.value](*angles)
        else:
            zero = np.zeros((2, 2))
            want = np.block([[np.eye(2), zero], [zero, oracle.CONTROLLED[kind.value](*angles)]])
        got = gate_matrix(kind, angles)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14, (kind, angles)


@pytest.mark.parametrize("kind,n_angles", [
    (GateKind.RX, 1), (GateKind.RY, 1), (GateKind.RZ, 1),
    (GateKind.CRX, 1), (GateKind.CRY, 1), (GateKind.CRZ, 1),
    (GateKind.U3, 3), (GateKind.CU3, 3),
    (GateKind.X, 0), (GateKind.SX, 0), (GateKind.CX, 0), (GateKind.ID, 0),
])
def test_unitarity(kind, n_angles):
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = gate_matrix(kind, rng.uniform(0, FOUR_PI, n_angles))
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-12


@pytest.mark.parametrize("kind", [GateKind.RX, GateKind.RY, GateKind.RZ,
                                  GateKind.CRX, GateKind.CRY, GateKind.CRZ])
def test_periodicity_4pi(kind):
    rng = np.random.default_rng(2)
    for theta in rng.uniform(0, FOUR_PI, 10):
        a = gate_matrix(kind, [theta])
        b = gate_matrix(kind, [theta + FOUR_PI])
        assert np.max(np.abs(a - b)) < 1e-12


def test_wrong_arity_raises():
    with pytest.raises(ArityError):
        gate_matrix(GateKind.RX, [1.0, 2.0])
    with pytest.raises(ArityError):
        gate_matrix(GateKind.U3, [1.0])
    with pytest.raises(ArityError):
        gate_matrix(GateKind.CX, [0.5])


def test_wrap_param_examples():
    assert wrap_param(FOUR_PI + 0.3) == pytest.approx(0.3, abs=1e-12)
    assert wrap_param(-PI) == pytest.approx(3 * PI, abs=1e-12)
    assert wrap_param(0.0) == 0.0
    assert 0.0 <= wrap_param(123.456) < FOUR_PI


def test_wrap_param_preserves_gate_matrix():
    rng = np.random.default_rng(3)
    for kind in (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.CRX):
        for x in rng.uniform(-30, 30, 10):
            a = gate_matrix(kind, [x])
            b = gate_matrix(kind, [wrap_param(x)])
            assert np.max(np.abs(a - b)) < 1e-12


def test_wrap_param_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap_param(float("nan"))
    with pytest.raises(ValueError):
        wrap_params([1.0, float("inf")])


def test_circ_dist_and_residual():
    assert circ_dist(0.1, FOUR_PI - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert circ_dist(PI, 3 * PI) == pytest.approx(2 * PI, abs=1e-12)
    r = circ_residual(np.array([0.1]), np.array([FOUR_PI - 0.1]))
    assert r[0] == pytest.approx(0.2, abs=1e-12)
    assert circ_residual(np.array([3.0]), np.array([1.0]))[0] == pytest.approx(2.0)


def test_phase_identity_factor():
    assert phase_identity_factor(np.eye(2)) == pytest.approx(1.0)
    assert phase_identity_factor(-np.eye(4)) == pytest.approx(-1.0)
    assert phase_identity_factor(gate_matrix(GateKind.RX, [PI])) is None
    assert phase_identity_factor(gate_matrix(GateKind.CRX, [2 * PI])) is None
    assert phase_identity_factor(0.5 * np.eye(2)) is None
