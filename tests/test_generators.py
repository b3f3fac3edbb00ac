"""Rotation derivatives from their Pauli generators.

A rotation U(t) = exp(-i t P / 2) has dU/dt U^dagger = -iP/2 at every t, so
the gradient reads a rotation slot off one overlap with P, and P acts on the
register as a fixed permutation of the amplitudes times a fixed phase
(`simulator.generator_table`).  The tables must be the dense matrices'
generators, and the gradient built on them must be the dense adjoint
method's, which applies one derivative matrix per slot.
"""

import itertools
import math

import numpy as np
import pytest

import oracle
from conftest import random_circuit, random_state
from vqcompress import training
from vqcompress.gates import GateKind, gate_mats_batch
from vqcompress.simulator import apply_matrix, generator_table

ONE_QUBIT = (GateKind.RX, GateKind.RY, GateKind.RZ)
CONTROLLED = (GateKind.CRX, GateKind.CRY, GateKind.CRZ)
CONTROL0 = np.diag([1.0, 1.0, 0.0, 0.0])  # |0><0| on the control, I on the target


def _placements(n_qubits):
    """Every rotation kind on each qubit and each ordered qubit pair."""
    for kind, q in itertools.product(ONE_QUBIT, range(n_qubits)):
        yield kind, (q,)
    for kind, pair in itertools.product(CONTROLLED, itertools.permutations(range(n_qubits), 2)):
        yield kind, pair


def _generator(kind, t):
    """2i dU/dt U^dagger at angle t, with dU = U(t + pi) / 2 on the target:
    a controlled kind's control-0 block of U(t + pi) is not part of dU."""
    u = gate_mats_batch(kind, np.array([t]))[0]
    shifted = gate_mats_batch(kind, np.array([t + math.pi]))[0]
    d_u = 0.5 * (shifted - CONTROL0 if kind in CONTROLLED else shifted)
    return 2j * d_u @ np.conj(u.T)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_each_table_is_the_dense_generator(n_qubits):
    rng = np.random.default_rng(90 + n_qubits)
    states = np.stack([random_state(rng, n_qubits) for _ in range(6)])
    checked = 0
    for kind, qubits in _placements(n_qubits):
        perm, phase = generator_table(kind, qubits, n_qubits)
        assert perm.shape == phase.shape == (2 ** n_qubits,)
        assert np.array_equal(np.sort(perm), np.arange(2 ** n_qubits))
        for t in rng.uniform(0, 4 * math.pi, 3):
            want = apply_matrix(states, _generator(kind, t), qubits)
            assert np.max(np.abs(phase * states[:, perm] - want)) <= 1e-15
            checked += 1
    assert checked == 9 * n_qubits + 9 * n_qubits * (n_qubits - 1)


def _frozen(rng, n_slots, mask):
    if mask == "none":
        return None
    if mask == "all":
        return np.ones(n_slots, dtype=bool)
    return rng.random(n_slots) < 0.5


@pytest.mark.parametrize("mask", ["none", "random", "all"])
def test_gradient_equals_the_dense_adjoint(mask):
    """200 seeded random circuits of every kind, U3 and CU3 included, on 2-4
    qubits: the generator-form gradient equals the dense adjoint method's."""
    largest = 0.0
    for case in range(200):
        rng = np.random.default_rng(9000 + case)
        n_qubits = int(rng.integers(2, 5))
        circ, params = random_circuit(rng, n_qubits, int(rng.integers(3, 13)), trainable=True)
        n_rows = int(rng.integers(1, 6))
        states = np.stack([random_state(rng, n_qubits) for _ in range(n_rows)])
        labels = rng.integers(0, 2, n_rows)
        frozen = _frozen(rng, circ.n_thetas, mask)
        _, grad = training.loss_and_gradient(circ, params, states, labels, frozen)
        want = oracle.dense_adjoint_gradient(circ, params, states, labels, frozen)
        assert np.max(np.abs(grad - want), initial=0.0) <= 1e-14, case
        if frozen is not None:
            assert np.all(grad[frozen] == 0.0)
        largest = max(largest, np.max(np.abs(want), initial=0.0))
    # the comparison is not between zeros, except with every slot frozen
    assert (largest > 1e-2) == (mask != "all")
