"""Correctness checks run after every measured repetition.

Each check returns a list of failure messages; an empty list is a pass.  The
unitary check builds its dense matrices here, from the gate definitions
below, rather than from the package's own gate and simulator code.
"""

import math

import numpy as np

from vqcompress.circuit import BindKind
from vqcompress.noise import noisy_accuracy
from vqcompress.training import batch_loss_and_gradient, loss_and_accuracy
from vqcompress.transpile import tcd, transpile_circuit

FD_STEP = 1e-5
GRAD_TOL = 1e-6
UNITARY_TOL = 1e-9


def _rot(axis, t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "Y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _u3(th, ph, lm):
    c, s = math.cos(th / 2), math.sin(th / 2)
    return np.array([[c, -np.exp(1j * lm) * s],
                     [np.exp(1j * ph) * s, np.exp(1j * (ph + lm)) * c]])


def _ctrl(u):
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = u
    return m


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


def local_matrix(kind: str, angles) -> np.ndarray:
    """2x2 or 4x4 unitary of a gate; for two-qubit kinds the first qubit
    (the control) is the high bit of the local index."""
    if kind in ("RX", "RY", "RZ"):
        return _rot(kind[1], angles[0])
    if kind in ("CRX", "CRY", "CRZ"):
        return _ctrl(_rot(kind[2], angles[0]))
    table = {"U3": lambda: _u3(*angles), "CU3": lambda: _ctrl(_u3(*angles)),
             "CX": lambda: _ctrl(_X), "SX": lambda: _SX, "X": lambda: _X,
             "ID": lambda: np.eye(2, dtype=complex)}
    return table[kind]()


def embed(m: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Full 2^n operator of a local gate; qubit q is bit q of the index."""
    dim = 2 ** n_qubits
    full = np.zeros((dim, dim), dtype=complex)
    mask = sum(1 << q for q in qubits)
    for i in range(dim):
        li = sum(((i >> q) & 1) << (len(qubits) - 1 - k) for k, q in enumerate(qubits))
        rest = i & ~mask
        for lj in range(m.shape[0]):
            j = rest | sum(((lj >> (len(qubits) - 1 - k)) & 1) << q
                           for k, q in enumerate(qubits))
            full[j, i] += m[lj, li]
    return full


def logical_unitary(circuit, params, feats) -> np.ndarray:
    u = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for gate in circuit.all_gates:
        angles = []
        for b in gate.bindings:
            if b.kind is BindKind.CONST:
                angles.append(b.value)
            elif b.kind is BindKind.THETA:
                angles.append(float(params[b.slot]))
            else:
                angles.append(math.pi * float(feats[b.slot]))
        u = embed(local_matrix(gate.kind.value, angles), gate.qubits, circuit.n_qubits) @ u
    return u


def dag_depth(n_qubits: int, gates) -> int:
    level = [0] * n_qubits
    for g in gates:
        d = 1 + max(level[q] for q in g.qubits)
        for q in g.qubits:
            level[q] = d
    return max(level, default=0)


def check_unitary(circuit, params, feats, label) -> list:
    """Transpiled circuit == logical circuit up to the recorded global phase."""
    tc = transpile_circuit(circuit, np.atleast_2d(params), feats=feats[None, :])
    phys = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for pg in tc.gates:
        phys = embed(local_matrix(pg.kind.value, pg.params), pg.qubits, circuit.n_qubits) @ phys
    err = float(np.max(np.abs(logical_unitary(circuit, params, feats)
                              - np.exp(1j * tc.global_phase) * phys)))
    return [] if err < UNITARY_TOL else [f"{label}: transpiled unitary off by {err:.3g}"]


def check_gradient(circuit, params, feats, labels, samples, label) -> list:
    """batch_loss_and_gradient against central differences of the mean loss."""
    _, grad = batch_loss_and_gradient(circuit, np.asarray(params, dtype=float), feats, labels)
    fd = np.empty_like(grad)
    for i in range(len(params)):
        up, down = np.array(params, dtype=float), np.array(params, dtype=float)
        up[i] += FD_STEP
        down[i] -= FD_STEP
        fd[i] = (loss_and_accuracy(circuit, up, samples)[0]
                 - loss_and_accuracy(circuit, down, samples)[0]) / (2 * FD_STEP)
    err = float(np.max(np.abs(grad - fd)))
    return [] if err < GRAD_TOL else [f"{label}: gradient differs from FD by {err:.3g}"]


def check_tcd(circuit, params, reported: int, label) -> list:
    """The reported depth equals tcd() and the DAG depth of the transpiled gates."""
    tc = transpile_circuit(circuit, np.atleast_2d(params))
    got = (tcd(circuit, params), dag_depth(circuit.n_qubits, tc.gates))
    return [] if got == (reported, reported) else [f"{label}: reported TCD {reported}, "
                                                   f"recomputed {got}"]


def check_noiseless(circuit, params, samples, seed, label) -> list:
    """noisy_accuracy at p = 0 equals the ideal accuracy."""
    ideal = loss_and_accuracy(circuit, params, samples)[1]
    noisy = noisy_accuracy(circuit, params, samples, 0.0, 8, seed)
    return [] if noisy == ideal else [f"{label}: p=0 noisy accuracy {noisy} != ideal {ideal}"]
