import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # make `oracle` importable

from vqcompress.circuit import Circuit, Gate, MeasurementSpec, const, data, theta
from vqcompress.gates import GateKind

ONE_Q_PARAMETRIC = [GateKind.RX, GateKind.RY, GateKind.RZ]
TWO_Q_PARAMETRIC = [GateKind.CRX, GateKind.CRY, GateKind.CRZ]
FIXED = [GateKind.X, GateKind.SX, GateKind.ID, GateKind.CX]


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int,
                   include_u3: bool = True, trainable: bool = False) -> tuple:
    """Random circuit over all supported kinds; returns (Circuit, params array).

    With trainable=False all angles are CONST (for transpiler/oracle tests);
    with trainable=True single-angle gates bind fresh theta slots.
    """
    gates, params, slot = [], [], 0
    for _ in range(n_gates):
        r = rng.random()
        if n_qubits == 1:
            r = min(r, 0.49)  # no two-qubit kinds available
        if r < 0.40:
            kind = ONE_Q_PARAMETRIC[rng.integers(3)]
            qubits = (int(rng.integers(n_qubits)),)
            n_angles = 1
        elif r < 0.50 and include_u3:
            kind = GateKind.U3
            qubits = (int(rng.integers(n_qubits)),)
            n_angles = 3
        elif r < 0.80:
            kind = TWO_Q_PARAMETRIC[rng.integers(3)]
            q = rng.choice(n_qubits, size=2, replace=False)
            qubits = (int(q[0]), int(q[1]))
            n_angles = 1
        elif r < 0.90 and include_u3:
            kind = GateKind.CU3
            q = rng.choice(n_qubits, size=2, replace=False)
            qubits = (int(q[0]), int(q[1]))
            n_angles = 3
        else:
            kind = FIXED[rng.integers(4)]
            if kind is GateKind.CX:
                q = rng.choice(n_qubits, size=2, replace=False)
                qubits = (int(q[0]), int(q[1]))
            else:
                qubits = (int(rng.integers(n_qubits)),)
            n_angles = 0
        angles = rng.uniform(0, 4 * np.pi, n_angles)
        if trainable and n_angles >= 1:
            bindings = tuple(theta(slot + i) for i in range(n_angles))
            slot += n_angles
            params.extend(angles)
        else:
            bindings = tuple(const(a) for a in angles)
        gates.append(Gate(kind, qubits, bindings))
    circ = Circuit(n_qubits, [], gates, MeasurementSpec(min(2, n_qubits)))
    return circ, np.array(params)


def fuzz_circuit(rng: np.random.Generator) -> Circuit:
    """A random trainable circuit behind RY encoder gates that read 4 features."""
    n = int(rng.integers(2, 5))
    layers, _ = random_circuit(rng, n, int(rng.integers(3, 12)), trainable=True)
    encoder = [Gate(GateKind.RY, (k % n,), (data(k),)) for k in range(4)]
    return Circuit(n, encoder, layers.layers, layers.measurement)


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    amps = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return amps / np.linalg.norm(amps)
