"""Gate kinds, their unitary matrices, and angle arithmetic on the [0, 4pi) circle.

All rotation angles are radians.  Parameters live on a circle of circumference
4*pi because every rotation gate here has period 4*pi (period 2*pi only up to
global phase).
"""

import enum
import math

import numpy as np

from .errors import ArityError

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# Tolerance for detecting c*I matrices.
PHASE_IDENTITY_TOL = 1e-10


class GateKind(enum.Enum):
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    CRX = "CRX"
    CRY = "CRY"
    CRZ = "CRZ"
    CX = "CX"
    SX = "SX"
    X = "X"
    ID = "ID"
    U3 = "U3"
    CU3 = "CU3"


ARITY = {
    GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1,
    GateKind.CRX: 1, GateKind.CRY: 1, GateKind.CRZ: 1,
    GateKind.CX: 0, GateKind.SX: 0, GateKind.X: 0, GateKind.ID: 0,
    GateKind.U3: 3, GateKind.CU3: 3,
}

N_QUBITS_OF_KIND = {
    GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1,
    GateKind.CRX: 2, GateKind.CRY: 2, GateKind.CRZ: 2,
    GateKind.CX: 2, GateKind.SX: 1, GateKind.X: 1, GateKind.ID: 1,
    GateKind.U3: 1, GateKind.CU3: 2,
}

_ID2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def wrap_param(x: float) -> float:
    """Map an angle to its canonical representative in [0, 4pi)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite parameter: {x!r}")
    r = math.fmod(x, FOUR_PI)
    if r < 0.0:
        r += FOUR_PI
    if r >= FOUR_PI:  # fmod rounding at the boundary
        r -= FOUR_PI
    return r


def wrap_params(values) -> np.ndarray:
    """Vectorised wrap_param for parameter arrays."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite parameter in vector")
    r = np.mod(v, FOUR_PI)
    r[r >= FOUR_PI] = 0.0
    return r


def circ_dist(a, b) -> np.ndarray | float:
    """Shortest distance between two angles on the [0, 4pi) circle."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % FOUR_PI
    return np.minimum(d, FOUR_PI - d)[()] if np.ndim(d) else min(d, FOUR_PI - d)


def circ_residual(a, b) -> np.ndarray:
    """Signed residual a - b on the circle, in [-2pi, 2pi)."""
    return (np.asarray(a, dtype=float) - np.asarray(b, dtype=float) + TWO_PI) % FOUR_PI - TWO_PI


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([
        [c, -np.exp(1j * lam) * s],
        [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
    ], dtype=complex)


def _controlled(u: np.ndarray) -> np.ndarray:
    """4x4 block diag(I, u); first (control) qubit is the high bit of the index."""
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = u
    return m


def gate_matrix(kind: GateKind, params) -> np.ndarray:
    """Dense unitary of a gate kind, 2x2 or 4x4."""
    params = list(params)
    if len(params) != ARITY[kind]:
        raise ArityError(f"{kind.value} takes {ARITY[kind]} parameter(s), got {len(params)}")
    if kind is GateKind.RX:
        return _rx(params[0])
    if kind is GateKind.RY:
        return _ry(params[0])
    if kind is GateKind.RZ:
        return _rz(params[0])
    if kind is GateKind.CRX:
        return _controlled(_rx(params[0]))
    if kind is GateKind.CRY:
        return _controlled(_ry(params[0]))
    if kind is GateKind.CRZ:
        return _controlled(_rz(params[0]))
    if kind is GateKind.U3:
        return _u3(*params)
    if kind is GateKind.CU3:
        return _controlled(_u3(*params))
    if kind is GateKind.CX:
        return _controlled(_X)
    if kind is GateKind.SX:
        return _SX.copy()
    if kind is GateKind.X:
        return _X.copy()
    if kind is GateKind.ID:
        return _ID2.copy()
    raise ArityError(f"unknown gate kind {kind!r}")


def phase_identity_factor(m: np.ndarray, tol: float = PHASE_IDENTITY_TOL):
    """Return c with m == c*I and |c| == 1, or None if m is not a phase times I."""
    n = m.shape[0]
    c = np.trace(m) / n
    if abs(abs(c) - 1.0) > tol:
        return None
    if np.max(np.abs(m - c * np.eye(n))) > tol:
        return None
    return complex(c)
