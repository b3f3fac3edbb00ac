"""Gate kinds, their unitary matrices, and angle arithmetic on the [0, 4pi) circle.

All rotation angles are radians.  Parameters live on a circle of circumference
4*pi because every rotation gate here has period 4*pi (period 2*pi only up to
global phase).

Gate matrices are built here and nowhere else: `gate_mats_batch` stacks them
for an angle array, and `gate_matrix` (one gate) is its one-row view.
`stacked_blocks` builds the 2x2 blocks of a whole gate sequence, and the U3
formula's angle partials, with one `gate_mats_batch` call per formula kind,
and `controlled_mats` embeds the controlled gates' blocks.  A rotation's
derivative is not a matrix: `GENERATORS` gives its Pauli generator, which
the gradient applies as a permutation and a phase.
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


def _rotation_mats(kind: GateKind, angles: np.ndarray) -> np.ndarray:
    """2x2 blocks for RX/RY/RZ, (..., 2, 2) from an angle array of any shape."""
    m = np.zeros(angles.shape + (2, 2), dtype=complex)
    if kind is GateKind.RZ:
        m[..., 0, 0] = np.exp(-0.5j * angles)
        m[..., 1, 1] = np.exp(0.5j * angles)
        return m
    half = angles / 2
    c, s = np.cos(half), np.sin(half)
    m[..., 0, 0] = c
    m[..., 1, 1] = c
    if kind is GateKind.RX:
        m[..., 0, 1] = m[..., 1, 0] = -1j * s
    else:
        m[..., 0, 1] = -s
        m[..., 1, 0] = s
    return m


def _u3_mats(angles: np.ndarray) -> np.ndarray:
    """(..., 3) Euler angles -> (..., 2, 2)."""
    th, ph, lm = angles[..., 0], angles[..., 1], angles[..., 2]
    c, s = np.cos(th / 2), np.sin(th / 2)
    m = np.zeros(angles.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = c
    m[..., 0, 1] = -np.exp(1j * lm) * s
    m[..., 1, 0] = np.exp(1j * ph) * s
    m[..., 1, 1] = np.exp(1j * (ph + lm)) * c
    return m


def controlled_mats(blocks: np.ndarray, control0=1.0) -> np.ndarray:
    """(..., 4, 4) matrices diag(control0 * I, block) from (..., 2, 2) target
    blocks, with control0 broadcast against the leading axes; the first
    (control) qubit is the high bit of the index."""
    m = np.zeros(blocks.shape[:-2] + (4, 4), dtype=complex)
    m[..., 0, 0] = control0
    m[..., 1, 1] = control0
    m[..., 2:, 2:] = blocks
    return m


# Target-qubit kind of each controlled kind with angles.
CONTROLLED_TARGET = {GateKind.CRX: GateKind.RX, GateKind.CRY: GateKind.RY,
                     GateKind.CRZ: GateKind.RZ, GateKind.CU3: GateKind.U3}

# Matrices of the kinds without angles.
_FIXED = {
    GateKind.CX: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    GateKind.SX: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.ID: np.eye(2, dtype=complex),
}


def gate_mats_batch(kind: GateKind, angles: np.ndarray | None) -> np.ndarray:
    """Gate matrices, (..., d, d), from an angle array of any shape, with a
    trailing axis of 3 for U3/CU3; a fixed kind takes None and gives one
    fresh (d, d) matrix."""
    if ARITY[kind] == 0:
        return _FIXED[kind].copy()
    if kind in CONTROLLED_TARGET:
        return controlled_mats(gate_mats_batch(CONTROLLED_TARGET[kind], angles))
    if kind is GateKind.U3:
        return _u3_mats(angles)
    return _rotation_mats(kind, angles)


# The formulas that build the 2x2 block of every kind with angles: its own,
# or a controlled kind's target's (`CONTROLLED_TARGET`).  U3 is last.
FORMULAS = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.U3)

# The Pauli generator P of each rotation formula, exp(-i t P / 2): whether P
# flips its qubit, and the phase it puts on an amplitude whose qubit reads 0
# and 1, so (P psi)_b = phase_b psi_(b xor flip).  dU/dt U^dagger = -iP/2 at
# every t, so a rotation's gradient needs no derivative matrix.
GENERATORS = {GateKind.RX: (True, (1, 1)), GateKind.RY: (True, (-1j, 1j)),
              GateKind.RZ: (False, (1, -1))}

# U3(angles + _SHIFT) = 2 dU/d(theta), on (3, ...) angle stacks
_SHIFT = np.array([math.pi, 0.0, 0.0])[:, None, None]
_P1 = np.diag([0.0, 1.0j])  # i * |1><1|


def stacked_blocks(runs: tuple, angles: np.ndarray, derivatives: bool = False) -> np.ndarray:
    """The 2x2 blocks of G gates with angles, one formula call per run.

    `angles` is (3, G, rows): angle j of each gate on each row, a one-angle
    kind's at j = 0.  `runs`, ((formula, stop), ...) in `FORMULAS` order,
    splits the gates into consecutive runs of one formula.  The result is
    (G, rows, 2, 2), each gate's U.  With `derivatives` and a U3 run of N
    gates, 3N more blocks follow it, gate by gate: each gate's theta, phi and
    lambda partials, U(theta + pi) / 2 from the same formula call as U, and
    i|1><1| U and U i|1><1|.  The rotations get none (`GENERATORS`).  Each
    U equals `gate_mats_batch` of the gate's own angles bit for bit.
    """
    out, start = [], 0
    for formula, stop in runs:
        a = angles[:, start:stop]
        if formula is GateKind.U3 and derivatives:
            a = np.concatenate((a, a + _SHIFT), axis=1)
        out.append(gate_mats_batch(formula, np.moveaxis(a, 0, -1) if formula is GateKind.U3
                                   else a[0]))
        start = stop
    if not derivatives or runs[-1][0] is not GateKind.U3:
        return np.concatenate(out)
    u, shifted = np.split(out.pop(), 2)
    partials = np.stack((0.5 * shifted, _P1 @ u, u @ _P1), axis=1)
    return np.concatenate(out + [u, partials.reshape((-1,) + u.shape[1:])])


def gate_matrix(kind: GateKind, params) -> np.ndarray:
    """Dense unitary of a gate kind, 2x2 or 4x4: one row of `gate_mats_batch`."""
    params = list(params)
    if len(params) != ARITY[kind]:
        raise ArityError(f"{kind.value} takes {ARITY[kind]} parameter(s), got {len(params)}")
    if not params:
        return gate_mats_batch(kind, None)
    angles = np.array([params], dtype=float)
    return gate_mats_batch(kind, angles[:, 0] if len(params) == 1 else angles)[0]


def phase_identity_factor(m: np.ndarray, tol: float = PHASE_IDENTITY_TOL):
    """Return c with m == c*I and |c| == 1, or None if m is not a phase times I."""
    n = m.shape[0]
    c = np.trace(m) / n
    if abs(abs(c) - 1.0) > tol:
        return None
    if np.max(np.abs(m - c * np.eye(n))) > tol:
        return None
    return complex(c)
