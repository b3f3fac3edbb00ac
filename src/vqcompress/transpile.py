"""Decomposition to basis gates, the peephole rule, and circuit depth.

The one target basis is {CX, ID, RZ, SX, X} (`BASIS_KINDS`); every LUT level
and TCD is defined against it.  Single-qubit rotations are lowered to RZ/SX/X
sandwiches; controlled rotations to CX-conjugated single-qubit pieces.  Angles
within SNAP_TOL of a multiple of pi/2 select shorter special-case templates;
the snap exists to absorb float noise from projections that produce exact
table values, not to approximate.

Lowering is per gate, at the angles the simulator's gate plans yield
(`lower_gates`), and tracks no phase, and neither does the scan.  Only
`transpile_circuit` knows a global phase: it reads it off the unitaries of
the source and of the kept gates.  `tcd` is depth-only.  Depth is the
longest path through the dependency DAG where two physical gates conflict
iff they share a qubit; appending gates in list order and keeping a
per-qubit watermark computes it exactly.

The peephole rule (merge same-qubit RZ runs; drop ID and RZ(0 mod 2pi)) is
one left-to-right pass, `DepthScan`, that closes an RZ run only when a
non-RZ gate touches its qubit or the scan ends; its output is bit-identical
to looping the rule to a fixpoint.  Every depth and transpile path runs it;
`kept_gates` is its one keep-mode use.  `tcd` and ReCL lower only the layers
and resume a copy of the encoder's cached scan (`encoder_scan`); ReCL prices
a candidate over the span of its changed gates on copies of a scan, and
`DepthScan.join` finishes such a scan from a summary of the unchanged rest:
per qubit, the RZ angles that open the rest and the longest path after them,
which `suffix_summaries` records for many boundaries in one backward pass.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .circuit import Circuit, Gate
from .gates import (ARITY, N_QUBITS_OF_KIND, GateKind, gate_matrix,
                    phase_identity_factor, wrap_param)
from .simulator import apply_matrix, gate_plan

HALF_PI = math.pi / 2
PI = math.pi
SNAP_TOL = 1e-9

# Angle guaranteed to hit the generic ("others") template of every gate kind.
GENERIC_ANGLE = 1.2345

BASIS_KINDS = frozenset({GateKind.CX, GateKind.ID, GateKind.RZ, GateKind.SX, GateKind.X})


@dataclass(frozen=True)
class PhysicalGate:
    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


@dataclass
class TranspiledCircuit:
    n_qubits: int
    gates: list[PhysicalGate] = field(default_factory=list)
    global_phase: float = 0.0  # source unitary == exp(i*phase) * product(gates)


def snap_class(angle: float) -> int | None:
    """Index k in 0..7 if the wrapped angle is within SNAP_TOL of k*pi/2."""
    w = wrap_param(angle)
    k = round(w / HALF_PI)
    if abs(w - k * HALF_PI) <= SNAP_TOL:
        return k % 8
    return None


def _is_zero_mod_2pi(angle: float) -> bool:
    k = snap_class(angle)
    return k is not None and k % 4 == 0


def _rz(q: int, angle: float) -> PhysicalGate:
    return PhysicalGate(GateKind.RZ, (q,), (angle,))


def _emit(q: int, *spec) -> list[PhysicalGate]:
    """Build a single-qubit chain, dropping RZ angles that are 0 mod 2pi."""
    out = []
    for item in spec:
        if item is GateKind.SX or item is GateKind.X:
            out.append(PhysicalGate(item, (q,)))
        elif not _is_zero_mod_2pi(item):
            out.append(_rz(q, item))
    return out


def _rx_gates(theta: float, q: int) -> list[PhysicalGate]:
    th = wrap_param(theta)
    k = snap_class(th)
    if k is None:
        return _emit(q, HALF_PI, GateKind.SX, th + PI, GateKind.SX, 5 * HALF_PI)
    if k % 4 == 0:
        return []
    if k in (2, 6):
        return [PhysicalGate(GateKind.X, (q,))]
    if k in (1, 5):
        return [PhysicalGate(GateKind.SX, (q,))]
    return _emit(q, -PI, GateKind.SX, -PI)  # 3pi/2 family


def _ry_gates(theta: float, q: int) -> list[PhysicalGate]:
    th = wrap_param(theta)
    k = snap_class(th)
    if k is None:
        return _emit(q, GateKind.SX, th + PI, GateKind.SX, PI)
    if k % 4 == 0:
        return []
    if k in (2, 6):
        return _emit(q, PI, GateKind.X)
    if k in (1, 5):
        return _emit(q, -HALF_PI, GateKind.SX, HALF_PI)
    return _emit(q, HALF_PI, GateKind.SX, -HALF_PI)  # 3pi/2 family


def _u3_gates(theta: float, phi: float, lam: float, q: int) -> list[PhysicalGate]:
    th = wrap_param(theta)
    k = snap_class(th)
    if k is None:
        return _emit(q, lam, GateKind.SX, th + PI, GateKind.SX, phi + PI)
    if k % 4 == 0:
        return _emit(q, phi + lam)
    if k in (1, 5):
        return _emit(q, lam - HALF_PI, GateKind.SX, phi + HALF_PI)
    if k in (2, 6):
        return _emit(q, lam + PI, GateKind.X, phi)
    return _emit(q, lam + HALF_PI, GateKind.SX, phi - HALF_PI)  # 3pi/2 family


def _crx_gates(theta: float, c: int, t: int) -> list[PhysicalGate]:
    th = wrap_param(theta)
    cx = PhysicalGate(GateKind.CX, (c, t))
    if snap_class(th) == 4:
        # CRX(2pi) == Z on the control: RZ conjugated through the CX pair.
        return [_rz(t, HALF_PI), cx, _rz(t, PI), cx, _rz(t, -3 * HALF_PI)]
    return ([_rz(t, HALF_PI), cx] + _ry_gates(-th / 2, t) + [cx]
            + _u3_gates(th / 2, -HALF_PI, 0.0, t))


def _cry_gates(theta: float, c: int, t: int) -> list[PhysicalGate]:
    th = wrap_param(theta)
    cx = PhysicalGate(GateKind.CX, (c, t))
    return _ry_gates(th / 2, t) + [cx] + _ry_gates(-th / 2, t) + [cx]


def _crz_gates(theta: float, c: int, t: int) -> list[PhysicalGate]:
    th = wrap_param(theta)
    cx = PhysicalGate(GateKind.CX, (c, t))
    return _emit(t, th / 2) + [cx] + _emit(t, -th / 2) + [cx]


def _cu3_gates(theta: float, phi: float, lam: float, c: int, t: int) -> list[PhysicalGate]:
    th = wrap_param(theta)
    cx = PhysicalGate(GateKind.CX, (c, t))
    return (_emit(c, (lam + phi) / 2) + _emit(t, (lam - phi) / 2) + [cx]
            + _u3_gates(-th / 2, 0.0, -(phi + lam) / 2, t) + [cx]
            + _u3_gates(th / 2, phi, 0.0, t))


def _snapped(angles: tuple[float, ...]) -> list[float]:
    out = []
    for a in angles:
        k = snap_class(a)
        out.append(k * HALF_PI if k is not None else wrap_param(a))
    return out


# Lowering templates of the non-basis kinds; each takes the angles, then the qubits.
_TEMPLATES = {GateKind.RX: _rx_gates, GateKind.RY: _ry_gates, GateKind.U3: _u3_gates,
              GateKind.CRX: _crx_gates, GateKind.CRY: _cry_gates, GateKind.CRZ: _crz_gates,
              GateKind.CU3: _cu3_gates}


def is_phase_identity(kind: GateKind, angles: tuple[float, ...]) -> bool:
    """Whether a gate at its snapped angles is a phase times identity.

    A one-angle kind at a generic angle never is: more than SNAP_TOL off the
    pi/2 grid, an off-diagonal entry (or a diagonal one's distance from the
    phase) is at least sin(SNAP_TOL / 2) ~ 5e-10, above PHASE_IDENTITY_TOL,
    so the dense test is skipped there.  At a snapped angle the answer
    depends only on the kind and the snap class, and is cached per pair
    (`_snapped_phase_identity`).  U3/CU3 take the dense test every time.
    """
    if ARITY[kind] == 0:
        return False
    if ARITY[kind] == 1:
        k = snap_class(angles[0])
        return k is not None and _snapped_phase_identity(kind, k)
    return phase_identity_factor(gate_matrix(kind, _snapped(angles))) is not None


@lru_cache(maxsize=None)
def _snapped_phase_identity(kind: GateKind, k: int) -> bool:
    """The dense test of a one-angle kind at k * pi/2; at most 8 per kind."""
    return phase_identity_factor(gate_matrix(kind, [k * HALF_PI])) is not None


def decompose_kind(kind: GateKind, qubits: tuple[int, ...],
                   angles: tuple[float, ...]) -> list[PhysicalGate]:
    """Lower one logical gate (resolved angles) to physical basis gates.

    A gate that is a phase times identity lowers to no gate at all; this is
    the one test of what prunes, and `lut` reads it as depth 0.
    """
    angles = tuple(wrap_param(a) for a in angles)
    if kind is GateKind.ID or is_phase_identity(kind, angles):
        return []
    if kind in BASIS_KINDS:
        return [PhysicalGate(kind, qubits, angles)]
    return _TEMPLATES[kind](*angles, *qubits)


def lower_gates(gates: tuple[Gate, ...], values: np.ndarray) -> list[list[list[PhysicalGate]]]:
    """Per row of `values`, each gate's basis gates, with no phase.

    The angles are those `gate_plan(gates).angles(values)` gathers, the ones
    the simulator runs: theta rows for the layers, pi * feature rows for
    the encoder.
    """
    plan, rows = gate_plan(gates), len(values)
    gathered = plan.angles(values).transpose(1, 2, 0)  # (G, rows, 3), in build order
    one = sum(ARITY[gates[k].kind] == 1 for k in plan.order)  # the U3 run is last
    per_gate = gathered[:one, :, :1].tolist() + gathered[one:].tolist()
    angles = [[()] * rows] * len(gates)
    for k, gate_rows in zip(plan.order, per_gate):
        angles[k] = gate_rows
    return [[decompose_kind(gate.kind, gate.qubits, angles[k][r])
             for k, gate in enumerate(gates)] for r in range(rows)]


def lower_circuit(circuit: Circuit, params, feats=None) -> list[list[PhysicalGate]]:
    """Row 0 of `lower_gates` of the encoder, then of the layers.

    Data-bound angles default to generic probe values so the depth of an
    angle-encoded circuit does not depend on one particular sample.
    """
    thetas = np.atleast_2d(np.asarray(params, dtype=float))
    f = np.atleast_2d(probe_features(circuit.n_data) if feats is None else feats)
    return (lower_gates(tuple(circuit.encoder), np.pi * f)[0]
            + lower_gates(tuple(circuit.layers), thetas)[0])


def transpile_circuit(circuit: Circuit, params, feats=None) -> TranspiledCircuit:
    """Lower every gate and keep what the peephole rule keeps (`kept_gates`).

    The global phase is read off the two unitaries, the source U (the
    encoder's `gate_plan` at pi * feats, then the layers' at theta) and the
    kept gates' P, each applied to the 2^n basis states as rows: the batches
    hold their transposes, and the phase of tr(P^dagger U) makes
    U == exp(i*phase) * P.
    """
    thetas = np.atleast_2d(np.asarray(params, dtype=float))
    feats = np.atleast_2d(probe_features(circuit.n_data) if feats is None else feats)
    gates = kept_gates(circuit.n_qubits, lower_circuit(circuit, thetas, feats))
    eye = np.eye(2 ** circuit.n_qubits, dtype=complex)
    source = gate_plan(tuple(circuit.layers)).apply(
        gate_plan(tuple(circuit.encoder)).apply(eye, np.pi * feats), thetas)
    physical = eye
    for g in gates:
        physical = apply_matrix(physical, gate_matrix(g.kind, g.params), g.qubits)
    return TranspiledCircuit(circuit.n_qubits, gates, float(np.angle(np.vdot(physical, source))))


def kept_gates(n_qubits: int, physical_lists) -> list[PhysicalGate]:
    """The gates that the peephole rule keeps of the physical gate lists, in
    order: one keep-mode `DepthScan`."""
    scan = DepthScan(n_qubits, keep=True).feed(physical_lists)
    scan.close()
    return [g for g in scan.gates if g is not None]


def lowered_depth(n_qubits: int, physical_lists) -> int:
    """Depth of the physical gate lists after the peephole rule: one
    `DepthScan` pass, with no gate list built."""
    return DepthScan(n_qubits).feed(physical_lists).close()


def probe_features(n: int) -> np.ndarray:
    """Low-discrepancy feature probes in (0, 1), generic under pi-scaling."""
    return np.array([(0.17 + 0.61803398875 * k) % 1.0 for k in range(n)])[None, :]


class DepthScan:
    """The peephole rule as one left-to-right pass, with per-qubit depth.

    Each qubit has a depth watermark and at most one open RZ run: the sum of
    its nonzero RZ angles so far, the watermark before the run, and the run's
    slot in the kept gate list.  ID gates and single RZs that are 0 mod 2pi
    are skipped.  A run closes only when a non-RZ gate touches its qubit, or
    at `close`; a run whose sum is 0 mod 2pi is then dropped and the
    watermark goes back to its value before the run.  Closing
    lazily sums a run in the fixpoint's order and never drops a partial sum,
    so the kept gates equal those of looping the rule until nothing changes.

    With `keep`, the scan also records the kept gates.  `copy` is cheap, so
    a caller can snapshot a depth-only scan and resume it.
    """

    __slots__ = ("level", "runs", "gates")

    def __init__(self, n_qubits: int, keep: bool = False):
        self.level = [0] * n_qubits
        self.runs = {}  # qubit -> (angle sum, watermark before the run, slot in gates)
        self.gates = [] if keep else None

    def copy(self) -> "DepthScan":
        """A depth-only scan resuming from this one's watermarks and runs."""
        new = DepthScan(0)
        new.level, new.runs = list(self.level), dict(self.runs)
        return new

    def feed(self, physical_lists) -> "DepthScan":
        """Scan per-gate lists of physical gates in order; returns the scan."""
        level, runs, kept = self.level, self.runs, self.gates
        for g in chain.from_iterable(physical_lists):
            if g.kind is GateKind.RZ:
                angle, q = g.params[0], g.qubits[0]
                if _is_zero_mod_2pi(angle):
                    continue
                run = runs.get(q)
                if run is not None:
                    runs[q] = (run[0] + angle, run[1], run[2])
                    continue
                runs[q] = (angle, level[q], -1 if kept is None else len(kept))
                level[q] += 1
            elif g.kind is GateKind.ID:
                continue
            else:
                for q in g.qubits:
                    if q in runs:
                        self._close(q)
                d = 1 + max(level[q] for q in g.qubits)
                for q in g.qubits:
                    level[q] = d
            if kept is not None:
                kept.append(g)
        return self

    def join(self, summary) -> int:
        """Depth of this scan followed by the suffix that `summary`
        describes (`suffix_summaries`), without feeding it: on each qubit,
        the open run and the suffix's leading RZ angles close as one run,
        and the qubit's reach is added to its level."""
        depth = 0
        for q, (lead, reach) in enumerate(summary):
            level, run = self.level[q], self.runs.get(q)
            if run is not None:
                level, lead = run[1], (run[0],) + lead
            depth = max(depth, level + _run_depth(lead) + reach)
        return depth

    def _close(self, q: int) -> None:
        total, before, slot = self.runs.pop(q)
        zero = _is_zero_mod_2pi(total)
        if zero:
            self.level[q] = before
        if self.gates is not None:
            self.gates[slot] = None if zero else _rz(q, total)

    def close(self) -> int:
        """Close every open run; return the depth of everything scanned."""
        for q in list(self.runs):
            self._close(q)
        return max(self.level, default=0)


def _run_depth(angles) -> int:
    """Depth an RZ run adds: 1 unless it is empty or its angles, added in
    feed order as `DepthScan.feed` adds them, sum to 0 mod 2pi."""
    total = 0.0
    for angle in angles:
        total += angle
    return int(bool(angles) and not _is_zero_mod_2pi(total))


def suffix_summaries(n_qubits: int, lowered, starts) -> dict:
    """Depth summary of `lowered[b:]` for each b in `starts`, from one
    backward pass over the per-gate physical lists `lowered`.

    A summary holds, per qubit, a pair (lead, reach): the nonzero RZ angles
    the suffix puts on the qubit before its first other gate, in feed order,
    and the longest path from that gate to the end (0 if there is none).
    ID gates and single RZs that are 0 mod 2pi are skipped, as the scan
    skips them.  Past a qubit's first other gate the scan no longer depends
    on what came before, so that gate's reach is one more than the largest,
    over the qubits it touches, of the depth of the RZ run that follows it
    on the qubit plus the qubit's reach from there.  `DepthScan.join`
    finishes a scan of `lowered[:b]` with the summary.
    """
    lead, reach = [()] * n_qubits, [0] * n_qubits
    out = {}
    for b in range(len(lowered), min(starts, default=len(lowered)) - 1, -1):
        for g in reversed(lowered[b] if b < len(lowered) else ()):
            if g.kind is GateKind.RZ:
                if not _is_zero_mod_2pi(g.params[0]):
                    lead[g.qubits[0]] = (g.params[0],) + lead[g.qubits[0]]
            elif g.kind is not GateKind.ID:
                r = 1 + max(_run_depth(lead[q]) + reach[q] for q in g.qubits)
                for q in g.qubits:
                    lead[q], reach[q] = (), r
        if b in starts:
            out[b] = tuple(zip(lead, reach))
    return out


@lru_cache(maxsize=None)
def _encoder_scan(encoder: tuple[Gate, ...], n_qubits: int, n_data: int) -> DepthScan:
    return DepthScan(n_qubits).feed(lower_gates(encoder, np.pi * probe_features(n_data))[0])


def encoder_scan(circuit: Circuit) -> DepthScan:
    """A copy of the encoder's cached depth-only scan, at `probe_features`."""
    return _encoder_scan(tuple(circuit.encoder), circuit.n_qubits, circuit.n_data).copy()


def tcd(circuit: Circuit, params) -> int:
    """Transpiled circuit depth of a logical circuit at given parameters, with
    the encoder at generic probe features (`encoder_scan`)."""
    thetas = np.atleast_2d(np.asarray(params, dtype=float))
    return encoder_scan(circuit).feed(lower_gates(tuple(circuit.layers), thetas)[0]).close()


def standalone_gate_depth(kind: GateKind, params) -> int:
    """Depth of a single-gate circuit after transpile + peephole."""
    angles = tuple(float(p) for p in np.atleast_1d(np.asarray(params, dtype=float))) \
        if ARITY[kind] else ()
    return _standalone_depth_cached(kind, tuple(_snapped(angles)) if angles else ())


@lru_cache(maxsize=4096)
def _standalone_depth_cached(kind: GateKind, angles: tuple) -> int:
    qubits = tuple(range(N_QUBITS_OF_KIND[kind]))
    return lowered_depth(len(qubits), [decompose_kind(kind, qubits, angles)])


# Parameter-class columns of the standalone depth table, printing order.
PARAM_CLASSES = ("0", "pi", "2pi", "3pi", "4pi", "pi/2", "3pi/2", "5pi/2", "7pi/2", "others")
_CLASS_ANGLE = {"0": 0.0, "pi": PI, "2pi": 2 * PI, "3pi": 3 * PI, "4pi": 4 * PI,
                "pi/2": HALF_PI, "3pi/2": 3 * HALF_PI, "5pi/2": 5 * HALF_PI,
                "7pi/2": 7 * HALF_PI, "others": GENERIC_ANGLE}

TABLE_KINDS = (GateKind.RX, GateKind.RY, GateKind.RZ,
               GateKind.CRX, GateKind.CRY, GateKind.CRZ)
FIXED_KINDS = (GateKind.X, GateKind.SX, GateKind.CX, GateKind.ID)


@dataclass
class DepthTable:
    """Standalone transpiled depth per (gate kind, parameter class)."""

    entries: dict

    def max_depth(self) -> int:
        return max(self.entries.values())

    def rows(self):
        for kind in TABLE_KINDS:
            yield kind.value, [self.entries[(kind, c)] for c in PARAM_CLASSES]
        for kind in FIXED_KINDS:
            yield kind.value, [self.entries[(kind, "-")]]


def build_depth_table() -> DepthTable:
    entries = {}
    for kind in TABLE_KINDS:
        for cls in PARAM_CLASSES:
            entries[(kind, cls)] = standalone_gate_depth(kind, [_CLASS_ANGLE[cls]])
    for kind in FIXED_KINDS:
        entries[(kind, "-")] = standalone_gate_depth(kind, [])
    return DepthTable(entries)
