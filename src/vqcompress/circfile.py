"""Line-oriented circuit description files.

Grammar::

    qubits N
    #encoder
    GATE q0[,q1] [angle | free | free3]
    #layers
    GATE q0[,q1] [angle | free | free3]
    #measure (perqubitz | grouping) N_CLASSES

One gate per line; for controlled gates the first qubit is the control.  A
gate line takes at most one token after the qubits: comma-separated finite
float literals for fixed angles, `free` for the next open slot, or `free3`
for the next three.  In the encoder section a slot is an input feature; in
the layers section it is a trainable parameter.

The parser checks what the grammar and the line decide: the header, section
markers and comments, the token shapes, the qubit range and the `#measure`
line.  `Gate` decides the rest (its qubit count, distinct qubits, and how
many angles its kind takes, so a fixed kind such as CX takes no angle token
and only U3/CU3 take `free3`), and its errors are reported at their line.

A circuit whose encoder binds no feature (no `free`/`free3` in `#encoder`, or
no `#encoder` section) reads its input as amplitudes: each sample's 2^N
features, L2-normalized, are the initial state.
"""

import math
from importlib import resources

from .circuit import Circuit, Gate, MeasureScheme, MeasurementSpec, const, data, theta
from .errors import ParseError, SpecError
from .gates import GateKind

_SCHEMES = {"perqubitz": MeasureScheme.PER_QUBIT_Z, "grouping": MeasureScheme.STATE_GROUPING}
_FREE_SLOTS = {"free": 1, "free3": 3}  # open slots an angle token binds


def parse_circuit(text: str) -> Circuit:
    n_qubits = None
    section = None
    gates: dict[str, list[Gate]] = {"encoder": [], "layers": []}
    next_slot = {"encoder": 0, "layers": 0}  # next data / theta slot
    measurement = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#") and line.split()[0].lower() not in ("#encoder", "#layers",
                                                                    "#measure"):
            if len(line) == 1 or line[1] in " \t#":
                continue  # comment line
            raise ParseError(f"unknown section marker {line.split()[0]!r}", lineno)
        line = line.split(" #", 1)[0].strip()  # trailing comments
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()

        if head == "qubits":
            if len(tokens) != 2 or not tokens[1].isdigit() or int(tokens[1]) < 1:
                raise ParseError("expected `qubits N` with N >= 1", lineno)
            n_qubits = int(tokens[1])
            continue
        if head in ("#encoder", "#layers"):
            section = head[1:]
            continue
        if head == "#measure":
            if len(tokens) != 3 or tokens[1].lower() not in _SCHEMES:
                raise ParseError("expected `#measure perqubitz|grouping N`", lineno)
            try:
                n_classes = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad class count {tokens[2]!r}", lineno) from None
            if n_classes < 1:
                raise ParseError(f"class count must be at least 1, got {n_classes}", lineno)
            measurement = MeasurementSpec(n_classes, _SCHEMES[tokens[1].lower()])
            measure_line = lineno
            continue
        if head.startswith("#"):
            raise ParseError(f"unknown section marker {tokens[0]!r}", lineno)

        if n_qubits is None:
            raise ParseError("gate line before `qubits N` header", lineno)
        if section is None:
            raise ParseError("gate line outside #encoder / #layers", lineno)
        try:
            kind = GateKind(tokens[0].upper())
        except ValueError:
            raise ParseError(f"unknown gate {tokens[0]!r}", lineno) from None
        if len(tokens) < 2:
            raise ParseError(f"{kind.value} line is missing qubits", lineno)
        if len(tokens) > 3:
            raise ParseError(f"{kind.value} takes at most one angle token", lineno)
        try:
            qubits = tuple(int(q) for q in tokens[1].split(","))
        except ValueError:
            raise ParseError(f"bad qubit list {tokens[1]!r}", lineno) from None
        if any(not 0 <= q < n_qubits for q in qubits):
            raise ParseError(f"qubit out of range in {tokens[1]!r}", lineno)
        angle = tokens[2] if len(tokens) == 3 else None
        if angle is None:
            bindings = ()
        elif angle.lower() in _FREE_SLOTS:
            bind, start = data if section == "encoder" else theta, next_slot[section]
            bindings = tuple(bind(start + i) for i in range(_FREE_SLOTS[angle.lower()]))
            next_slot[section] += len(bindings)
        else:
            try:
                values = [float(v) for v in angle.split(",")]
            except ValueError:
                raise ParseError(f"unknown angle token {angle!r}", lineno) from None
            if not all(math.isfinite(v) for v in values):
                raise ParseError(f"non-finite angle {angle!r}", lineno)
            bindings = tuple(const(v) for v in values)
        try:  # Gate decides the qubit count, distinct qubits and the angle count
            gates[section].append(Gate(kind, qubits, bindings))
        except SpecError as exc:
            raise ParseError(str(exc), lineno) from None

    if n_qubits is None:
        raise ParseError("missing `qubits N` header", 1)
    if measurement is None:
        raise ParseError("missing `#measure` section", 1)
    try:
        measurement.validated(n_qubits)
    except SpecError as exc:
        raise ParseError(str(exc), measure_line) from None
    return Circuit(n_qubits, gates["encoder"], gates["layers"], measurement,
                   amplitude_input=next_slot["encoder"] == 0)


def load_circuit_file(path) -> Circuit:
    with open(path) as fh:
        return parse_circuit(fh.read())


REFERENCE_NAMES = ("syn4", "syn16")


def load_reference(name: str) -> Circuit:
    """Bundled reference circuits: `syn4` (2 qubits, 14 trainable gates) and
    `syn16` (4 qubits, 22 trainable gates)."""
    if name not in REFERENCE_NAMES:
        raise ParseError(f"unknown reference circuit {name!r}")
    text = resources.files("vqcompress.circuits").joinpath(f"{name}.circ").read_text()
    return parse_circuit(text)
