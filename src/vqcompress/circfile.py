"""Line-oriented circuit description files.

Grammar::

    qubits N
    #encoder
    GATE q0[,q1] [angle | free | free3]
    #layers
    GATE q0[,q1] [angle | free | free3]
    #measure (perqubitz | grouping) N_CLASSES

One gate per line; for controlled gates the first qubit is the control.
Parametric gates take exactly one token after the qubits: a float literal for
a fixed angle, `free` for the next open slot, or `free3` for three slots
(U3/CU3 only).  In the encoder section `free` binds the next input feature;
in the layers section it binds the next trainable parameter.  Fixed-arity
gates (CX, SX, X, ID) take no angle token.  Unknown tokens are rejected with
their line number.

A circuit whose encoder binds no feature (no `free`/`free3` in `#encoder`, or
no `#encoder` section) reads its input as amplitudes: each sample's 2^N
features, L2-normalized, are the initial state.
"""

import math
from importlib import resources

from .circuit import Circuit, Gate, MeasureScheme, MeasurementSpec, const, data, theta
from .errors import ParseError, SpecError
from .gates import ARITY, N_QUBITS_OF_KIND, GateKind

_SCHEMES = {"perqubitz": MeasureScheme.PER_QUBIT_Z, "grouping": MeasureScheme.STATE_GROUPING}


def parse_circuit(text: str) -> Circuit:
    n_qubits = None
    section = None
    encoder: list[Gate] = []
    layers: list[Gate] = []
    measurement = None
    next_data = 0
    next_theta = 0

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
        if head == "#encoder":
            section = "encoder"
            continue
        if head == "#layers":
            section = "layers"
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
        if section not in ("encoder", "layers"):
            raise ParseError("gate line outside #encoder / #layers", lineno)
        try:
            kind = GateKind(tokens[0].upper())
        except ValueError:
            raise ParseError(f"unknown gate {tokens[0]!r}", lineno) from None
        if len(tokens) < 2:
            raise ParseError(f"{kind.value} line is missing qubits", lineno)
        try:
            qubits = tuple(int(q) for q in tokens[1].split(","))
        except ValueError:
            raise ParseError(f"bad qubit list {tokens[1]!r}", lineno) from None
        if len(qubits) != N_QUBITS_OF_KIND[kind]:
            raise ParseError(f"{kind.value} takes {N_QUBITS_OF_KIND[kind]} qubit(s)", lineno)
        if any(not 0 <= q < n_qubits for q in qubits):
            raise ParseError(f"qubit out of range in {tokens[1]!r}", lineno)
        if len(set(qubits)) != len(qubits):
            raise ParseError(f"duplicate qubit in {tokens[1]!r}", lineno)

        arity = ARITY[kind]
        angle_tokens = tokens[2:]
        if arity == 0:
            if angle_tokens:
                raise ParseError(f"{kind.value} takes no angle token", lineno)
            bindings = ()
        elif len(angle_tokens) != 1:
            raise ParseError(f"{kind.value} takes exactly one angle token", lineno)
        else:
            tok = angle_tokens[0].lower()
            if tok == "free3":
                if arity != 3:
                    raise ParseError(f"free3 is only valid for U3/CU3, not {kind.value}", lineno)
                if section == "encoder":
                    bindings = tuple(data(next_data + i) for i in range(3))
                    next_data += 3
                else:
                    bindings = tuple(theta(next_theta + i) for i in range(3))
                    next_theta += 3
            elif tok == "free":
                if arity != 1:
                    raise ParseError(f"{kind.value} needs free3, not free", lineno)
                if section == "encoder":
                    bindings = (data(next_data),)
                    next_data += 1
                else:
                    bindings = (theta(next_theta),)
                    next_theta += 1
            else:
                try:
                    vals = [float(v) for v in angle_tokens[0].split(",")]
                except ValueError:
                    raise ParseError(f"unknown angle token {angle_tokens[0]!r}", lineno) from None
                if len(vals) != arity:
                    raise ParseError(f"{kind.value} takes {arity} angle(s)", lineno)
                if not all(math.isfinite(v) for v in vals):
                    raise ParseError(f"non-finite angle {angle_tokens[0]!r}", lineno)
                bindings = tuple(const(v) for v in vals)
        (encoder if section == "encoder" else layers).append(Gate(kind, qubits, bindings))

    if n_qubits is None:
        raise ParseError("missing `qubits N` header", 1)
    if measurement is None:
        raise ParseError("missing `#measure` section", 1)
    try:
        measurement.validated(n_qubits)
    except SpecError as exc:
        raise ParseError(str(exc), measure_line) from None
    return Circuit(n_qubits, encoder, layers, measurement, amplitude_input=next_data == 0)


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
