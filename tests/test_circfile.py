import pytest

from vqcompress.circfile import load_reference, parse_circuit
from vqcompress.circuit import BindKind, Circuit, Gate, MeasureScheme, data
from vqcompress.errors import ParseError, SpecError
from vqcompress.gates import GateKind

GOOD = """\
qubits 2
#encoder
RY 0 free
RZ 1 free
#layers
RX 0 free
CRX 0,1 free
U3 1 free3
CX 1,0
RZ 0 1.5707963
#measure perqubitz 2
"""


def test_parse_good_file():
    circ = parse_circuit(GOOD)
    assert circ.n_qubits == 2
    assert len(circ.encoder) == 2 and len(circ.layers) == 5
    assert circ.n_thetas == 5  # RX + CRX + three U3 slots
    assert circ.n_data == 2
    assert circ.measurement.scheme is MeasureScheme.PER_QUBIT_Z
    assert circ.layers[3].kind is GateKind.CX and not circ.layers[3].trainable
    assert circ.layers[4].bindings[0].kind is BindKind.CONST


def test_controlled_gate_qubit_order_is_control_first():
    circ = parse_circuit(GOOD)
    assert circ.layers[1].qubits == (0, 1)
    assert circ.layers[3].qubits == (1, 0)


def test_comment_lines_are_ignored():
    circ = parse_circuit("# header comment\n" + GOOD + "# trailing\n")
    assert len(circ.layers) == 5


@pytest.mark.parametrize("bad,line", [
    ("qubits 2\n#layers\nRX 0 banana\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nFOO 0 free\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nRX 5 free\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nCRX 0 free\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nCX 0,1 free\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nRX 0 free3\n#measure perqubitz 2", 3),
    ("qubits 2\n#encodr\nRY 0 free\n#measure perqubitz 2", 2),
    ("qubits 2\nRX 0 free\n#measure perqubitz 2", 2),
    ("qubits 2\n#layers\nCRX 0,0 free\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nRZ 1 nan\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nU3 1 0.5,inf,0\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nRX 0 free\n#measure perqubitz 3", 4),
    ("qubits 2\n#layers\nRX 0 free\n#measure grouping 5", 4),
    ("qubits 2\n#layers\nRX 0 free\n#measure grouping 0", 4),
    ("#measure perqubitz 3\nqubits 2\n#layers\nRX 0 free", 1),
    ("qubits 0\n#layers\n#measure perqubitz 2", 1),
    ("qubits 2\n#layers\nRX 0\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nSX 0 0.5\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nU3 1 free\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nRX 0 0.1,0.2\n#measure perqubitz 2", 3),
    ("qubits 2\n#layers\nRX 0 free free\n#measure perqubitz 2", 3),
])
def test_parse_errors_carry_line_numbers(bad, line):
    with pytest.raises(ParseError) as err:
        parse_circuit(bad)
    assert err.value.line == line


@pytest.mark.parametrize("encoder, amplitude, n_inputs", [
    ("#encoder\nRY 0 free\nRZ 1 free\n", False, 2),
    ("#encoder\nU3 1 free3\n", False, 3),
    ("#encoder\nRY 0 0.5\nCX 0,1\n", True, 4),
    ("", True, 4),
], ids=["free", "free3", "fixed-angles", "no-encoder"])
def test_encoder_bindings_decide_the_input(encoder, amplitude, n_inputs):
    # an encoder that binds no feature reads 2^n amplitudes
    circ = parse_circuit(f"qubits 2\n{encoder}#layers\nRX 0 free\n#measure perqubitz 2\n")
    assert circ.amplitude_input is amplitude
    assert circ.n_inputs == n_inputs


@pytest.mark.parametrize("section", ["encoder", "layers"])
def test_amplitude_input_rejects_data_bound_gates(section):
    reader = [Gate(GateKind.RY, (0,), (data(0),))]
    if section == "encoder":
        assert Circuit(2, reader, []).n_inputs == 1
        with pytest.raises(SpecError, match="amplitude input"):
            Circuit(2, reader, [], amplitude_input=True)
        return
    for amplitude_input in (False, True):  # features never reach a layer gate
        with pytest.raises(SpecError, match="layer gates must not read data"):
            Circuit(2, [], reader, amplitude_input=amplitude_input)


def test_missing_header_or_measure():
    with pytest.raises(ParseError):
        parse_circuit("#layers\nRX 0 free\n#measure perqubitz 2")
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\n#layers\nRX 0 free\n")


def test_reference_syn4_shape():
    circ = load_reference("syn4")
    assert circ.n_qubits == 2
    assert len(circ.layers) == 14 and circ.n_thetas == 14
    assert len(circ.encoder) == 4 and circ.n_data == 4
    kinds = {g.kind for g in circ.layers}
    assert kinds == {GateKind.RX, GateKind.RY, GateKind.RZ,
                     GateKind.CRX, GateKind.CRY, GateKind.CRZ}
    enc_kinds = [g.kind for g in circ.encoder]
    assert enc_kinds == [GateKind.RY, GateKind.RY, GateKind.RZ, GateKind.RZ]


def test_reference_syn16_shape():
    circ = load_reference("syn16")
    assert circ.n_qubits == 4
    assert len(circ.layers) == 22 and circ.n_thetas == 22
    assert len(circ.encoder) == 16 and circ.n_data == 16
    enc_kinds = [g.kind for g in circ.encoder]
    assert enc_kinds == ([GateKind.RY] * 4 + [GateKind.RZ] * 4
                         + [GateKind.RX] * 4 + [GateKind.RY] * 4)


def test_unknown_reference_name():
    with pytest.raises(ParseError):
        load_reference("nope")


def test_grouping_measure_section():
    text = "qubits 4\n#layers\nRY 0 free\n#measure grouping 3\n"
    circ = parse_circuit(text)
    assert circ.measurement.scheme is MeasureScheme.STATE_GROUPING
    assert [len(g) for g in circ.measurement.groups] == [5, 5, 5]
