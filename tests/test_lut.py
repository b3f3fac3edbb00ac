import math

import numpy as np
import pytest

from vqcompress.circfile import load_reference
from vqcompress.circuit import Circuit, Gate, MeasurementSpec, const
from vqcompress.gates import FOUR_PI, GateKind, gate_matrix, phase_identity_factor
from vqcompress.lut import LevelTag, build_lut, default_candidates, find_levels
from vqcompress.simulator import measure_outputs_batch, run_circuit
from vqcompress.transpile import standalone_gate_depth

PI = math.pi


def values_of(levels):
    return sorted(lv.value[0] for lv in levels)


def tagged(kind, tag, candidates=None):
    return [lv for lv in find_levels(kind, candidates) if lv.tag is tag]


@pytest.mark.parametrize("kind,expected", [
    (GateKind.RX, [0.0, 2 * PI]),
    (GateKind.RY, [0.0, 2 * PI]),
    (GateKind.RZ, [0.0, 2 * PI]),
    (GateKind.CRX, [0.0]),
    (GateKind.CRY, [0.0]),
    (GateKind.CRZ, [0.0]),
])
def test_pruning_levels(kind, expected):
    got = tagged(kind, LevelTag.PRUNE)
    assert values_of(got) == pytest.approx(expected)
    assert all(lv.depth == 0 for lv in got)


def test_pruning_scan_oracle_finds_nothing_new():
    # 10k-point scan: c*I points exist only at the reported levels
    angles = np.linspace(0.0, FOUR_PI, 10_000, endpoint=False)
    reported = {GateKind.RX: [0.0, 2 * PI], GateKind.RY: [0.0, 2 * PI],
                GateKind.RZ: [0.0, 2 * PI], GateKind.CRX: [0.0],
                GateKind.CRY: [0.0], GateKind.CRZ: [0.0]}
    for kind, levels in reported.items():
        for a in angles:
            if phase_identity_factor(gate_matrix(kind, [a])) is not None:
                assert min(abs(a - lv) for lv in levels) < 1e-9


def test_quantization_levels_rx():
    got = {lv.value[0]: lv.depth for lv in tagged(GateKind.RX, LevelTag.QUANTIZE)}
    assert got[PI / 2] == 1 and got[PI] == 1 and got[3 * PI / 2] == 3
    assert 0.0 not in got and 2 * PI not in got  # pruning levels excluded


def test_quantization_levels_crx():
    got = {lv.value[0]: lv.depth for lv in tagged(GateKind.CRX, LevelTag.QUANTIZE)}
    assert got == {2 * PI: 5, PI: 8, 3 * PI: 9}


def test_rz_has_no_quantization_levels():
    assert tagged(GateKind.RZ, LevelTag.QUANTIZE) == []
    assert tagged(GateKind.CRZ, LevelTag.QUANTIZE) == []


def test_quantization_depths_below_generic():
    from vqcompress.lut import generic_depth
    for kind in (GateKind.RX, GateKind.RY, GateKind.CRX, GateKind.CRY, GateKind.U3):
        ceiling = generic_depth(kind)
        for lv in tagged(kind, LevelTag.QUANTIZE):
            assert lv.depth < ceiling


def test_u3_pruning_tuples():
    levels = tagged(GateKind.U3, LevelTag.PRUNE)
    assert levels, "U3 has pruning tuples on the grid"
    for lv in levels:
        t, p, l = lv.value
        assert t in (0.0, 2 * PI) and (p + l) % (2 * PI) == pytest.approx(0, abs=1e-9) \
            or abs((p + l) % (2 * PI) - 2 * PI) < 1e-9
        assert lv.depth == 0


def test_build_lut_keys_and_ordering():
    circ = load_reference("syn4")
    lut = build_lut(circ)
    assert set(lut.entries) == {GateKind.RX, GateKind.RY, GateKind.RZ,
                                GateKind.CRX, GateKind.CRY, GateKind.CRZ}
    assert [lv.tag for lv in lut.entries[GateKind.RZ]] == [LevelTag.PRUNE, LevelTag.PRUNE]
    for levels in lut.entries.values():
        assert levels == sorted(levels)  # depth then value ordering


def test_lut_depth_matches_standalone_depth():
    lut = build_lut(load_reference("syn4"))
    for kind, levels in lut.entries.items():
        for lv in levels:
            assert lv.depth == standalone_gate_depth(kind, lv.value)


def test_rx_lut_includes_documented_levels():
    lut = build_lut(load_reference("syn4"))
    got = {lv.value[0]: lv.depth for lv in lut.entries[GateKind.RX]}
    for angle, depth in [(0.0, 0), (PI / 2, 1), (PI, 1), (3 * PI / 2, 3), (2 * PI, 0)]:
        assert got[angle] == depth


def test_prune_substitution_equals_deletion():
    rng = np.random.default_rng(21)
    for kind in (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.CRX, GateKind.CRZ):
        for lv in tagged(kind, LevelTag.PRUNE):
            qubits = (0,) if kind.value in ("RX", "RY", "RZ") else (0, 1)
            gates = [Gate(GateKind.RY, (0,), (const(0.8),)),
                     Gate(kind, qubits, tuple(const(v) for v in lv.value)),
                     Gate(GateKind.CRY, (1, 0), (const(2.2),))]
            circ = Circuit(2, [], gates, MeasurementSpec(2))
            removed = Circuit(2, [], [gates[0], gates[2]], MeasurementSpec(2))
            a = run_circuit(circ, [])
            b = run_circuit(removed, [])
            assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)) < 1e-12
            outs = measure_outputs_batch(np.stack([a, b]), circ.measurement)
            assert np.allclose(outs[0], outs[1], atol=1e-12)


def test_custom_candidates_pass_through():
    fine = [(a,) for a in np.linspace(0, FOUR_PI, 1000, endpoint=False)]
    got = tagged(GateKind.RX, LevelTag.PRUNE, fine)
    assert values_of(got) == pytest.approx([0.0, 2 * PI])


def test_default_candidate_grid_sizes():
    assert len(default_candidates(GateKind.RX)) == 8
    assert len(default_candidates(GateKind.U3)) == 512
