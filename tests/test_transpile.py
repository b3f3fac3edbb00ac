import csv
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import random_circuit
from vqcompress.circfile import load_reference
from vqcompress.circuit import Circuit, Gate, MeasurementSpec, const
from vqcompress import transpile
from vqcompress.gates import (ARITY, N_QUBITS_OF_KIND, GateKind, gate_matrix,
                              phase_identity_factor, wrap_param)
from vqcompress.training import TrainConfig, init_params
from vqcompress.transpile import (BASIS_KINDS, GENERIC_ANGLE, DepthScan, PhysicalGate,
                                  TranspiledCircuit, build_depth_table, decompose_kind,
                                  is_phase_identity, lowered_depth, peephole_optimize,
                                  snap_class, standalone_gate_depth, tcd, transpile_circuit)

PI = math.pi

# Published standalone depths under {CX, ID, RZ, SX, X}, columns
# 0, pi, 2pi, 3pi, 4pi, pi/2, 3pi/2, 5pi/2, 7pi/2, others.
PUBLISHED_DEPTHS = {
    GateKind.RX: (0, 1, 0, 1, 0, 1, 3, 1, 3, 5),
    GateKind.RY: (0, 2, 0, 2, 0, 3, 3, 3, 3, 4),
    GateKind.CRX: (0, 8, 5, 9, 0, 11, 11, 11, 11, 11),
    GateKind.CRY: (0, 8, 6, 8, 0, 10, 10, 10, 10, 10),
}
COLUMN_ANGLES = (0.0, PI, 2 * PI, 3 * PI, 4 * PI, PI / 2, 3 * PI / 2,
                 5 * PI / 2, 7 * PI / 2, GENERIC_ANGLE)


def test_generic_rx_template():
    gates = decompose_kind(GateKind.RX, (0,), (1.0,))
    kinds = [g.kind for g in gates]
    assert kinds == [GateKind.RZ, GateKind.SX, GateKind.RZ, GateKind.SX, GateKind.RZ]
    assert gates[0].params[0] == pytest.approx(PI / 2)
    assert gates[2].params[0] == pytest.approx(1.0 + PI)
    assert gates[4].params[0] == pytest.approx(5 * PI / 2)


def test_special_rx_templates():
    assert [g.kind for g in decompose_kind(GateKind.RX, (0,), (PI / 2,))] \
        == [GateKind.SX]
    three_half = decompose_kind(GateKind.RX, (0,), (3 * PI / 2,))
    assert [g.kind for g in three_half] == [GateKind.RZ, GateKind.SX, GateKind.RZ]
    assert decompose_kind(GateKind.RX, (0,), (0.0,)) == []
    assert decompose_kind(GateKind.RX, (0,), (2 * PI,)) == []


def test_basis_gate_passes_through():
    gates = decompose_kind(GateKind.RZ, (0,), (0.77,))
    assert len(gates) == 1 and gates[0].kind is GateKind.RZ
    assert decompose_kind(GateKind.CX, (0, 1), ())[0].kind is GateKind.CX


def test_snap_tolerance_uses_special_template():
    gates = decompose_kind(GateKind.RX, (0,), (PI / 2 + 1e-10,))
    assert [g.kind for g in gates] == [GateKind.SX]


ONE_ANGLE_KINDS = [k for k in GateKind if ARITY[k] == 1]
GRID = [k * PI / 2 for k in range(9)]
NEAR_GRID = [g + d for g in GRID for d in (-2e-9, -5e-10, 5e-10, 2e-9)]


def _dense_phase_identity(kind, angle):
    """The dense test at the snapped angle, taken at every angle."""
    k = snap_class(angle)
    snapped = k * PI / 2 if k is not None else wrap_param(angle)
    return phase_identity_factor(gate_matrix(kind, [snapped])) is not None


@pytest.mark.parametrize("kind", ONE_ANGLE_KINDS, ids=lambda k: k.value)
def test_phase_identity_equals_the_dense_test(kind, monkeypatch):
    dense_calls = []
    monkeypatch.setattr(transpile, "gate_matrix",
                        lambda *a: dense_calls.append(a) or gate_matrix(*a))
    got, want = {}, {}
    for a in GRID + [GENERIC_ANGLE] + NEAR_GRID:
        got[a] = is_phase_identity(kind, (wrap_param(a),))
        want[a] = _dense_phase_identity(kind, a)
    assert got == want
    assert want[0.0] and want[4 * PI]                       # the comparison sees True
    assert not any(want[g + 2e-9] or want[g - 2e-9] for g in GRID)
    # the generic angles, GENERIC_ANGLE and grid +- 2e-9, skip the dense test
    assert len(dense_calls) == len(GRID) + 2 * len(GRID)


@pytest.mark.parametrize("kind", PUBLISHED_DEPTHS)
def test_published_depth_cells(kind):
    got = tuple(standalone_gate_depth(kind, [a]) for a in COLUMN_ANGLES)
    assert got == PUBLISHED_DEPTHS[kind]


def test_derived_depth_rows_frozen():
    # RZ is native (depth 1 except at pruning angles); CRZ compiles to a
    # constant 4-gate template away from identity.
    assert [standalone_gate_depth(GateKind.RZ, [a]) for a in COLUMN_ANGLES] \
        == [0, 1, 0, 1, 0, 1, 1, 1, 1, 1]
    assert [standalone_gate_depth(GateKind.CRZ, [a]) for a in COLUMN_ANGLES] \
        == [0, 4, 4, 4, 0, 4, 4, 4, 4, 4]
    assert standalone_gate_depth(GateKind.ID, []) == 0
    assert standalone_gate_depth(GateKind.X, []) == 1


def test_depth_table_matches_repo_golden():
    with open(Path(__file__).parent / "golden" / "depth_table.csv", newline="") as fh:
        golden = {(GateKind(row["gate"]), row["param_class"]): int(row["depth"])
                  for row in csv.DictReader(fh)}
    assert build_depth_table().entries == golden


@pytest.mark.parametrize("kind", list(ARITY), ids=lambda k: k.value)
@pytest.mark.parametrize("angle", [GENERIC_ANGLE] + [k * PI / 2 for k in range(8)],
                         ids=["generic"] + [f"{k}pi/2" for k in range(8)])
def test_every_kind_lowers_into_the_basis(kind, angle):
    qubits = tuple(range(N_QUBITS_OF_KIND[kind]))
    gates = decompose_kind(kind, qubits, (angle,) * ARITY[kind])
    assert {g.kind for g in gates} <= BASIS_KINDS
    assert all(set(g.qubits) <= set(qubits) for g in gates)


def test_peephole_merges_adjacent_rz():
    tc = TranspiledCircuit(1, [PhysicalGate(GateKind.RZ, (0,), (0.4,)),
                               PhysicalGate(GateKind.RZ, (0,), (0.8,))])
    out = peephole_optimize(tc)
    assert len(out.gates) == 1
    assert out.gates[0].params[0] == pytest.approx(1.2)


def test_peephole_removes_trivial_rz_and_id():
    tc = TranspiledCircuit(1, [PhysicalGate(GateKind.RZ, (0,), (2 * PI,)),
                               PhysicalGate(GateKind.ID, (0,))])
    out = peephole_optimize(tc)
    assert out.gates == []
    # removed RZ(2pi) = -I leaves its phase on the circuit record
    assert np.exp(1j * out.global_phase) == pytest.approx(-1.0)


def test_peephole_does_not_merge_across_other_gates():
    tc = TranspiledCircuit(1, [PhysicalGate(GateKind.RZ, (0,), (0.4,)),
                               PhysicalGate(GateKind.SX, (0,)),
                               PhysicalGate(GateKind.RZ, (0,), (0.8,))])
    assert len(peephole_optimize(tc).gates) == 3


def test_peephole_preserves_unitary_on_random_chains():
    rng = np.random.default_rng(13)
    for _ in range(30):
        gates = []
        for _ in range(20):
            r = rng.random()
            if r < 0.5:
                gates.append(PhysicalGate(GateKind.RZ, (int(rng.integers(2)),),
                                          (float(rng.choice([0.3, 2 * PI, -0.3, 4 * PI])),)))
            elif r < 0.7:
                gates.append(PhysicalGate(GateKind.SX, (int(rng.integers(2)),)))
            elif r < 0.85:
                gates.append(PhysicalGate(GateKind.X, (int(rng.integers(2)),)))
            else:
                gates.append(PhysicalGate(GateKind.CX, (0, 1)))
        tc = TranspiledCircuit(2, gates)
        out = peephole_optimize(tc)
        assert oracle.equal_up_to_phase(oracle.transpiled_unitary(tc),
                                        oracle.transpiled_unitary(out))
        assert oracle.dag_depth(out.gates) <= oracle.dag_depth(tc.gates)


# RZ angles whose runs reach 0 mod 2pi both mid-run and at a run's end.
ORACLE_ANGLES = (0.0, PI / 2, -PI / 2, PI, 2 * PI, 4 * PI, 1.2345, -1.2345)


def random_physical_list(rng, n_qubits, length):
    gates = []
    for _ in range(length):
        r, q = rng.random(), int(rng.integers(n_qubits))
        if r < 0.55:
            gates.append(PhysicalGate(GateKind.RZ, (q,), (float(rng.choice(ORACLE_ANGLES)),)))
        elif r < 0.65:
            gates.append(PhysicalGate(GateKind.ID, (q,)))
        elif r < 0.78:
            gates.append(PhysicalGate(GateKind.SX, (q,)))
        elif r < 0.88 or n_qubits == 1:
            gates.append(PhysicalGate(GateKind.X, (q,)))
        else:
            c, t = rng.choice(n_qubits, size=2, replace=False)
            gates.append(PhysicalGate(GateKind.CX, (int(c), int(t))))
    return gates


def test_one_pass_peephole_equals_fixpoint_oracle():
    rng = np.random.default_rng(18)
    for _ in range(3000):
        n = int(rng.integers(1, 4))
        gates = random_physical_list(rng, n, int(rng.integers(0, 30)))
        # consecutive physical gates share a logical source index
        source = [int(s) for s in np.cumsum(rng.random(len(gates)) < 0.3)]
        tc = TranspiledCircuit(n, gates, float(rng.uniform(-PI, PI)))
        got, want = peephole_optimize(tc), oracle.fixpoint_peephole(tc)
        assert got.gates == want.gates
        assert abs(got.global_phase - want.global_phase) < 1e-12
        lowered = [((), [g for g, s in zip(gates, source) if s == k])
                   for k in range(source[-1] + 1)] if gates else []
        assert lowered_depth(n, lowered) == oracle.dag_depth(want.gates)


def _zero_mod_2pi(angle):
    k = snap_class(angle)
    return k is not None and k % 4 == 0


def _leading_rz(gates, q):
    """The nonzero RZ angles on q before the first gate other than RZ or ID on it."""
    out = []
    for g in gates:
        if q not in g.qubits or g.kind is GateKind.ID:
            continue
        if g.kind is not GateKind.RZ:
            break
        if not _zero_mod_2pi(g.params[0]):
            out.append(g.params[0])
    return out


def _sums_to_zero(angles):
    total = 0.0
    for a in angles:
        total += a
    return _zero_mod_2pi(total)


def test_suffix_summary_join_equals_a_full_rescan():
    # a scan resumed at any boundary of a lowering and joined to the summary
    # of the rest gives the depth of one scan over everything; one backward
    # pass gives every boundary's summary
    rng = np.random.default_rng(19)
    seen = Counter()
    for _ in range(600):
        n = int(rng.integers(1, 5))
        gates = random_physical_list(rng, n, int(rng.integers(0, 16)))
        cuts = sorted(int(c) for c in rng.integers(0, len(gates) + 1, int(rng.integers(1, 8))))
        lowered = [gates[a:b] for a, b in zip([0] + cuts, cuts + [len(gates)])]
        full = DepthScan(n)
        for part in lowered:
            full.feed(part)
        want = full.close()
        summaries = transpile.suffix_summaries(n, lowered, set(range(len(lowered) + 1)))
        assert sorted(summaries) == list(range(len(lowered) + 1))
        for b, summary in summaries.items():
            scan = DepthScan(n)
            for part in lowered[:b]:
                scan.feed(part)
            suffix = [g for part in lowered[b:] for g in part]
            assert scan.join(summary) == want, (gates, cuts, b)
            seen["empty suffix"] += not suffix
            seen["ID"] += any(g.kind is GateKind.ID for g in suffix)
            seen["zero single RZ"] += any(g.kind is GateKind.RZ and _zero_mod_2pi(g.params[0])
                                          for g in suffix)
            for q in range(n):
                lead = _leading_rz(suffix, q)
                if q in scan.runs:
                    seen["zero across"] += bool(lead) and _sums_to_zero([scan.runs[q][0]] + lead)
                else:
                    seen["zero after"] += len(lead) > 1 and _sums_to_zero(lead)
                seen["untouched qubit"] += bool(suffix) and all(q not in g.qubits for g in suffix)
    assert min(seen[k] for k in ("empty suffix", "ID", "zero single RZ", "zero across",
                                 "zero after", "untouched qubit")) >= 25, seen


@pytest.mark.parametrize("b", [-1.2345, 2 * PI - 1.2345], ids=["exact-zero", "2pi"])
def test_partial_run_sum_at_zero_is_kept(b):
    # RZ(a) RZ(b) sums to 0 mod 2pi before RZ(c) joins the run: the whole run
    # merges into one RZ at the first gate's slot, as the fixpoint gives.
    a, c = 1.2345, 0.7
    gates = [PhysicalGate(GateKind.RZ, (0,), (a,)), PhysicalGate(GateKind.RZ, (0,), (b,)),
             PhysicalGate(GateKind.RZ, (0,), (c,)), PhysicalGate(GateKind.SX, (0,))]
    out = peephole_optimize(TranspiledCircuit(1, gates))
    assert out.gates == [PhysicalGate(GateKind.RZ, (0,), (a + b + c,)),
                         PhysicalGate(GateKind.SX, (0,))]
    assert out.global_phase == 0.0
    assert lowered_depth(1, [((), gates[:2]), ((), gates[2:])]) == 2


def test_circuit_depth_dag_cases():
    assert lowered_depth(2, [((), [])]) == 0
    parallel = [PhysicalGate(GateKind.SX, (0,)), PhysicalGate(GateKind.SX, (1,))]
    assert lowered_depth(2, [((), parallel)]) == 1
    serial = [PhysicalGate(GateKind.SX, (0,))] * 3
    assert lowered_depth(1, [((), serial)]) == 3
    mixed = [PhysicalGate(GateKind.SX, (0,)), PhysicalGate(GateKind.CX, (0, 1)),
             PhysicalGate(GateKind.SX, (1,))]
    assert lowered_depth(2, [((), mixed)]) == 3


def test_transpile_single_gate_circuits():
    one = Circuit(1, [], [Gate(GateKind.RX, (0,), (const(PI / 2),))], MeasurementSpec(1))
    assert len(transpile_circuit(one, []).gates) == 1
    zero = Circuit(1, [], [Gate(GateKind.RX, (0,), (const(0.0),))], MeasurementSpec(1))
    assert transpile_circuit(zero, []).gates == []


def test_transpile_matches_source_with_tracked_phase():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        circ, params = random_circuit(rng, n, int(rng.integers(1, 21)), trainable=True)
        tc = transpile_circuit(circ, params)
        got = oracle.transpiled_unitary(tc)
        want = oracle.logical_unitary(circ, params)
        # tracked global phase makes the match exact, not just up-to-phase
        assert np.max(np.abs(got - want)) < 1e-10


def test_transpile_reference_circuit_matches_source():
    circ = load_reference("syn4")
    rng = np.random.default_rng(15)
    params = rng.uniform(0, 4 * PI, circ.n_thetas)
    feats = rng.uniform(0, 1, (1, circ.n_data))
    tc = transpile_circuit(circ, params, feats=feats)
    got = oracle.transpiled_unitary(tc)
    want = oracle.logical_unitary(circ, params, feats[0])
    assert np.max(np.abs(got - want)) < 1e-10


def test_snapped_angles_depth_equals_lut_class():
    # depth of a snapped special angle equals the exact special-angle depth
    for kind, cells in PUBLISHED_DEPTHS.items():
        assert standalone_gate_depth(kind, [PI + 3e-10]) == cells[1]


def test_reference_circuit_tcd_golden():
    # architecture-level depths of the bundled circuits at generic angles
    syn4 = load_reference("syn4")
    syn16 = load_reference("syn16")
    p4 = init_params(syn4, TrainConfig(seed=0))
    p16 = init_params(syn16, TrainConfig(seed=0))
    assert tcd(syn4, p4) == 51
    assert tcd(syn16, p16) == 77


@pytest.mark.parametrize("grid", [False, True], ids=["generic", "pi-2-grid"])
def test_depth_only_tcd_equals_transpiled_depth(grid):
    rng = np.random.default_rng(16)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        circ, params = random_circuit(rng, n, int(rng.integers(1, 25)), trainable=True)
        if grid:
            params = rng.integers(0, 8, params.size) * (PI / 2)
        assert tcd(circ, params) == oracle.dag_depth(transpile_circuit(circ, params).gates)
