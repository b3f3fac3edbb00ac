"""LUT reconstruction: pick one compression level per gate by accuracy x speedup.

For gate i and candidate level v, the metric is the accuracy of the circuit
with only parameter i moved to v, times the speedup TCD(theta) / TCD(theta^{i,v}),
so levels that shorten the transpiled circuit raise the metric.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit
from .data import stack
from .lut import CompressionLUT
from .simulator import apply_matrix, gate_plan, measure_outputs_batch
from .training import initial_states, softmax
from .transpile import DepthScan, lower_circuit, lower_gate, suffix_summaries


@dataclass
class ReconstructedLUT:
    """One chosen level per trainable gate (keyed by index into circuit.layers)."""

    levels: dict = field(default_factory=dict)   # layer index -> CompressionLevel
    metrics: dict = field(default_factory=dict)  # layer index -> achieved metric


def _substituted(theta: np.ndarray, circuit: Circuit, gate_index: int,
                 level_value: tuple[float, ...]) -> np.ndarray:
    new = np.array(theta, dtype=float, copy=True)
    slots = circuit.layers[gate_index].theta_slots
    for slot, val in zip(slots, level_value):
        new[slot] = val
    return new


def _depth_factor(theta_tcd: int, new_tcd: int) -> float:
    if new_tcd == 0:
        warnings.warn("substituted circuit has zero depth; treating TCD as 1")
        new_tcd = 1
    return (theta_tcd if theta_tcd > 0 else 1) / new_tcd


def _sweep(circuit: Circuit, theta, candidates: dict, eval_samples) -> dict:
    """Metric of every level in `candidates` (layer index -> levels).

    theta is lowered once and its lowering scanned once by a `DepthScan`,
    the encoder's lowering first, with a snapshot of the scan before each
    candidate gate's first reader gate.  One backward pass over theta's
    lowering (`suffix_summaries`) summarizes the gates after each candidate
    gate's last reader.  A level re-lowers only the gates that read its
    gate's slots, resumes a copy of the snapshot, feeds its re-lowered
    reader gates and theta's lowering of the gates between them, and joins
    the summary (`DepthScan.join`).  The snapshot carries open RZ runs into
    the span and the join carries them out of it, so the depth equals a full
    rescan.

    The states run as one batch per candidate gate.  The `initial_states`
    are held as a (1, 2^n, B) batch, samples on the trailing axis, and
    pushed through the layers up to each candidate gate's first reader, in
    order of first readers.  From there the gate's C levels run together as
    a (C, 2^n, B) batch: the reader gates' plan builds their (C, d, d)
    matrices from the C substituted theta rows in one call per group, every
    other gate applies theta's (1, d, d) matrix from the layers' `GatePlan`
    to all C rows, and the readout takes the (C * B, 2^n) rows at once, so
    the suffix costs one `apply_matrix` per gate whatever C is.  Each row
    sees the arithmetic `run_batch` does on it, so metrics are bit-identical
    to a from-scratch evaluation.  Gates without levels are skipped.
    """
    theta = np.asarray(theta, dtype=float)
    gates = circuit.layers
    lowered = [physical for _, physical in lower_circuit(circuit, theta)]
    feats, labels = stack(eval_samples)
    state = np.ascontiguousarray(initial_states(circuit, feats).T)[None]
    base = gate_plan(tuple(gates)).matrices(theta[None, :])
    readers = {gi: [k for k, g in enumerate(gates)
                    if set(g.theta_slots) & set(circuit.layers[gi].theta_slots)]
               for gi, levels in candidates.items() if levels}
    firsts = {r[0] for r in readers.values()}
    scan, snapshots = DepthScan(circuit.n_qubits), {}
    for physical in lowered[:len(circuit.encoder)]:  # no candidate changes the encoder
        scan.feed(physical)
    lowered = lowered[len(circuit.encoder):]
    for k, physical in enumerate(lowered):
        if k in firsts:
            snapshots[k] = scan.copy()
        scan.feed(physical)
    theta_tcd = scan.close()
    summaries = suffix_summaries(circuit.n_qubits, lowered, {r[-1] + 1 for r in readers.values()})
    done, metrics = 0, {gi: [] for gi in candidates}
    for gi in sorted(readers, key=lambda gi: readers[gi][0]):
        first, last = readers[gi][0], readers[gi][-1]
        for k in range(done, first):
            state = apply_matrix(state, base[k], gates[k].qubits)
        done = first
        thetas = np.stack([_substituted(theta, circuit, gi, level.value)
                           for level in candidates[gi]])
        reader_plan = gate_plan(tuple(gates[k] for k in readers[gi]))
        mats = dict(zip(readers[gi], reader_plan.matrices(thetas)))
        final = np.broadcast_to(state, (len(thetas),) + state.shape[1:])
        for k in range(first, len(gates)):
            final = apply_matrix(final, mats.get(k, base[k]), gates[k].qubits)
        rows = final.transpose(0, 2, 1).reshape(-1, final.shape[1])
        probs = softmax(measure_outputs_batch(rows, circuit.measurement))
        hits = probs.argmax(axis=1).reshape(len(thetas), -1) == labels
        for new_theta, acc in zip(thetas, hits.mean(axis=1)):
            relowered = {k: lower_gate(gates[k], new_theta[None, :], None)[1]
                         for k in readers[gi]}
            scan = snapshots[first].copy()
            for k in range(first, last + 1):
                scan.feed(relowered.get(k, lowered[k]))
            depth = scan.join(summaries[last + 1])
            metrics[gi].append(float(acc) * _depth_factor(theta_tcd, depth))
    return metrics


def reconstruct_lut(circuit: Circuit, theta, lut: CompressionLUT,
                    eval_samples) -> ReconstructedLUT:
    """Per-gate argmax of the level metric, one gate perturbed at a time.

    Every evaluation starts from the unmodified trained theta.  Ties pick the
    level with smaller depth, then smaller value.  Gates whose kind has no
    levels in (a possibly filtered) LUT get no entry.
    """
    candidates = {gi: lut.entries.get(circuit.layers[gi].kind, [])
                  for gi in circuit.trainable_indices()}
    metrics = _sweep(circuit, theta, candidates, eval_samples)
    recon = ReconstructedLUT()
    for gi, levels in candidates.items():
        if levels:
            m, level = min(zip(metrics[gi], levels),
                           key=lambda ml: (-ml[0], ml[1].depth, ml[1].value))
            recon.levels[gi], recon.metrics[gi] = level, m
    return recon
