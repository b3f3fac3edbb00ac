"""LUT reconstruction: pick one compression level per gate by accuracy x speedup.

For gate i and candidate level v, the metric is the hit rate (`training.hits`:
a tie is a miss) of the circuit with only parameter i moved to v, times the
speedup TCD(theta) / TCD(theta^{i,v}), so levels that shorten the transpiled
circuit raise the metric.  A metric does not depend on the other levels
swept, so one sweep of the full LUT serves every level family:
`ReconstructedLUT.restricted` picks among one family's swept levels.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit
from .data import stack
from .lut import CompressionLUT, LevelTag
from .simulator import apply_matrix, gate_plan, measure_outputs_batch
from .training import hits, initial_states
from .transpile import DepthScan, lower_circuit, lower_gates, suffix_summaries


@dataclass
class ReconstructedLUT:
    """One chosen level per trainable gate (keyed by index into circuit.layers),
    and every (metric, level) pair of the sweep it was picked from."""

    levels: dict = field(default_factory=dict)   # layer index -> CompressionLevel
    metrics: dict = field(default_factory=dict)  # layer index -> achieved metric
    swept: dict = field(default_factory=dict)    # layer index -> [(metric, level), ...]

    def restricted(self, tag: LevelTag) -> "ReconstructedLUT":
        """The pick among the swept levels of one family; a gate with no
        level of that family gets no entry."""
        return _pick({gi: [(m, lv) for m, lv in pairs if lv.tag is tag]
                      for gi, pairs in self.swept.items()})


def _pick(swept: dict) -> ReconstructedLUT:
    """Per-gate best metric; ties pick the level with smaller depth, then
    smaller value."""
    recon = ReconstructedLUT(swept=swept)
    for gi, pairs in swept.items():
        if pairs:
            m, level = min(pairs, key=lambda ml: (-ml[0], ml[1].depth, ml[1].value))
            recon.levels[gi], recon.metrics[gi] = level, m
    return recon


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
    gate's last reader.  A candidate gate's C levels re-lower only the gates
    that read its slots, in one `lower_gates` call on the C theta rows that
    build those gates' matrices.  Each level resumes a copy of the snapshot,
    feeds its re-lowered reader gates and theta's lowering of the gates
    between them, and joins the summary (`DepthScan.join`).  The snapshot
    carries open RZ runs into the span and the join carries them out of it,
    so the depth equals a full rescan.

    The states run as one batch per candidate gate.  The `initial_states`
    are held as a (1, 2^n, B) batch, samples on the trailing axis, and
    pushed through the layers up to each candidate gate's first reader, in
    order of first readers.  From there the gate's C levels run together as
    a (C, 2^n, B) batch: the reader gates' plan builds their (C, d, d)
    matrices from the C substituted theta rows in one build, every
    other gate applies theta's (1, d, d) matrix from the layers' `GatePlan`
    to all C rows, and the readout and `hits` (labels tiled per level) take
    the (C * B, 2^n) rows at once, so the suffix costs one `apply_matrix` per
    gate whatever C is.  Each row sees the arithmetic `run_batch` does on it,
    so metrics are bit-identical to a from-scratch evaluation.  Gates without
    levels are skipped.
    """
    theta = np.asarray(theta, dtype=float)
    gates = circuit.layers
    lowered = lower_circuit(circuit, theta)
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
        thetas = np.repeat(theta[None, :], len(candidates[gi]), axis=0)
        thetas[:, list(gates[gi].theta_slots)] = [level.value for level in candidates[gi]]
        reader_gates = tuple(gates[k] for k in readers[gi])
        mats = dict(zip(readers[gi], gate_plan(reader_gates).matrices(thetas)))
        final = np.broadcast_to(state, (len(thetas),) + state.shape[1:])
        for k in range(first, len(gates)):
            final = apply_matrix(final, mats.get(k, base[k]), gates[k].qubits)
        rows = final.transpose(0, 2, 1).reshape(-1, final.shape[1])
        hit = hits(measure_outputs_batch(rows, circuit.measurement),
                   np.tile(labels, len(thetas))).reshape(len(thetas), -1)
        for span, acc in zip(lower_gates(reader_gates, thetas), hit.mean(axis=1)):
            relowered = dict(zip(readers[gi], span))
            scan = snapshots[first].copy()
            for k in range(first, last + 1):
                scan.feed(relowered.get(k, lowered[k]))
            depth = scan.join(summaries[last + 1])
            metrics[gi].append(float(acc) * _depth_factor(theta_tcd, depth))
    return metrics


def reconstruct_lut(circuit: Circuit, theta, lut: CompressionLUT,
                    eval_samples) -> ReconstructedLUT:
    """Per-gate pick of the level metric, one gate perturbed at a time.

    Every evaluation starts from the unmodified trained theta.  Gates whose
    kind has no levels in the LUT get no entry.
    """
    candidates = {gi: lut.entries.get(circuit.layers[gi].kind, [])
                  for gi in circuit.trainable_indices()}
    metrics = _sweep(circuit, theta, candidates, eval_samples)
    return _pick({gi: list(zip(metrics[gi], levels)) for gi, levels in candidates.items()})
