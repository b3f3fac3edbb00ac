"""LUT reconstruction: pick one compression level per gate by accuracy x speedup.

For gate i and candidate level v, the metric is the hit rate (`training.hits`:
a tie is a miss) of the circuit with only parameter i moved to v, times the
speedup TCD(theta) / TCD(theta^{i,v}), so levels that shorten the transpiled
circuit raise the metric.  A metric does not depend on the other levels
swept, so one sweep of the full LUT serves every level family:
`ReconstructedLUT.restricted` picks among one family's swept levels.  Per
level, the sweep simulates and scans only the span of the slot's readers.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit
from .lut import CompressionLUT, LevelTag
from .simulator import apply_matrix, gate_plan, measure_outputs_batch
from .training import encode, hits
from .transpile import encoder_scan, lower_gates, suffix_summaries


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


def suffix_unitaries(n_qubits: int, gates, base, starts) -> dict:
    """S_b = U_{G-1} ... U_b, (2^n, 2^n), for every b from the least of
    `starts` to G: one backward pass over the G gates' matrices `base`, as
    `suffix_summaries` walks the lowering, applies U_b^T to S_{b+1}'s rows."""
    out = {len(gates): np.eye(2 ** n_qubits, dtype=complex)}
    for b in range(len(gates) - 1, min(starts, default=len(gates)) - 1, -1):
        out[b] = apply_matrix(out[b + 1], base[b].mT, gates[b].qubits)
    return out


def _sweep(circuit: Circuit, theta, candidates: dict, eval_samples) -> dict:
    """Metric of every level in `candidates` (layer index -> levels).

    Depth: theta's lowering of the layers is scanned once, after the cached
    encoder scan (`encoder_scan`), with a snapshot before each candidate
    gate's first reader gate, and summarized past each last reader by one
    backward pass (`suffix_summaries`).  A candidate gate's C levels
    re-lower its reader gates in one `lower_gates` call on the C theta rows
    that build their matrices; each level resumes a copy of the snapshot,
    feeds the reader span and joins the summary (`DepthScan.join`).  The two
    carry open RZ runs across both ends, so the depth equals a full rescan.

    States: the `encode`d samples, a (1, 2^n, B) batch with samples on the
    trailing axis, run up to each candidate gate's first reader, in order of
    first readers.  There its C levels fork into a (C, 2^n, B) batch that
    runs the reader span only, the reader gates on (C, d, d) matrices from
    one build of their plan on the C substituted theta rows and the gates
    between them on theta's, then takes one stacked product by theta's
    suffix unitary past the last reader (`suffix_unitaries`).  The readout
    and `hits` (labels tiled per level) take its (C * B, 2^n) rows at once.
    The rows differ from `run_batch`'s by roundoff, far inside `hits`'
    `TIE_MARGIN`.  Gates without levels are skipped.
    """
    theta = np.asarray(theta, dtype=float)
    gates = circuit.layers
    lowered = lower_gates(tuple(gates), theta[None, :])[0]
    split = encode(circuit, eval_samples)
    state = np.ascontiguousarray(split.states.T)[None]
    base = gate_plan(tuple(gates)).matrices(theta[None, :])
    reading = {}  # slot -> the gates that read it
    for k, g in enumerate(gates):
        for slot in g.theta_slots:
            reading.setdefault(slot, set()).add(k)
    readers = {gi: sorted(set().union(*(reading[s] for s in gates[gi].theta_slots)))
               for gi, levels in candidates.items() if levels}
    firsts = {r[0] for r in readers.values()}
    scan, snapshots = encoder_scan(circuit), {}
    for k, physical in enumerate(lowered):
        if k in firsts:
            snapshots[k] = scan.copy()
        scan.feed([physical])
    theta_tcd = scan.close()
    bounds = {r[-1] + 1 for r in readers.values()}
    summaries = suffix_summaries(circuit.n_qubits, lowered, bounds)
    suffixes = suffix_unitaries(circuit.n_qubits, gates, base, bounds)
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
        for k in range(first, last + 1):
            final = apply_matrix(final, mats.get(k, base[k]), gates[k].qubits)
        rows = (suffixes[last + 1] @ final).transpose(0, 2, 1).reshape(-1, final.shape[1])
        hit = hits(measure_outputs_batch(rows, circuit.measurement),
                   np.tile(split.labels, len(thetas))).reshape(len(thetas), -1)
        for span, acc in zip(lower_gates(reader_gates, thetas), hit.mean(axis=1)):
            relowered = dict(zip(readers[gi], span))
            scan = snapshots[first].copy().feed(relowered.get(k, lowered[k])
                                                for k in range(first, last + 1))
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
