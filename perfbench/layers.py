"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  `cli` is a thin shell over `experiment`;
`gates` and `circuit` are pure data with no cost of their own, so neither is
wrapped.  Work counters come only from call arguments and results, never
from timings, so they repeat exactly for a given workload and seed.
"""

import statistics
from collections import defaultdict

import numpy as np

from vqcompress import admm, experiment, noise, recl, simulator, training, transpile

from tracing import span_tree

# Metrics whose value counts work; they must repeat exactly between runs.
WORK_COUNTERS = ("simulator.row_gates", "training.sample_grads", "transpile.physical_gates",
                 "noise.shot_gates", "recl.level_evals", "admm.iterations")

METHODS = ("Vanilla", "ZeroOnlyPruning", "PruneOnly", "QuantOnly", "CompVQC")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _run_batch(tr, sid, args, kwargs, result):
    """Rows as run_batch broadcasts them: the longest of thetas, feats, states."""
    circuit = args[0]
    rows = max(np.atleast_2d(a).shape[0] for a in (args[1], _arg(args, kwargs, 2, "feats"),
                                                   _arg(args, kwargs, 3, "states"))
               if a is not None)
    tr.counters["simulator.row_gates"] += rows * len(circuit.all_gates)


def _sgd_train(tr, sid, args, kwargs, result):
    samples, config = _arg(args, kwargs, 2, "samples"), _arg(args, kwargs, 3, "config")
    tr.counters["training.sample_grads"] += len(samples) * config.epochs
    if _arg(args, kwargs, 5, "proximal") is not None:
        tr.counters["admm.iterations"] += 1


def _sgd_kind(args, kwargs):
    if _arg(args, kwargs, 5, "proximal") is not None:
        return "admm"
    return "retrain" if _arg(args, kwargs, 6, "frozen") is not None else "train"


def _transpile(tr, sid, args, kwargs, result):
    tr.counters["transpile.physical_gates"] += len(result.gates)


def _reconstruct(tr, sid, args, kwargs, result):
    circuit, lut = args[0], _arg(args, kwargs, 2, "lut")
    tr.counters["recl.level_evals"] += sum(len(lut.entries.get(circuit.layers[gi].kind, []))
                                           for gi in circuit.trainable_indices())


def _mask_note(tr, sid, args, kwargs, result):
    tr.notes[sid] = "".join("1" if b else "0" for b in result.bits)


def _result_mask_note(tr, sid, args, kwargs, result):
    _mask_note(tr, sid, args, kwargs, result.mask)


def _check_stop(tr, sid, args, kwargs, result):
    tr.notes[sid] = bool(result)


def _noisy_outputs(tr, sid, args, kwargs, result):
    tc, shots = args[0], _arg(args, kwargs, 4, "shots")
    tr.counters["noise.shot_gates"] += shots * len(tc.gates)


WRAPPED = (
    (simulator, "run_batch", _run_batch, None),
    (simulator, "apply_gate_batch", None, lambda a, k: f"{len(a[1].qubits)}q"),
    (training, "batch_loss_and_gradient", None, None),
    (training, "sgd_train", _sgd_train, _sgd_kind),
    (training, "loss_and_accuracy", None, None),
    (transpile, "tcd", None, None),
    (transpile, "transpile_circuit", _transpile, None),
    (recl, "reconstruct_lut", _reconstruct, None),
    (admm, "vanilla_train", None, None),
    (admm, "run_cqcp_admm", _result_mask_note, None),
    (admm, "baseline_compress", _result_mask_note, lambda a, k: a[0].value),
    (admm, "build_mask", _mask_note, None),
    (admm, "check_stop", _check_stop, None),
    (noise, "noisy_accuracy", None, None),
    (noise, "noisy_outputs", _noisy_outputs, None),
    (experiment, "run_experiment", None, None),
)


def install(tracer):
    for module, attr, hook, tagger in WRAPPED:
        tracer.install(module, attr, hook, tagger)


def _dur(s):
    return (s[4] - s[3]) / 1e9


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _admm_runs(spans, children, notes):
    """One record per run_cqcp_admm call: label, masks, flips, stop reason."""
    by_id = {s[0]: s for s in spans}
    runs = []
    for s in spans:
        if s[2] != "admm.run_cqcp_admm":
            continue
        parent = by_id.get(s[1])
        label = parent[6] if parent and parent[2] == "admm.baseline_compress" else "CompVQC"
        kids = children[s[0]]
        masks = [notes[k[0]] for k in kids if k[2] == "admm.build_mask"]
        flips = sum(sum(a != b for a, b in zip(m0, m1)) for m0, m1 in zip(masks, masks[1:]))
        converged = any(notes[k[0]] for k in kids if k[2] == "admm.check_stop")
        iters = sum(1 for k in kids if k[2] == "training.sgd_train" and k[6] == "admm")
        side = sum(_dur(k) for k in kids if k[2] == "recl.reconstruct_lut"
                   or (k[2] == "training.sgd_train" and k[6] == "retrain"))
        runs.append({"method": label, "iterations": iters, "masks": masks[1:],
                     "initial_mask": masks[0] if masks else "", "final_mask": notes[s[0]],
                     "mask_flips": flips,
                     "stop": "converged" if converged else "iteration cap",
                     "loop_s": _dur(s) - side})
    return runs


def _method_seconds(spans, children):
    """Direct children of run_experiment, attributed to the method whose
    training call most recently started (its evaluation calls follow it)."""
    out = dict.fromkeys(METHODS, 0.0)
    starts = {"admm.vanilla_train": lambda s: "Vanilla",
              "admm.baseline_compress": lambda s: s[6],
              "admm.run_cqcp_admm": lambda s: "CompVQC"}
    for top in (s for s in spans if s[2] == "experiment.run_experiment"):
        current = None
        for kid in children[top[0]]:
            if kid[2] in starts:
                current = starts[kid[2]](kid)
            if current:
                out[current] += _dur(kid)
    return out


def derive(tracer, run_id, run_s):
    """Per-layer metrics of one traced repetition, plus its ADMM records."""
    spans = tracer.run_spans(run_id)
    self_ns, children = span_tree(spans)
    named = defaultdict(list)
    for s in spans:
        named[s[2]].append(s)

    def calls(name):
        return len(named[name])

    def self_s(name):
        return sum(self_ns[s[0]] for s in named[name]) / 1e9

    def durs_us(name, tag=None):
        return [_dur(s) * 1e6 for s in named[name] if tag is None or s[6] == tag]

    gates_1q, gates_2q = durs_us("simulator.apply_gate_batch", "1q"), \
        durs_us("simulator.apply_gate_batch", "2q")
    blg = durs_us("training.batch_loss_and_gradient")
    runs = _admm_runs(spans, children, tracer.notes)
    m = {
        "simulator.run_batch.calls": calls("simulator.run_batch"),
        "simulator.run_batch.self_s": self_s("simulator.run_batch"),
        "simulator.apply_gate_batch.1q.mean_us": statistics.fmean(gates_1q) if gates_1q else 0.0,
        "simulator.apply_gate_batch.2q.mean_us": statistics.fmean(gates_2q) if gates_2q else 0.0,
        "training.batch_loss_and_gradient.calls": calls("training.batch_loss_and_gradient"),
        "training.batch_loss_and_gradient.self_s": self_s("training.batch_loss_and_gradient"),
        "training.batch_loss_and_gradient.p50_us": _pct(blg, 0.50),
        "training.batch_loss_and_gradient.p99_us": _pct(blg, 0.99),
        "training.sgd_train.self_s": self_s("training.sgd_train"),
        "training.loss_and_accuracy.self_s": self_s("training.loss_and_accuracy"),
        "transpile.tcd.calls": calls("transpile.tcd"),
        "transpile.tcd.self_s": self_s("transpile.tcd"),
        "transpile.transpile_circuit.self_s": self_s("transpile.transpile_circuit"),
        "recl.reconstruct_lut.self_s": self_s("recl.reconstruct_lut"),
        "admm.converged": sum(r["stop"] == "converged" for r in runs),
        "admm.masked_gates": sum(r["final_mask"].count("1") for r in runs),
        "admm.mask_flips": sum(r["mask_flips"] for r in runs),
        "admm.loop_s": sum(r["loop_s"] for r in runs),
        "admm.retrain_s": sum(_dur(s) for s in named["training.sgd_train"]
                              if s[6] == "retrain"),
        "noise.noisy_accuracy.self_s": self_s("noise.noisy_accuracy"),
        "noise.noisy_outputs.calls": calls("noise.noisy_outputs"),
        "noise.noisy_outputs.self_s": self_s("noise.noisy_outputs"),
        "experiment.run_experiment.s": sum(map(_dur, named["experiment.run_experiment"])),
        "trace.top_level_frac": sum(_dur(s) for s in spans if s[1] is None) / run_s,
    }
    for method, secs in _method_seconds(spans, children).items():
        m[f"experiment.method.{method}.s"] = secs
    for name in WORK_COUNTERS:
        m[name] = tracer.counters[name]
    return m, runs
