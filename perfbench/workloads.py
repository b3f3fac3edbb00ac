"""The benchmark's three workloads.

Every input comes from the workload seed.  `setup` generates the inputs,
loads the circuit and builds the LUT; `run` is the measured work; `check`
runs the correctness checks on one run's outputs.  `run` reaches the package
through module attributes, so functions the tracer wrapped are the ones
called.

Epoch counts are small so that one run takes a few seconds and a
measurement holds several runs; the kernel shapes and code paths are those
of full-size runs.

- report-syn4: the five-method `run_experiment` on the 2-qubit syn4 circuit.
  States are 4 amplitudes wide, so per-gate dispatch in simulator/training
  and three ADMM loops dominate.
- compress-syn16: Vanilla + CompVQC on the 4-qubit syn16 circuit.  Parameter
  shift batches of about 620 rows x 16 amplitudes make the gate kernels'
  einsum the hot spot; kernel and gradient changes show here.
- evaluate-syn16: no training.  A seeded parameter vector mixing generic
  angles with pi/2-grid angles goes through ReCL, tcd and a shot-based noisy
  accuracy, which drives the same simulator kernels with shared fixed
  matrices over 4096 shot rows instead of per-row matrices.
"""

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from vqcompress import circfile, data, experiment, lut, noise, recl, training, transpile
from vqcompress.admm import ADMMConfig
from vqcompress.training import TrainConfig

import checks

NOISE_P = 0.02
NOISE_SHOTS = 4096
GRAD_BATCH = 10
# Multiples of pi/2: 2pi (prunes 1q rotations; CRX's own template), then quantize levels.
GRID_STEPS = (4, 1, 2, 3, 5, 6, 7, 0)


@dataclass
class Context:
    seed: int
    circuit: object
    dataset: object
    lut: object
    setup_times: dict
    config: object = None
    theta: np.ndarray | None = None


@dataclass
class Output:
    report: str                               # canonical JSON, byte-compared across runs
    params: dict                              # label -> parameter vector
    tcds: dict                                # label -> reported TCD
    tcd_speedup: float
    test_acc: float
    extra: dict = field(default_factory=dict)


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def _setup(seed, name, n_features):
    dataset, t_data = _timed(data.generate_synthetic, n_features, 100, seed)
    circuit, t_circ = _timed(circfile.load_reference, name)
    table, t_lut = _timed(lut.build_lut, circuit)
    times = {"data.generate_synthetic.s": t_data, "circfile.load_reference.s": t_circ,
             "lut.build_lut.s": t_lut,
             "lut.levels": sum(len(v) for v in table.entries.values())}
    return Context(seed, circuit, dataset, table, times)


class _CaptureMethods:
    """Records each method's trained parameters and mask, as experiment sees
    them, by wrapping experiment's own imports of the training entry points."""

    NAMES = ("vanilla_train", "run_cqcp_admm", "baseline_compress")

    def __init__(self):
        self.params, self.masks = {}, {}

    def __enter__(self):
        self._saved = {n: getattr(experiment, n) for n in self.NAMES}
        vanilla, admm_run, baseline = (self._saved[n] for n in self.NAMES)

        def vanilla_train(*a, **k):
            self.params["Vanilla"] = result = vanilla(*a, **k)
            return result

        def run_cqcp_admm(*a, **k):
            result = admm_run(*a, **k)
            self.params["CompVQC"], self.masks["CompVQC"] = result.params, result.mask.bits
            return result

        def baseline_compress(mode, *a, **k):
            result = baseline(mode, *a, **k)
            self.params[mode.value], self.masks[mode.value] = result.params, result.mask.bits
            return result

        for name, fn in zip(self.NAMES, (vanilla_train, run_cqcp_admm, baseline_compress)):
            setattr(experiment, name, fn)
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(experiment, name, fn)


def _bits(mask):
    return "".join("1" if b else "0" for b in mask)


class ReportWorkload:
    def __init__(self, name, n_features, methods, epochs, admm_iters, admm_epochs,
                 retrain_epochs):
        self.name, self.n_features, self.methods = name, n_features, methods
        self.train = TrainConfig(epochs=epochs)
        self.admm = ADMMConfig(max_iters=admm_iters, epochs_per_iter=admm_epochs,
                               retrain_epochs=retrain_epochs)

    def setup(self, seed):
        ctx = _setup(seed, self.name, self.n_features)
        ctx.config = experiment.ExperimentConfig(
            dataset=self.name, circuit=self.name, methods=self.methods, seed=seed,
            train=self.train, admm=self.admm)
        return ctx

    def run(self, ctx):
        with _CaptureMethods() as cap:
            report = experiment.run_experiment(ctx.config)
        rows = {r.method: r for r in report.rows}
        extra = {}
        if "ZeroOnlyPruning" in rows:
            zop, comp = _bits(cap.masks["ZeroOnlyPruning"]), _bits(cap.masks["CompVQC"])
            extra["zop_vs_compvqc"] = {
                "zop_mask": zop, "compvqc_mask": comp,
                "mask_hamming": sum(a != b for a, b in zip(zop, comp)),
                "zop_tcd": rows["ZeroOnlyPruning"].tcd, "compvqc_tcd": rows["CompVQC"].tcd}
        return Output(report=experiment.format_report(report, "json"), params=cap.params,
                      tcds={m: r.tcd for m, r in rows.items()},
                      tcd_speedup=rows["CompVQC"].speedup,
                      test_acc=rows["CompVQC"].accuracy, extra=extra)

    def check(self, ctx, out):
        return _common_checks(ctx, out, out.params["CompVQC"], ("Vanilla", "CompVQC"))


class EvaluateWorkload:
    name = "syn16"

    def setup(self, seed):
        ctx = _setup(seed, self.name, 16)
        ctx.theta = mixed_angles(ctx.circuit, np.random.default_rng(seed))
        return ctx

    def run(self, ctx):
        c, theta = ctx.circuit, ctx.theta
        recon = recl.reconstruct_lut(c, theta, ctx.lut, ctx.dataset.train)
        compressed = theta.copy()
        for gi, level in recon.levels.items():
            for slot, value in zip(c.layers[gi].theta_slots, level.value):
                compressed[slot] = value
        depth, depth_recl = transpile.tcd(c, theta), transpile.tcd(c, compressed)
        acc = training.loss_and_accuracy(c, theta, ctx.dataset.test)[1]
        noisy = noise.noisy_accuracy(c, theta, ctx.dataset.test, NOISE_P, NOISE_SHOTS, ctx.seed)
        report = {
            "seed": ctx.seed, "tcd": depth, "tcd_recl": depth_recl,
            "ideal_accuracy": acc, "noisy_accuracy": noisy,
            "levels": {str(gi): {"value": list(lv.value), "tag": lv.tag.value,
                                 "depth": lv.depth, "metric": recon.metrics[gi]}
                       for gi, lv in sorted(recon.levels.items())},
        }
        return Output(report=json.dumps(report, indent=2, sort_keys=True) + "\n",
                      params={"theta": theta, "recl": compressed},
                      tcds={"theta": depth, "recl": depth_recl},
                      tcd_speedup=depth / depth_recl, test_acc=acc)

    def check(self, ctx, out):
        return _common_checks(ctx, out, ctx.theta, ("theta", "recl"))


def mixed_angles(circuit, rng):
    """Generic angles from the seed, except that every second gate of each
    kind sits on the pi/2 grid so the special-angle templates fire.  The grid
    gates and their values (GRID_STEPS, in order) are the same for every
    seed, so every seed transpiles to the same mix of physical gates (CX
    cost most in the noise path) and the run's cost does not move with the
    seed."""
    theta = rng.uniform(0.0, 4 * math.pi, circuit.n_thetas)
    by_kind = {}
    for gi in circuit.trainable_indices():
        by_kind.setdefault(circuit.layers[gi].kind.value, []).append(gi)
    for _, gis in sorted(by_kind.items()):
        for step, gi in zip(GRID_STEPS, gis[1::2]):
            for slot in circuit.layers[gi].theta_slots:
                theta[slot] = step * math.pi / 2
    return theta


def _common_checks(ctx, out, final, unitary_labels):
    """Gradient and p = 0 checks at the `final` params, unitary checks on the
    labelled params, and a TCD check for every reported depth."""
    c, ds = ctx.circuit, ctx.dataset
    batch = ds.train[:GRAD_BATCH]
    feats, labels = data.stack(batch)
    test_feats, _ = data.stack(ds.test)
    failures = checks.check_gradient(c, final, feats, labels, batch, "gradient")
    for label in unitary_labels:
        failures += checks.check_unitary(c, out.params[label], test_feats[0], f"unitary {label}")
    for label, depth in out.tcds.items():
        failures += checks.check_tcd(c, out.params[label], depth, f"tcd {label}")
    failures += checks.check_noiseless(c, final, ds.test, ctx.seed, "noise p=0")
    return failures


WORKLOADS = {
    "report-syn4": ReportWorkload("syn4", 4, experiment.METHOD_ORDER, epochs=10,
                                  admm_iters=6, admm_epochs=2, retrain_epochs=10),
    "compress-syn16": ReportWorkload("syn16", 16, ("Vanilla", "CompVQC"), epochs=4,
                                     admm_iters=4, admm_epochs=1, retrain_epochs=4),
    "evaluate-syn16": EvaluateWorkload(),
}
