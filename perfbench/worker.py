"""One benchmark process: set up a workload, then measure it.

Started by run.py, which caps the BLAS thread pool and passes the monotonic
clock reading taken just before the process was spawned, so that `setup_s`
covers interpreter start, imports, input generation, circuit loading and
the LUT build.  Prints one JSON object as its last line.

With --setup-only the process stops after set-up.  Otherwise it repeats the
workload on the same inputs until --seconds is used up (at least twice), runs
every correctness check after each repetition, and with --trace 1 runs a
second, traced set of repetitions for the per-layer metrics.

On a shared host the CPU's speed can drift by a third within seconds, and
differently on each core.  So during each untraced repetition a timer runs a
fixed reference kernel every REF_PERIOD_S in this process, and `run_s` is the
repetition's wall time, less the kernel's, divided by how much slower than
REF_NOMINAL_S the kernel ran meanwhile.  `setup_s` is rescaled the same way
by REF_BURST kernel runs right after set-up, and a traced repetition by
REF_BURST runs just before and after it.  The kernel is the benchmark's own
code, so a faster package does not change it.
"""

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import workloads
import layers
from tracing import Tracer

MAX_REPS = 50
REF_BURST = 10
REF_PERIOD_S = 0.2
REF_NOMINAL_S = 4.0e-3    # the kernel's median time on a quiet 2-core x86-64 VM


class SpeedProbe:
    """Times the reference kernel, either from a SIGALRM handler while a
    repetition runs or back to back after set-up.  The kernel mixes the
    package's kinds of work: a Python loop, per-row 2x2 einsums over 64 rows,
    and one shared 2x2 einsum over 4096 rows of 16 amplitudes."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        self.rows_u = np.broadcast_to(self.u, (64, 2, 2)).copy()
        self.small = np.full((64, 2, 2, 2), 0.25 + 0j)
        self.big = np.full((4096, 2, 2, 4), 0.25 + 0j)
        self.samples = []

    def kernel(self):
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        t = self.small
        for _ in range(10):
            t = np.einsum("rab,rhbl->rhal", self.rows_u, t)
        np.einsum("ab,rhbl->rhal", self.u, self.big)
        return acc

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.samples:
            self._sample()

    def sample_now(self, n):
        """n back-to-back samples, after one unrecorded warm-up call."""
        self.kernel()
        self.samples = []
        for _ in range(n):
            self._sample()

    def slowness(self):
        """How much slower than nominal the kernel ran; times divided by
        this are at the kernel's nominal speed."""
        return statistics.fmean(self.samples) / REF_NOMINAL_S


def measure(wl, ctx, budget_s, min_reps, tracer=None):
    """Repetitions of one workload until the budget is spent; each is a dict
    with its wall time, its rescaled time, output and check failures."""
    reps, start, probe = [], time.perf_counter(), SpeedProbe()
    while True:
        rep = {"failures": [], "out": None}
        if tracer:
            # Sampled around a traced repetition, not during it, so that
            # no span holds the kernel's time.
            tracer.new_run()
            probe.sample_now(REF_BURST)
            before = probe.samples
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            with nullcontext() if tracer else probe:
                rep["out"] = wl.run(ctx)
        except Exception:
            rep["failures"].append("run raised:\n" + traceback.format_exc())
        rep["run_s"] = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
            probe.sample_now(REF_BURST)
            probe.samples += before
            rep["probe_s"] = 0.0
            if rep["out"] is not None:
                rep["layers"], rep["admm_runs"] = layers.derive(tracer, tracer.run_id,
                                                                rep["run_s"])
        else:
            rep["probe_s"] = sum(probe.samples)
        rep["scaled_s"] = (rep["run_s"] - rep["probe_s"]) / probe.slowness()
        if rep["out"] is not None:
            try:
                rep["failures"] += wl.check(ctx, rep["out"])
            except Exception:
                rep["failures"].append("check raised:\n" + traceback.format_exc())
        reps.append(rep)
        typical = statistics.median(r["run_s"] for r in reps)
        spent = time.perf_counter() - start
        if len(reps) >= MAX_REPS or (len(reps) >= min_reps and spent + typical > budget_s):
            return reps


def compare_reports(reps, first):
    """Byte-identical JSON report for every repetition of the seed."""
    for i, rep in enumerate(reps):
        if rep["out"] is not None and rep["out"].report != first:
            rep["failures"].append(f"repetition {i}: report differs from the first one")


def compare_counters(reps):
    """Work counters repeat exactly between traced repetitions."""
    base = reps[0].get("layers")
    for i, rep in enumerate(reps[1:], start=1):
        got = rep.get("layers")
        if base is None or got is None:
            continue
        for name in layers.WORK_COUNTERS:
            if got[name] != base[name]:
                rep["failures"].append(f"traced repetition {i}: {name} {got[name]} "
                                       f"!= {base[name]}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    ctx = wl.setup(args.seed)
    setup_wall_s = time.monotonic() - args.spawned_at
    probe = SpeedProbe()
    probe.sample_now(REF_BURST)
    result = {"setup_s": setup_wall_s / probe.slowness(), "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(result))
        return

    budget = args.seconds / 2 if args.trace else args.seconds
    reps = measure(wl, ctx, budget, 1 if args.trace else 2)
    traced = []
    if args.trace:
        tracer = Tracer()
        traced = measure(wl, ctx, args.seconds - budget, 2, tracer)
        compare_counters(traced)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(out_dir / f"{args.workload}.spans.jsonl.gz")
    every = reps + traced
    done = [r for r in every if r["out"] is not None]
    if done:
        compare_reports(every, done[0]["out"].report)
    for f in (f for r in every for f in r["failures"]):
        print(f"CHECK FAILED: {f}", file=sys.stderr)

    plain = [r for r in reps if r["out"] is not None]
    result.update({
        "attempted": len(every),
        "failed": sum(1 for r in every if r["failures"]),
        "rep_s": [round(r["run_s"], 3) for r in reps],
        "scaled_s": [round(r["scaled_s"], 3) for r in reps],
        "wall_s": statistics.median(r["run_s"] - r["probe_s"] for r in plain) if plain else None,
        "run_s": statistics.median(r["scaled_s"] for r in plain) if plain else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if done:
        out = done[0]["out"]
        result.update({"tcd_speedup": out.tcd_speedup, "test_acc": out.test_acc, **out.extra})
    layered = [r for r in traced if "layers" in r]
    if layered:
        zop = out.extra.get("zop_vs_compvqc", {})
        traced_s = statistics.median(r["scaled_s"] for r in layered)
        result["layers"] = {
            **{name: statistics.median(r["layers"][name] for r in layered)
               for name in layered[0]["layers"]},
            **ctx.setup_times,
            "quality.tcd_speedup": out.tcd_speedup, "quality.test_acc": out.test_acc,
            "admm.zop_mask_hamming": zop.get("mask_hamming", 0),
            "admm.zop_tcd_gap": zop.get("compvqc_tcd", 0) - zop.get("zop_tcd", 0),
            "trace.overhead_frac": traced_s / result["run_s"] - 1.0,
        }
        result["admm_runs"] = layered[0]["admm_runs"]
        with open(Path(args.out_dir) / f"{args.workload}.admm.json", "w") as fh:
            json.dump({"seed": args.seed, "runs": layered[0]["admm_runs"],
                       "zop_vs_compvqc": zop or None}, fh, indent=2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
