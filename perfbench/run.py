"""vqcompress benchmark launcher.

    python3 perfbench/run.py --workload report-syn4 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, and nothing needs building.  The launcher caps numpy's
BLAS pool at one thread per available core, starts worker processes (a few
that only set up, then one that sets up and measures) and prints the result
as the last line of standard output: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  A table of every
metric, the failure rate and the quality numbers goes to standard error.

Exits 2 without a result when the checkout has no `src/vqcompress`, and 1
when a worker fails or times out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_ONLY_WORKERS = 8
DEADLINE_S = 175          # a run must end within 180 s


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def worker(root, args, deadline, setup_only=False):
    """Run one worker to completion and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    threads = str(len(os.sched_getaffinity(0)))
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(HERE / "out")]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        fail("worker timed out", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker exited with code {proc.returncode}", 1)
    return json.loads(lines[-1])


def table(rows):
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>12}  {unit}", file=sys.stderr)


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "vqcompress" / "__init__.py").is_file():
        fail(f"no src/vqcompress under {root}; run from the root of a checkout", 2)
    deadline = start + DEADLINE_S

    setups = [] if args.trace else [worker(root, args, deadline, setup_only=True)
                                    for _ in range(SETUP_ONLY_WORKERS)]
    res = worker(root, args, deadline)
    if res["run_s"] is None:
        fail("no repetition of the workload completed", 1)
    setups.append(res)

    if args.trace:
        values = res["layers"]
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "run_s": res["run_s"], "peak_rss_mb": res["peak_rss_mb"]}
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        fail(f"metrics not produced: {missing}", 1)
    values = {m["name"]: round(values[m["name"]]) if m["unit"] == "count" else values[m["name"]]
              for m in metrics}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={res['rep_s']} rescaled={res['scaled_s']} "
          f"attempted={res['attempted']} failed={res['failed']}",
          file=sys.stderr)
    table([(m["name"], values[m["name"]], m["unit"]) for m in metrics]
          + [("setup_wall_s", statistics.median(s["setup_wall_s"] for s in setups), "s"),
             ("run_wall_s", res["wall_s"], "s"),
             ("error_frac", res["failed"] / res["attempted"], "frac"),
             ("tcd_speedup", res["tcd_speedup"], "ratio"),
             ("test_acc", res["test_acc"], "frac")])
    if "zop_vs_compvqc" in res:
        z = res["zop_vs_compvqc"]
        print(f"  ZeroOnlyPruning vs CompVQC: masks {z['zop_mask']} / {z['compvqc_mask']} "
              f"({'tie' if not z['mask_hamming'] else str(z['mask_hamming']) + ' bits differ'})"
              f", TCD {z['zop_tcd']} / {z['compvqc_tcd']} "
              f"({'tie' if z['zop_tcd'] == z['compvqc_tcd'] else 'differ'})", file=sys.stderr)
    for run in res.get("admm_runs", []):
        print(f"  ADMM {run['method']}: {run['iterations']} iterations, stop: {run['stop']}, "
              f"{run['mask_flips']} mask flips, final mask {run['final_mask']}", file=sys.stderr)

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))


if __name__ == "__main__":
    main()
