"""The benchmark in `perfbench/` still runs against the package.

Each workload runs once, set-up to checks, with the tracer's wrappers
installed as in a traced benchmark run.  The wrappers and their hooks read
the wrapped functions' names and positional arguments, and the workloads
call package functions by name, so a rename or a moved argument fails here
instead of in the benchmark.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import layers
    import tracing
    import workloads
finally:
    sys.path.remove(PERFBENCH)

SEED = 601


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_traced_and_passes_its_checks(name):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(SEED)
    tracer = tracing.Tracer()
    tracer.new_run()
    layers.install(tracer)
    try:
        out = wl.run(ctx)
    finally:
        tracer.uninstall()
    metrics, _ = layers.derive(tracer, tracer.run_id, 1.0)
    assert tracer.run_spans(tracer.run_id)
    assert metrics["trace.top_level_frac"] > 0
    assert wl.check(ctx, out) == []
