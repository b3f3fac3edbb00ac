"""In-memory span tracer that wraps package functions from outside.

A wrapped function is replaced at every import site: each `vqcompress.*`
module attribute that is the original function object is swapped for the
wrapper, so `admm.sgd_train`, `recl.tcd` and `simulator.apply_gate_batch`
all record spans although the package knows nothing about tracing.

A span is (id, parent id, name, start ns, end ns, run id, tag).  Spans stay
in memory until `write_jsonl` writes them out at the end of the run.
Optional hooks see each call's span id, arguments and result; they add to
work counters or keep notes (such as a returned mask) keyed by span id.
"""

import gzip
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []                      # (id, parent, name, t0, t1, run, tag)
        self.counters = defaultdict(int)
        self.notes = {}                      # span id -> value kept by a hook
        self.run_id = 0
        self._stack = [None]
        self._next_id = 0
        self._patched = []                   # (module, attr, original)

    def wrap(self, name, fn, hook=None, tagger=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            tag = tagger(args, kwargs) if tagger else None
            spans.append((sid, parent, name, t0, t1, self.run_id, tag))
            if hook:
                hook(self, sid, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr, hook=None, tagger=None):
        """Wrap `module.attr` at every vqcompress module that imported it."""
        original = getattr(module, attr)
        wrapper = self.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}",
                            original, hook, tagger)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("vqcompress"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def new_run(self):
        """Start a fresh run id; counters restart, spans accumulate."""
        self.run_id += 1
        self.counters = defaultdict(int)

    def run_spans(self, run_id):
        return [s for s in self.spans if s[5] == run_id]

    def write_jsonl(self, path):
        """Gzipped JSON lines, one span per line:
        [id, parent, name, start_ns, end_ns, run, tag]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def span_tree(spans):
    """Per-span self time (ns) and children lists, keyed by span id.

    Calls are single-threaded and properly nested, so the time the children
    of a span cover is the plain sum of their durations.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    self_ns = {}
    for s in spans:
        covered = sum(c[4] - c[3] for c in children[s[0]])
        self_ns[s[0]] = (s[4] - s[3]) - covered
    for kids in children.values():
        kids.sort(key=lambda c: c[3])
    return self_ns, children
