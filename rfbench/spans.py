"""In-memory span tracer that wraps the package's public functions from outside.

A wrapper is installed at every name a caller looks up: for each target
function, every loaded `rfensemble` module whose namespace holds that same
function object gets the wrapper (`solver.py` binds `channel_update` into its
own namespace, `cli.py` binds `solve_fixed_point`, and so on). Each call
records a span (name, start, end, parent span, operation id); spans are kept
in a list and written out once at the end. A span's self time is its duration
minus the durations of its direct child spans, which are nested calls and so
never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id, self seconds)
        self._stack = []  # [span index, seconds covered by children]
        self._restore = []
        self._next_op = 0
        self.op = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    def wrap(self, fn, name, count=None, op=False):
        """Wrapper recording a span named `name` (or `name(args, kwargs)` if callable).

        `count(counts, name, args, kwargs, result)` adds work counters;
        `op=True` starts a new operation id for the call and its children.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            outer_op = tracer.op
            if op:
                tracer._next_op += 1
                tracer.op = tracer._next_op
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                tracer.spans[index] = (label, start, end, parent, tracer.op, own)
                tracer.op = outer_op
                if stack:
                    stack[-1][1] += duration
                tracer.calls[label] += 1
                tracer.self_s[label] += own
            if count is not None:
                count(tracer.counts, label, args, kwargs, result)
            return result

        return wrapper

    def install(self, module, attr, name, count=None, op=False):
        """Replace `module.attr` at every binding of that object in the package."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, count, op)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rfensemble" or mod_name.startswith("rfensemble.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, own in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, own]) + "\n")
