"""Span tracer for the traced run: wraps ceildyn's public functions from outside.

Every public module-level function of the package is replaced, in every
module namespace that holds it, by a wrapper that records a span (name,
start, end, parent span, command id).  Names imported with "from ... import"
(cli and chains import stopping_time_windowed, stopping_time_exact and
euler_phi that way) are separate bindings, so each binding is patched;
cli.COMMANDS holds the subcommand handlers in a table and is patched too.

Self time is accumulated online: a span's duration minus the durations of
its direct children.  Spans of one traced round are also kept in flat
arrays and written out when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import os
import time
from array import array
from collections import defaultdict

# Per-step kernels run millions of times; the micro-benchmarks time them.
UNWRAPPED = {"window.step_window", "padic.fp_step"}


class Tracer:
    def __init__(self, modules, hooks):
        """hooks maps a qualified name to f(tracer, args, result), called after
        each call to that function to bump the layer counters."""
        self.modules = modules
        self.hooks = hooks
        self.command_id = -1
        self.keep = False
        self._stack: list[list] = []
        self._patched: list[tuple[dict, object, object]] = []
        self.reset()
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_command = array("i")

    def reset(self) -> None:
        """Start a fresh aggregation (one traced round)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        stack = self._stack
        clock = time.perf_counter
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            start = clock()
            index = -1
            if self.keep:
                index = len(self.span_end)
                self.span_name.append(name_id)
                self.span_start.append(start)
                self.span_end.append(0.0)
                self.span_parent.append(stack[-1][2] if stack else -1)
                self.span_command.append(self.command_id)
            frame = [start, 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                if index >= 0:
                    self.span_end[index] = end
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or attr.startswith("_"):
                    continue
                owner = value.__module__
                if not owner.startswith("ceildyn."):
                    continue
                name = f"{owner.rsplit('.', 1)[1]}.{value.__name__}"
                if name in UNWRAPPED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(name, value)
                self._patch(vars(module), attr, wrappers[value])
        cli = next(m for m in self.modules if m.__name__ == "ceildyn.cli")
        for command, (handler, *rest) in list(cli.COMMANDS.items()):
            self._patch(cli.COMMANDS, command, (wrappers[handler], *rest))

    def _patch(self, namespace: dict, key, value) -> None:
        self._patched.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self) -> None:
        while self._patched:
            namespace, key, original = self._patched.pop()
            namespace[key] = original

    def write(self, path: str) -> int:
        """Write the kept spans as gzipped CSV, times in seconds from the first span."""
        count = len(self.span_end)
        base = self.span_start[0] if count else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,command\n")
            for i in range(count):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i] - base:.9f},"
                    f"{self.span_end[i] - base:.9f},{self.span_parent[i]},{self.span_command[i]}\n"
                )
        return count
