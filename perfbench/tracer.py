"""Out-of-program span tracing for the benchmark's traced run.

The traced run times each layer from the outside: :class:`Tracer`
replaces the public entry points listed in :data:`FUNCTIONS` and
:data:`METHODS` with wrappers that record one span per call (name,
start, end, parent span, thread, request).  Nothing inside the
program changes and no :class:`repro.obs.Observer` is attached -- an
observer in counters mode makes the native renderer emit telemetry C,
which is a different program to compile.

Spans live in memory; :meth:`Tracer.dump` writes them out once the run
ends.  A span's *self time* is its duration minus the time its child
spans on the same thread cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time

#: ``(module, function, span name)``: module-level entry points.  Every
#: module attribute bound to the same function object (``from x import
#: f`` aliases) is wrapped too.
FUNCTIONS = (
    ("repro.lisa.semantics", "compile_source", "lisa.compile_source"),
    ("repro.simcc.portable", "build_portable_table",
     "simcc.build_portable_table"),
    ("repro.analysis", "schedule_safety", "analysis.schedule_safety"),
    ("repro.analysis.absint", "analyze_packet", "analysis.absint"),
    ("repro.simcc.native.cgen", "render_native_source", "native.render"),
    ("repro.simcc.native.toolchain", "compile_shared", "native.cc"),
    ("repro.simcc.native.toolchain", "load_burst", "native.dlopen"),
    ("repro.simcc.native.backend", "build_native_module", "native.build"),
)

#: ``(module, class, method, span name)``: methods, wrapped on the class
#: and on every subclass that overrides them.
METHODS = (
    ("repro.tools.asm", "Assembler", "assemble_text", "asm.assemble_text"),
    ("repro.simcc.compiler", "SimulationCompiler", "compile",
     "simcc.compile"),
    ("repro.simcc.cache", "SimulationCache", "load_table",
     "cache.load_table"),
    ("repro.simcc.cache", "SimulationCache", "load_portable",
     "cache.load_portable"),
    ("repro.simcc.cache", "SimulationCache", "load_or_build_portable",
     "cache.load_or_build_portable"),
    ("repro.simcc.cache", "SimulationCache", "load_native_artifact",
     "cache.load_native_artifact"),
    ("repro.simcc.cache", "SimulationCache", "store_portable",
     "cache.store_portable"),
    ("repro.simcc.cache", "SimulationCache", "store_native_artifact",
     "cache.store_native_artifact"),
    ("repro.sim.base", "Simulator", "load_program", "sim.load_program"),
    ("repro.sim.base", "Simulator", "run", "sim.run"),
    # the supervisor receiving (and unpickling) worker messages --
    # checkpoints, results -- inside Supervisor.pump; the workers were
    # forked before any patch went in, so only the supervisor is timed
    ("multiprocessing.connection", "Connection", "recv", "service.recv"),
)

#: Modules whose import registers every simulator subclass.
_PRELOAD = ("repro.sim", "repro.simcc.generator", "repro.simcc.native")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "request",
                 "attrs")

    def __init__(self, name, start, parent, thread, request):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.request = request
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "thread": self.thread,
            "request": self.request, "attrs": self.attrs,
        }


def _subclasses(cls):
    pending, seen = [cls], []
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen


class Tracer:
    """Span recorder plus the set of entry-point patches.

    ``measures`` maps a span name to ``fn(args, kwargs, result) ->
    dict`` whose return value is stored on the span (sizes, counts).
    Patches go in with :meth:`install` and come out with
    :meth:`uninstall`, so untraced requests run the original code.
    """

    def __init__(self, measures=None):
        self.spans = []
        self.request = None
        self._measures = dict(measures or {})
        self._local = threading.local()
        self._patches = self._collect_patches()
        self.installed = False

    # -- patch set ------------------------------------------------------

    def _collect_patches(self):
        for name in _PRELOAD:
            importlib.import_module(name)
        patches = []
        for module_name, attr, span_name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(span_name, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, alias, original, wrapper))
        for module_name, class_name, attr, span_name in METHODS:
            base = getattr(importlib.import_module(module_name), class_name)
            for cls in _subclasses(base):
                original = cls.__dict__.get(attr)
                if original is None and cls is base:
                    # inherited: shadow it, and delete the shadow again
                    wrapper = self._wrap(span_name, getattr(base, attr))
                    patches.append((cls, attr, None, wrapper))
                elif original is not None:
                    patches.append(
                        (cls, attr, original, self._wrap(span_name, original))
                    )
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.installed = False

    # -- recording ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    stack[-1] if stack else None,
                    threading.get_ident(), self.request)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn):
        tracer = self
        measure = self._measures.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # an override calling super() is one call, not two
            if stack and tracer.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span.attrs = measure(args, kwargs, result)
                return result
            finally:
                tracer._close(span)

        return traced

    @contextlib.contextmanager
    def region(self, name):
        """A span around the benchmark's own code (no-op when the
        patches are out, so untraced requests record nothing)."""
        if not self.installed:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- reduction ------------------------------------------------------

    def self_times(self):
        """Self time of every finished span, by span index."""
        own = [span.duration if span.end is not None else 0.0
               for span in self.spans]
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                own[span.parent] -= span.duration
        return own

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)
