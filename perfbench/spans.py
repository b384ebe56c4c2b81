"""Spans around calls into charmax's layers, recorded from outside.

``Tracer.install`` rebinds every public function of the layer modules in
the namespaces of the *other* charmax modules that import it, so each call
from one layer into another runs through a wrapper; calls inside a module
(including expr.evaluate's own recursion) stay direct.  Nothing under
``src/`` changes and ``uninstall`` restores every binding.

Most calls keep a span record (id, name, start, end, parent id, problem,
operation, self time, counts, root id): ``problem`` and ``operation`` say
what the benchmark was doing, and the root is the outermost span.  The
scalar leaf helpers in LEAVES run up to millions of times per pass, so
they are only aggregated: count, total and self time per (name, problem).  Every wrapped call, kept or not, subtracts its time
from its caller's self time, so self times add up to traced wall time.

Calls made on other threads than the one that installed the tracer (the
characteristics thread pool) run untraced; their time stays in the
caller's span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("problem", "integrals", "expr", "locus", "domain",
          "characteristics", "conslaw", "cli")
LEAVES = {"expr.evaluate", "expr.var_names", "expr.variables",
          "problem.binding_at"}
# public methods the CLI calls as layer entry points
METHODS = (("domain", "MaximalDomain", "to_json"),)


class _ModuleView:
    """Stands in for a layer module that another module imports whole
    (``from . import conslaw``): traced public functions, the rest as is."""

    def __init__(self, module, traced: dict):
        self._module = module
        self.__dict__.update(traced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _layer_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """Span recorder for one process; install once, read after uninstall."""

    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.problem = None
        self.op = None
        self.spans: list[tuple] = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.layer_self = defaultdict(float)              # (layer, problem)
        self._stack: list[list] = []              # [child time, id, root id]
        self._next_id = 0
        self._thread = None
        self._undo: list[tuple] = []
        self.entries: dict = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        layer = qualname.split(".", 1)[0]
        keep = qualname not in LEAVES
        observe = self.observers.get(qualname)
        stack = self._stack
        spans = self.spans
        totals = self.totals
        layer_self = self.layer_self
        clock = time.perf_counter
        get_ident = threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            if get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            if keep:
                tracer._next_id += 1
                span_id = tracer._next_id
            else:
                span_id = parent
            root = stack[0][1] if stack else span_id
            frame = [0.0, span_id, root]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                problem = tracer.problem
                entry = totals[(qualname, problem)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
                layer_self[(layer, problem)] += own
                if keep:
                    counts = (observe(result) if observe and result is not None
                              else None)
                    spans.append((span_id, qualname, start, end, parent,
                                  problem, tracer.op, own, counts, root))

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the layers' public functions at their import sites."""
        self._thread = threading.get_ident()
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in LAYERS}
        wrappers = {}
        views = {}
        for layer, module in modules.items():
            traced = {name: self._wrap(f"{layer}.{name}", fn)
                      for name, fn in _layer_functions(module).items()}
            for name, wrapper in traced.items():
                wrappers[id(wrapper.__wrapped__)] = wrapper
                self.entries[f"{layer}.{name}"] = wrapper
            views[id(module)] = _ModuleView(module, traced)
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is not package and not mod_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in views and module is not package:
                    replacement = views[id(value)]   # ``from . import m``
                elif (id(value) in wrappers
                      and value.__module__ != module.__name__):
                    # calls inside the defining module stay direct
                    replacement = wrappers[id(value)]
                else:
                    continue
                setattr(module, attr, replacement)
                self._undo.append((module, attr, value))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}",
                                          original))
            self._undo.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def entry(self, qualname: str, fn):
        """The traced version of a function the benchmark calls itself."""
        return self.entries.get(qualname, fn)

    # -- reading ------------------------------------------------------------

    def spans_named(self, qualname: str, problem=None) -> list[tuple]:
        return [s for s in self.spans
                if s[1] == qualname and (problem is None or s[5] == problem)]

    def write(self, path) -> None:
        """All kept spans as JSON lines, then one line per aggregate."""
        with open(path, "w") as out:
            for (span_id, name, start, end, parent, problem, op, own, counts,
                 root) in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "problem": problem, "op": op,
                    "self": own, "counts": counts, "root": root}) + "\n")
            for (name, problem), (count, total, own) in sorted(
                    self.totals.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
                out.write(json.dumps({
                    "aggregate": name, "problem": problem, "count": count,
                    "total": total, "self": own}) + "\n")
