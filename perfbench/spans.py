"""Span tracer that wraps slicegate's public functions from outside the package.

A name is wrapped wherever a caller looks it up: every binding of a public
function in any loaded ``slicegate`` module is replaced, so calls that went
through ``from .laurent import fox_milnor`` are traced as well as calls
through ``laurent.fox_milnor``.  Spans stay in memory as
``[name, module, start, end, parent_index, op]`` lists.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("cli", "knotdb", "seifert", "laurent", "obstruct", "whitehead", "plfunc")
# methods traced as kernels: the SeifertMatrix constructor runs the unimodularity
# check, KnotRecord.validate the stored-versus-computed cross-check
METHODS = (("seifert", "SeifertMatrix", "__init__", "seifert.SeifertMatrix"),
           ("knotdb", "KnotRecord", "validate", "knotdb.validate"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, module: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, module, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"slicegate.{short}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(short, f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "slicegate" and not modname.startswith("slicegate."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"slicegate.{short}"), cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(short, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)


def self_times(spans, subtract=None) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    With ``subtract`` (a set of module names), only children from those
    modules are subtracted.
    """
    child = [0.0] * len(spans)
    for name, module, start, end, parent, _ in spans:
        if parent >= 0 and (subtract is None or module in subtract):
            child[parent] += end - start
    return [(s[3] - s[2]) - child[i] for i, s in enumerate(spans)]


def merge(span_lists) -> list[list]:
    """Concatenate span lists from separate processes, re-basing parent indices."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        out.extend([n, m, s, e, p + base if p >= 0 else -1, op] for n, m, s, e, p, op in spans)
    return out
