"""Spans around rootcert's public functions, recorded from outside the library.

``Tracer.install`` replaces each traced function in every library module
that binds it, which covers the names through which ``solve``,
``iterations``, ``certify`` and ``cli`` call each other; ``uninstall`` puts
the originals back.  ``solve`` finds its step map through
``iterations.step_function``, so that lookup is wrapped to hand out the
traced step.  A function a later change renames or removes is simply not
traced and reports zero calls.

Spans live in memory as ``Span`` tuples and are written out by ``write``.
A span's self time is its duration minus the part of it covered by its
children.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from typing import NamedTuple

MODULES = ("rootcert", "rootcert.polynomials", "rootcert.measures",
           "rootcert.iterations", "rootcert.certify", "rootcert.solve",
           "rootcert.cli")

# (defining module, function name) -> layer name
TRACED = {
    ("polynomials", "evaluate"): "polynomials.evaluate",
    ("polynomials", "evaluate_with_derivatives"): "polynomials.evaluate_with_derivatives",
    ("measures", "weierstrass_correction"): "measures.weierstrass_correction",
    ("measures", "separation"): "measures.separation",
    ("measures", "e_measure"): "measures.e_measure",
    ("iterations", "ehrlich_step_bs"): "iterations.ehrlich_step_bs",
    ("iterations", "dochev_byrnev_step"): "iterations.dochev_byrnev_step",
    ("iterations", "tanabe_step"): "iterations.tanabe_step",
    ("certify", "certify_initial"): "certify.certify_initial",
    ("certify", "inclusion_disks"): "certify.inclusion_disks",
    ("certify", "a_priori_bound"): "certify.bounds",
    ("certify", "a_posteriori_bound_1"): "certify.bounds",
    ("solve", "solve"): "solve.solve",
    ("cli", "main"): "cli.main",
}

# functions whose result is a traced function, handed out wrapped
RESOLVERS = {("iterations", "step_function")}

# what a span keeps of its function's result
INFO = {
    "solve.solve": lambda r: getattr(r, "iterations", None),
    "certify.certify_initial": lambda r: getattr(r, "issued", None),
}


class Span(NamedTuple):
    sid: int
    parent: int
    op: int
    name: str
    t0: float
    t1: float
    info: object


def _key(fn):
    if isinstance(fn, types.FunctionType) and fn.__module__.startswith("rootcert."):
        return fn.__module__.rsplit(".", 1)[1], fn.__name__
    return None


def _label(name, args, kwargs):
    if name == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        if argv and "--batch" in argv:
            return "cli.batch"
    return name


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0  # operation id stamped on new spans
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0  # open top-level span; parent of pool-thread spans
        self._wrappers = {}
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _traced(self, name, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            top = not stack and threading.current_thread() is threading.main_thread()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if top:
                self._root = sid
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if top:
                    self._root = 0
                self.spans.append(Span(sid, parent, self.op, _label(name, args, kwargs),
                                       t0, t1, info(result) if info and result is not None else None))
        return traced

    def _resolver(self, fn):
        @functools.wraps(fn)
        def resolve(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, types.FunctionType):
                return self._wrappers.get(result, result)
            return result
        return resolve

    def install(self):
        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        for module in modules:
            for attr, value in list(vars(module).items()):
                key = _key(value)
                if key in TRACED:
                    if value not in self._wrappers:
                        self._wrappers[value] = self._traced(TRACED[key], value)
                    wrapper = self._wrappers[value]
                elif key in RESOLVERS:
                    wrapper = self._resolver(value)
                else:
                    continue
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def write(self, path, header: dict):
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for s in self.spans:
                out.write(json.dumps(list(s)) + "\n")


def _covered(intervals, t0, t1):
    """Length of [t0, t1] covered by the union of the intervals."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def layer_stats(spans):
    """name -> [calls, busy seconds, self seconds]."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        busy = s.t1 - s.t0
        row = stats[s.name]
        row[0] += 1
        row[1] += busy
        row[2] += busy - _covered(children.get(s.sid, ()), s.t0, s.t1)
    return stats


def loop_calls(spans, name):
    """Calls of ``name`` made inside solve's iteration loop: under a
    solve.solve span, not under a certify span, and starting no earlier
    than that solve's first step."""
    by_id = {s.sid: s for s in spans}
    first_step = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if s.name.startswith("iterations.") and parent and parent.name == "solve.solve":
            first_step[s.parent] = min(s.t0, first_step.get(s.parent, s.t0))
    count = 0
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != "solve.solve" and not p.name.startswith("certify."):
            p = by_id.get(p.parent)
        if p is not None and p.name == "solve.solve" and s.t0 >= first_step.get(p.sid, float("inf")):
            count += 1
    return count
