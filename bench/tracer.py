"""Spans around extcalc's layers, for the traced run only.

``Tracer.install`` wraps every public function defined in the layer modules,
the ``AdmissibleGroup`` methods the layer metrics count, and the sympy
functions (``isprime``, ``nextprime``, ``factorint``) as the modules bind
them.  Each wrapped call inside an operation records one span: name, start,
end, parent span and the operation (request) it belongs to.  Spans stay in
flat arrays in memory and are written out once, after the run.

Self time of a span is its duration minus the time its direct children
cover; calls are strictly nested on one thread, so the children never
overlap.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("abelian", "graded", "bockstein", "exttype", "presentation", "dsl", "cli")
PRIME_FUNCTIONS = ("isprime", "nextprime", "factorint")
GROUP_METHODS = ("tensor", "tor", "__add__", "from_counts")


def _pair_hook(tracer, parent, args, result):
    tracer.counters["abelian.atom_pairs"] += len(args[0].summands) * len(args[1].summands)
    if parent >= 0 and tracer.span_name(parent) == "abelian.sigma":
        tracer.counters["abelian.sigma.child_builds"] += 1
        if not result.is_trivial:
            tracer.counters["abelian.sigma.nonzero_builds"] += 1


def _add_hook(tracer, parent, args, result):
    if parent >= 0 and tracer.span_name(parent).startswith("dsl.parse_"):
        tracer.counters["dsl.parse_adds"] += 1


def _parse_hook(tracer, parent, args, result):
    tracer.counters["dsl.input_chars"] += len(args[0])


def _leqgr_hook(tracer, parent, args, result):
    tracer.counters["graded.leqgr.family"] += len(result.checked)


def _dimension_hook(tracer, parent, args, result):
    if parent >= 0 and tracer.span_name(parent) == "graded.graded_order_leq":
        tracer.counters["graded.leqgr.dims"] += 1


HOOKS = {
    "abelian.AdmissibleGroup.tensor": _pair_hook,
    "abelian.AdmissibleGroup.tor": _pair_hook,
    "abelian.AdmissibleGroup.__add__": _add_hook,
    "dsl.parse_group": _parse_hook,
    "dsl.parse_graded": _parse_hook,
    "graded.graded_order_leq": _leqgr_hook,
    "graded.homological_dimension": _dimension_hook,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.active = False
        self._stack = [-1]
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    def span_name(self, index: int) -> str:
        return self.names[self.name_id[index]]

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int):
        self.end[index] = perf_counter()
        self._stack.pop()

    def call(self, request: int, kind: str, fn):
        """Run one operation as the root span of request `request`."""
        self._request = request
        self.active = True
        index = self._open(self._name(f"op.{kind}"))
        try:
            return fn()
        finally:
            self._close(index)
            self.active = False

    def wrap(self, name: str, fn):
        nid = self._name(name)
        hook = HOOKS.get(name)
        raised = name + ".raised"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            index = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index)
                self.counters[raised] += 1
                raise
            self._close(index)
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        import sympy

        package = importlib.import_module("extcalc")
        modules = [package] + [importlib.import_module(f"extcalc.{m}") for m in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for module in modules + [sympy]:
            for name in PRIME_FUNCTIONS:
                obj = vars(module).get(name)
                if obj is not None and obj not in wrappers:
                    wrappers[obj] = self.wrap(f"primes.{name}", obj)
        # Rebind every module-level reference, so calls across modules (and
        # the local `from sympy import factorint` in abelian.cyclic) go
        # through the wrappers.
        for module in modules + [sympy]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, name, wrappers[obj])
        group = package.abelian.AdmissibleGroup
        for name in GROUP_METHODS:
            raw = group.__dict__[name]
            if isinstance(raw, classmethod):
                self._set(group, name, classmethod(self.wrap(f"abelian.AdmissibleGroup.{name}", raw.__func__)))
            else:
                self._set(group, name, self.wrap(f"abelian.AdmissibleGroup.{name}", raw))

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per span name: (calls, total inclusive seconds, total self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += duration
            self_s[name] += duration - child[i]
        return calls, total, self_s

    def durations(self, name: str) -> list[tuple[int, float]]:
        """(request, duration) of every span called `name`."""
        nid = self._ids.get(name)
        return [
            (self.request[i], self.end[i] - self.start[i]) for i in range(len(self.start)) if self.name_id[i] == nid
        ]

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\trequest\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t{self.request[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def import_times(python: str, src: str, env: dict) -> tuple[float, float]:
    """Cumulative import seconds of extcalc and of sympy from one fresh
    interpreter started with -X importtime."""
    import subprocess

    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import extcalc"],
        env=dict(env, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("extcalc", "sympy"):
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return found.get("extcalc", 0.0), found.get("sympy", 0.0)

