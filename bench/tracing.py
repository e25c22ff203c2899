"""Timing spans around the program's public functions, for the traced run.

``Tracer.install()`` replaces the functions below on the modules that call
them, and wraps every kernel module that ``kernels_for`` returns; ``remove()``
puts the originals back.  Spans are kept in memory as (name, start, end,
parent, task) and turned into per-layer metrics after each pass.  Calls made
in other processes (the workers of the density pool) pass straight through
untraced.
"""

from __future__ import annotations

import os
import statistics
import time
import types
from collections import Counter

import tumbling._backend as B
import tumbling._kernels_py as KPY
import tumbling.density as D
import tumbling.quotient as Q
import tumbling.solvers as S

#: span name -> (function name, modules whose attribute is replaced)
WRAPPED = {
    "quotient.enumerate": ("enumerate_hnf", (Q, D)),
    "quotient.validate": ("validate_quotient", (Q, D)),
    "quotient.build": ("build_quotient", (Q, D)),
    "solvers.solve": ("solve", (S, D)),
    "solvers.verify": ("verify_witness", (S,)),
    "density.valid_quotients": ("valid_quotients", (D,)),
    "density.sweep": ("density_sweep", (D,)),
    "density.min_density": ("min_density", (D,)),
    "density.search": ("search", (D,)),
    "density.lift_check": ("lift_check", (D,)),
    "density.perfect_open_pattern": ("perfect_open_pattern", (D,)),
}

KERNEL_SPANS = {
    "solve_cover": "kernel.proof",
    "solve_pack": "kernel.proof",
    "cover_feasible": "kernel.canon",
    "pack_feasible": "kernel.canon",
}


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.task = -1
        self._saved: list[tuple[object, str, object]] = []
        self._proxies: dict[int, types.SimpleNamespace] = {}
        #: Time one span adds to a call, set by calibrate().
        self.span_cost_s = 0.0
        self.clear()

    def clear(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list[int] = []
        self.counts: Counter = Counter()
        self.valid: set = set()
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.tasks.append(self.task)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.starts[sid] = t0
                self.ends[sid] = t1
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note_valid(self, result, args, kwargs):
        """Distinct quotients found valid: validating one again is wasted work."""
        if result:
            self.valid.add((*args, *kwargs.values()))

    def _add_nodes(self, result, args, kwargs):
        self.counts["kernel.proof.nodes"] += result[2]

    def _count_feasible(self, result, args, kwargs):
        if result:
            self.counts["kernel.canon.feasible"] += 1

    def _kernel_proxy(self, kern) -> types.SimpleNamespace:
        proxy = self._proxies.get(id(kern))
        if proxy is None:
            hooks = {
                "solve_cover": self._add_nodes,
                "solve_pack": self._add_nodes,
                "cover_feasible": self._count_feasible,
                "pack_feasible": self._count_feasible,
            }
            proxy = types.SimpleNamespace(
                MAX_N=kern.MAX_N,
                **{fn: self.wrap(span, getattr(kern, fn), hooks[fn]) for fn, span in KERNEL_SPANS.items()},
            )
            self._proxies[id(kern)] = proxy
        return proxy

    def install(self) -> None:
        hooks = {"quotient.validate": self._note_valid}
        for span, (attr, modules) in WRAPPED.items():
            traced = self.wrap(span, getattr(modules[0], attr), hooks.get(span))
            for mod in modules:
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, traced)

        original = S.kernels_for

        def kernels_for(n):
            kern = original(n)
            if os.getpid() != self.pid:
                return kern
            if kern is KPY and B._impl is not KPY:
                self.counts["kernel.fallback.calls"] += 1
            return self._kernel_proxy(kern)

        self._saved.append((S, "kernels_for", original))
        S.kernels_for = kernels_for

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def calibrate(self) -> None:
        """Measure what one span adds to a call: a wrapped no-op against a
        bare one, median over 5 rounds of 20,000 calls each."""

        def noop():
            return None

        probe = Tracer()
        traced = probe.wrap("probe", noop)
        per_call = []
        calls = 20000
        for _ in range(5):
            probe.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            per_call.append(((t2 - t1) - (t1 - t0)) / calls)
        self.span_cost_s = statistics.median(per_call)

    # -- reduction ---------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents, self.tasks))

    def pass_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last clear()."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.parents[i]
            if p < 0:
                top += dur[i]
            else:
                child[p] += dur[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        for i, name in enumerate(self.names):
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        c = self.counts
        return {
            "quotient.validate.calls": calls["quotient.validate"],
            "quotient.validate.s": total["quotient.validate"],
            "quotient.validate.valid_ratio": _ratio(len(self.valid), calls["quotient.validate"]),
            "quotient.build.calls": calls["quotient.build"],
            "quotient.build.s": total["quotient.build"],
            "kernel.proof.calls": calls["kernel.proof"],
            "kernel.proof.s": total["kernel.proof"],
            "kernel.proof.nodes": c["kernel.proof.nodes"],
            "kernel.canon.calls": calls["kernel.canon"],
            "kernel.canon.s": total["kernel.canon"],
            "kernel.canon.feasible_ratio": _ratio(c["kernel.canon.feasible"], calls["kernel.canon"]),
            "kernel.fallback.calls": c["kernel.fallback.calls"],
            "solvers.solve.calls": calls["solvers.solve"],
            "solvers.solve.self_s": self_s["solvers.solve"],
            "solvers.verify.calls": calls["solvers.verify"],
            "solvers.verify.s": total["solvers.verify"],
            "density.search.s": total["density.search"],
            "density.sweep.s": total["density.sweep"],
            "density.min_density.calls": calls["density.min_density"],
            "density.lift_check.calls": calls["density.lift_check"],
            "density.lift_check.s": total["density.lift_check"],
            "trace.uncovered_frac": _ratio(wall_s - top, wall_s),
            "trace.wrap_cost_s": n * self.span_cost_s,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
