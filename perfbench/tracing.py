"""Spans and counters around shiftlab's public functions, from outside it.

Installing a Tracer rebinds every public function of the traced modules,
on every module that holds a binding to it (``props.follower_profile`` as
well as ``blocks.follower_profile``), to a wrapper that records a span:
id, parent id, request index, name, start and end.  Spans stay in memory
until the run writes them out.  A layer's self time is the duration of its
spans minus the time their child spans cover.  Membership tests on gap
sets are counted, not spanned, because the counting DP makes millions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from collections import Counter, defaultdict

LAYERS = ("sgap", "blocks", "entropy", "props", "beta", "cli")
# Methods traced like functions: (module, class, method).
METHODS = (("blocks", "BlockCountTable", "write_csv"),)
MEMBERSHIP = ("contains", "tail_allows")
# Metrics that add up the spans of several functions.
GROUPS = {
    "beta.expansion": ("beta.greedy_expansion", "beta.lazy_expansion"),
    "beta.bridge": ("beta.sgap_from_expansion", "beta.expansion_from_sgap"),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, request, name, start, end)
        self.request = 0
        self.counters = Counter()
        self._stack = []
        self._ids = itertools.count()
        self._membership = [0]
        self._follower_keys = set()
        self._restore = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("shiftlab")
        modules = [importlib.import_module(f"shiftlab.{name}") for name in LAYERS]
        wrapped = {}
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("shiftlab."):
                    continue
                if value not in wrapped:
                    wrapped[value] = self._span(value, _span_name(value))
                self._rebind(module, attr, wrapped[value])
        for module_name, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"shiftlab.{module_name}"), cls_name, None)
            if cls is not None and method in vars(cls):
                self._rebind(cls, method, self._span(vars(cls)[method], f"{module_name}.{method}"))
        sgap = modules[0]
        for cls in vars(sgap).values():
            if isinstance(cls, type) and cls.__module__ == sgap.__name__:
                for method in MEMBERSHIP:
                    if method in vars(cls):
                        self._rebind(cls, method, self._count(vars(cls)[method]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, fn):
        cell = self._membership

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name):
        spans, stack, ids = self.spans, self._stack, self._ids
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.request, name, start, end))
                if hook is not None:
                    hook(args, kwargs, result, ok)

        return traced

    # -- counters at the layer boundaries ------------------------------

    def _after_entropy_solve_sgap_entropy(self, args, kwargs, result, ok):
        if not ok:
            self.counters["entropy.failures"] += 1
            return
        self.counters["entropy.bisection_steps"] += getattr(result, "iterations", 0)
        depth = getattr(result, "truncation_depth", None)
        if depth is None:
            size = getattr(_arg(args, kwargs, 0, "spec"), "size", lambda: None)()
            depth = size or 0
        self.counters["entropy.series_terms"] += depth

    def _after_blocks_follower_profile(self, args, kwargs, result, ok):
        spec = _arg(args, kwargs, 0, "spec")
        omega = _arg(args, kwargs, 1, "omega")
        r_max = _arg(args, kwargs, 2, "r_max")
        trailing = len(omega) - len(omega.rstrip("0"))
        key = (repr(spec), "1" in omega, trailing, r_max)
        if key not in self._follower_keys:
            self._follower_keys.add(key)
            self.counters["blocks.follower_profile.distinct"] += 1
        if ok:
            self._count_bits(result)

    def _after_blocks_count_blocks_automaton(self, args, kwargs, result, ok):
        self.counters["blocks.count_blocks_automaton.steps"] += _arg(args, kwargs, 1, "n")

    def _after_blocks_sgap_count_table(self, args, kwargs, result, ok):
        if ok:
            self._count_bits(result.counts.values())

    _after_blocks_automaton_count_table = _after_blocks_sgap_count_table

    def _after_props_gibbs_diagnostics(self, args, kwargs, result, ok):
        if ok:
            self.counters["props.gibbs_cells"] += len(result.finite_level_cells)

    def _after_beta_enumerate_expansions_of_one(self, args, kwargs, result, ok):
        if ok:
            self.counters["beta.leaves"] += len(result)

    def _count_bits(self, counts) -> None:
        top = max((c.bit_length() for c in counts), default=0)
        if top > self.counters["blocks.count_bits_max"]:
            self.counters["blocks.count_bits_max"] = top

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._membership[0] = 0
        self._follower_keys.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Self time and call count per span name.  Children end before
        their parents, so one pass over the spans in end order suffices."""
        covered = defaultdict(float)
        self_s, calls = defaultdict(float), Counter()
        for sid, parent, _, name, start, end in self.spans:
            duration = end - start
            if parent >= 0:
                covered[parent] += duration
            self_s[name] += duration - covered.pop(sid, 0.0)
            calls[name] += 1
        return self_s, calls

    def metrics(self, names) -> dict:
        """Values of the named per-layer metrics for the spans recorded."""
        self_s, calls = self.self_times()
        counters = Counter(self.counters)
        counters["sgap.membership.calls"] = self._membership[0]
        fp_calls = calls["blocks.follower_profile"]
        counters["blocks.follower_profile.distinct_frac"] = (
            counters["blocks.follower_profile.distinct"] / fp_calls if fp_calls else 0.0
        )
        out = {}
        for name in names:
            base, _, kind = name.rpartition(".")
            members = GROUPS.get(base, (base,))
            if kind == "self_s":
                out[name] = sum(self_s[m] for m in members)
            elif kind == "calls" and name not in counters:
                out[name] = sum(calls[m] for m in members)
            else:
                out[name] = counters[name]
        return out


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
