"""Per-layer tracing of the opstats package, installed from outside it.

The tracer replaces functions where their callers bind them, so the program
itself is not edited:

* every public module-level function of ``opart``, ``stats``, ``walks``,
  ``xfer``, ``ring`` and ``qnum`` (the lru-cached ones included), in every
  opstats module namespace that holds it, because modules import each other's
  functions by name;
* ``cli.main`` and ``checks.run_check`` alone in those two layers: the check
  functions are reached through the ``CHECKS`` table, so one span per check
  keeps the checks layer's own bookkeeping in ``run_check``'s self time;
* the class attributes ``Summary.__init__``, ``LaurentPoly.__mul__`` (also
  bound as ``__rmul__``) and ``LaurentPoly.divexact``.

Generator functions are timed per ``next()`` call.  Spans are aggregated by
name as they close (calls, self time, inclusive time), so memory stays flat
however many millions of spans a pass opens.  A span's self time is its
duration minus the durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from time import perf_counter

from workloads import CHECKED, stirling2

LAYERS = ("cli", "checks", "opart", "stats", "walks", "xfer", "ring", "qnum")

#: Layers in which only the named entry point is wrapped.
ENTRY_ONLY = {"cli": ("main",), "checks": ("run_check",)}

#: Enumeration generators, reported together as ``opart.enum``.
ENUM_GENERATORS = {"iter_blocks_all": "all", "iter_blocks": "op", "iter_blocks_p": "p"}


class Tracer:
    """Span aggregates and counters of one traced process."""

    def __init__(self):
        self.stack: list[list[float]] = []  # open spans: [start, child time]
        self.records: dict[str, list] = {}  # name -> [calls, self_s, incl_s, active]
        self.counters: dict[str, int] = {"checks.instances": 0, "ring.mul.term_pairs": 0,
                                          "opart.enum.yielded": 0}
        self.streams: set[tuple[str, int, int | None]] = set()
        self.caches: list = []

    def record(self, name: str) -> list:
        return self.records.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name: str, fn, on_result=None):
        """A function that runs ``fn`` inside a span called ``name``."""
        stack, rec = self.stack, self.record(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            rec[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                rec[0] += 1
                rec[1] += dur - frame[1]
                rec[3] -= 1
                if not rec[3]:
                    rec[2] += dur
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn, on_outer_yield=None):
        """A generator function that times each ``next()`` of ``fn`` as a span;
        ``on_outer_yield(args)`` runs for items yielded to a caller outside
        every span of the same name."""
        stack, rec = self.stack, self.record(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                outer = not rec[3]
                frame = [perf_counter(), 0.0]
                stack.append(frame)
                rec[3] += 1
                done = False
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                finally:
                    dur = perf_counter() - frame[0]
                    stack.pop()
                    rec[0] += 1
                    rec[1] += dur - frame[1]
                    rec[3] -= 1
                    if not rec[3]:
                        rec[2] += dur
                    if stack:
                        stack[-1][1] += dur
                if done:
                    return
                if outer and on_outer_yield is not None:
                    on_outer_yield(args)
                yield item

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"opstats.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            for name in ENTRY_ONLY.get(layer) or _public_functions(mod):
                fn = getattr(mod, name)
                if layer == "checks":
                    replace[id(fn)] = self._wrap_run_check(fn)
                elif name in ENUM_GENERATORS:
                    replace[id(fn)] = self.wrap_generator(
                        "opart.enum", fn, self._enum_yield(ENUM_GENERATORS[name]))
                elif inspect.isgeneratorfunction(fn):
                    replace[id(fn)] = self.wrap_generator(f"{layer}.{name}", fn)
                else:
                    if hasattr(fn, "cache_info"):
                        self.caches.append(fn)
                    replace[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        namespaces = [importlib.import_module("opstats"), *mods.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replace:
                    setattr(ns, attr, replace[id(obj)])

        summary = mods["stats"].Summary
        summary.__init__ = self.wrap("stats.Summary", summary.__init__)
        poly = mods["ring"].LaurentPoly
        counters = self.counters

        def count_pairs(args, _result):
            a, b = args
            nb = len(b.terms) if isinstance(b, poly) else int(isinstance(b, int) and b != 0)
            counters["ring.mul.term_pairs"] += len(a.terms) * nb

        mul = self.wrap("ring.mul", poly.__mul__, count_pairs)
        poly.__mul__ = poly.__rmul__ = mul
        poly.divexact = self.wrap("ring.divexact", poly.divexact)

    def _wrap_run_check(self, run_check):
        counters = self.counters
        wrapped: dict[str, object] = {}

        def count(_args, result):
            counters["checks.instances"] += len(result)

        @functools.wraps(run_check)
        def wrapper(name, *args, **kwargs):
            fn = wrapped.get(name)
            if fn is None:
                fn = wrapped[name] = self.wrap(f"checks.{name}", run_check, count)
            return fn(name, *args, **kwargs)

        return wrapper

    def _enum_yield(self, kind: str):
        counters, streams = self.counters, self.streams

        def on_yield(args):
            counters["opart.enum.yielded"] += 1
            streams.add((kind, args[0], args[1] if len(args) > 1 else None))

        return on_yield

    # -- results -------------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass whose ops took ``wall_s``."""
        rec = self.records
        zero = [0, 0.0, 0.0, 0]

        def get(name):
            return rec.get(name, zero)

        out: dict[str, float] = {}
        total_self = 0.0
        for layer in LAYERS:
            layer_self = sum(r[1] for n, r in rec.items() if n.split(".", 1)[0] == layer)
            total_self += layer_self
            entry = ENTRY_ONLY.get(layer)
            out[f"{layer}.{entry[0]}.self_s" if entry else f"{layer}.self_s"] = layer_self
        out["bench.self_s"] = wall_s - total_self
        out["trace.wall_s"] = wall_s
        out["cli.main.calls"] = get("cli.main")[0]
        for name in ("stats.Summary", "stats.coord", "walks.psi",
                     "walks.psi_inverse", "walks.step_properties", "xfer.det",
                     "ring.mul", "ring.divexact"):
            out[f"{name}.self_s"] = get(name)[1]
            out[f"{name}.calls"] = get(name)[0]
        out["ring.series_from_rational.self_s"] = get("ring.series_from_rational")[1]
        out["opart.enum.self_s"] = get("opart.enum")[1]
        out["stats.distribution.s"] = get("stats.distribution")[2]
        out["xfer.q_gf_transfer.s"] = get("xfer.q_gf_transfer")[2]
        out["xfer.q_gf_transfer.calls"] = get("xfer.q_gf_transfer")[0]
        for check in CHECKED:
            out[f"checks.{check}.s"] = get(f"checks.{check}")[2]
        out.update(self.counters)
        distinct = distinct_partitions(self.streams)
        out["opart.enum.per_distinct"] = (
            self.counters["opart.enum.yielded"] / distinct if distinct else 0.0)
        hits = sum(f.cache_info().hits for f in self.caches)
        misses = sum(f.cache_info().misses for f in self.caches)
        out["qnum.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out


def _public_functions(mod) -> list[str]:
    return [
        name for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
        and getattr(obj, "__module__", None) == mod.__name__
    ]


def distinct_partitions(streams) -> int:
    """Size of the union of the enumerated sets: OP_n for an ``all`` stream,
    OP_n^k for ``op`` and the inversion-free P_n^k for ``p``."""
    cells: dict[tuple[int, int], bool] = {}  # (n, k) -> every ordering covered
    for kind, n, k in streams:
        for kk in (range(n + 1) if kind == "all" else (k,)):
            cells[(n, kk)] = cells.get((n, kk), False) or kind != "p"
    return sum(
        stirling2(n, k) * (math.factorial(k) if ordered else 1)
        for (n, k), ordered in cells.items()
    )
