"""Span tracing for the traced benchmark run.

:class:`Tracer` wraps public hypermod functions from outside the
package, in every hypermod module namespace that binds them, and records
one span per call: name, start, end, parent span and operation id.  It
also keeps work counters derived from each call's arguments and result.
:meth:`Tracer.installed` restores every original binding on exit, so
the untraced run always calls the original functions.

The hot per-element helpers (``closure``, ``rank_of``) are deliberately
not wrapped: a span per call would swamp what it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _count_parsed(tracer, args, kwargs, result):
    tracer.add("matio.bytes_parsed", len(args[0] if args else kwargs["text"]))


def _count_serialized(tracer, args, kwargs, result):
    tracer.add("matio.bytes_serialized", len(result))


def _num_flats(M) -> int:
    return sum(len(grade) for grade in M.flats_by_rank)


def _count_flats_built(tracer, args, kwargs, result):
    tracer.add("realize.flats_built", _num_flats(result))


def _count_flats_checked(tracer, args, kwargs, result):
    tracer.add("core.verify_flat_axioms.flats", _num_flats(args[0]))


def _count_rank_pairs(tracer, args, kwargs, result):
    call = inspect.signature(sys.modules["hypermod.core"].verify_rank_axioms).bind(*args, **kwargs)
    call.apply_defaults()
    M = call.arguments["M"]
    flats = _num_flats(M)
    tracer.add("core.verify_rank_axioms.flat_pairs_computed", flats * (flats - 1) // 2)
    if call.arguments["mode"] == "exhaustive":
        subset_pairs = 4**M.ground_size
    else:
        subset_pairs = call.arguments["trials"]
    tracer.add("core.verify_rank_axioms.subset_pairs_computed", subset_pairs)


def _pair_scan(scanned):
    """Counter for a cached all-pairs scan over the flats ``scanned(M)`` picks.

    Only the first call per function and matroid object scans; later
    calls read the matroid's cache.  The pair count is an upper bound:
    ``is_modular`` and the witness search stop at the first bad pair.
    """

    def count(tracer, args, kwargs, result):
        M = args[0] if args else kwargs["M"]
        key = (count, id(M))
        if key in tracer.scanned:
            return
        tracer.scanned[key] = M  # holds M so its id is not reused this operation
        flats = scanned(M)
        tracer.add("modularity.pair_scans", 1)
        tracer.add("modularity.flat_pairs_computed", flats * (flats - 1) // 2)

    return count


def _count_steps(tracer, args, kwargs, result):
    tracer.add("extension.steps", len(result.steps))


def _count_fails(tracer, args, kwargs, result):
    tracer.add("extension.criterion_holds.fails", 0 if result.holds else 1)


# (module, attribute, span name, counter or None)
TARGETS = [
    *(
        ("hypermod.cli", f"cmd_{verb}", f"cli.{verb}", None)
        for verb in ("generate", "analyze", "extend", "complete", "verify", "iso", "arrangement")
    ),
    ("hypermod.matio", "parse_matroid", "matio.parse_matroid", _count_parsed),
    ("hypermod.matio", "serialize_matroid", "matio.serialize_matroid", _count_serialized),
    ("hypermod.realize", "matroid_from_points", "realize.matroid_from_points", _count_flats_built),
    ("hypermod.core", "verify_flat_axioms", "core.verify_flat_axioms", _count_flats_checked),
    ("hypermod.core", "verify_rank_axioms", "core.verify_rank_axioms", _count_rank_pairs),
    ("hypermod.core", "restrict", "core.restrict", None),
    ("hypermod.core", "components", "core.components", None),
    ("hypermod.modularity", "total_modular_defect", "modularity.total_modular_defect",
     _pair_scan(_num_flats)),
    ("hypermod.modularity", "is_modular", "modularity.is_modular", _pair_scan(_num_flats)),
    ("hypermod.modularity", "hypermodularity_witness", "modularity.hypermodularity_witness",
     _pair_scan(lambda M: len(M.flats_by_rank[M.rank - 1]))),
    ("hypermod.modularity", "disjoint_rank32_pairs", "modularity.disjoint_rank32_pairs", None),
    ("hypermod.extension", "complete_to_modular", "extension.complete_to_modular", _count_steps),
    ("hypermod.extension", "build_context", "extension.build_context", None),
    ("hypermod.extension", "criterion_holds", "extension.criterion_holds", _count_fails),
    ("hypermod.extension", "extend_once", "extension.extend_once", None),
]

# The constructor is wrapped on the class itself, which every module shares.
CONSTRUCTOR = ("hypermod.core", "Matroid", "core.Matroid")


# name -> unit, in the order they are reported
PER_LAYER = {
    "cli.complete.s": "s",
    "cli.analyze.s": "s",
    "cli.generate.s": "s",
    "cli.verify.s": "s",
    "cli.self_s": "s",
    "matio.parse_matroid.s": "s",
    "matio.parse_matroid.self_s": "s",
    "matio.parse_matroid.calls": "count",
    "matio.bytes_parsed": "bytes",
    "matio.serialize_matroid.s": "s",
    "matio.bytes_serialized": "bytes",
    "realize.matroid_from_points.s": "s",
    "realize.matroid_from_points.self_s": "s",
    "realize.flats_built": "count",
    "core.Matroid.s": "s",
    "core.Matroid.calls": "count",
    "core.verify_flat_axioms.s": "s",
    "core.verify_flat_axioms.calls": "count",
    "core.verify_flat_axioms.flats": "count",
    "core.verify_rank_axioms.s": "s",
    "core.verify_rank_axioms.calls": "count",
    "core.verify_rank_axioms.flat_pairs_computed": "count",
    "core.verify_rank_axioms.subset_pairs_computed": "count",
    "core.restrict.s": "s",
    "core.restrict.calls": "count",
    "core.components.s": "s",
    "core.components.calls": "count",
    "modularity.total_modular_defect.s": "s",
    "modularity.total_modular_defect.calls": "count",
    "modularity.is_modular.s": "s",
    "modularity.is_modular.calls": "count",
    "modularity.hypermodularity_witness.s": "s",
    "modularity.hypermodularity_witness.calls": "count",
    "modularity.disjoint_rank32_pairs.s": "s",
    "modularity.pair_scans": "count",
    "modularity.flat_pairs_computed": "count",
    "extension.complete_to_modular.s": "s",
    "extension.complete_to_modular.self_s": "s",
    "extension.build_context.s": "s",
    "extension.build_context.self_s": "s",
    "extension.build_context.calls": "count",
    "extension.criterion_holds.s": "s",
    "extension.criterion_holds.calls": "count",
    "extension.criterion_holds.fails": "count",
    "extension.extend_once.s": "s",
    "extension.extend_once.self_s": "s",
    "extension.extend_once.calls": "count",
    "extension.steps": "count",
    "extension.flag_accept_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        # [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.counters: defaultdict[int, Counter] = defaultdict(Counter)
        self.scanned: dict = {}
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        """Attribute the following spans and counts to operation ``op``."""
        self.op = op
        self.scanned.clear()

    def add(self, counter: str, n: int) -> None:
        self.counters[self.op][counter] += n

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every target in every hypermod namespace; restore all on exit."""
        try:
            modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hypermod"]
            for module_name, attr, name, counter in TARGETS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(name, original, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            module_name, attr, name = CONSTRUCTOR
            cls = getattr(importlib.import_module(module_name), attr)
            self._patch(cls, "__init__", self._wrap(name, cls.__init__, None))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)
            self.scanned.clear()

    def op_metrics(self) -> list[dict[str, float]]:
        """Layer metrics of each operation (all of PER_LAYER but trace.overhead_frac)."""
        total: defaultdict[int, Counter] = defaultdict(Counter)
        own: defaultdict[int, Counter] = defaultdict(Counter)
        calls: defaultdict[int, Counter] = defaultdict(Counter)
        for name, start, end, parent, op in self.spans:
            total[op][name] += end - start
            own[op][name] += end - start
            calls[op][name] += 1
            if parent >= 0:
                own[op][self.spans[parent][0]] -= end - start
        out = []
        for op in sorted(calls):
            values = dict(self.counters[op])
            for metric in PER_LAYER:
                layer, _, kind = metric.rpartition(".")
                if kind == "s":
                    values[metric] = total[op][layer]
                elif kind == "self_s":
                    values[metric] = own[op][layer]
                elif kind == "calls":
                    values[metric] = calls[op][layer]
            values["cli.self_s"] = sum(v for k, v in own[op].items() if k.startswith("cli."))
            contexts = calls[op]["extension.build_context"]
            steps = values.get("extension.steps", 0)
            values["extension.flag_accept_ratio"] = steps / contexts if contexts else 0.0
            values["trace.spans"] = sum(calls[op].values())
            out.append(values)
        return out


def layer_metrics(tracer: Tracer, traced_s: list[float], untraced_s: list[float]) -> dict:
    """Median over the traced operations of every PER_LAYER metric."""
    per_op = tracer.op_metrics()
    values = {
        metric: statistics.median(op.get(metric, 0) for op in per_op)
        for metric in PER_LAYER
        if metric != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER.items()}
