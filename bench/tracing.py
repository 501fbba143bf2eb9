"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed from outside the program: each traced public
function is replaced in every ``submult`` module namespace that bound it
(``from .groups import close`` binds ``close`` in several modules), and
traced methods are replaced on their classes.  A span wrapper records
(name, start, end, parent, request id); a layer's self time is its span's
duration minus the time covered by its child spans.  The hottest kernels
get count-only wrappers, and ``FiniteGroup.mul`` is left alone: one p2
scan calls it tens of millions of times.

A traced name the program no longer has is reported absent, not an error.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

DECIDERS = ("has_property_s", "has_property_s_hat_basic",
            "has_property_s_hat_single", "order_submultiplicativity",
            "has_wp2", "has_p1", "has_p2", "is_regular",
            "is_v_regular_bounded", "is_p_abelian", "is_engel",
            "chi_containment", "is_irreducible")
REPORT_COUNTERS = ("pairs_checked", "sections_checked", "reps_checked")

# (layer name, defining module, attribute path)
SPANS = (
    ("cyclotomic.spectrum_product", "submult.cyclotomic", "Spectrum.product"),
    ("groups.close", "submult.groups", "close"),
    ("groups.full_table", "submult.groups", "FiniteGroup.full_table"),
    ("groups.sections", "submult.groups", "FiniteGroup.sections"),
    ("groups.all_subgroups", "submult.groups", "FiniteGroup.all_subgroups"),
    ("groups.normal_subgroups", "submult.groups", "FiniteGroup.normal_subgroups"),
    ("groups.quotient", "submult.groups", "FiniteGroup.quotient"),
    ("groups.subgroup", "submult.groups", "FiniteGroup.subgroup"),
    ("groups.lower_central_series", "submult.groups",
     "FiniteGroup.lower_central_series"),
    ("groups.direct_power", "submult.groups", "direct_power"),
    ("families.load_group_file", "submult.families", "load_group_file"),
    ("families.build_group", "submult.families", "build_group"),
    ("families.induced_rep_generators", "submult.families", "induced_rep_generators"),
    ("families.basic_group", "submult.families", "basic_group"),
    *((f"properties.{name}", "submult.properties", name) for name in DECIDERS),
    ("suites.oracle", "submult.suites", "regular_first_failure_by_definition"),
    ("suites.run_suite", "submult.suites", "run_suite"),
    ("cli.main", "submult.cli", "main"),
)
COUNTS = (
    ("cyclotomic.unit_mul", "submult.cyclotomic", "CyclotomicUnit.__mul__"),
    ("monomial.mul", "submult.monomial", "MonomialMatrix.__mul__"),
    ("monomial.spectrum", "submult.monomial", "MonomialMatrix.spectrum"),
    ("families.affine_mul", "submult.families", "AffinePair.__mul__"),
    ("groups.group_builds", "submult.groups", "FiniteGroup.__init__"),
)
GENERATORS = {"groups.sections"}
SPAN_RECORD_CAP = 200_000


def _resolve(module: str, path: str) -> tuple[Any, str, Any] | None:
    """(owner, attribute, current value), or None when the name is gone."""
    owner: Any = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _rebind(owner: Any, attr: str, original: Any, wrapper: Any) -> None:
    """Replace ``original`` on its owner and in every submult namespace
    that imported it under the same name."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name == "submult" or name.startswith("submult."):
            if vars(module).get(attr) is original:
                setattr(module, attr, wrapper)


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self) -> None:
        self.request_id = 0
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._cells: dict[str, list[int]] = {}
        self._closed_keys: set = set()
        self._decider_depth = 0

    # -- spans ------------------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < SPAN_RECORD_CAP:
            self.spans.append((span_id, name, start, end, parent, self.request_id))
        else:
            self.spans_dropped += 1

    def _span(self, name: str, fn: Callable) -> Callable:
        enter, leave, calls = self._enter, self._exit, self.calls
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = enter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, args, kwargs)
            finally:
                leave(name, frame)
            return result
        return wrapper

    def _generator_span(self, name: str, fn: Callable) -> Callable:
        """Time each resumption of a generator; the consumer's work between
        items belongs to the consumer."""
        enter, leave, calls, counts = self._enter, self._exit, self.calls, self.counts

        def wrapper(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                frame = enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(name, frame)
                counts[f"{name}.yielded"] += 1
                yield item
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        cell = self._cells.setdefault(name, [0])  # cheaper than a dict update

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observer(self, name: str) -> Callable | None:
        counts = self.counts
        if name == "groups.close":
            def observe(group, args, kwargs):
                counts["groups.close.elements"] += len(group)
                gens = args[0] if args else kwargs["generators"]
                self._closed_keys.add(tuple(g.key() for g in gens))
            return observe
        if name == "groups.full_table":
            def observe(table, args, kwargs):
                counts["groups.full_table.entries"] += len(table) ** 2
            return observe
        if name.startswith("properties."):
            # Only outermost deciders: inner calls are already summed into
            # the outer report's counters.
            def observe(report, args, kwargs):
                if self._decider_depth == 1:
                    for key in REPORT_COUNTERS:
                        counts[f"properties.{key}"] += getattr(
                            report, "counters", {}).get(key, 0)
            return observe
        return None

    def _decider(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._decider_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._decider_depth -= 1
        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        for name, module, path in SPANS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            if name in GENERATORS:
                wrapper = self._generator_span(name, original)
            else:
                wrapper = self._span(name, original)
                if name.startswith("properties."):
                    wrapper = self._decider(wrapper)
            _rebind(owner, attr, original, wrapper)
        for name, module, path in COUNTS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            _rebind(owner, attr, original, self._count(name, original))

    # -- results --------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Every recorded statistic, by metric name."""
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, _, _ in COUNTS:
            out[f"{name}.calls"] = self._cells.get(name, [0])[0]
        out["groups.group_builds"] = out["groups.group_builds.calls"]
        out.update(self.counts)
        closes = self.calls["groups.close"]
        out["groups.close.distinct_ratio"] = (len(self._closed_keys) / closes
                                              if closes else 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {"fields": ["id", "name", "start", "end", "parent", "request"],
                "spans": self.spans, "spans_dropped": self.spans_dropped,
                "absent": self.absent, "stats": self.stats()}
        path.write_text(json.dumps(data), encoding="utf-8")
