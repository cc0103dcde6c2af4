"""Per-layer spans recorded from outside sigmech by wrapping its functions.

Each target is patched where its caller looks it up: ``centralized.solve``
and ``decentralized.solve`` are the same ``lp.solve`` function reached
from two call sites, so they get separate span names, and
``require_valid`` is patched in every module that imported it.  Spans
live in memory while the benchmark runs; a layer's self time is its
span's duration minus the durations of its child spans.  Size counters
are computed from arguments and results inside a ``trace.count`` child
span, so that work is charged to the tracer, not to the caller's self
time.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

COUNT_SPAN = "trace.count"


class BudgetExceeded(Exception):
    """Raised by the benchmark's interval timer when an instance runs over budget."""


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    outcome: str = "ok"  # ok, error or budget


@dataclass
class Target:
    """One function to wrap: ``module.attr`` recorded under ``name``.

    ``counter(args, kwargs, result)`` returns size counts to add to the
    span name's totals; ``maxima(...)`` returns values kept as maxima.
    Either may be None.
    """

    module: ModuleType
    attr: str
    name: str
    counter: Callable | None = None
    maxima: Callable | None = None


@dataclass
class Tracer:
    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    maxima: dict[str, float] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)
    _originals: list[tuple[ModuleType, str, Callable]] = field(default_factory=list)

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, outcome: str = "ok") -> None:
        span.end = time.perf_counter()
        span.outcome = outcome
        # An interval-timer exception can leave inner spans open; close them too.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            if math.isnan(top.end):
                top.end = span.end
                top.outcome = outcome

    def _add(self, name: str, counts: dict | None, maxima: dict | None) -> None:
        for key, value in (counts or {}).items():
            self.counts[f"{name}.{key}"] += value
        for key, value in (maxima or {}).items():
            full = f"{name}.{key}"
            self.maxima[full] = max(self.maxima.get(full, value), value)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, target: Target) -> Callable:
        original = getattr(target.module, target.attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.open(target.name)
            outcome = "ok"
            try:
                result = original(*args, **kwargs)
            except BudgetExceeded:
                outcome = "budget"
                raise
            except Exception:
                outcome = "error"
                raise
            finally:
                tracer.close(span, outcome)
                tracer.counts[f"{target.name}.calls"] += 1
                if outcome != "ok":
                    key = "errors" if outcome == "error" else "budget_hits"
                    tracer.counts[f"{target.name}.{key}"] += 1
            if target.counter or target.maxima:
                count_span = tracer.open(COUNT_SPAN)
                try:
                    tracer._add(
                        target.name,
                        target.counter(args, kwargs, result) if target.counter else None,
                        target.maxima(args, kwargs, result) if target.maxima else None,
                    )
                finally:
                    tracer.close(count_span)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", target.attr)
        return wrapper

    def install(self, targets: list[Target]) -> None:
        """Patch every target whose attribute exists; absent ones are skipped."""
        for target in targets:
            if not hasattr(target.module, target.attr):
                continue
            original = getattr(target.module, target.attr)
            self._originals.append((target.module, target.attr, original))
            setattr(target.module, target.attr, self._wrap(target))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------
    def self_times(self, since: int = 0) -> dict[str, float]:
        """Self seconds per span name over spans[since:]."""
        spans = self.spans[since:]
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span.name] += span.end - span.start - child_time[span.span_id]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.span_id, s.parent, s.name, s.start, s.end, s.outcome]))
                out.write("\n")
