"""Layer tracing from outside the program: wrap public methods, record spans.

:func:`install` replaces each layer's public methods, on the base class and
on every subclass that overrides them, with a wrapper that records a span
(id, parent id, name, thread, start, end).  Every thread keeps its own span
stack, so a span's parent is the span that was open in the same thread when
it began; the spans of executor worker threads are roots of their thread.
Spans are kept in memory and summarised when the run ends.

Methods that return iterators (an executor's ``stream``, the store's
``iter_records``) get one span per ``next()`` call: the time the consumer
blocks on the producer, never the consumer's own work between items.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


#: Counts that depend only on the spec and the code, never on timing.
DETERMINISTIC_COUNTS = (
    "plugins.scenarios",
    "views.transform_n",
    "views.untransform_n",
    "views.scenario_changes_n",
    "parsers.parse_n",
    "parsers.serialize_n",
    "sut.start_n",
    "sut.start_delta_n",
    "sut.delta_hits",
    "engine.scenarios",
    "engine.harness_errors",
    "store.append_n",
)


class Tracer:
    """In-memory span and counter recorder shared by every thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self.counters: dict[str, int] = {}
        #: ``[jobs, first next() start, last next() end]`` per executor stream.
        self.streams: list[list[float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str, owner: Any = None) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name, owner))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, threading.get_ident(), start, end))

    def reentrant(self, name: str, owner: Any) -> bool:
        """Whether ``owner`` is already inside span ``name`` (a ``super()`` call)."""
        stack = self._stack()
        return bool(stack) and stack[-1][1] == name and stack[-1][2] is owner

    # ------------------------------------------------------------- wrappers
    def wrap_call(
        self, func: Callable, name: str, on_result: Callable[[Any], None] | None
    ) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(owner, *args, **kwargs):
            if tracer.reentrant(name, owner):
                return func(owner, *args, **kwargs)
            with tracer.span(name, owner):
                result = func(owner, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_iter(self, func: Callable, name: str, track_stream: bool) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(owner, *args, **kwargs):
            iterator = iter(func(owner, *args, **kwargs))
            stream = None
            if track_stream:
                stream = [float(owner.jobs), 0.0, 0.0]
                tracer.streams.append(stream)
            return tracer._timed(iterator, name, owner, stream)

        return traced

    def _timed(self, iterator: Iterator, name: str, owner: Any, stream: list | None):
        try:
            while True:
                if stream is not None and not stream[1]:
                    stream[1] = time.perf_counter()
                with self.span(name, owner):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        if stream is not None:
                            stream[2] = time.perf_counter()
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -------------------------------------------------------------- summary
    def summary(self, main_thread: int) -> dict[str, float]:
        """Self time (``<name>_s``) and call count (``<name>_n``) per span name,
        plus ``worker_busy_s``: root spans of threads other than ``main_thread``."""
        child_time: dict[int, float] = {}
        for _span_id, parent, _name, _thread, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {"worker_busy_s": 0.0}
        for span_id, parent, name, thread, start, end in self.spans:
            totals[name + "_s"] = totals.get(name + "_s", 0.0) + (
                end - start - child_time.get(span_id, 0.0)
            )
            totals[name + "_n"] = totals.get(name + "_n", 0) + 1
            if parent is None and thread != main_thread:
                totals["worker_busy_s"] += end - start
        return totals


def _subclasses(base: type) -> list[type]:
    found, pending = [base], [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def install(tracer: Tracer) -> None:
    """Wrap every traced layer method on every loaded subclass."""
    from repro.core.engine import InjectionEngine
    from repro.core.executor import CampaignExecutor
    from repro.core.profile import InjectionOutcome
    from repro.core.store import ResultStore
    from repro.core.views.base import View
    from repro.parsers.base import ConfigDialect
    from repro.plugins.base import ErrorGeneratorPlugin
    from repro.sut.base import FunctionalTest, SystemUnderTest

    def scenarios(result: Any) -> None:
        tracer.count("plugins.scenarios", len(result))

    def delta_hit(result: Any) -> None:
        if result is not None:
            tracer.count("sut.delta_hits")

    def harness_error(record: Any) -> None:
        if record.outcome is InjectionOutcome.HARNESS_ERROR:
            tracer.count("engine.harness_errors")

    calls: list[tuple[type, str, str, Callable[[Any], None] | None]] = [
        (ErrorGeneratorPlugin, "generate", "plugins.generate", scenarios),
        (View, "transform", "views.transform", None),
        (View, "untransform", "views.untransform", None),
        (View, "untransform_touched", "views.untransform", None),
        (View, "scenario_changes", "views.scenario_changes", None),
        (ConfigDialect, "parse", "parsers.parse", None),
        (ConfigDialect, "serialize", "parsers.serialize", None),
        (SystemUnderTest, "start", "sut.start", None),
        (SystemUnderTest, "start_delta", "sut.start_delta", delta_hit),
        (SystemUnderTest, "prepare", "sut.prepare", None),
        (SystemUnderTest, "stop", "sut.stop", None),
        (FunctionalTest, "run", "sut.functional_test", None),
        (ResultStore, "append", "store.append", None),
        (ResultStore, "load_profiles", "store.load_profiles", None),
        (InjectionEngine, "run_scenario", "engine.run_scenario", harness_error),
    ]
    # the executor's streams also record their worker capacity (jobs x wall)
    iters = [
        (ResultStore, "iter_records", "store.iter_records", False),
        (CampaignExecutor, "stream", "executor.stream", True),
    ]
    for base, method, name, on_result in calls:
        for cls in _subclasses(base):
            func = cls.__dict__.get(method)
            if inspect.isfunction(func):
                setattr(cls, method, tracer.wrap_call(func, name, on_result))
    for base, method, name, track_stream in iters:
        for cls in _subclasses(base):
            func = cls.__dict__.get(method)
            if inspect.isfunction(func):
                setattr(cls, method, tracer.wrap_iter(func, name, track_stream))
