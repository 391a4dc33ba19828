"""Per-layer tracing of the package from outside it.

The tracer wraps named functions of the package under test: a span
wrapper records (name, start, end, parent, request) for every call, and a
count wrapper only counts calls.  Wrappers are installed where the callers
look the function up: every module of the package whose namespace binds
the original object gets the wrapper in its place, so that both
`from .quartic import invariants` and `quartic.invariants` are covered.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int = 0
    parent: Span | None = None
    request: int = 0


def self_times(spans: list[Span]) -> list[int]:
    """Each span's own time: its duration minus what its children cover.

    Children may overlap (worker threads), so the covered part of the
    parent's interval is the union of the children's intervals.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(index[id(s.parent)], []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


@dataclass
class LayerStats:
    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)


def layer_stats(spans: list[Span], counts: Counter) -> LayerStats:
    stats = LayerStats(Counter(counts), Counter())
    for s, own in zip(spans, self_times(spans)):
        stats.calls[s.name] += 1
        stats.self_ns[s.name] += own
    return stats


class Tracer:
    """Installs span and count wrappers on a package and collects the data.

    ``spans`` and ``counts`` name targets as "module.function" or
    "module.Class.method", relative to the package.
    """

    def __init__(self, package: str, spans: list[str], counts: list[str]):
        self.package = package
        self.span_targets = spans
        self.count_targets = counts
        self.spans: list[Span] = []
        self.request = 0
        self._stacks: dict[int, list[Span]] = {}
        self._counters: list[Counter] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)  # list.append is atomic
        return counter

    def _span_wrapper(self, name: str, fn):
        stacks, spans, main = self._stacks, self.spans, self._main
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks.get(ident)
            if stack is None:
                stack = stacks[ident] = []
            if stack:
                parent = stack[-1]
            else:  # a pool worker: its work belongs to the main thread's open span
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack and ident != main else None
            span = Span(name, clock(), 0, parent, self.request)
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        counter = self._counter

        def counted(*args, **kwargs):
            counter()[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def counts(self) -> Counter:
        total = Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    # -- installing --------------------------------------------------------

    def _modules(self) -> list:
        prefix = self.package + "."
        return [module for name, module in sorted(sys.modules.items())
                if name == self.package or name.startswith(prefix)]

    def _resolve(self, target: str):
        module_name, _, rest = target.partition(".")
        owner = importlib.import_module(f"{self.package}.{module_name}")
        *path, attr = rest.split(".")
        for part in path:
            owner = getattr(owner, part)
        if not hasattr(owner, attr):
            raise LookupError(f"traced layer {target} does not exist")
        return owner, attr, getattr(owner, attr)

    def install(self) -> None:
        modules = self._modules()
        for targets, make in ((self.span_targets, self._span_wrapper),
                              (self.count_targets, self._count_wrapper)):
            for target in targets:
                owner, attr, original = self._resolve(target)
                wrapper = make(target, original)
                if isinstance(owner, type):  # a method: patch the class
                    self._set(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines with integer ids and parent ids."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                parent = None if s.parent is None else index[id(s.parent)]
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": parent, "request": s.request,
                }) + "\n")
