"""In-memory span tracer and the summary statistics the benchmark reports.

Stdlib only, so the orchestrator can use the statistics without numpy.

A span is one call through a wrapped function: its name, start, end, the
index of the span that was open when it started (its parent), and the id of
the benchmark call (experiment call or CLI request) it belongs to.  Spans
are kept in a list and written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable

TAIL_BEYOND = 10  # a tail percentile must leave at least this many samples above it


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    call_id: int


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND):
    """(value, percentile, sample count) of the highest percentile with ``beyond`` samples above it.

    Nearest rank: the value at 1-based rank ``n - beyond`` of the sorted
    samples, the ``100 * (n - beyond) / n`` percentile.  Returns None when
    there are no more than ``beyond`` samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of its interval its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    """Records spans of wrapped functions while ``call_id`` is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.call_id: int | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name, hook=None):
        """``fn`` recording a span per call; ``name`` is a string or a function of the arguments.

        ``hook(span_index, args, kwargs, result)`` runs after the span closes,
        so its cost lands in the parent's self time, not in the wrapped call's.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call_id = tracer.call_id
            if call_id is None:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans[index] = Span(label, start, end, parent, call_id)
            if hook is not None:
                hook(index, args, kwargs, result)
            return result

        return wrapper

    def finished(self) -> list[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("tracer read while a span is still open")
        return list(self.spans)

    def write(self, path) -> None:
        """One JSON object per span, in start order, with its self time."""
        spans = self.finished()
        with open(path, "w") as fh:
            for span, own in zip(spans, self_times(spans)):
                fh.write(json.dumps({**asdict(span), "self": own}) + "\n")


def install(tracer: Tracer, targets, package: str) -> Callable[[], None]:
    """Wrap each target at every name a module of ``package`` binds it to; return the undo.

    A target is ``(module, attribute, span name, hook)``.  The function
    object found at ``module.attribute`` is replaced in every loaded module
    of the package whose namespace holds that same object, because callers
    look it up there (``from .sketching import sketch`` binds a second
    name).  The returned function puts every original object back.
    """
    owners = [importlib.import_module(module_name) for module_name, _, _, _ in targets]
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    patched = []
    try:
        for owner, (_, attr, name, hook) in zip(owners, targets):
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, name, hook)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
    except BaseException:
        _restore(patched)
        raise
    return functools.partial(_restore, patched)


def _restore(patched) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
    patched.clear()
