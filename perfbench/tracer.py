"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces attributes that the code under test looks up at call
time (module functions such as ``slrk.integrator.apply`` or
``numpy.fft.fft2``) with wrappers that record one span per call: name,
start, end and parent. Self time is computed on the fly as a span's
duration minus the durations of its child spans, so no span list has to
be walked afterwards. Only the first KEEP_SPANS spans are stored for the
run record; the totals cover every span.

An "inline" span is counted but leaves its time with its parent. The
benchmark uses that for ``numpy.isfinite``: a finite scan is work of the
layer that asks for it.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Totals:
    """Aggregate of every span with one name."""

    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    weight: int = 0
    durations_ns: list = field(default_factory=list)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: owner (module name or object), attribute, span name.

    Module names are resolved through importlib, never through attribute
    access on the package: ``slrk`` re-exports the function ``search``, so
    ``slrk.search`` as an attribute is that function, not the module.
    """

    owner: object
    attr: str
    span: str
    inline: bool = False
    weight: object = None  # callable(args) -> int, added to Totals.weight
    keep_durations: bool = False
    required: bool = True  # the self-check expects at least one call


KEEP_SPANS = 20000  # spans stored for the run record; totals cover every span


def resolve(owner):
    return importlib.import_module(owner) if isinstance(owner, str) else owner


class Tracer:
    """Records spans for wrapped callables; install() and restore() patch attributes."""

    def __init__(self):
        self.totals: dict[str, Totals] = {}
        self.target_calls: dict[tuple, int] = {}
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent index or -1)
        self.n_spans = 0
        self.absent: set[str] = set()  # targets whose attribute does not exist
        self._stack: list[list] = []  # open spans: [child_ns, index]
        self._patched: list[tuple] = []

    def totals_for(self, name: str) -> Totals:
        return self.totals.setdefault(name, Totals())

    def call(self, name, fn, *args, inline=False, weight=None, keep_durations=False,
             counter=None):
        """Run fn(*args) inside a span called name and return its result."""
        stack = self._stack
        parent = stack[-1] if stack else None
        index = self.n_spans
        self.n_spans += 1
        frame = [0, index]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            tot = self.totals_for(name)
            tot.calls += 1
            tot.incl_ns += duration
            tot.self_ns += duration - frame[0]
            if weight is not None:
                tot.weight += int(weight(args))
            if keep_durations:
                tot.durations_ns.append(duration)
            if parent is not None and not inline:
                parent[0] += duration
            if counter is not None:
                self.target_calls[counter] += 1
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((name, start, end, parent[1] if parent else -1))

    def _wrapper(self, target: Target, original, key):
        def wrapped(*args, **kwargs):
            if kwargs:
                return self.call(target.span, lambda *a: original(*a, **kwargs), *args,
                                 inline=target.inline, weight=target.weight,
                                 keep_durations=target.keep_durations, counter=key)
            return self.call(target.span, original, *args, inline=target.inline,
                             weight=target.weight, keep_durations=target.keep_durations,
                             counter=key)
        return wrapped

    def install(self, targets) -> None:
        """Wrap every target that exists and note the ones that do not."""
        for target in targets:
            owner = resolve(target.owner)
            original = getattr(owner, target.attr, None)
            if original is None:
                self.absent.add(f"{target.owner}.{target.attr}")
                continue
            key = (id(owner), target.attr)
            self.target_calls.setdefault(key, 0)
            self._patched.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrapper(target, original, key))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def uncalled(self, targets) -> list[str]:
        """Required targets that were wrapped at some point but never called."""
        out = []
        for target in targets:
            if not target.required:
                continue
            owner = resolve(target.owner)
            key = (id(owner), target.attr)
            if key in self.target_calls and self.target_calls[key] == 0:
                out.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{target.attr}")
        return out

    def snapshot(self) -> dict[str, tuple]:
        return {name: (t.calls, t.incl_ns, t.self_ns, t.weight) for name, t in self.totals.items()}

    def since(self, before: dict) -> dict[str, Totals]:
        """Totals of the spans recorded since snapshot() returned `before`."""
        out = {}
        for name, now in self.snapshot().items():
            old = before.get(name, (0, 0, 0, 0))
            if now[0] != old[0]:
                out[name] = Totals(*(a - b for a, b in zip(now, old)))
        return out
