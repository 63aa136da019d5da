"""Outside-in layer tracer: wraps public functions where they are bound.

The tracer never edits the program. It replaces module attributes and class
methods with timing wrappers and restores the originals on ``uninstall``.
Several modules import with ``from .x import y``, so one function can be
bound in more than one namespace; each binding a workload calls through is
wrapped separately under the same layer name.

Every wrapped call is charged to a per-(name, parent) counter holding calls,
total time, self time and failures. Self time is a call's duration minus the
durations of the wrapped calls made directly inside it. Calls whose name is
in ``span_names`` additionally get a span record (id, name, start, end,
parent span id); per-round calls only get counters, because one span each
for ~10^6 calls per run would cost more than the calls.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter, span_names=()) -> None:
        self.clock = clock
        self.span_names = frozenset(span_names)
        # Frame: [name, child_time, span_id]; the innermost call is last.
        self.stack: list[list[Any]] = []
        # (name, parent name) -> [calls, total_s, self_s, failed]
        self.stats: dict[tuple[str, str | None], list[float]] = {}
        self.spans: list[dict[str, Any]] = []
        self.tallies: dict[str, float] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- accounting -------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, observe=None):
        """Run ``fn(*args, **kwargs)`` as one traced call named ``name``."""
        clock, stack = self.clock, self.stack
        span_id = self._open_span(name) if name in self.span_names else None
        frame = [name, 0.0, span_id]
        stack.append(frame)
        ok = False
        start = clock()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
                parent = stack[-1][0]
            else:
                parent = None
            entry = self.stats.get((name, parent))
            if entry is None:
                entry = self.stats[(name, parent)] = [0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            if not ok:
                entry[3] += 1
            if span_id is not None:
                span = self.spans[span_id]
                span["start"], span["end"], span["ok"] = start, end, ok
        if observe is not None:
            observe(self, args, result)
        return result

    def _open_span(self, name: str) -> int:
        parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
        self.spans.append({"id": len(self.spans), "name": name, "parent": parent})
        return len(self.spans) - 1

    def tally(self, key: str, amount: float = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def reset_counters(self) -> None:
        """Start new counters and tallies; spans are kept."""
        self.stats, self.tallies = {}, {}

    def by_name(self) -> dict[str, list[float]]:
        """Counters summed over parents: name -> [calls, total_s, self_s, failed]."""
        out: dict[str, list[float]] = {}
        for (name, _), entry in self.stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(entry):
                acc[i] += value
        return out

    # -- patching ---------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str | Callable, observe=None) -> None:
        """Replace ``owner.attr`` (module function, method or classmethod).

        ``name`` may be a callable of the call's arguments, for entry points
        such as ``cli.main`` whose layer depends on the subcommand.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        if callable(name):
            namer = name

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(namer(args), fn, args, kwargs, observe)
        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, observe)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
