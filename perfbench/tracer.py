"""Spans and counters recorded from outside the program under test.

The traced run wraps functions of the program in place.  Each call to a
wrapped public entry point becomes a Span with its parent span and the id of
the job it belongs to.  Each call to a wrapped hot method only adds to a
counter, keyed by job, enclosing span and method, so millions of calls cost
a few dictionary updates and no records.

Self time is measured with a stack of wrapper frames: every wrapper adds its
inclusive time to the frame of the wrapper that called it, and its own self
time is its inclusive time minus what its callees added.  The result is the
same for spans and counters, so a span's self time excludes the hot methods
it called.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    job: int | None
    name: str
    start: float = 0.0
    end: float = 0.0
    self_s: float = 0.0
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "job": self.job,
                "name": self.name, "start": self.start, "end": self.end,
                "self_s": self.self_s, "info": self.info}


class Tracer:
    """Wraps callables, keeps spans and counters in memory, undoes patches."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        # (job, enclosing span name, name) -> {"calls", "self_s", extras...}
        self.counters = {}
        self._frames = []
        self._open = []
        self._patches = []
        self._job = None

    # -- wrappers ---------------------------------------------------------

    def _enter(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans), parent.id if parent else None,
                  self._job, name)
        self.spans.append(sp)
        self._open.append(sp)
        self._frames.append([0.0])
        sp.start = self.clock()
        return sp

    def _leave(self, sp: Span) -> None:
        sp.end = self.clock()
        self._open.pop()
        children = self._frames.pop()[0]
        total = sp.end - sp.start
        sp.self_s = total - children
        if self._frames:
            self._frames[-1][0] += total

    def span(self, name: str, fn, info=None):
        """fn wrapped to record one Span per call.

        info(args, kwargs, result, exc) returns fields stored on the span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._leave(sp)
                if info is not None:
                    sp.info.update(info(args, kwargs, None, exc))
                raise
            self._leave(sp)
            if info is not None:
                sp.info.update(info(args, kwargs, result, None))
            return result
        return wrapper

    def counter(self, name: str, fn, count=None):
        """fn wrapped to add each call to a counter under the enclosing span.

        count(args, result, exc) returns extra fields to add to the counter.
        """
        frames, opened, counters, clock = (self._frames, self._open,
                                           self.counters, self.clock)

        def tally(started, frame, extra):
            total = clock() - started
            frames.pop()
            if frames:
                frames[-1][0] += total
            sp = opened[-1] if opened else None
            key = (sp.job, sp.name, name) if sp else (None, None, name)
            c = counters.get(key)
            if c is None:
                c = counters[key] = {"calls": 0, "self_s": 0.0}
            c["calls"] += 1
            c["self_s"] += total - frame[0]
            if extra:
                for k, v in extra.items():
                    c[k] = c.get(k, 0) + v

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tally(started, frame, count and count(args, None, exc))
                raise
            tally(started, frame, count and count(args, result, None))
            return result
        return wrapper

    def job(self, job_id: int, label: str, invoke):
        """Run invoke() inside a span named "job" that its calls attach to."""
        self._job = job_id
        sp = self._enter("job")
        sp.info["label"] = label
        try:
            return invoke()
        finally:
            self._leave(sp)
            self._job = None

    # -- patching ---------------------------------------------------------

    def patch_function(self, module, attr: str, wrap, package: str) -> None:
        """Replace module.attr by wrap(original) wherever the package's
        modules hold the same object, since `from x import f` copies it."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == package or
                                   mod.__name__.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, wrap) -> None:
        """Replace cls.attr, and every alias of it on cls, by wrap(original)."""
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = wrap(fn)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        for key, value in list(vars(cls).items()):
            if value is raw:
                self._patches.append((cls, key, raw))
                setattr(cls, key, wrapped)

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output -------------------------------------------------------------

    def to_json(self) -> dict:
        return {"spans": [sp.to_json() for sp in self.spans],
                "counters": [dict(job=job, span=parent, name=name, **c)
                             for (job, parent, name), c
                             in sorted(self.counters.items(),
                                       key=lambda kv: repr(kv[0]))]}
