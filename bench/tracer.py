"""In-memory span tracing installed from outside the program.

`Tracer.patch` replaces a module function or class attribute with a wrapper
that records one span per call: a name, a start, an end and the id of the
enclosing span. Counts are taken in the same wrappers, and `uninstall` puts
the originals back. `layers.install` chooses what to patch in hierlog;
nothing under `src/` changes.

Spans stay in memory (parallel arrays) until `write` dumps them.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

# on_return(tracer, args, kwargs, result) records counts taken at a wrapper
OnReturn = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # -1 for a root span
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} is innermost")

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly, as when replaying a span file."""
        self.name_id.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, fn: Callable, name: str, on_return: Optional[OnReturn] = None,
             on_error: Optional[tuple[type, str]] = None) -> Callable:
        """A wrapper around `fn` that records a span and counts calls.

        `on_error` is (exception type, counter name): matching exceptions are
        counted, then re-raised.
        """
        tracer = self
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None and isinstance(exc, on_error[0]):
                    tracer.counts[on_error[1]] += 1
                raise
            finally:
                tracer.close(sid)
                tracer.counts[calls] += 1
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return traced

    # -- installing -----------------------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, on_return: Optional[OnReturn] = None,
              on_error: Optional[tuple[type, str]] = None) -> None:
        """Replace `owner.attr` (module function, method, classmethod) with a traced one."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, on_return, on_error))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, on_return, on_error))
        else:
            new = self.wrap(raw, name, on_return, on_error)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its child spans cover.

        Children may overlap each other (spans from concurrent work or from
        clock skew); the covered part is the union of their intervals,
        clipped to the parent's interval.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p >= 0:
                children[p].append((self.start[sid], self.end[sid]))
        out = []
        for sid in range(len(self.start)):
            lo, hi = self.start[sid], self.end[sid]
            covered = 0.0
            cur_lo = cur_hi = None
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, lo), min(e, hi)
                if e <= s:
                    continue
                if cur_hi is None or s > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = s, e
                else:
                    cur_hi = max(cur_hi, e)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((hi - lo) - covered)
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Summed duration and summed self time per span name."""
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        for sid, st in enumerate(self.self_times()):
            name = self.names[self.name_id[sid]]
            total[name] += self.end[sid] - self.start[sid]
            self_total[name] += st
        return total, self_total

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: id, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{names[self.name_id[sid]]}\t"
                    f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )
