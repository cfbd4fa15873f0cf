"""In-memory span tracer that wraps layer entry points from the outside.

A :class:`Tracer` replaces a function at the attribute through which its
caller resolves it (a module global such as
``repro.check.checker.canonical_dag_key``, or a method on its class such
as ``Machine.run``) with a wrapper that records one span per call:
name, start, end, parent span and pass id.  The program's own source is
never edited; :meth:`Tracer.uninstall` puts every original back.

Spans live in flat arrays while the pass runs (a check-2lc pass records
about 720,000 of them) and are written out as JSON once, at the end.
A layer's self time is its spans' durations minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

#: Called after a wrapped call returns: (tracer, args, kwargs, result).
CountHook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Span recorder for one traced pass (single-threaded)."""

    def __init__(self, pass_id: str) -> None:
        self.pass_id = pass_id
        self.counts: Counter = Counter()
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End the innermost open span, which must be ``index``."""
        self._end[index] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    # -- installing wrappers -----------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Optional[CountHook] = None,
        on_error: Optional[Callable[["Tracer", BaseException], None]] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``count`` sees each successful call's arguments and result;
        ``on_error`` sees each exception, which is re-raised unchanged.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                index = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    tracer.close(index)
                    if on_error is not None:
                        on_error(tracer, exc)
                    raise
                tracer.close(index)
                if count is not None:
                    count(tracer, args, kwargs, result)
                return result

            return traced

        self.replace(owner, attr, make)

    def wrap_generator(
        self, owner: object, attr: str, name: str, counter: str
    ) -> None:
        """Record a span around each resumption of a generator function.

        Every yielded item adds one to ``counts[counter]``.  The work of
        a generator is interleaved with its consumer's, so each step is
        its own span.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    index = tracer.open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    tracer.counts[counter] += 1
                    yield item

            return traced

        self.replace(owner, attr, make)

    def replace(self, owner: object, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`uninstall`."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        child_time = [0.0] * len(self._start)
        totals: Dict[str, float] = {name: 0.0 for name in self._names}
        for index in range(len(self._start) - 1, -1, -1):
            duration = self.duration(index)
            parent = self._parent[index]
            if parent >= 0:
                child_time[parent] += duration
            totals[self._names[self._name[index]]] += duration - child_time[index]
        return totals

    def duration(self, index: int) -> float:
        """Seconds between span ``index``'s start and end."""
        return self._end[index] - self._start[index]

    def durations(self, name: str) -> List[float]:
        """Total (not self) seconds of every span called ``name``."""
        name_id = self._name_ids.get(name)
        return [
            self.duration(index)
            for index in range(len(self._start))
            if self._name[index] == name_id
        ]

    def span_count(self) -> int:
        """Spans recorded so far."""
        return len(self._start)

    def dump(self, path) -> None:
        """Write every span as ``[name, start, end, parent, pass id]``.

        The file is gzip-compressed JSON; times are seconds relative to
        the first span's start and ``parent`` is a span's index in the
        list (-1 for none).
        """
        origin = self._start[0] if self._start else 0.0
        pass_id = json.dumps(self.pass_id)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as stream:
            stream.write('{"fields": ["name", "start", "end", "parent", "pass"],')
            stream.write(' "spans": [')
            for index in range(len(self._start)):
                if index:
                    stream.write(",\n")
                stream.write(
                    f"[{json.dumps(self._names[self._name[index]])}, "
                    f"{self._start[index] - origin:.7f}, "
                    f"{self._end[index] - origin:.7f}, "
                    f"{self._parent[index]}, {pass_id}]"
                )
            stream.write("]}\n")
