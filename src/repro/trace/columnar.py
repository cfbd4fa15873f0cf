"""Columnar (struct-of-arrays) trace buffers for streaming analysis.

A :class:`~repro.trace.events.MemoryEvent` dataclass costs hundreds of
bytes and a attribute lookup per field; at the million-event scale the
GPU-lanes workloads produce, a list of them is both too big to hold and
too slow to walk.  This module stores the same trace as chunks of typed
arrays (:mod:`array`), one column per field:

* ``kinds`` — one byte per event, the :data:`KIND_CODES` code of its
  :class:`~repro.trace.events.EventKind` (table dispatch, no enum
  identity chains);
* ``threads``/``addrs``/``sizes``/``values`` — unsigned integers
  (``size`` never exceeds the 8-byte machine word, so ``values`` fits
  ``array('Q')``);
* ``flags`` — bit-packed ``persistent``/``sync``;
* ``infos`` — a *sparse* ``{local_index: str}`` mapping (almost every
  event carries an empty ``info``, so a dense string column would waste
  the memory the columns save).

Sequence numbers are implicit: chunk ``base_seq`` plus local index.

When numpy is importable (:data:`HAVE_NUMPY`), :meth:`ColumnarChunk.
columns` exposes zero-copy ``ndarray`` views over the same buffers so
the streaming analyzer can vectorise run detection; everything else is
stdlib-only and behaves identically without it.

:class:`ColumnarTrace` is a drop-in chunked container with the
:class:`~repro.trace.trace.Trace` API surface the rest of the repo uses
(iteration, ``append``, ``truncate``, ``stats``, ``meta``), plus
``append_raw`` — the allocation-free emit hook the simulated machine
calls to fill chunks directly without ever constructing an event object.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace.events import EventKind, MemoryEvent
from repro.trace.trace import Trace, TraceStats

try:  # pragma: no cover - exercised implicitly on numpy-equipped hosts
    import numpy as _np
except ImportError:  # pragma: no cover - stdlib-only environments
    _np = None

#: True when the optional numpy acceleration is available.
HAVE_NUMPY = _np is not None

#: Stable event-kind codes, in :class:`EventKind` declaration order.
#: The codes are part of the chunk contract: the streaming analyzer's
#: dispatch tables are indexed by them.
KIND_CODES: Dict[EventKind, int] = {
    kind: code for code, kind in enumerate(EventKind)
}

#: Inverse mapping: code -> :class:`EventKind`.
KINDS_BY_CODE: Tuple[EventKind, ...] = tuple(EventKind)

# Hot-path code constants (module-level ints are cheaper to close over
# than dict lookups in the analyzer's inner loop).
CODE_LOAD = KIND_CODES[EventKind.LOAD]
CODE_STORE = KIND_CODES[EventKind.STORE]
CODE_RMW = KIND_CODES[EventKind.RMW]
CODE_PERSIST_BARRIER = KIND_CODES[EventKind.PERSIST_BARRIER]
CODE_NEW_STRAND = KIND_CODES[EventKind.NEW_STRAND]
CODE_FENCE = KIND_CODES[EventKind.FENCE]
CODE_SFENCE = KIND_CODES[EventKind.SFENCE]
CODE_CLFLUSH = KIND_CODES[EventKind.CLFLUSH]
CODE_CLFLUSH_OPT = KIND_CODES[EventKind.CLFLUSH_OPT]
CODE_CLWB = KIND_CODES[EventKind.CLWB]
CODE_MARK = KIND_CODES[EventKind.MARK]

#: ``flags`` column bits.
FLAG_PERSISTENT = 1
FLAG_SYNC = 2

#: Default events per chunk: big enough to amortise per-chunk overhead,
#: small enough that a chunk (~2 MB of columns) stays cache-friendly and
#: the streaming analyzer's working set is bounded.
DEFAULT_CHUNK_EVENTS = 1 << 16


class ColumnarChunk:
    """One contiguous run of trace events in struct-of-arrays form."""

    __slots__ = (
        "base_seq",
        "kinds",
        "threads",
        "addrs",
        "sizes",
        "values",
        "flags",
        "infos",
    )

    def __init__(self, base_seq: int = 0) -> None:
        self.base_seq = base_seq
        self.kinds = array("B")
        self.threads = array("I")
        self.addrs = array("Q")
        self.sizes = array("B")
        self.values = array("Q")
        self.flags = array("B")
        #: Sparse local-index -> info string (empty infos are omitted).
        self.infos: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def end_seq(self) -> int:
        """Sequence number one past this chunk's last event."""
        return self.base_seq + len(self.kinds)

    def append_raw(
        self,
        kind: EventKind,
        thread: int,
        addr: int = 0,
        size: int = 0,
        value: int = 0,
        persistent: bool = False,
        sync: bool = False,
        info: str = "",
    ) -> None:
        """Append one event from raw fields (no event object built).

        Callers own the validity of the fields (the simulated machine
        already validated its operations); reconstructing the event via
        :meth:`event` re-runs full :class:`MemoryEvent` validation.
        """
        if info:
            self.infos[len(self.kinds)] = info
        self.kinds.append(KIND_CODES[kind])
        self.threads.append(thread)
        self.addrs.append(addr)
        self.sizes.append(size)
        self.values.append(value)
        self.flags.append(
            (FLAG_PERSISTENT if persistent else 0)
            | (FLAG_SYNC if sync else 0)
        )

    def append_event(self, event: MemoryEvent) -> None:
        """Append an already-built event (columns copy its fields)."""
        self.append_raw(
            event.kind,
            event.thread,
            event.addr,
            event.size,
            event.value,
            event.persistent,
            event.sync,
            event.info,
        )

    def event(self, index: int) -> MemoryEvent:
        """Materialise the event at local ``index`` (validated)."""
        if index < 0:
            index += len(self.kinds)
        flags = self.flags[index]
        return MemoryEvent(
            seq=self.base_seq + index,
            thread=self.threads[index],
            kind=KINDS_BY_CODE[self.kinds[index]],
            addr=self.addrs[index],
            size=self.sizes[index],
            value=self.values[index],
            persistent=bool(flags & FLAG_PERSISTENT),
            sync=bool(flags & FLAG_SYNC),
            info=self.infos.get(index, ""),
        )

    def __iter__(self) -> Iterator[MemoryEvent]:
        for index in range(len(self.kinds)):
            yield self.event(index)

    def truncate(self, length: int) -> None:
        """Drop events at local index ``length`` and beyond."""
        if length < 0 or length > len(self.kinds):
            raise TraceError(
                f"cannot truncate chunk to {length}; it has "
                f"{len(self.kinds)} events"
            )
        for column in ("kinds", "threads", "addrs", "sizes", "values", "flags"):
            del getattr(self, column)[length:]
        self.infos = {
            index: info for index, info in self.infos.items() if index < length
        }

    def columns(self):
        """Zero-copy numpy views ``(kinds, threads, addrs, sizes, values,
        flags)`` over the chunk's buffers, or ``None`` without numpy.

        The views alias the live arrays: treat them as read-only and do
        not hold them across a mutation of the chunk.
        """
        if _np is None:
            return None
        return (
            _np.frombuffer(self.kinds, dtype=_np.uint8),
            _np.frombuffer(self.threads, dtype=_np.uint32),
            _np.frombuffer(self.addrs, dtype=_np.uint64),
            _np.frombuffer(self.sizes, dtype=_np.uint8),
            _np.frombuffer(self.values, dtype=_np.uint64),
            _np.frombuffer(self.flags, dtype=_np.uint8),
        )


def chunks_from_events(
    events: Iterable[MemoryEvent],
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    base_seq: int = 0,
) -> Iterator[ColumnarChunk]:
    """Encode an event stream into columnar chunks, lazily.

    Consumes ``events`` incrementally — at most one chunk is held at a
    time, so arbitrarily long streams encode in bounded memory.  Chunks
    number events implicitly, so the stream's sequence numbers must run
    densely from ``base_seq`` (the rule :meth:`Trace.append` enforces);
    a gap or reordering raises :class:`TraceError`.
    """
    if chunk_events <= 0:
        raise TraceError(f"chunk_events must be positive, got {chunk_events}")
    chunk = ColumnarChunk(base_seq)
    expected = base_seq
    for event in events:
        if event.seq != expected:
            raise TraceError(
                f"event seq {event.seq} out of order; expected {expected}"
            )
        expected += 1
        chunk.append_event(event)
        if len(chunk) >= chunk_events:
            yield chunk
            chunk = ColumnarChunk(chunk.end_seq)
    if len(chunk):
        yield chunk


class ColumnarTrace:
    """A chunked struct-of-arrays trace with the :class:`Trace` surface.

    Accepts both object appends (:meth:`append`, compatible with every
    existing ``Trace`` call site) and raw-field appends
    (:meth:`append_raw`, the machine's allocation-free emit hook).
    Iteration materialises events lazily; :meth:`chunks` exposes the
    columnar fast path.
    """

    def __init__(
        self,
        meta: Optional[Dict[str, object]] = None,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if chunk_events <= 0:
            raise TraceError(
                f"chunk_events must be positive, got {chunk_events}"
            )
        self.meta: Dict[str, object] = dict(meta or {})
        self._chunk_events = chunk_events
        self._chunks: List[ColumnarChunk] = [ColumnarChunk(0)]

    def __len__(self) -> int:
        last = self._chunks[-1]
        return last.base_seq + len(last)

    def __iter__(self) -> Iterator[MemoryEvent]:
        for chunk in self._chunks:
            for event in chunk:
                yield event

    def __getitem__(self, index: int) -> MemoryEvent:
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(index)
        chunk = self._chunks[index // self._chunk_events]
        return chunk.event(index - chunk.base_seq)

    @property
    def events(self) -> List[MemoryEvent]:
        """Materialised event list (a copy — prefer iteration/chunks)."""
        return list(self)

    def chunks(self) -> Iterator[ColumnarChunk]:
        """The non-empty chunks in sequence order."""
        for chunk in self._chunks:
            if len(chunk):
                yield chunk

    def append_raw(
        self,
        kind: EventKind,
        thread: int,
        addr: int = 0,
        size: int = 0,
        value: int = 0,
        persistent: bool = False,
        sync: bool = False,
        info: str = "",
    ) -> None:
        """Append one event from raw fields (the machine's emit hook)."""
        chunk = self._chunks[-1]
        if len(chunk) >= self._chunk_events:
            chunk = ColumnarChunk(chunk.end_seq)
            self._chunks.append(chunk)
        chunk.append_raw(kind, thread, addr, size, value, persistent, sync, info)

    def append(self, event: MemoryEvent) -> None:
        """Append an event, enforcing dense ascending sequence numbers."""
        if event.seq != len(self):
            raise TraceError(
                f"event seq {event.seq} out of order; expected {len(self)}"
            )
        self.append_raw(
            event.kind,
            event.thread,
            event.addr,
            event.size,
            event.value,
            event.persistent,
            event.sync,
            event.info,
        )

    def extend(self, events: Iterable[MemoryEvent]) -> None:
        """Append many events in order."""
        for event in events:
            self.append(event)

    def truncate(self, length: int) -> None:
        """Discard every event at sequence ``length`` and beyond."""
        if length < 0 or length > len(self):
            raise TraceError(
                f"cannot truncate to {length}; trace has {len(self)} events"
            )
        keep = length // self._chunk_events
        del self._chunks[keep + 1 :]
        self._chunks[keep].truncate(length - self._chunks[keep].base_seq)

    def to_trace(self) -> Trace:
        """Materialise as a plain event-list :class:`Trace`."""
        trace = Trace(meta=self.meta)
        trace.extend(iter(self))
        return trace

    @classmethod
    def from_trace(
        cls, trace: Trace, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> "ColumnarTrace":
        """Encode an existing trace (chunked, same meta)."""
        columnar = cls(meta=trace.meta, chunk_events=chunk_events)
        for event in trace:
            columnar.append(event)
        return columnar

    # -- Trace API parity ---------------------------------------------------

    def thread_ids(self) -> List[int]:
        """Sorted list of thread ids appearing in the trace."""
        threads = set()
        for chunk in self._chunks:
            threads.update(chunk.threads)
        return sorted(threads)

    def events_for_thread(self, thread: int) -> List[MemoryEvent]:
        """All events issued by one thread, in program order."""
        return [event for event in self if event.thread == thread]

    def count_marks(self, info: str) -> int:
        """Number of MARK events carrying exactly ``info``."""
        mark = CODE_MARK
        count = 0
        for chunk in self._chunks:
            kinds = chunk.kinds
            for index, text in chunk.infos.items():
                if text == info and kinds[index] == mark:
                    count += 1
        return count

    def stats(self) -> TraceStats:
        """Compute aggregate statistics in one pass over the columns."""
        loads = stores = rmws = persists = barriers = strands = 0
        marks: Dict[str, int] = {}
        threads = set()
        store_like = (CODE_STORE, CODE_RMW)
        for chunk in self._chunks:
            kinds = chunk.kinds
            flags = chunk.flags
            threads.update(chunk.threads)
            for index in range(len(kinds)):
                code = kinds[index]
                if code == CODE_LOAD:
                    loads += 1
                elif code == CODE_STORE:
                    stores += 1
                elif code == CODE_RMW:
                    rmws += 1
                elif code == CODE_PERSIST_BARRIER:
                    barriers += 1
                elif code == CODE_NEW_STRAND:
                    strands += 1
                elif code == CODE_MARK:
                    info = chunk.infos.get(index, "")
                    marks[info] = marks.get(info, 0) + 1
                if code in store_like and flags[index] & FLAG_PERSISTENT:
                    persists += 1
        accesses = loads + stores + rmws
        return TraceStats(
            events=len(self),
            accesses=accesses,
            loads=loads,
            stores=stores,
            rmws=rmws,
            persists=persists,
            persist_barriers=barriers,
            new_strands=strands,
            threads=len(threads),
            marks=marks,
        )
