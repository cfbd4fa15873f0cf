"""Columnar trace buffers: Trace parity and chunked streaming."""

import io

import pytest

from repro.errors import TraceError
from repro.trace import (
    ColumnarChunk,
    ColumnarTrace,
    EventKind,
    MemoryEvent,
    Trace,
    TraceReader,
    TraceWriter,
    chunks_from_events,
)
from repro.trace.io import dump, load_file


def sample_events(count=10):
    events = []
    for seq in range(count):
        kind = (
            EventKind.PERSIST_BARRIER
            if seq % 5 == 4
            else (EventKind.LOAD if seq % 3 == 2 else EventKind.STORE)
        )
        if kind is EventKind.PERSIST_BARRIER:
            events.append(
                MemoryEvent(seq=seq, thread=seq % 2, kind=kind)
            )
        else:
            events.append(
                MemoryEvent(
                    seq=seq,
                    thread=seq % 2,
                    kind=kind,
                    addr=0x8000_0000 + 8 * (seq % 4),
                    size=8,
                    value=seq + 1,
                    persistent=seq % 2 == 0,
                    sync=seq % 7 == 0,
                    info="m" if seq % 6 == 5 else "",
                )
            )
    return events


def sample_trace(count=10):
    trace = Trace(meta={"source": "test"})
    trace.extend(sample_events(count))
    return trace


class TestColumnarChunk:
    def test_round_trips_every_field(self):
        chunk = ColumnarChunk(0)
        for event in sample_events():
            chunk.append_event(event)
        assert list(chunk) == sample_events()

    def test_event_validates_on_materialisation(self):
        chunk = ColumnarChunk(0)
        chunk.append_raw(EventKind.STORE, 0)  # size 0: invalid access
        with pytest.raises(Exception):
            chunk.event(0)

    def test_truncate_drops_tail_and_infos(self):
        chunk = ColumnarChunk(0)
        for event in sample_events(8):
            chunk.append_event(event)
        chunk.truncate(5)
        assert len(chunk) == 5
        assert all(index < 5 for index in chunk.infos)
        with pytest.raises(TraceError):
            chunk.truncate(9)


class TestColumnarTrace:
    def test_from_trace_round_trip(self):
        trace = sample_trace(23)
        columnar = ColumnarTrace.from_trace(trace, chunk_events=7)
        assert len(columnar) == len(trace)
        assert list(columnar) == list(trace)
        assert columnar.to_trace().events == trace.events
        assert columnar[3] == trace[3]
        assert columnar[-1] == trace[-1]

    def test_chunk_rollover_preserves_base_seqs(self):
        columnar = ColumnarTrace(chunk_events=4)
        for event in sample_events(10):
            columnar.append(event)
        chunks = list(columnar.chunks())
        assert [chunk.base_seq for chunk in chunks] == [0, 4, 8]
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]

    def test_append_enforces_dense_seq(self):
        columnar = ColumnarTrace()
        columnar.append(sample_events(1)[0])
        with pytest.raises(TraceError):
            columnar.append(
                MemoryEvent(seq=5, thread=0, kind=EventKind.PERSIST_BARRIER)
            )

    def test_truncate_matches_trace(self):
        for cut in (0, 3, 4, 9, 10):
            trace = sample_trace(10)
            columnar = ColumnarTrace.from_trace(trace, chunk_events=4)
            trace.truncate(cut)
            columnar.truncate(cut)
            assert list(columnar) == list(trace)

    def test_stats_and_marks_match_trace(self):
        trace = sample_trace(30)
        columnar = ColumnarTrace.from_trace(trace, chunk_events=8)
        assert columnar.stats() == trace.stats()
        assert columnar.count_marks("m") == trace.count_marks("m")
        assert columnar.thread_ids() == trace.thread_ids()
        assert columnar.events_for_thread(1) == trace.events_for_thread(1)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(TraceError):
            ColumnarTrace(chunk_events=0)


class TestChunksFromEvents:
    def test_chunk_sizes_and_coverage(self):
        events = sample_events(11)
        chunks = list(chunks_from_events(iter(events), 4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 3]
        flattened = [event for chunk in chunks for event in chunk]
        assert flattened == events

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(TraceError):
            list(chunks_from_events([], 0))


class TestStreamingIo:
    def test_reader_events_match_batch_load(self):
        trace = sample_trace(12)
        buffer = io.StringIO()
        dump(trace, buffer)
        buffer.seek(0)
        with TraceReader(buffer) as reader:
            assert reader.meta == trace.meta
            assert list(reader.events()) == trace.events

    def test_reader_chunks_match_events(self):
        trace = sample_trace(12)
        buffer = io.StringIO()
        dump(trace, buffer)
        buffer.seek(0)
        with TraceReader(buffer) as reader:
            chunks = list(reader.chunks(chunk_events=5))
        assert [event for chunk in chunks for event in chunk] == trace.events

    def test_writer_round_trips_through_reader(self, tmp_path):
        trace = sample_trace(9)
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, meta=trace.meta) as writer:
            for event in trace:
                writer.write(event)
        assert writer.events_written == 9
        with TraceReader(path) as reader:
            assert reader.meta == trace.meta
            assert list(reader.events()) == trace.events

    def test_writer_write_chunk(self, tmp_path):
        trace = sample_trace(9)
        columnar = ColumnarTrace.from_trace(trace, chunk_events=4)
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, meta=trace.meta) as writer:
            for chunk in columnar.chunks():
                writer.write_chunk(chunk)
        with TraceReader(path) as reader:
            assert list(reader.events()) == trace.events

    def test_reader_chunks_reject_gapped_seqs(self, tmp_path):
        """Chunks must not renumber a file the batch loader rejects."""
        path = tmp_path / "gapped.jsonl"
        with TraceWriter(path) as writer:
            for seq in (0, 1, 5, 3):
                writer.write(
                    MemoryEvent(
                        seq=seq, thread=0, kind=EventKind.PERSIST_BARRIER
                    )
                )
        with pytest.raises(TraceError) as batch:
            load_file(path)
        with TraceReader(path) as reader:
            with pytest.raises(TraceError) as streamed:
                list(reader.chunks())
        assert str(streamed.value) == str(batch.value)
        assert "seq 5 out of order; expected 2" in str(batch.value)

    def test_closed_reader_rejects_iteration(self):
        buffer = io.StringIO()
        dump(sample_trace(2), buffer)
        buffer.seek(0)
        reader = TraceReader(buffer)
        with pytest.raises(TraceError):
            reader.events()


class TestMachineColumnarEmit:
    def test_columnar_machine_trace_matches_object_trace(self):
        from repro.sim import Machine, RoundRobinScheduler

        def body(ctx, base):
            for index in range(4):
                yield from ctx.store(base + 8 * index, index + 1)
            yield from ctx.persist_barrier()

        def run(columnar):
            machine = Machine(
                scheduler=RoundRobinScheduler(), columnar=columnar
            )
            base = machine.persistent_heap.malloc(64)
            machine.spawn(body, base)
            machine.spawn(body, base + 64)
            machine.run()
            return machine.trace

        plain = run(False)
        columnar = run(True)
        assert isinstance(columnar, ColumnarTrace)
        assert list(columnar) == list(plain)
        assert columnar.stats() == plain.stats()
