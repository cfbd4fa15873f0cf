"""Engine parity: every analysis must equal the per-event reference.

The engine in :class:`~repro.core.analysis.StreamingAnalyzer` is the
only production implementation of the propagation rules; kind-code
dispatch, batched coalescing runs, touched-block flush joins, and
incremental DAG levels must be *invisible* in its results.  These tests
drive random traces through it in columnar chunks of adversarial sizes
and assert every observable result field (and, on graph domains, the
persist DAG itself) matches ``reference_analyze`` — the one-shot,
per-event oracle in :mod:`tests.core.reference_analysis` — across all
models and domains, and on both the numpy and the stdlib run-boundary
precompute.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import AnalysisConfig, StreamingAnalyzer, analysis
from repro.core.model import MODELS
from repro.errors import AnalysisError, TraceError
from repro.trace import ColumnarTrace, EventKind, MemoryEvent, Trace
from repro.trace.columnar import HAVE_NUMPY

from tests.core.helpers import B, L, NS, P, R, S, V, build
from tests.core.reference_analysis import reference_analyze

DOMAINS = ("level", "graph", "bitset")

#: Every result field with observable analysis content.
FIELDS = (
    "critical_path",
    "persist_count",
    "persist_stores",
    "coalesced",
    "events",
    "barriers",
    "strands",
    "level_histogram",
    "block_writes",
)


def stream(trace, model, config, domain, chunk_events):
    """Analyze ``trace`` through the chunked streaming path."""
    columnar = ColumnarTrace.from_trace(trace, chunk_events=chunk_events)
    analyzer = StreamingAnalyzer(model, config, domain=domain)
    for chunk in columnar.chunks():
        analyzer.feed(chunk)
    return analyzer.finish()


def assert_results_equal(reference, streamed, context=""):
    for field in FIELDS:
        assert getattr(reference, field) == getattr(streamed, field), (
            f"{field} diverged {context}"
        )


def assert_dags_equal(reference, streamed, context=""):
    ref = [
        (node.thread, node.first_seq, frozenset(node.deps), tuple(node.writes))
        for node in reference.graph.nodes
    ]
    got = [
        (node.thread, node.first_seq, frozenset(node.deps), tuple(node.writes))
        for node in streamed.graph.nodes
    ]
    assert ref == got, f"persist DAG diverged {context}"


# -- random-trace strategy ---------------------------------------------------
#
# Slots are word-aligned over a few cache lines so the same trace mixes
# same-block coalescing runs, cross-block chains, and volatile traffic;
# occasional infos break run eligibility mid-stream.

_access = st.tuples(
    st.integers(0, 2),                        # thread
    st.sampled_from([S, S, S, S, L, R]),      # bias toward stores
    st.integers(0, 15),                       # word slot (2 lines at 64B)
    st.booleans(),                            # persistent?
    st.booleans(),                            # sync?
)
_annotation = st.tuples(
    st.integers(0, 2),
    st.sampled_from(
        [B, NS, EventKind.SFENCE, EventKind.CLFLUSH, EventKind.CLWB]
    ),
    st.integers(0, 15),
)
_script = st.lists(st.one_of(_access, _annotation), max_size=40)

#: One witness script per propagation rule: each analyzes differently
#: when the engine drops that rule.  Random scripts rarely line up the
#: few events a rule needs, so the parity tests always run these too.
#: A sixth access field sets the event's ``info``.
_RULE_WITNESSES = {
    "load-before-store": [
        (0, S, 0, True, False),
        (0, L, 1, True, False),
        (1, S, 1, True, False),
    ],
    "conflict-through-volatile": [
        (0, S, 0, True, False),
        (0, S, 1, False, False),
        (1, L, 1, False, False),
        (1, S, 2, True, False),
    ],
    "coalescing-refused": [
        (0, S, 0, True, False),
        (0, S, 1, True, False),
        (0, S, 0, True, False),
    ],
    "flush-then-sfence": [
        (0, S, 0, True, False),
        (0, EventKind.CLWB, 0),
        (0, EventKind.SFENCE, 0),
        (0, S, 1, True, False),
    ],
    "rmw-is-a-fence": [
        (0, S, 0, True, False),
        (0, EventKind.CLWB, 0),
        (0, R, 2, False, False),
        (0, S, 1, True, False),
    ],
    "failed-cas-is-a-fence": [
        (0, S, 0, True, False),
        (0, EventKind.CLWB, 0),
        (0, L, 2, False, False, "rmw-fail"),
        (0, S, 1, True, False),
    ],
    "sb-forward-untracked": [
        (1, S, 3, True, False),
        (1, S, 1, True, False),
        (0, L, 1, True, False, "sb-forward"),
        (0, S, 2, True, False),
    ],
}


def _with_rule_witnesses(test):
    """Add every ``_RULE_WITNESSES`` script as an explicit example."""
    for script in _RULE_WITNESSES.values():
        test = example(script=script, chunk_events=1, coalescing=True)(test)
    return test


def trace_from_script(script, info_every=0):
    events = []
    for index, spec in enumerate(script):
        if len(spec) >= 5:
            thread, kind, slot, persistent, sync = spec[:5]
            base = P if persistent else V
            if len(spec) > 5:
                info = spec[5]
            else:
                info = "x" if info_every and index % info_every == 0 else ""
            events.append(
                MemoryEvent(
                    seq=len(events),
                    thread=thread,
                    kind=kind,
                    addr=base + 8 * slot,
                    size=8,
                    value=index + 1,
                    persistent=persistent,
                    sync=sync,
                    info=info,
                )
            )
        else:
            thread, kind, slot = spec
            if kind in (EventKind.CLFLUSH, EventKind.CLWB):
                events.append(
                    MemoryEvent(
                        seq=len(events),
                        thread=thread,
                        kind=kind,
                        addr=P + 8 * slot,
                        size=8,
                    )
                )
            else:
                events.append(
                    MemoryEvent(seq=len(events), thread=thread, kind=kind)
                )
    trace = Trace()
    trace.extend(events)
    return trace


@pytest.fixture(
    params=[
        pytest.param(
            True,
            id="numpy",
            marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy"),
        ),
        pytest.param(False, id="stdlib"),
    ]
)
def precompute(request, monkeypatch):
    """Force one branch of the engine's run-boundary precompute."""
    monkeypatch.setattr(analysis, "HAVE_NUMPY", request.param)


#: The branch a ``precompute`` run forces holds for every example.
_FIXTURE_OK = dict(suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.usefixtures("precompute")
class TestRandomParity:
    @settings(max_examples=40, deadline=None, **_FIXTURE_OK)
    @given(
        script=_script,
        chunk_events=st.sampled_from([1, 3, 17, 64]),
        coalescing=st.booleans(),
    )
    @_with_rule_witnesses
    def test_all_models_all_domains(self, script, chunk_events, coalescing):
        trace = trace_from_script(script, info_every=7)
        config = AnalysisConfig(coalescing=coalescing)
        for model in MODELS:
            for domain in DOMAINS:
                reference = reference_analyze(trace, model, config, domain)
                streamed = stream(trace, model, config, domain, chunk_events)
                context = f"({model}/{domain}/chunk={chunk_events})"
                assert_results_equal(reference, streamed, context)
                if domain == "graph":
                    assert_dags_equal(reference, streamed, context)

    @settings(max_examples=25, deadline=None, **_FIXTURE_OK)
    @given(
        script=_script,
        persist_granularity=st.sampled_from([8, 64]),
        tracking_granularity=st.sampled_from([8, 64]),
    )
    def test_coarse_granularities(
        self, script, persist_granularity, tracking_granularity
    ):
        """Coarse blocks maximise run batching; results must not move."""
        trace = trace_from_script(script)
        config = AnalysisConfig(
            persist_granularity=persist_granularity,
            tracking_granularity=tracking_granularity,
        )
        for model in ("epoch", "strand", "px86"):
            for domain in ("level", "bitset"):
                reference = reference_analyze(trace, model, config, domain)
                streamed = stream(trace, model, config, domain, 13)
                assert_results_equal(
                    reference,
                    streamed,
                    f"({model}/{domain}/pg={persist_granularity}"
                    f"/tg={tracking_granularity})",
                )


class TestRunBatching:
    """Deterministic shapes aimed at the batched-run fast path."""

    def _run_trace(self, run_length, threads=1):
        events = []
        for thread in range(threads):
            for index in range(run_length):
                events.append((thread, S, P + 8 * (index % 8), index + 1))
        return build(events)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_long_run_batches_to_one_persist(self, model):
        """64 same-line stores at line granularity: one persist."""
        trace = self._run_trace(64)
        config = AnalysisConfig(
            persist_granularity=64, tracking_granularity=64
        )
        reference = reference_analyze(trace, model, config)
        for chunk_events in (5, 64, 1000):
            streamed = stream(trace, model, config, "level", chunk_events)
            assert_results_equal(reference, streamed, f"({model})")
        assert reference.persist_count == 1
        assert reference.coalesced == 63

    def test_run_straddling_chunk_boundary(self):
        """A run split across chunks re-joins with identical counters."""
        trace = self._run_trace(40, threads=2)
        config = AnalysisConfig(
            persist_granularity=64, tracking_granularity=64
        )
        reference = reference_analyze(trace, "epoch", config)
        for chunk_events in (1, 7, 39, 40):
            streamed = stream(trace, "epoch", config, "level", chunk_events)
            assert_results_equal(reference, streamed, f"chunk={chunk_events}")

    def test_info_breaks_run_eligibility(self):
        """An annotated store mid-run must fall off the fast path."""
        events = [(0, S, P, index + 1) for index in range(10)]
        trace = build(events)
        annotated = Trace()
        for event in trace:
            info = "rmw-fail" if event.seq == 5 else ""
            annotated.append(
                MemoryEvent(
                    seq=event.seq,
                    thread=event.thread,
                    kind=event.kind,
                    addr=event.addr,
                    size=event.size,
                    value=event.value,
                    persistent=event.persistent,
                    info=info,
                )
            )
        config = AnalysisConfig(persist_granularity=64, tracking_granularity=64)
        for model in ("epoch", "bpfs"):
            reference = reference_analyze(annotated, model, config)
            streamed = stream(annotated, model, config, "level", 4)
            assert_results_equal(reference, streamed, model)


class TestFlushTouchedBlocks:
    def test_wide_flush_range_joins_only_touched_blocks(self):
        """A flush spanning a huge sparse range equals the dense walk."""
        events = [
            (0, S, P, 1),
            (0, S, P + 4096, 2),
            (0, EventKind.SFENCE),
        ]
        trace = build(events)
        flushed = Trace()
        for event in trace:
            flushed.append(event)
        flushed.append(
            MemoryEvent(
                seq=len(trace),
                thread=0,
                kind=EventKind.CLWB,
                addr=P,
                size=8,
            )
        )
        flushed.append(
            MemoryEvent(
                seq=len(trace) + 1, thread=0, kind=EventKind.SFENCE
            )
        )
        for model in ("px86", "dpox86"):
            reference = reference_analyze(flushed, model)
            streamed = stream(flushed, model, None, "level", 2)
            assert_results_equal(reference, streamed, model)


class TestStreamingApi:
    def test_feed_after_finish_rejected(self):
        analyzer = StreamingAnalyzer("epoch")
        analyzer.finish()
        with pytest.raises(AnalysisError):
            analyzer.feed(build([(0, S, P, 1)]))

    def test_events_fed_counts_across_chunks(self):
        trace = build([(0, S, P, 1), (0, B), (0, S, P + 64, 2)])
        columnar = ColumnarTrace.from_trace(trace, chunk_events=2)
        analyzer = StreamingAnalyzer("epoch")
        for chunk in columnar.chunks():
            analyzer.feed(chunk)
        assert analyzer.events_fed == 3
        assert analyzer.finish().events == 3

    def test_feed_accepts_plain_event_iterables(self):
        trace = build([(0, S, P, 1), (0, B), (0, S, P + 8, 2)])
        analyzer = StreamingAnalyzer("strict")
        analyzer.feed(iter(trace.events[:1]))
        analyzer.feed(trace.events[1:])
        assert_results_equal(
            reference_analyze(trace, "strict"), analyzer.finish()
        )

    def test_feed_rejects_gapped_seqs(self):
        """Chunks number events implicitly; a gap must not renumber."""
        events = [
            MemoryEvent(seq=seq, thread=0, kind=EventKind.PERSIST_BARRIER)
            for seq in (0, 1, 5, 3)
        ]
        with pytest.raises(TraceError, match="seq 5 out of order; expected 2"):
            StreamingAnalyzer("epoch").feed(events)
        with pytest.raises(TraceError, match="seq 0 out of order; expected 2"):
            StreamingAnalyzer("epoch").feed(events[:2]).feed(events[:2])
