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
precompute.  Checkpoint/rollback is held to the same oracle: rewinding
and re-feeding another suffix must be indistinguishable from analyzing
the new trace from scratch.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import AnalysisConfig, StreamingAnalyzer, analysis
from repro.core.analysis import analyze_graph
from repro.core.bitgraph import BitsetGraphDomain
from repro.core.model import MODELS
from repro.core.recovery import cut_content_key, image_at_cut
from repro.errors import AnalysisError, TraceError
from repro.memory import NvramImage
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
    assert reference.graph.levels() == streamed.graph.levels(), (
        f"levels diverged {context}"
    )
    if isinstance(reference.graph, BitsetGraphDomain):
        count = len(reference.graph.nodes)
        assert reference.graph.dep_masks == streamed.graph.dep_masks
        ancestors = [
            [result.graph.ancestor_mask(pid) for pid in range(count)]
            for result in (reference, streamed)
        ]
        assert ancestors[0] == ancestors[1], (
            f"ancestor masks diverged {context}"
        )


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


# -- checkpoint / rollback ---------------------------------------------------


def positions(offsets, low, high):
    """Map raw draws onto distinct ascending positions in ``[low, high]``."""
    if high < low:
        return []
    return sorted({low + offset % (high - low + 1) for offset in offsets})


def assert_matches_reference(result, script, model, config, domain, context):
    reference = reference_analyze(
        trace_from_script(script, info_every=7), model, config, domain
    )
    assert_results_equal(reference, result, context)
    if domain != "level":
        assert_dags_equal(reference, result, context)


#: One rollback step: which live checkpoint (index mod count), the
#: alternative suffix, checkpoint offsets inside it, and whether to roll
#: back to the same checkpoint a second time (re-feeding the suffix
#: reversed).
_rollback_step = st.tuples(
    st.integers(0, 63),
    _script,
    st.lists(st.integers(0, 63), max_size=3),
    st.booleans(),
)

#: A same-line store run with checkpoints inside it, rolled back into the
#: run's middle and re-fed with a different tail.
_RUN_SCRIPT = [(0, S, slot % 8, True, False) for slot in range(12)] + [
    (1, S, 2, True, False),
    (0, B, 0),
]
_RUN_PLAN = [
    (1, [(0, S, 3, True, False)] * 5 + [(1, L, 3, True, False)], [2], True),
    (0, [(2, S, 7, True, False)] * 4, [1, 3], False),
]


@pytest.mark.usefixtures("precompute")
class TestCheckpointRollback:
    @settings(max_examples=30, deadline=None, **_FIXTURE_OK)
    @given(
        script=_script,
        marks=st.lists(st.integers(0, 63), max_size=4),
        plan=st.lists(_rollback_step, min_size=1, max_size=3),
        chunk_events=st.sampled_from([1, 3, 17, 64]),
        coalescing=st.booleans(),
        granularity=st.sampled_from([8, 64]),
    )
    @example(
        script=_RUN_SCRIPT,
        marks=[4, 9],
        plan=_RUN_PLAN,
        chunk_events=64,
        coalescing=True,
        granularity=64,
    )
    @example(
        script=_RUN_SCRIPT,
        marks=[4, 9],
        plan=_RUN_PLAN,
        chunk_events=5,
        coalescing=False,
        granularity=8,
    )
    def test_rollback_then_refeed_equals_fresh_analysis(
        self, script, marks, plan, chunk_events, coalescing, granularity
    ):
        config = AnalysisConfig(
            persist_granularity=granularity,
            tracking_granularity=granularity,
            coalescing=coalescing,
        )
        for model in MODELS:
            for domain in DOMAINS:
                self.replay(
                    script, marks, plan, chunk_events, model, config, domain
                )

    def replay(self, script, marks, plan, chunk_events, model, config, domain):
        context = f"({model}/{domain}/coalescing={config.coalescing})"
        analyzer = StreamingAnalyzer(model, config, domain=domain)
        analyzer.checkpoint()
        current = list(script)
        columnar = ColumnarTrace.from_trace(
            trace_from_script(current, info_every=7), chunk_events=chunk_events
        )
        analyzer.feed(
            columnar, checkpoint_at=positions(marks, 1, len(current))
        )
        assert_matches_reference(
            analyzer.finish(), current, model, config, domain, context
        )
        for choice, suffix, suffix_marks, again in plan:
            live = analyzer.checkpoints
            checkpoint = live[choice % len(live)]
            for tail in (suffix, suffix[::-1])[: 1 + again]:
                analyzer.rollback(checkpoint)
                start = checkpoint.events
                current = current[:start] + list(tail)
                trace = trace_from_script(current, info_every=7)
                analyzer.feed(
                    trace.events[start:],
                    checkpoint_at=positions(
                        suffix_marks, start + 1, len(current)
                    ),
                )
                assert_matches_reference(
                    analyzer.finish(), current, model, config, domain, context
                )


@pytest.mark.parametrize("domain", ["graph", "bitset"])
class TestRollbackTraps:
    """One regression per way a rollback can leave stale state behind."""

    def test_same_persist_count_new_writes_refresh_recovery_index(
        self, domain
    ):
        """A re-fed suffix with as many persists as the discarded one
        (so as many graph mutations) must not hit recovery's write-index
        cache, which is stamped with ``(len(nodes), _version)``."""
        prefix = [(0, S, P, 1)]
        first = build(prefix + [(0, S, P + 8, 2), (1, S, P + 16, 3)])
        second = build(prefix + [(1, S, P + 24, 4), (0, S, P + 8, 5)])
        config = AnalysisConfig(coalescing=False)
        analyzer = StreamingAnalyzer("epoch", config, domain=domain)
        analyzer.feed(first.events[:1])
        checkpoint = analyzer.checkpoint()
        graph = analyzer.feed(first.events[1:]).finish().graph
        full = (1 << len(graph.nodes)) - 1
        cut_content_key(graph, full)  # builds and caches the index
        version = graph._version
        analyzer.rollback(checkpoint)
        assert graph._version > version
        graph = analyzer.feed(second.events[1:]).finish().graph
        fresh = analyze_graph(second, "epoch", domain=domain).graph
        assert len(graph.nodes) == len(fresh.nodes) == 3
        assert cut_content_key(graph, full) == cut_content_key(fresh, full)
        base = NvramImage(P, 64)
        assert image_at_cut(graph, full, base).read_bytes(P, 32) == (
            image_at_cut(fresh, full, base).read_bytes(P, 32)
        )

    def test_checkpoint_with_node_sink_rejected(self, domain):
        analyzer = StreamingAnalyzer(
            "epoch", domain=domain, node_sink=lambda node: None
        )
        with pytest.raises(AnalysisError, match="node_sink"):
            analyzer.checkpoint()
        with pytest.raises(AnalysisError, match="node_sink"):
            analyzer.feed(build([(0, S, P, 1)]), checkpoint_at=[1])

    def test_foreign_and_discarded_checkpoints_rejected(self, domain):
        trace = build([(0, S, P, 1), (0, B), (0, S, P + 8, 2)])
        analyzer = StreamingAnalyzer("epoch", domain=domain)
        other = StreamingAnalyzer("epoch", domain=domain)
        with pytest.raises(AnalysisError, match="different"):
            analyzer.rollback(other.checkpoint())
        early = analyzer.checkpoint()
        analyzer.feed(trace, checkpoint_at=[2])
        late = analyzer.checkpoints[-1]
        assert late.events == 2
        analyzer.rollback(early)
        with pytest.raises(AnalysisError, match="discarded"):
            analyzer.rollback(late)
        assert analyzer.checkpoints == (early,)

    def test_survivor_closures_outlive_rollback(self, domain):
        """Rollback truncates the closure table; the frozenset domain
        keeps its data there, so clearing it would break leq/join."""
        trace = build(
            [(0, S, P, 1), (0, B), (0, S, P + 8, 2), (0, B), (0, S, P + 16, 3)]
        )
        analyzer = StreamingAnalyzer("epoch", domain=domain)
        analyzer.feed(trace.events[:3])
        checkpoint = analyzer.checkpoint()
        analyzer.feed(trace.events[3:]).finish()
        analyzer.rollback(checkpoint)
        graph = analyzer.domain
        assert len(graph.nodes) == 2
        assert graph.ancestors(1) == frozenset({0})
        assert graph.leq(graph.value_of(0), 1)
        assert not graph.leq(graph.value_of(1), 0)
        joined = graph.join(graph.value_of(0), graph.value_of(1))
        assert graph.leq(joined, 1)
        result = analyzer.feed(trace.events[3:]).finish()
        reference = reference_analyze(trace, "epoch", None, domain)
        assert_dags_equal(reference, result)

    def test_rollback_trims_coalesced_writes(self, domain):
        """Coalescing appends to a pending node's writes; rollback must
        cut them back even though the node itself survives."""
        config = AnalysisConfig(
            persist_granularity=64, tracking_granularity=64
        )
        coalescing = build([(0, S, P, 1), (0, S, P + 8, 2), (0, S, P + 16, 3)])
        other = build([(0, S, P, 1), (1, S, P + 256, 4)])
        analyzer = StreamingAnalyzer("strict", config, domain=domain)
        analyzer.feed(coalescing, checkpoint_at=[1])
        result = analyzer.finish()
        assert len(result.graph.nodes[0].writes) == 3
        analyzer.rollback(analyzer.checkpoints[0])
        result = analyzer.feed(other.events[1:]).finish()
        assert result.graph.nodes[0].writes == [(P, (1).to_bytes(8, "little"))]
        reference = reference_analyze(other, "strict", config, domain)
        assert_dags_equal(reference, result)

    def test_rollback_reopens_a_finished_analyzer(self, domain):
        trace = build([(0, S, P, 1), (0, B), (0, S, P + 8, 2)])
        analyzer = StreamingAnalyzer("epoch", domain=domain)
        checkpoint = analyzer.checkpoint()
        analyzer.feed(trace).finish()
        with pytest.raises(AnalysisError, match="finished"):
            analyzer.checkpoint()
        analyzer.rollback(checkpoint)
        assert analyzer.events_fed == 0
        assert_results_equal(
            reference_analyze(trace, "epoch", None, domain),
            analyzer.feed(trace).finish(),
        )

    def test_checkpoint_positions_validated(self, domain):
        trace = build([(0, S, P, 1), (0, B), (0, S, P + 8, 2)])
        analyzer = StreamingAnalyzer("epoch", domain=domain)
        with pytest.raises(AnalysisError, match="ascend"):
            analyzer.feed(trace, checkpoint_at=[2, 1])
        with pytest.raises(AnalysisError, match="beyond"):
            StreamingAnalyzer("epoch", domain=domain).feed(
                trace, checkpoint_at=[4]
            )
