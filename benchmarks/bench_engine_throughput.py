"""Engine performance: simulator and analyzer throughput.

Library-performance benchmarks (not paper artifacts): events/second for
trace generation, scalar analysis per model, and the volatile makespan
model.  Regressions here make every experiment slower, so they are
tracked with pytest-benchmark like any kernel.
"""

import pytest

from repro.check import CheckConfig, check_target
from repro.core import AnalysisConfig, StreamingAnalyzer, analyze, analyze_graph
from repro.gpu.lanes import iter_lane_chunks
from repro.harness import DEFAULT_COST_MODEL
from repro.queue import run_insert_workload


def test_simulation_throughput(benchmark):
    result = benchmark.pedantic(
        lambda: run_insert_workload(
            design="cwl", threads=4, inserts_per_thread=50, seed=31
        ),
        rounds=3,
        iterations=1,
    )
    assert result.total_inserts == 200


def test_strict_analysis_throughput(runner, benchmark):
    trace = runner.workload("cwl", 8, False).trace
    result = benchmark(lambda: analyze(trace, "strict"))
    assert result.critical_path > 0


def test_strand_analysis_throughput(runner, benchmark):
    trace = runner.workload("cwl", 8, True).trace
    result = benchmark(lambda: analyze(trace, "strand"))
    assert result.critical_path > 0


def test_makespan_throughput(runner, benchmark):
    trace = runner.workload("2lc", 8, False).trace
    duration = benchmark(lambda: DEFAULT_COST_MODEL.makespan(trace))
    assert duration > 0


def test_bitset_graph_throughput(runner, benchmark):
    """The packed-bitset DAG domain — the analysis fast path."""
    trace = runner.workload("cwl", 8, False).trace
    result = benchmark(lambda: analyze_graph(trace, "epoch", domain="bitset"))
    assert result.critical_path > 0


def test_frozenset_graph_throughput(runner, benchmark):
    """The frozenset reference domain, for the speedup ratio."""
    trace = runner.workload("cwl", 8, False).trace
    result = benchmark(lambda: analyze_graph(trace, "epoch", domain="graph"))
    assert result.critical_path > 0


#: Streaming benchmark sizing: a 64-lane scoped gpu-lanes trace
#: (~63k events) at cache-line granularity — big enough that per-event
#: overhead dominates, small enough for pytest-benchmark rounds.
_STREAM_LANES = 64
_STREAM_CONFIG = AnalysisConfig(
    coalescing=True, persist_granularity=64, tracking_granularity=64
)


@pytest.fixture(scope="module")
def lane_chunks():
    return list(iter_lane_chunks(_STREAM_LANES, 109, 8, 32))


def _stream(chunks):
    analyzer = StreamingAnalyzer("epoch", _STREAM_CONFIG)
    for chunk in chunks:
        analyzer.feed(chunk)
    return analyzer.finish()


def test_streaming_columnar_throughput(lane_chunks, benchmark):
    """Chunked columnar analysis of a pre-encoded gpu-lanes trace."""
    result = benchmark(lambda: _stream(lane_chunks))
    assert result.critical_path > 0


#: Replay benchmark sizing: unreduced publish-pair tree, one model,
#: bounded cuts — execution cost dominates (see benchmarks/record.py).
_REPLAY_CHECK = dict(
    models=("epoch",),
    reduction="none",
    max_schedules=None,
    max_cuts_per_graph=64,
)


def test_check_share_replay_throughput(benchmark):
    """Checker with snapshot/restore prefix sharing on backtrack."""
    result = benchmark.pedantic(
        lambda: check_target(
            "publish-pair", 2, 8, CheckConfig(replay="share", **_REPLAY_CHECK)
        ),
        rounds=3,
        iterations=1,
    )
    assert not result.ok


def test_check_reexecute_replay_throughput(benchmark):
    """Checker re-executing every schedule from step 0 (the baseline)."""
    result = benchmark.pedantic(
        lambda: check_target(
            "publish-pair",
            2,
            8,
            CheckConfig(replay="reexecute", **_REPLAY_CHECK),
        ),
        rounds=3,
        iterations=1,
    )
    assert not result.ok
