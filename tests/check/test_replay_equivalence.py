"""Prefix-sharing replay vs. from-scratch re-execution: exact agreement.

Snapshot/restore is only admissible because it is *invisible*: the
engine must visit the same schedules, analyze the same DAGs, check the
same cuts, and report the identical violation set whether it restores
the deepest common prefix or re-executes every schedule from step 0.
These tests pin that on the issue's three equivalence targets —
publish-pair, CWL, and the paper-faithful 2LC queue (via the repo's
usual violating-subtree idiom to keep the 2LC tree small) — and across
the analysis domains.  The checker analyzes each schedule incrementally
(rolling per-model analyzers back to the shared prefix), so the last
tests diff every schedule's DAG against a from-scratch analysis.
"""

import pytest

from repro.check import CheckConfig, Engine, check_target
from repro.core.analysis import StreamingAnalyzer, analyze_graph
from repro.core.bitgraph import BitsetGraphDomain

MODELS = ("strict", "epoch", "strand")


def run_modes(target, threads, ops, **overrides):
    """The same check under every replay mode (plus the oracle domain)."""
    results = {}
    for replay in ("share", "reexecute"):
        config = CheckConfig(
            models=MODELS, max_schedules=None, replay=replay, **overrides
        )
        results[replay] = check_target(target, threads, ops, config)
    results["oracle"] = check_target(
        target,
        threads,
        ops,
        CheckConfig(
            models=MODELS,
            max_schedules=None,
            replay="reexecute",
            graph_domain="graph",
            **overrides,
        ),
    )
    return results


def assert_identical(results):
    """Same violations, same work counters, across all modes."""
    baseline = results["reexecute"]
    for result in results.values():
        assert sorted(result.distinct) == sorted(baseline.distinct)
        assert result.stats.describe() == baseline.stats.describe()
        for key, violation in result.distinct.items():
            assert violation.describe() == baseline.distinct[key].describe()
    return baseline


def test_publish_pair_identical():
    baseline = assert_identical(run_modes("publish-pair", 2, 2))
    # The missing barrier must surface under the relaxed models only.
    models = {key[0] for key in baseline.distinct}
    assert models == {"epoch", "strand"}


def test_queue_cwl_identical_and_clean():
    baseline = assert_identical(run_modes("queue-cwl", 2, 1))
    assert baseline.ok
    assert baseline.stats.schedules > 1


def test_queue_2lc_faithful_identical_on_violating_subtree():
    first = check_target(
        "queue-2lc-faithful",
        2,
        1,
        CheckConfig(models=MODELS, max_schedules=None, stop_at_first=True),
    )
    assert not first.ok
    prefix = first.violations[0].choices[:-8]
    baseline = assert_identical(
        run_modes("queue-2lc-faithful", 2, 1, forced_prefix=tuple(prefix))
    )
    assert not baseline.ok
    models = {key[0] for key in baseline.distinct}
    assert models <= {"epoch", "strand"} and models


def test_flush_target_identical_under_x86_models():
    """Prefix-sharing replay must also be invisible on traces carrying
    the x86 flush family (flush entries drain through the store buffer,
    so restored snapshots must reproduce buffered-flush state exactly).
    The missing commit fence surfaces under px86 but never dpox86."""
    results = {}
    for replay in ("share", "reexecute"):
        results[replay] = check_target(
            "publish-clflushopt-nofence",
            1,
            1,
            CheckConfig(
                models=("strict", "px86", "dpox86"),
                max_schedules=None,
                replay=replay,
            ),
        )
    results["oracle"] = check_target(
        "publish-clflushopt-nofence",
        1,
        1,
        CheckConfig(
            models=("strict", "px86", "dpox86"),
            max_schedules=None,
            replay="reexecute",
            graph_domain="graph",
        ),
    )
    baseline = assert_identical(results)
    assert not baseline.ok
    models = {key[0] for key in baseline.distinct}
    assert models == {"px86"}


def test_clwb_target_clean_under_x86_models():
    """The fenced clwb publish is clean under the whole x86 family —
    in both replay modes."""
    for replay in ("share", "reexecute"):
        result = check_target(
            "publish-clwb",
            1,
            1,
            CheckConfig(
                models=("strict", "px86", "dpox86"),
                max_schedules=None,
                replay=replay,
            ),
        )
        assert result.ok


def test_share_is_default_for_targets():
    """With no explicit replay, target programs get prefix sharing —
    and still match an explicit re-execution run."""
    default = check_target(
        "publish-pair", 2, 1, CheckConfig(models=MODELS, max_schedules=None)
    )
    explicit = check_target(
        "publish-pair",
        2,
        1,
        CheckConfig(models=MODELS, max_schedules=None, replay="reexecute"),
    )
    assert sorted(default.distinct) == sorted(explicit.distinct)
    assert default.stats.describe() == explicit.stats.describe()


# -- incremental analysis vs. from-scratch analysis --------------------------


def dag_record(result):
    """Everything a checked DAG exposes, as comparable plain data."""
    graph = result.graph
    record = {
        "nodes": [
            (node.pid, node.thread, node.first_seq, node.deps, node.writes)
            for node in graph.nodes
        ],
        "levels": graph.levels(),
        "fields": (
            result.model,
            result.critical_path,
            result.persist_count,
            result.persist_stores,
            result.coalesced,
            result.events,
            result.barriers,
            result.strands,
            result.level_histogram,
            result.block_writes,
        ),
    }
    if isinstance(graph, BitsetGraphDomain):
        record["dep_masks"] = list(graph.dep_masks)
        record["anc"] = [
            graph.ancestor_mask(pid) for pid in range(len(graph.nodes))
        ]
    return record


@pytest.fixture
def scratch_diff(monkeypatch):
    """Compare every DAG the checker finishes with a from-scratch
    ``analyze_graph`` of the same schedule's trace; returns the count of
    comparisons made."""
    current = {}
    compared = []
    explore = Engine.explore
    finish = StreamingAnalyzer.finish

    def recording(engine):
        for explored in explore(engine):
            current["trace"] = explored.result.trace
            yield explored

    def checked_finish(analyzer):
        result = finish(analyzer)
        if current.get("busy"):
            return result
        current["busy"] = True
        try:
            bitset = isinstance(result.graph, BitsetGraphDomain)
            domain = "bitset" if bitset else "graph"
            fresh = analyze_graph(
                current["trace"], result.model, domain=domain
            )
        finally:
            current["busy"] = False
        assert dag_record(result) == dag_record(fresh), (
            f"incremental DAG diverged ({result.model}/{domain}, "
            f"{len(current['trace'])} events)"
        )
        compared.append(result.model)
        return result

    monkeypatch.setattr(Engine, "explore", recording)
    monkeypatch.setattr(StreamingAnalyzer, "finish", checked_finish)
    return compared


def run_diffed(compared, target, threads, ops, models, **overrides):
    """Share and reexecute runs, each DAG diffed; their stats must match."""
    results = {}
    for replay in ("share", "reexecute"):
        before = len(compared)
        results[replay] = check_target(
            target,
            threads,
            ops,
            CheckConfig(
                models=models, max_schedules=None, replay=replay, **overrides
            ),
        )
        assert len(compared) - before == results[replay].stats.dags_analyzed
    share, reexecute = results["share"], results["reexecute"]
    assert share.stats.describe() == reexecute.stats.describe()
    assert sorted(share.distinct) == sorted(reexecute.distinct)
    return share


@pytest.mark.parametrize("graph_domain", ["bitset", "graph"])
def test_incremental_dags_match_scratch_on_2lc_subtree(
    scratch_diff, graph_domain
):
    first = check_target(
        "queue-2lc-faithful",
        2,
        1,
        CheckConfig(models=MODELS, max_schedules=None, stop_at_first=True),
    )
    # A shallower fence than above: the 8-step tail has no branch left,
    # and rollback needs a subtree with many schedules to exercise.
    prefix = tuple(first.violations[0].choices[:-60])
    result = run_diffed(
        scratch_diff,
        "queue-2lc-faithful",
        2,
        1,
        MODELS,
        forced_prefix=prefix,
        graph_domain=graph_domain,
    )
    assert not result.ok
    assert result.stats.schedules > 1


@pytest.mark.parametrize("graph_domain", ["bitset", "graph"])
def test_incremental_dags_match_scratch_across_sleep_set_aborts(
    scratch_diff, graph_domain
):
    """Blocked runs restore between yields: the reported prefix must be
    the shallowest of those restores, or stale checkpoints survive."""
    result = run_diffed(
        scratch_diff, "queue-cwl", 3, 1, MODELS, graph_domain=graph_domain
    )
    assert result.ok
    assert result.stats.sleep_blocked > 0


@pytest.mark.parametrize("graph_domain", ["bitset", "graph"])
def test_incremental_dags_match_scratch_under_x86_models(
    scratch_diff, graph_domain
):
    result = run_diffed(
        scratch_diff,
        "publish-clwb",
        1,
        1,
        ("strict", "px86", "dpox86"),
        graph_domain=graph_domain,
    )
    assert result.ok
