"""Tests for the DPOR exploration engine itself.

The class counts asserted here are computable by hand: two threads of
``k`` fully independent steps form one Mazurkiewicz class; two threads
of ``k`` fully conflicting steps form ``C(2k, k)`` classes (one per
order of the conflicting stores) — the same count as the unreduced
interleavings, since nothing commutes.
"""

import math

import pytest

from repro.check import Engine, ExplorationLimitError
from repro.errors import ReproError
from repro.sim import Machine

from tests.check.helpers import (
    conflicting_factory,
    disjoint_factory,
    program_of,
    publish_pair_factory,
    run_of,
)


def explore_all(build, **kwargs):
    """Run an engine to exhaustion; return (engine, explored runs)."""
    engine = Engine(run_of(build), **kwargs)
    return engine, list(engine.explore())


class TestReductionNone:
    @pytest.mark.parametrize("ops", [1, 2, 3])
    def test_visits_every_interleaving(self, ops):
        """Each thread takes ops+1 scheduler steps, so the unreduced
        tree has C(2(ops+1), ops+1) complete schedules."""
        steps = ops + 1
        engine, runs = explore_all(disjoint_factory(ops), reduction="none")
        assert len(runs) == math.comb(2 * steps, steps)
        assert engine.stats.schedules == len(runs)
        assert engine.stats.sleep_blocked == 0

    def test_choices_are_distinct_and_replayable(self):
        engine, runs = explore_all(disjoint_factory(2), reduction="none")
        choices = {run.choices for run in runs}
        assert len(choices) == len(runs)
        assert all(run.index == i for i, run in enumerate(runs))

    def test_limit_raises_with_frontier_position(self):
        engine = Engine(
            run_of(disjoint_factory(3)), reduction="none", max_schedules=10
        )
        with pytest.raises(ExplorationLimitError) as excinfo:
            list(engine.explore())
        err = excinfo.value
        assert len(err.deepest_prefix) == err.max_depth > 0
        assert err.branching_max == 2
        assert err.nodes > 0


class TestReductionDpor:
    @pytest.mark.parametrize("ops", [1, 2, 3])
    def test_independent_threads_collapse_to_one_class(self, ops):
        engine, runs = explore_all(disjoint_factory(ops))
        assert len(runs) == 1
        # The engine never even found a race to backtrack on.
        assert engine.stats.races_detected == 0

    @pytest.mark.parametrize("ops", [1, 2])
    def test_conflicting_threads_keep_every_class(self, ops):
        """THREAD_BEGIN/END bookkeeping steps are independent, so the
        class count is the orders of the 2*ops conflicting stores."""
        engine, runs = explore_all(conflicting_factory(ops))
        assert len(runs) == math.comb(2 * ops, ops)

    def test_executions_bounded_by_unreduced_tree(self):
        """Sleep-blocked aborts never push total work past exhaustive."""
        engine, runs = explore_all(conflicting_factory(2))
        exhaustive = math.comb(6, 3)
        assert engine.stats.executions <= exhaustive
        assert engine.stats.executions == len(runs) + engine.stats.sleep_blocked

    def test_wakeup_race_still_explored(self):
        """The publish pair's second thread is WAITING until the flag
        store; its pending read must still race with that store, or the
        reduced exploration would miss schedules."""
        engine, runs = explore_all(publish_pair_factory(with_barrier=False))
        assert engine.stats.races_detected > 0
        none_engine, none_runs = explore_all(
            publish_pair_factory(with_barrier=False), reduction="none"
        )
        assert 1 <= len(runs) <= len(none_runs)

    def test_limit_applies_to_complete_schedules(self):
        engine = Engine(run_of(conflicting_factory(2)), max_schedules=3)
        with pytest.raises(ExplorationLimitError):
            list(engine.explore())


class TestEngineValidation:
    def test_unknown_reduction_rejected(self):
        with pytest.raises(ReproError, match="reduction"):
            Engine(run_of(disjoint_factory(1)), reduction="bogus")

    def test_stats_describe_is_json_safe(self):
        engine, _ = explore_all(disjoint_factory(1))
        payload = engine.stats.describe()
        assert payload["schedules"] == 1
        assert all(isinstance(v, int) for v in payload.values())


class TestForcedPrefix:
    def test_prefixes_partition_the_tree(self):
        """The subtrees under every depth-2 prefix tile the unreduced
        tree exactly: schedule counts sum and choice sets are disjoint."""
        from repro.check import enumerate_prefixes

        build = disjoint_factory(2)
        prefixes = enumerate_prefixes(run_of(build), 2)
        assert prefixes == [(0, 0), (0, 1), (1, 0), (1, 1)]
        total = 0
        seen = set()
        for prefix in prefixes:
            engine = Engine(
                run_of(build), reduction="none", forced_prefix=prefix
            )
            for explored in engine.explore():
                assert explored.choices[: len(prefix)] == prefix
                assert explored.choices not in seen
                seen.add(explored.choices)
                total += 1
        assert total == math.comb(6, 3)


def common_prefix(left, right):
    """Length of the longest common event prefix of two traces."""
    count = 0
    for a, b in zip(left, right):
        if a != b:
            break
        count += 1
    return count


class TestPrefixSharing:
    """The ``prefix``/``resume_points`` contract of shared replay."""

    def shared_runs(self, build):
        """Explore under sharing; keep a frozen copy of every trace."""
        engine = Engine(program_of(build), replay="share")
        runs = []
        for explored in engine.explore():
            runs.append((explored, list(explored.result[0])))
        return engine, runs

    @pytest.mark.parametrize(
        "build", [conflicting_factory(2), publish_pair_factory(False)]
    )
    def test_prefix_is_a_resume_point_of_the_previous_run(self, build):
        engine, runs = self.shared_runs(build)
        assert len(runs) > 1
        assert runs[0][0].prefix == 0
        for (before, old), (after, new) in zip(runs, runs[1:]):
            points = before.resume_points
            assert list(points) == sorted(set(points))
            assert all(0 <= point <= len(old) for point in points)
            # The next run rewinds to a position the previous run
            # reported, and shares at least that much of its trace.
            assert after.prefix in points
            assert after.prefix <= common_prefix(old, new)
        assert runs[-1][0].resume_points == ()

    def test_reexecute_reports_no_sharing(self):
        engine = Engine(run_of(conflicting_factory(2)), replay="reexecute")
        runs = list(engine.explore())
        assert len(runs) > 1
        assert all(run.prefix == 0 for run in runs)
        assert all(run.resume_points == () for run in runs)

    def test_prefix_is_the_shallowest_restore_since_the_last_yield(self):
        """Restores between two yields (sleep-set-blocked runs) can sit
        at different depths; everything past the shallowest one is
        gone, so that one is the shared prefix."""
        engine = Engine(program_of(conflicting_factory(2)), replay="share")
        runs = engine.explore()
        next(runs)
        engine._note_restore(1)  # a blocked run rewound to position 1
        second = next(runs)
        assert second.prefix == 1
        third = next(runs)
        assert third.prefix > 1

    def test_snapshots_only_at_branching_nodes(self, monkeypatch):
        counts = {"snapshots": 0, "branching": 0}
        snapshot = Machine.snapshot
        make_node = Engine._make_node

        def counting_snapshot(machine):
            counts["snapshots"] += 1
            return snapshot(machine)

        def counting_make_node(engine, machine, runnable, pinned):
            counts["branching"] += len(runnable) > 1
            return make_node(engine, machine, runnable, pinned)

        monkeypatch.setattr(Machine, "snapshot", counting_snapshot)
        monkeypatch.setattr(Engine, "_make_node", counting_make_node)
        engine, _ = self.shared_runs(conflicting_factory(2))
        assert counts["snapshots"] == counts["branching"] > 0
        assert counts["snapshots"] < engine.stats.nodes
