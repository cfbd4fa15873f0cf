"""Frontier sharing in the bitset DAG and the grouped cut paths.

``BitsetGraphDomain`` memoises each distinct dependency frontier's
``deps`` set, ancestor mask and level, and ``linear_extension_cut`` on a
mask-capable graph draws over persists grouped by frontier.  Both are
held to the frozenset ``GraphDomain`` and the set-based cut path: same
DAG, and the same cut for the same ``random.Random`` state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitsetGraphDomain,
    GraphDomain,
    analyze_graph,
    linear_extension_cut,
    minimal_cut,
)
from repro.core.bitgraph import mask_of
from repro.queue.workload import run_insert_workload
from tests.core.helpers import P, S, build


def feed(domain, dep_lists, start=0):
    """Persist one node per dependency list, joining through the domain."""
    for offset, deps in enumerate(dep_lists):
        seq = start + offset
        event = build([(seq % 3, S, P + 8 * seq, seq)])[0]
        value = domain.bottom
        for dep in deps:
            value = domain.join(value, domain.value_of(dep))
        domain.persist(value, event)
    return domain


def pair(dep_lists):
    """The same DAG built in the frozenset oracle and the bitset domain."""
    return feed(GraphDomain(), dep_lists), feed(BitsetGraphDomain(), dep_lists)


def assert_extension_cuts_agree(reference, bitset, seeds=range(20)):
    """Same seed, same RNG consumption, same cut on both paths."""
    for seed in seeds:
        ref_rng, bit_rng = random.Random(seed), random.Random(seed)
        assert linear_extension_cut(bitset, bit_rng) == linear_extension_cut(
            reference, ref_rng
        )
        assert bit_rng.getstate() == ref_rng.getstate()


@st.composite
def dags(draw):
    """Dependency lists, drawn mostly from a few shared frontiers.

    Each node either copies an earlier node's dependency list (a shared
    frontier) or draws a fresh subset of a small pool of early persists,
    so groups often complete on the same persist in one step.
    """
    size = draw(st.integers(0, 24))
    dep_lists = []
    for index in range(size):
        if dep_lists and draw(st.booleans()):
            dep_lists.append(draw(st.sampled_from(dep_lists)))
        else:
            pool = range(min(index, 5))
            dep_lists.append(
                sorted(draw(st.sets(st.sampled_from(pool), max_size=4)))
                if index
                else []
            )
    return dep_lists


class TestFrontierSharing:
    def test_repeated_frontiers_share_deps_and_ancestors(self):
        bitset = feed(BitsetGraphDomain(), [[], [], [0, 1], [0, 1], [1, 0]])
        shared = bitset.nodes[2].deps
        assert shared == {0, 1}
        assert bitset.nodes[3].deps is shared and bitset.nodes[4].deps is shared
        assert bitset.ancestor_mask(4) == bitset.ancestor_mask(2) == 0b11
        assert bitset.levels() == [1, 1, 2, 2, 2]

    @settings(max_examples=80, deadline=None)
    @given(dep_lists=dags())
    def test_dag_equals_oracle(self, dep_lists):
        reference, bitset = pair(dep_lists)
        assert [n.deps for n in bitset.nodes] == [n.deps for n in reference.nodes]
        assert bitset.levels() == reference.levels()
        assert bitset.level_histogram() == reference.level_histogram()

    def test_rollback_forgets_memoised_levels(self):
        # Before the rollback, pid 1 sits at level 2 and frontier {1}
        # is memoised at level 3; re-fed as a root, pid 1 is at level 1.
        bitset = feed(BitsetGraphDomain(), [[]])
        checkpoint = bitset.checkpoint(())
        feed(bitset, [[0], [1]], start=1)
        assert bitset.levels() == [1, 2, 3]
        bitset.rollback(checkpoint)
        feed(bitset, [[], [1]], start=1)
        oracle = feed(GraphDomain(), [[], [], [1]])
        assert bitset.levels() == oracle.levels() == [1, 1, 2]
        assert bitset.level_histogram() == oracle.level_histogram()
        assert bitset.critical_path() == oracle.critical_path()
        assert bitset.ancestor_mask(2) == mask_of(oracle.ancestors(2))


class TestMinimalCutSweep:
    def test_sweep_memoises_nothing_and_equals_oracle(self):
        workload = run_insert_workload(design="2lc", threads=2, inserts_per_thread=4)
        for model in ("epoch", "strand"):
            bitset = analyze_graph(workload.trace, model, domain="bitset").graph
            reference = analyze_graph(workload.trace, model, domain="graph").graph
            cuts = [minimal_cut(bitset, pid) for pid in range(len(bitset.nodes))]
            assert bitset._closure == {}
            assert cuts == [
                minimal_cut(reference, pid) for pid in range(len(reference.nodes))
            ]


class TestGroupedExtensionCut:
    @settings(max_examples=150, deadline=None)
    @given(dep_lists=dags())
    def test_equals_set_path(self, dep_lists):
        reference, bitset = pair(dep_lists)
        assert_extension_cuts_agree(reference, bitset, seeds=range(6))

    @pytest.mark.parametrize(
        "dep_lists",
        [
            [],
            [[]] * 9,
            [[]] + [[pid] for pid in range(11)],
            # Groups {0,1} and {0,2} (members interleaved in pid order)
            # both complete when their last dependency lands.
            [[], [], [], [0, 1], [0, 2], [0, 1], [0, 2], [1, 2], [0, 1, 2]],
            # A wide shared frontier: five roots, then many nodes on all
            # of them and on overlapping subsets.
            [[]] * 5 + [[0, 1, 2, 3, 4], [0, 1], [2, 3, 4]] * 4 + [[9, 10]],
        ],
        ids=["empty", "all-roots", "chain", "zero-together", "wide"],
    )
    def test_shapes_equal_set_path(self, dep_lists):
        reference, bitset = pair(dep_lists)
        assert_extension_cuts_agree(reference, bitset, seeds=range(40))

    @pytest.mark.parametrize("model", ("strict", "epoch", "strand"))
    def test_2lc_traces_equal_set_path(self, model):
        workload = run_insert_workload(
            design="2lc", threads=3, inserts_per_thread=4, seed=7
        )
        reference = analyze_graph(workload.trace, model, domain="graph").graph
        bitset = analyze_graph(workload.trace, model, domain="bitset").graph
        assert_extension_cuts_agree(reference, bitset)

    def test_index_rebuilt_after_persist(self):
        dep_lists = [[], [], [0, 1], [0, 1], [2]]
        reference, bitset = pair(dep_lists)
        assert_extension_cuts_agree(reference, bitset)
        feed(reference, [[3, 4], []], start=len(dep_lists))
        feed(bitset, [[3, 4], []], start=len(dep_lists))
        assert_extension_cuts_agree(reference, bitset)

    def test_index_rebuilt_after_rollback(self):
        # The re-fed suffix keeps the persist count, so only the version
        # stamp tells the cached index apart.
        bitset = feed(BitsetGraphDomain(), [[], []])
        checkpoint = bitset.checkpoint(())
        feed(bitset, [[0, 1], [0, 1], [2]], start=2)
        assert_extension_cuts_agree(
            feed(GraphDomain(), [[], [], [0, 1], [0, 1], [2]]), bitset
        )
        bitset.rollback(checkpoint)
        feed(bitset, [[], [0], [3]], start=2)
        assert_extension_cuts_agree(
            feed(GraphDomain(), [[], [], [], [0], [3]]), bitset
        )
