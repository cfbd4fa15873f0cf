"""Tests for the fault-injection engine: determinism and fault semantics."""

import hashlib
import random

import pytest

from repro.core import analyze_graph
from repro.core.recovery import (
    FailureInjector,
    image_at_cut,
    minimal_cut,
    prefix_cut,
    sample_cut,
)
from repro.errors import FuzzError
from repro.inject import (
    FaultPlan,
    cut_salt,
    fault_kind_counts,
    materialize_faulty,
)
from repro.queue import run_insert_workload


@pytest.fixture(scope="module")
def case():
    result = run_insert_workload(
        design="cwl", threads=2, inserts_per_thread=3, seed=3
    )
    graph = analyze_graph(result.trace, "epoch").graph
    return graph, result.base_image


def image_bytes(image):
    return image.read_bytes(image.base, image.size)


def full_cut(graph):
    return frozenset(node.pid for node in graph.nodes)


PLANS = [
    FaultPlan(seed=11, torn=0.6),
    FaultPlan(seed=11, dropped=0.6),
    FaultPlan(seed=11, corrupt=3),
    FaultPlan(seed=11, torn=0.4, dropped=0.4, corrupt=2),
]


class TestDeterminism:
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: ",".join(p.kinds))
    def test_same_triple_same_image_and_faults(self, case, plan):
        graph, base = case
        cut = full_cut(graph)
        image_a, faults_a = materialize_faulty(graph, cut, base, plan)
        image_b, faults_b = materialize_faulty(graph, cut, base, plan)
        assert faults_a == faults_b
        assert image_bytes(image_a) == image_bytes(image_b)

    def test_different_seeds_diverge(self, case):
        graph, base = case
        cut = full_cut(graph)
        _, faults_a = materialize_faulty(
            graph, cut, base, FaultPlan(seed=1, torn=0.5)
        )
        _, faults_b = materialize_faulty(
            graph, cut, base, FaultPlan(seed=2, torn=0.5)
        )
        assert faults_a != faults_b

    def test_cut_salt_is_order_independent_and_stable(self):
        assert cut_salt([3, 1, 2]) == cut_salt((2, 3, 1))
        assert cut_salt([0, 1]) != cut_salt([0, 2])

    def test_empty_faults_means_identical_to_clean(self, case):
        graph, base = case
        cut = full_cut(graph)
        # Probability-0 faults can't fire, but the plan must still be
        # valid — use corrupt with an all-zero landed-write guard off.
        plan = FaultPlan(seed=0, torn=1e-12, max_faults=1)
        image, faults = materialize_faulty(graph, cut, base, plan)
        if not faults:
            clean = image_at_cut(graph, cut, base, check=False)
            assert image_bytes(image) == image_bytes(clean)


class TestSemantics:
    def test_invalid_plan_rejected(self, case):
        graph, base = case
        with pytest.raises(FuzzError):
            materialize_faulty(graph, full_cut(graph), base, FaultPlan())

    def test_torn_faults_change_the_image(self, case):
        graph, base = case
        cut = full_cut(graph)
        plan = FaultPlan(seed=5, torn=0.9, max_faults=8)
        image, faults = materialize_faulty(graph, cut, base, plan)
        assert faults
        assert all(fault.kind == "torn" for fault in faults)
        clean = image_at_cut(graph, cut, base, check=False)
        assert image_bytes(image) != image_bytes(clean)

    def test_maximal_drop_scope_never_drops_depended_on_persists(self, case):
        graph, base = case
        cut = full_cut(graph)
        for seed in range(40):
            plan = FaultPlan(seed=seed, dropped=0.8, drop_scope="maximal")
            _, faults = materialize_faulty(graph, cut, base, plan)
            dropped = {f.pid for f in faults if f.kind == "dropped"}
            for pid in cut:
                assert not (dropped & graph.ancestors(pid)), (
                    f"seed {seed}: dropped a persist pid {pid} depends on"
                )

    def test_any_drop_scope_can_drop_non_maximal_persists(self, case):
        graph, base = case
        cut = full_cut(graph)
        hit_non_maximal = False
        for seed in range(40):
            plan = FaultPlan(
                seed=seed, dropped=0.8, drop_scope="any", max_faults=16
            )
            _, faults = materialize_faulty(graph, cut, base, plan)
            dropped = {f.pid for f in faults if f.kind == "dropped"}
            for pid in cut:
                if dropped & graph.ancestors(pid):
                    hit_non_maximal = True
        assert hit_non_maximal

    def test_corrupt_flips_one_bit_per_fault(self, case):
        graph, base = case
        cut = full_cut(graph)
        plan = FaultPlan(seed=9, corrupt=1)
        image, faults = materialize_faulty(graph, cut, base, plan)
        assert fault_kind_counts(faults) == {"corrupt": 1}
        clean = image_at_cut(graph, cut, base, check=False)
        diff = [
            (a, b)
            for a, b in zip(image_bytes(image), image_bytes(clean))
            if a != b
        ]
        assert len(diff) == 1
        a, b = diff[0]
        assert bin(a ^ b).count("1") == 1

    def test_max_faults_caps_torn_and_dropped(self, case):
        graph, base = case
        cut = full_cut(graph)
        plan = FaultPlan(
            seed=3, torn=1.0, dropped=1.0, drop_scope="any", max_faults=2
        )
        _, faults = materialize_faulty(graph, cut, base, plan)
        counts = fault_kind_counts(faults)
        assert counts.get("torn", 0) + counts.get("dropped", 0) <= 2

    def test_injector_rejects_inconsistent_cuts(self, case):
        graph, base = case
        from repro.errors import RecoveryError

        injector = FailureInjector(graph, base)
        pids = sorted(node.pid for node in graph.nodes)
        latest = pids[-1]
        if graph.ancestors(latest):
            with pytest.raises(RecoveryError):
                injector.faulty_image_for(
                    {latest}, FaultPlan.for_kind("torn")
                )

    def test_injector_faulty_image_matches_engine(self, case):
        graph, base = case
        injector = FailureInjector(graph, base)
        cut = full_cut(graph)
        plan = FaultPlan.for_kind("corrupt", seed=4)
        via_injector, faults_a = injector.faulty_image_for(cut, plan)
        via_engine, faults_b = materialize_faulty(graph, cut, base, plan)
        assert faults_a == faults_b
        assert image_bytes(via_injector) == image_bytes(via_engine)


def _pinned_outcomes(graph, base, plan):
    """SHA-256 over (image bytes, faults) for a fixed family of cuts."""
    count = len(graph.nodes)
    rng = random.Random(plan.seed)
    cuts = [full_cut(graph)]
    cuts += [prefix_cut(graph, n) for n in range(1, count, 3)]
    cuts += [minimal_cut(graph, pid) for pid in range(0, count, 2)]
    cuts += [sample_cut(graph, rng, 0.7) for _ in range(6)]
    # Iteration order of the caller's cut must not matter.
    cuts.append(sorted(full_cut(graph), reverse=True))
    digest = hashlib.sha256()
    for cut in cuts:
        image, faults = materialize_faulty(graph, cut, base, plan)
        digest.update(image_bytes(image))
        for fault in faults:
            digest.update(
                f"{fault.kind}|{fault.pid}|{fault.addr}|{fault.detail}\n".encode()
            )
        digest.update(b"--\n")
    return digest.hexdigest()


PINNED_PLANS = [
    FaultPlan(seed=21, torn=0.5, max_faults=6),
    FaultPlan(seed=22, torn=0.7, tear_granularity=2),
    FaultPlan(seed=23, dropped=0.5, drop_scope="maximal"),
    FaultPlan(seed=24, dropped=0.6, drop_scope="any", max_faults=8),
    FaultPlan(seed=25, corrupt=4),
    FaultPlan(seed=26, corrupt=3, wear_bias=False),
    FaultPlan(seed=27, torn=0.4, dropped=0.4, corrupt=2, max_faults=5),
]

#: Exact digests for the fixed cut family.  The engine draws from its
#: RNG only for cut members, in ascending pid order, so a change to the
#: visiting order or to the draws moves a digest.
PINNED_DIGESTS = {
    0: "f5002159956ab8ba94b85d78f639df1c2456de79b0a157bd64fe8bc6bc4c155f",
    1: "526587246584cb45292d3fbac4b69c26bf306a7431654d3f15fe9a68de576817",
    2: "1241cc3d16b338c974fb8d8d5b3caf2bb4500c441fb1868d1802633be11d4273",
    3: "cadebfd854380cc95573f50c21c0a99d138e1e64841320742548312ca28bde0f",
    4: "59359f90f7095fe24c4663ee9244c7e600bd3b2422a69f17a75302201c0b4091",
    5: "c09cb36d439aa67748c6b3e6c7d317f89f830c90b062778f4e0a4b63595f6c11",
    6: "0ac13f6d6dd59e360acc1ef47e8a223cc44adbb589894889516d277cfc7abe48",
}


class TestPinnedOutcomes:
    @pytest.mark.parametrize(
        "index", range(len(PINNED_PLANS)), ids=lambda i: f"plan{i}"
    )
    def test_images_and_faults_match_pins(self, case, index):
        graph, base = case
        plan = PINNED_PLANS[index]
        assert _pinned_outcomes(graph, base, plan) == PINNED_DIGESTS[index]
