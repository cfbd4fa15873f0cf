"""One benchmark pass of one workload, run in a fresh interpreter.

``python3 perfbench/workloads.py --workload NAME --seed N --started T``
sets up the workload's inputs from the seed, times one pass through the
program's public entry points, checks the pass's outputs against
``expected.json`` and prints one JSON line with the measurements.
``perfbench/run.py`` starts one such process per pass, so every pass
begins with a cold interpreter and reports its own peak RSS.

``--trace`` wraps the layer boundaries with :class:`tracer.Tracer`
spans and adds the per-layer metrics; ``--setup-only`` stops before the
first timed call (setup-time samples).

The workloads, and why each was chosen, are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402

from repro.check import checker  # noqa: E402
from repro.check.engine import Engine  # noqa: E402
from repro.core import analysis, recovery  # noqa: E402
from repro.errors import RecoveryError  # noqa: E402
from repro.fuzz import campaign, minimize, targets  # noqa: E402
from repro.fuzz.corpus import Corpus  # noqa: E402
from repro.gpu.bench import peak_rss_kb  # noqa: E402
from repro.queue import recovery as queue_recovery  # noqa: E402
from repro.queue import workload as queue_workload  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402
from repro.sim.scheduler import ReplayableScheduler  # noqa: E402

#: The buggy 2LC queue (the paper's printed pseudo-code) as a fuzz target.
TARGET = "queue-2lc-faithful"

#: insert-pipeline: the minimal-cut sweep visits every
#: (persists // MINIMAL_CUTS)-th persist of each exact DAG (21 cuts on
#: 14,994 persists).  It is strided because the bitset DAG memoises one
#: frozenset of ancestors per visited persist, so memory grows with cuts
#: visited (see README.md, "Defects this benchmark shows").
MINIMAL_CUTS = 20

#: insert-pipeline: random linear-extension cuts per exact DAG.
EXTENSION_CUTS = 5


class CheckPass:
    """check-2lc: exhaustive DPOR model check of a 2-thread, 1-op 2LC.

    The search is exhaustive and deterministic, so the seed is unused.
    """

    def __init__(self, seed: int) -> None:
        targets.make_target(TARGET)
        self.config = checker.CheckConfig()
        self.trace_events = 0
        self.result = None

    def run(self) -> None:
        # Count the events of every explored schedule's trace; the check
        # result keeps no traces.  A pass-through of ~10k yields.
        explore = Engine.explore

        def counting(engine):
            for explored in explore(engine):
                self.trace_events += len(explored.result.trace)
                yield explored

        Engine.explore = counting
        try:
            self.result = checker.check_target(
                TARGET, threads=2, ops=1, config=self.config
            )
        finally:
            Engine.explore = explore

    def observe(self) -> Dict[str, object]:
        stats = self.result.stats
        return {
            "schedules": stats.schedules,
            "executions": stats.executions,
            "sleep_blocked": stats.sleep_blocked,
            "dags_analyzed": stats.dags_analyzed,
            "dags_deduped": stats.dags_deduped,
            "cuts_checked": stats.cuts_checked,
            "cuts_imaged": stats.cuts_imaged,
            "distinct_violations": len(self.result.distinct),
            "violating_models": sorted(
                {violation.model for violation in self.result.distinct.values()}
            ),
            "trace_events": self.trace_events,
        }

    def work(self, observed) -> Dict[str, int]:
        return {"cases": observed["schedules"], "events": observed["trace_events"]}


class FuzzPass:
    """fuzz-2lc: a 1,000-case campaign on one process, then minimization."""

    BUDGET = 1000

    def __init__(self, seed: int) -> None:
        self.config = campaign.CampaignConfig(
            target=TARGET, budget=self.BUDGET, seed=seed, jobs=1
        )
        self.config.validate()
        self.result = None
        self.minimized = []

    def run(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.corpus_dir = tempfile.TemporaryDirectory(dir=OUT, prefix="corpus-")
        self.corpus = Corpus(self.corpus_dir.name)
        self.result = campaign.run_campaign(self.config)
        self.minimized = minimize.minimize_findings(self.result, corpus=self.corpus)

    def observe(self) -> Dict[str, object]:
        result = self.result
        # Replay from the corpus files, so a finding that never reached
        # the corpus counts as unreplayed too.
        try:
            replayed = sum(
                1 for _, replay in self.corpus.replay_all() if replay.reproduced
            )
        finally:
            self.corpus_dir.cleanup()
        return {
            "cases": result.cases,
            "events": sum(outcome.events for outcome in result.outcomes),
            "cuts_checked": result.cuts_checked,
            "violations": result.violations,
            "violating_cases": result.violating_cases,
            "failed_cases": result.failed_cases,
            "minimized_findings": len(self.minimized),
            "minimize_probes": sum(item.stats.runs for item in self.minimized),
            "unreplayed_findings": len(self.minimized) - replayed,
        }

    def work(self, observed) -> Dict[str, int]:
        return {"cases": observed["cases"], "events": observed["events"]}


class InsertPass:
    """insert-pipeline: one 8-thread, 1,000-insert 2LC run, end to end."""

    MODELS = ("strict", "epoch", "strand")
    DAG_MODELS = ("epoch", "strand")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = queue_workload.WorkloadConfig(
            design="2lc", threads=8, inserts_per_thread=125, seed=seed
        )
        self.config.validate()
        self.workload = None
        self.table1: Dict[str, int] = {}
        self.exact: Dict[str, int] = {}
        self.persists: Dict[str, int] = {}
        self.images = 0
        self.violations = 0

    def run(self) -> None:
        workload = queue_workload.run_insert_workload(self.config)
        trace = workload.trace
        self.table1 = {
            model: analysis.analyze(trace, model).critical_path
            for model in self.MODELS
        }
        for model in self.DAG_MODELS:
            result = analysis.analyze_graph(trace, model, domain="bitset")
            self.exact[model] = result.critical_path
            injector = recovery.FailureInjector(result.graph, workload.base_image)
            self.persists[model] = injector.persist_count
            step = max(1, injector.persist_count // MINIMAL_CUTS)
            for source in (
                injector.minimal_images(step=step),
                injector.extension_images(EXTENSION_CUTS, seed=self.seed),
            ):
                for _, image in source:
                    self.images += 1
                    try:
                        queue_recovery.verify_recovery(
                            image, workload.queue.base, workload.expected
                        )
                    except RecoveryError:
                        self.violations += 1
        self.workload = workload

    def observe(self) -> Dict[str, object]:
        trace = self.workload.trace
        level = {
            model: analysis.analyze(
                trace, model, analysis.AnalysisConfig(coalescing=False)
            ).critical_path
            for model in self.MODELS
        }
        return {
            "events": len(trace),
            "persists": self.persists,
            "coalesced_critical_path": self.table1,
            "level_critical_path": level,
            "exact_level_mismatches": sorted(
                model for model in self.DAG_MODELS if self.exact[model] != level[model]
            ),
            "images": self.images,
            "recovery_violations": self.violations,
        }

    def work(self, observed) -> Dict[str, int]:
        return {"cases": 1, "events": observed["events"]}


PASSES = {
    "check-2lc": CheckPass,
    "fuzz-2lc": FuzzPass,
    "insert-pipeline": InsertPass,
}


# -- checking outputs ---------------------------------------------------------


def load_expected() -> Dict[str, object]:
    """``expected.json``: per workload, values for every seed and pins per seed."""
    with open(HERE / "expected.json", encoding="utf-8") as stream:
        return json.load(stream)


def compare(workload: str, seed: int, observed: Dict[str, object], expected) -> List[str]:
    """Every way ``observed`` misses ``expected``; empty when the pass is correct.

    An expected value ``{"min": n}`` is a lower bound; any other value
    must match exactly.  ``every_seed`` applies to all seeds; ``seeds``
    pins further values for the seeds listed.
    """
    entry = expected[workload]
    wanted = dict(entry["every_seed"])
    wanted.update(entry.get("seeds", {}).get(str(seed), {}))
    failures = []
    for key, value in sorted(wanted.items()):
        if key not in observed:
            failures.append(f"{workload} seed {seed}: {key} was not observed")
        elif isinstance(value, dict) and set(value) == {"min"}:
            if not observed[key] >= value["min"]:
                failures.append(
                    f"{workload} seed {seed}: {key} = {observed[key]!r}, "
                    f"expected at least {value['min']!r}"
                )
        elif observed[key] != value:
            failures.append(
                f"{workload} seed {seed}: {key} = {observed[key]!r}, "
                f"expected {value!r}"
            )
    return failures


# -- tracing -------------------------------------------------------------------


def _add(counter: str):
    """A count hook adding one to ``counter`` per call."""

    def count(tracer, args, kwargs, result):
        tracer.counts[counter] += 1

    return count


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary named in README.md's per-layer table.

    Each function is wrapped at the attribute its caller resolves it
    through, so module globals are wrapped in the calling module.
    """
    tracer.wrap(Machine, "__init__", "sim.build", count=_add("sim.builds"))
    tracer.wrap(Machine, "spawn", "sim.build")

    # Machine exposes no step counter, so the wrapper reads ``_steps``.
    def counting_run(run):
        def counted(machine, *args, **kwargs):
            steps, events = machine._steps, len(machine.trace)
            try:
                return run(machine, *args, **kwargs)
            finally:
                tracer.counts["sim.steps"] += machine._steps - steps
                tracer.counts["sim.events"] += len(machine.trace) - events

        return counted

    tracer.replace(Machine, "run", counting_run)
    tracer.wrap(Machine, "run", "sim.run")
    tracer.wrap(Machine, "snapshot", "sim.snapshot", count=_add("sim.snapshots"))
    tracer.wrap(Machine, "restore", "sim.restore", count=_add("sim.restores"))
    tracer.wrap(
        ReplayableScheduler, "pick", "check.engine.choose",
        count=_add("check.engine.choices"),
    )

    tracer.wrap(analysis.StreamingAnalyzer, "feed", "core.analysis")
    tracer.wrap(
        analysis.StreamingAnalyzer, "finish", "core.analysis",
        count=lambda t, a, k, result: t.counts.update(
            {"core.analysis.calls": 1, "core.analysis.events": result.events}
        ),
    )
    tracer.wrap(
        checker, "canonical_dag_key", "check.canonical",
        count=_add("check.canonical.keys"),
    )

    for module, name in (
        (checker, "minimal_cut"),
        (checker, "minimal_cut_mask"),
        (minimize, "minimal_cut"),
        (recovery, "minimal_cut"),
        (recovery, "linear_extension_cut"),
        (recovery, "sample_cut"),
        (recovery, "prefix_cut"),
        (recovery, "full_cut"),
    ):
        tracer.wrap(module, name, "core.recovery.cut", count=_add("core.recovery.cuts"))
    for name in ("enumerate_cut_masks", "enumerate_cuts"):
        tracer.wrap_generator(checker, name, "core.recovery.cut", "core.recovery.cuts")
    tracer.wrap(
        checker, "cut_content_key", "core.recovery.key",
        count=_add("core.recovery.keys"),
    )
    for module in (checker, minimize, recovery):
        tracer.wrap(
            module, "image_at_cut", "core.recovery.image",
            count=_add("core.recovery.images"),
        )

    def violation(tracer, exc):
        # A violation raises, so it is a check too.
        tracer.counts["judge.checks"] += 1
        if isinstance(exc, RecoveryError):
            tracer.counts["judge.violations"] += 1

    for module in (targets, queue_recovery):
        tracer.wrap(
            module, "verify_recovery", "judge",
            count=_add("judge.checks"), on_error=violation,
        )

    tracer.wrap(campaign, "run_case", "fuzz.case", count=_add("fuzz.cases"))
    tracer.wrap(minimize, "minimize_findings", "fuzz.minimize")


def _percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (0 when there are no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, observed: Dict[str, object]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    own = tracer.self_times()
    counts = tracer.counts
    seconds = lambda name: own.get(name, 0.0)  # noqa: E731
    case_ms = [1000.0 * value for value in tracer.durations("fuzz.case")]
    distinct = observed.get("dags_analyzed", 0) - observed.get("dags_deduped", 0)
    return {
        "sim.build_s": seconds("sim.build"),
        "sim.builds": counts["sim.builds"],
        "sim.run_s": seconds("sim.run"),
        "sim.steps": counts["sim.steps"],
        "sim.events": counts["sim.events"],
        "sim.events_per_s": _ratio(counts["sim.events"], seconds("sim.run")),
        "sim.snapshot_s": seconds("sim.snapshot"),
        "sim.snapshots": counts["sim.snapshots"],
        "sim.restore_s": seconds("sim.restore"),
        "sim.restores": counts["sim.restores"],
        "check.engine.choose_s": seconds("check.engine.choose"),
        "check.engine.choices": counts["check.engine.choices"],
        "check.engine.schedules": observed.get("schedules", 0),
        "check.engine.executions": observed.get("executions", 0),
        "check.engine.sleep_blocked": observed.get("sleep_blocked", 0),
        "core.analysis.s": seconds("core.analysis"),
        "core.analysis.calls": counts["core.analysis.calls"],
        "core.analysis.events": counts["core.analysis.events"],
        "core.analysis.events_per_s": _ratio(
            counts["core.analysis.events"], seconds("core.analysis")
        ),
        "check.canonical.s": seconds("check.canonical"),
        "check.canonical.keys": counts["check.canonical.keys"],
        "check.canonical.distinct": distinct,
        "check.canonical.distinct_ratio": _ratio(distinct, counts["check.canonical.keys"]),
        "core.recovery.cut_s": seconds("core.recovery.cut"),
        "core.recovery.cuts": counts["core.recovery.cuts"],
        "core.recovery.key_s": seconds("core.recovery.key"),
        "core.recovery.keys": counts["core.recovery.keys"],
        "core.recovery.image_s": seconds("core.recovery.image"),
        "core.recovery.images": counts["core.recovery.images"],
        "core.recovery.image_ratio": _ratio(
            counts["core.recovery.images"], counts["core.recovery.cuts"]
        ),
        "judge.s": seconds("judge"),
        "judge.checks": counts["judge.checks"],
        "judge.violations": counts["judge.violations"],
        "fuzz.case_p50_ms": _percentile(case_ms, 0.50),
        "fuzz.case_p99_ms": _percentile(case_ms, 0.99),
        "fuzz.cases": counts["fuzz.cases"],
        "fuzz.failed_cases": observed.get("failed_cases", 0),
        "fuzz.violating_ratio": _ratio(
            observed.get("violating_cases", 0), counts["fuzz.cases"]
        ),
        "fuzz.minimize.s": sum(tracer.durations("fuzz.minimize"), 0.0),
        "fuzz.minimize.findings": observed.get("minimized_findings", 0),
        "fuzz.minimize.probes": observed.get("minimize_probes", 0),
        # Time in no layer's span: the pass's own code, and the fuzz
        # stages' code outside the layers they call.
        "bench.other_s": sum(
            seconds(name) for name in ("bench.pass", "fuzz.case", "fuzz.minimize")
        ),
    }


# -- one pass ------------------------------------------------------------------


def run_pass(workload: str, seed: int, started: float, trace: bool, setup_only: bool):
    """Set up, time and check one pass; returns its JSON-safe record."""
    bench = PASSES[workload](seed)
    setup_s = time.monotonic() - started
    if setup_only:
        return {"setup_s": setup_s}
    tracer = None
    if trace:
        tracer = Tracer(pass_id=f"{workload}-seed{seed}-{time.time_ns()}")
        instrument(tracer)
        root = tracer.open("bench.pass")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    begin = time.perf_counter()
    bench.run()
    verdict_s = time.perf_counter() - begin
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
    observed = bench.observe()
    record = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "peak_rss_kb": peak_rss_kb(),
        "minor_faults": faults,
        "observed": observed,
        "failures": compare(workload, seed, observed, load_expected()),
        **bench.work(observed),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, observed)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}.json.gz"
        tracer.dump(path)
        record["spans"] = tracer.span_count()
        record["spans_file"] = str(path.relative_to(ROOT))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--started", type=float, default=None,
        help="time.monotonic() when the parent started this interpreter",
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic() if args.started is None else args.started
    record = run_pass(args.workload, args.seed, started, args.trace, args.setup_only)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
