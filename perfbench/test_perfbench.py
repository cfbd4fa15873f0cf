"""Tests of the benchmark itself: output checks, the tracer, the command.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
The command tests run real insert-pipeline passes (a few seconds each).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _pinned(workload, seed):
    """An observation that meets every expectation for ``seed``."""
    entry = workloads.load_expected()[workload]
    observed = {}
    for key, value in {**entry["every_seed"], **entry["seeds"].get(str(seed), {})}.items():
        observed[key] = value["min"] if isinstance(value, dict) and set(value) == {"min"} else value
    return observed


@pytest.mark.parametrize(
    "workload, seed", [("check-2lc", 3), ("fuzz-2lc", 0), ("insert-pipeline", 1)]
)
def test_a_wrong_expected_value_is_reported(workload, seed):
    expected = workloads.load_expected()
    observed = _pinned(workload, seed)
    assert workloads.compare(workload, seed, observed, expected) == []
    for key in observed:
        wrong = copy.deepcopy(expected)
        pins = wrong[workload]["seeds"].get(str(seed), {})
        (pins if key in pins else wrong[workload]["every_seed"])[key] = {"not": "this"}
        failures = workloads.compare(workload, seed, observed, wrong)
        assert len(failures) == 1 and key in failures[0]


def test_lower_bounds_and_missing_observations():
    expected = {"w": {"every_seed": {"found": {"min": 1}, "lost": 0}}}
    assert workloads.compare("w", 0, {"found": 3, "lost": 0}, expected) == []
    assert workloads.compare("w", 0, {"found": 0, "lost": 0}, expected) != []
    assert workloads.compare("w", 0, {"found": 3}, expected) == [
        "w seed 0: lost was not observed"
    ]


def test_self_time_excludes_child_spans_and_uninstall_restores():
    layer = types.SimpleNamespace()
    layer.inner = lambda: sum(range(20000))
    layer.outer = lambda: [layer.inner() for _ in range(3)]
    original = layer.outer
    tracer = Tracer("test")
    tracer.wrap(layer, "inner", "inner", count=lambda t, a, k, r: t.counts.update(["n"]))
    tracer.wrap(layer, "outer", "outer")
    layer.outer()
    tracer.uninstall()
    assert layer.outer is original
    assert tracer.counts["n"] == 3 and tracer.span_count() == 4
    own = tracer.self_times()
    total = tracer.duration(0)
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert 0 < own["outer"] < total and own["inner"] > 0


def test_generator_steps_are_spans_and_items_are_counted():
    layer = types.SimpleNamespace(items=lambda n: iter(range(n)))
    tracer = Tracer("test")
    tracer.wrap_generator(layer, "items", "gen", "yielded")
    assert list(layer.items(4)) == [0, 1, 2, 3]
    assert tracer.counts["yielded"] == 4 and tracer.span_count() == 5


# -- the command -----------------------------------------------------------------


def _copy_benchmark(tmp_path, with_program=True):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _run(root, workload="insert-pipeline", seed=1, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_every_declared_metric(tmp_path):
    root = _copy_benchmark(tmp_path)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(root, trace=trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in declared[section])


def test_a_wrong_expected_value_fails_the_command(tmp_path):
    root = _copy_benchmark(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["insert-pipeline"]["seeds"]["1"]["events"] += 1
    path.write_text(json.dumps(expected))
    proc = _run(root)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    assert "events = 58932, expected 58933" in proc.stderr


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    root = _copy_benchmark(tmp_path, with_program=False)
    proc = _run(root)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
