"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter (``perfbench/workloads.py``) so
that passes do not inherit each other's heap and each reports its own
peak RSS.  Passes repeat, one after another, while another pass still
fits in ``--seconds``; there is always at least one.  Every pass's
outputs are checked against ``perfbench/expected.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the passes.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics, medians over the traced
passes, plus ``bench.tracing_overhead``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any pass failed its check, and 2
when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check-2lc", "fuzz-2lc", "insert-pipeline")

#: Setup-only interpreters started per untraced run, on top of one per
#: pass, so that ``setup_s`` is a median even when only one pass fits.
SETUP_PROBES = 4

#: A pass that takes longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 150


def start_pass(workload: str, seed: int, *flags: str) -> Dict[str, object]:
    """Run one pass in a fresh interpreter and return its record.

    A pass that crashes, times out or prints no record comes back with
    a ``failures`` entry saying so.
    """
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [*command, "--started", repr(started), *flags],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"{workload}: pass exceeded {PASS_TIMEOUT_S} s"]}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {
            "failures": [
                f"{workload}: pass exited with code {proc.returncode} "
                f"(its traceback is on standard error)"
            ]
        }
    return json.loads(lines[-1])


def repeat(seconds: float, one: Callable[[], List[Dict[str, object]]]):
    """Call ``one`` while another call would still end within ``seconds``.

    ``one`` runs at least once, and the next call is predicted to take
    as long as the last.

    Stops early at the first failed pass.  Returns every pass record.
    """
    records: List[Dict[str, object]] = []
    begin = time.monotonic()
    while True:
        round_begin = time.monotonic()
        batch = one()
        records.extend(batch)
        if any(record.get("failures") for record in batch):
            return records
        now = time.monotonic()
        if now - begin + (now - round_begin) > seconds:
            return records


def end_to_end(passes, setups) -> Dict[str, float]:
    """The end-to-end metrics: medians over passes (and setup probes)."""
    return {
        "setup_s": median(setups),
        "verdict_s": median(p["verdict_s"] for p in passes),
        "cases_per_s": median(p["cases"] / p["verdict_s"] for p in passes),
        "events_per_s": median(p["events"] / p["verdict_s"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_kb"] / 1024 for p in passes),
    }


def per_layer(untraced, traced) -> Dict[str, float]:
    """The per-layer metrics: medians over the traced passes."""
    names = traced[0]["layers"]
    metrics = {name: median(p["layers"][name] for p in traced) for name in names}
    untraced_s = median(p["verdict_s"] for p in untraced)
    traced_s = median(p["verdict_s"] for p in traced)
    metrics["bench.untraced_pass_s"] = untraced_s
    metrics["bench.traced_pass_s"] = traced_s
    metrics["bench.tracing_overhead"] = traced_s / untraced_s
    metrics["bench.untraced_minor_faults"] = median(p["minor_faults"] for p in untraced)
    metrics["bench.traced_minor_faults"] = median(p["minor_faults"] for p in traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        declared = json.load(stream)
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[section]}

    def run_one(*flags: str) -> Dict[str, object]:
        return start_pass(args.workload, args.seed, *flags)

    if args.trace:
        records = repeat(args.seconds, lambda: [run_one(), run_one("--trace")])
    else:
        records = [run_one("--setup-only") for _ in range(SETUP_PROBES)]
        if not any(record.get("failures") for record in records):
            records += repeat(args.seconds, lambda: [run_one()])
    failures = [f for record in records for f in record.get("failures", [])]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    metrics: Dict[str, float] = {}
    if not failures:
        untraced = [r for r in records if "verdict_s" in r and "layers" not in r]
        if args.trace:
            traced = [r for r in records if "layers" in r]
            metrics, samples = per_layer(untraced, traced), len(traced)
        else:
            metrics = end_to_end(untraced, [r["setup_s"] for r in records])
            samples = len(untraced)
        for name, unit in units.items():
            count = len(records) if name == "setup_s" else samples
            print(f"{name:32s} {metrics[name]:>18.6f} {unit:6s} median of {count}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(1 for record in records if record.get("failures")),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
