"""Whole-campaign benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload giant-instant --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: after one warm-up cycle
it repeats whole cycles (set-up, campaign, recovery; see :mod:`cycle`)
while one more, at the run's mean cycle time so far, still ends within
``--seconds``, at least once, and reports medians.  ``--trace 1`` instead runs one
untraced campaign and one traced cycle and reports the per-layer metrics
(see :mod:`layers`).  Either way every cycle's correctness checks run.

Output: one ``info`` JSON line (CPU count, Python and numpy versions, the
backend ``auto`` picked, sample counts, each check), then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The first cycle of a run sets up at least ``FIRST_SETUPS`` times, and
#: every cycle keeps setting up until ``SETUP_SECONDS`` of set-up have been
#: measured; ``setup_s`` is the median of every set-up of the run.
FIRST_SETUPS = 3
SETUP_SECONDS = 0.25


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(cycles) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics over every untraced cycle of a run.

    A timing with no samples is left out rather than reported: that only
    happens when a campaign failed, and then a check has failed too.
    """
    first = cycles[0]
    samples = {
        "setup_s": [s for cycle in cycles for s in cycle.setup_s],
        "labels_per_s": [cycle.labels_per_s for cycle in cycles],
        "answer_ms_p50": [ms for cycle in cycles for ms in cycle.answer_intervals_ms],
        "recover_s": [c.recover_s for c in cycles if c.recover_s is not None],
    }
    units = {
        "setup_s": "s",
        "labels_per_s": "pairs/s",
        "answer_ms_p50": "ms",
        "recover_s": "s",
    }
    metrics = {
        name: _metric(statistics.median(values), units[name])
        for name, values in samples.items()
        if values
    }
    metrics.update(
        crowd_pairs=_metric(first.crowd_pairs, "count"),
        crowd_hits=_metric(first.crowd_hits, "count"),
        crowd_hours=_metric(first.crowd_hours, "virtual_h"),
        peak_rss_mb=_metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    )
    return metrics


def _costs_repeat(cycles) -> bool:
    """Crowd cost is a pure function of the inputs: every cycle agrees."""
    costs = {(c.crowd_pairs, c.crowd_hits, c.crowd_hours) for c in cycles}
    return len(costs) == 1


async def _measure(workload, work: str, seconds: float, trace: bool):
    """Returns ``(metrics, every checked cycle, the cycles timed)``."""
    from cycle import run_cycle

    if trace:
        from layers import traced_run

        metrics, cycles = await traced_run(workload, work)
        return metrics, cycles, cycles
    started = time.perf_counter()
    # Warm-up: imports, lazy set-up and the allocator's first growth are
    # paid by one campaign.  Its checks count; its timings do not.
    warmup = await run_cycle(workload, os.path.join(work, "warmup"), recover=False)
    cycles = []
    measured = time.perf_counter()
    while True:
        root = os.path.join(work, f"cycle{len(cycles)}")
        cycles.append(
            await run_cycle(
                workload,
                root,
                n_setups=1 if cycles else FIRST_SETUPS,
                setup_seconds=SETUP_SECONDS,
            )
        )
        now = time.perf_counter()
        if now - started + (now - measured) / len(cycles) > seconds:
            break
    return end_to_end(cycles), [warmup] + cycles, cycles


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(known: {', '.join(sorted(WORKLOADS))})",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        metrics, cycles, timed = asyncio.run(
            _measure(workload, work, args.seconds, bool(args.trace))
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [(name, ok) for c in cycles for name, ok in c.checks.items()]
    checks.append(("costs_repeat", _costs_repeat(cycles)))
    failed = sum(1 for _, ok in checks if not ok)
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    info = {
        "info": {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "n_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "backend": cycles[0].backend,
            "n_pairs": workload.n_pairs,
            "cycles": len(timed),
            "answer_samples": sum(len(c.answer_intervals_ms) for c in timed),
            "failed_checks": [name for name, ok in checks if not ok],
        }
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(checks),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
