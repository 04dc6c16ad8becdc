"""Self-test of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/selftest.py

- Each workload's negative control is rejected, and its items pass.
- Fed a wrong witness, each workload reports failed_frac > 0, so a fast
  path that accepts everything cannot pass the benchmark.
- The metric names a run reports are exactly those BENCHMARK.json lists.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json

import run
from tracing import Tracer

SECONDS = 1.0


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    _, workloads, rings = run.cold_setup(None, Tracer(False))
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        good = cls(rings, 0, Tracer(False))
        if not good.negative_control():
            problems.append(f"{name}: negative control not rejected at its stated pair")
        loop = run.closed_loop(good, SECONDS)
        if loop.failed:
            problems.append(f"{name}: {loop.failed} of {len(loop.wall_s)} correct items failed")
        loop = run.closed_loop(cls(rings, 0, Tracer(False), wrong_witness=True), SECONDS)
        print(f"{name}: wrong witness, failed_frac {loop.failed / len(loop.wall_s):.3f}")
        if loop.failed == 0:
            problems.append(f"{name}: a wrong witness passed every item")

    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    for key, report in (("end_to_end", run.end_to_end), ("per_layer", run.per_layer)):
        metrics = report("extend-m4", 0, 3 * SECONDS)[0]
        listed = [m["name"] for m in spec[key]]
        if list(metrics) != listed or any(metrics[m["name"]][1] != m["unit"] for m in spec[key]):
            problems.append(f"{key}: reported {sorted(metrics)} but BENCHMARK.json lists {listed}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
