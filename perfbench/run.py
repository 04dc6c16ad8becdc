"""adlocal benchmark: time to a verdict on the three shapes that dominate
the acceptance gate.  See perfbench/README.md.

    python3 perfbench/run.py --workload closure --seed 0 --seconds 15 --trace 0

One workload per process, one thread, closed loop: the next item is issued
only after the previous verdict returned.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
record the machine and the run.  --trace 0 reports the end-to-end metrics,
with item times at reference host speed (see REF_CAL_S); --trace 1 reports
the per-layer metrics of a separate traced run.  Exits 2 without a result
when the adlocal sources are not next to this directory.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # runs read and write nothing outside the checkout

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import SpanStats, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Named here too: importing workloads imports adlocal, which set-up times.
WORKLOADS = ("extend-m4", "witness-search", "closure")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
# The host this benchmark was tuned on changes speed by up to ~1.6x within
# seconds, for programs and this snippet alike, so item times are scaled by
# REF_CAL_S over the snippet times measured around them.  REF_CAL_S is the
# snippet's time at that host's usual speed.
CAL_ITERS = 1000
REF_CAL_S = 0.0004
CAL_SAMPLES = 1001


def cold_setup(workload: str | None, tracer: Tracer):
    """Import adlocal, build the carriers and enumerate them, in this fresh
    process; returns (seconds, workloads module, carriers).  ``None`` sets
    up every carrier, as the traced run does."""
    start = time.perf_counter()
    import workloads

    labels = workloads.CARRIERS if workload is None else workloads.WORKLOADS[workload].carriers
    rings = workloads.build_carriers(labels, tracer)
    return time.perf_counter() - start, workloads, rings


def setup_probe(workload: str) -> float:
    """Cold set-up time measured in a child interpreter, run to completion."""
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "run.py"), "--setup-probe", workload],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def calibration_snippet() -> float:
    """Seconds for a fixed pure-Python loop of tuple keys, dict updates and
    small-int arithmetic: the kinds of work adlocal does, without adlocal."""
    t0 = time.perf_counter()
    d = {}
    for i in range(CAL_ITERS):
        k = (i & 63, (i * 7) & 63)
        d[k] = d.get(k, 0) + i % 7
    return time.perf_counter() - t0


@dataclass
class Loop:
    """One closed-loop run: per item, its wall time and the calibration
    snippet time measured right after it (cal_s[0] is measured before
    item 0)."""

    wall_s: list = field(default_factory=list)
    cal_s: list = field(default_factory=list)
    failed: int = 0

    @property
    def ref_s(self) -> list:
        """Item times at reference host speed (see REF_CAL_S), each scaled
        by the mean of the snippets just before and just after it."""
        cal = self.cal_s
        return [w * 2 * REF_CAL_S / (cal[i] + cal[i + 1]) for i, w in enumerate(self.wall_s)]


def closed_loop(work, seconds: float) -> Loop:
    """Items 0, 1, ... until ``seconds`` have passed.  The calibration
    snippet is timed before the first item and after each verdict, outside
    the items.  An item that raises counts as failed."""
    loop, reported = Loop(cal_s=[calibration_snippet()]), False
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            ok = work.item(len(loop.wall_s))
        except Exception:
            ok = False
            if not reported:
                traceback.print_exc()
                reported = True
        loop.wall_s.append(time.perf_counter() - t0)
        loop.cal_s.append(calibration_snippet())
        loop.failed += not ok
    return loop


def item_stats(times_s: list) -> tuple:
    """(items per second of item time, median ms, 90th-percentile ms)."""
    ms = [t * 1000 for t in times_s]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return len(ms) / sum(times_s), statistics.median(ms), p90


def end_to_end(workload: str, seed: int, seconds: float):
    setup_s, workloads, rings = cold_setup(workload, Tracer(False))
    work = workloads.WORKLOADS[workload](rings, seed, Tracer(False))
    negative_ok = work.negative_control()
    loop = closed_loop(work, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [setup_probe(workload) for _ in range(SETUP_SAMPLES - 1)]
    rate, p50, p90 = item_stats(loop.ref_s)
    wall_rate, wall_p50, wall_p90 = item_stats(loop.wall_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_ref_s": (rate, "1/ref_s"),
        "item_ref_ms_p50": (p50, "ref_ms"),
        "item_ref_ms_p90": (p90, "ref_ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "items": len(loop.wall_s),
        "negative_control_rejected": negative_ok,
        "setup_samples_s": setups,
        "wall_items_per_s": wall_rate,
        "wall_item_ms_p50": wall_p50,
        "wall_item_ms_p90": wall_p90,
        "calibration_ms_p50": statistics.median(loop.cal_s) * 1000,
    }
    return metrics, 1 + len(loop.wall_s), loop.failed + (not negative_ok), info


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "calibration_snippets_per_s": 1 / statistics.median(
            calibration_snippet() for _ in range(CAL_SAMPLES)
        ),
    }


def per_layer(workload: str, seed: int, seconds: float):
    """Every layer, from one process: all carriers set up cold, the Matrix
    microbenchmark, then ``workload`` untraced, traced and untraced again
    for a third of ``seconds`` each (the traced item rate against the mean
    untraced one is the tracing overhead, free of warm-up order), then the
    other two workloads traced for a third each."""
    tracer = Tracer(True)
    _, workloads, rings = cold_setup(None, tracer)
    micro = workloads.matrix_microbench(rings, seed)
    segment = seconds / 3
    attempted = failed = 0
    rates = []
    order = [workload] + [w for w in WORKLOADS if w != workload]
    untraced = (workload, Tracer(False))
    for name, t in [untraced, (workload, tracer), untraced] + [(w, tracer) for w in order[1:]]:
        loop = closed_loop(workloads.WORKLOADS[name](rings, seed, t), segment)
        attempted, failed = attempted + len(loop.wall_s), failed + loop.failed
        rates.append(item_stats(loop.ref_s)[0])
    st = SpanStats(tracer.spans)
    m = {}
    for c in workloads.LAYER_CARRIERS:
        m[f"rings.matrix_ring_s.{c}"] = (st.busy_s(f"rings.matrix_ring.{c}"), "s")
        m[f"rings.elements_s.{c}"] = (st.busy_s(f"rings.elements.{c}"), "s")
    for name, value in micro.items():
        m[name] = (value, "us")
    m["matrix.commutator_sweep_s"] = (st.busy_s("matrix.commutator_sweep"), "s")
    m["matrix.commutator_sweep.elements"] = (st.count("matrix.commutator_sweep"), "count")
    pairs = st.count("deriv.check_derivation")
    m["deriv.check_derivation.pairs"] = (pairs, "count")
    m["deriv.check_derivation.us_per_pair"] = (st.busy_s("deriv.check_derivation") / pairs * 1e6, "us")
    for c in workloads.WitnessSearch.carriers:
        pairs = st.count(f"deriv.check_two_local.{c}")
        m[f"deriv.check_two_local.pairs.{c}"] = (pairs, "count")
        m[f"deriv.check_two_local.ms_per_pair.{c}"] = (
            st.busy_s(f"deriv.check_two_local.{c}") / pairs * 1e3,
            "ms",
        )
    m["deriv.oracle_select.calls"] = (st.calls("deriv.oracle_select"), "count")
    m["deriv.oracle_select.s"] = (st.busy_s("deriv.oracle_select"), "s")
    calls = st.calls("deriv.witness_search")
    m["deriv.witness_search.calls"] = (calls, "count")
    m["deriv.witness_search.ms_per_call"] = (st.busy_s("deriv.witness_search") / calls * 1e3, "ms")
    m["extract.extract_witness.s"] = (st.busy_s("extract.extract_witness"), "s")
    m["extract.extract_witness.self_s"] = (st.self_s("extract.extract_witness"), "s")
    m["extract.oracle_queries"] = (
        st.children("extract.extract_witness", "deriv.oracle_select"),
        "count",
    )
    m["extend.tabulate_s"] = (st.busy_s("extend.tabulate"), "s")
    m["extend.tabulate_entries"] = (st.count("extend.tabulate"), "count")
    sizes = st.counts("twogen.generate_subring")
    m["twogen.generate_subring.s"] = (st.busy_s("twogen.generate_subring"), "s")
    m["twogen.closure_size.p50"] = (statistics.median(sizes), "count")
    m["twogen.closure_size.max"] = (max(sizes), "count")
    m["twogen.check_inner_on_subring.s"] = (st.busy_s("twogen.check_inner_on_subring"), "s")
    m["twogen.check_inner_on_subring.checks"] = (st.count("twogen.check_inner_on_subring"), "count")
    untraced, traced = (rates[0] + rates[2]) / 2, rates[1]
    m["trace.items_per_ref_s.untraced"] = (untraced, "1/ref_s")
    m["trace.items_per_ref_s.traced"] = (traced, "1/ref_s")
    m["trace.overhead_pct"] = ((untraced - traced) / untraced * 100, "%")
    return m, attempted, failed, {"segment_s": segment, "workloads": order}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "adlocal" / "__init__.py").is_file():
        print(f"perfbench: no adlocal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": cold_setup(args.setup_probe, Tracer(False))[0]}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, info = measure(args.workload, args.seed, args.seconds)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    info["failed_frac"] = failed / attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"machine": machine()}))
    print(json.dumps({"run": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
