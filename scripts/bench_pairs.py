#!/usr/bin/env python3
"""Run the benchmark of BENCHMARK.json on two checkouts in alternating
pairs and write the medians, quartiles and pair wins as one JSON record.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload closure --pairs 10 --seed 0 --out BENCH_9.json

Each pair runs the benchmark command once in each checkout, one process
per run; pair i runs the parent first when i is even and the change first
when it is odd.  Every run uses the benchmark's own ``run_seconds`` and
``--trace 0``.  The end-to-end metrics, their units, directions and bounds
are read from BENCHMARK.json.  A workload is recorded under its name, or
under ``<name>@seed<S>`` for a seed other than 0, with every run's values
in ``runs``.  With ``--out`` naming an existing record, the workloads run
now replace those of the same key and the others stay, so workloads can
be measured one call at a time.  The record is rewritten after every
pair, so a run that exits non-zero leaves the pairs finished before it;
the script then names the workload, pair, side and exit code on stderr
and exits 1.  Writes nothing but the record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHOD = (
    "parent commit and change run in turn from separate checkouts, alternating "
    "which runs first; each run is one process; medians and quartiles "
    "(inclusive) over the runs of each side"
)


def quartiles(values: list) -> dict:
    """Median and inclusive quartiles, rounded to 4 decimals."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs: list, spec: list) -> dict:
    """One workload's record from its pairs, each a dict with the side
    that ran ``first`` and the ``parent`` and ``change`` results:
    ``failed`` and ``metrics`` (name to value).  ``spec`` is the
    ``end_to_end`` list of BENCHMARK.json.  A pair counts for the change
    only when its value is strictly better.
    ``change_vs_parent_pct`` is the change of the median in percent of
    the parent's, with its sign, whichever direction is better."""
    out = {
        "pairs": len(pairs),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
        "metrics": {},
    }
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ps, cs = quartiles(parent), quartiles(change)
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": ps,
            "change": cs,
            "change_better_in_pairs": wins,
            "change_vs_parent_pct": round(
                (statistics.median(change) - statistics.median(parent))
                / statistics.median(parent)
                * 100,
                1,
            ),
        }
    out["runs"] = [
        {"first": p["first"], "parent": p["parent"]["metrics"], "change": p["change"]["metrics"]}
        for p in pairs
    ]
    return out


def run_once(command: list, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its failed count, metric values
    and the machine line it printed."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    result = lines[-1]
    machine = next(line["machine"] for line in lines if "machine" in line)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"failed": result["failed"], "metrics": metrics, "machine": machine}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parent-commit", default="")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in bench["workloads"]}
    for workload in args.workload:
        if workload not in names:
            ap.error(f"unknown workload {workload!r}; BENCHMARK.json has {sorted(names)}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    command, seconds = bench["command"], bench["run_seconds"]
    old = json.loads(args.out.read_text()) if args.out.exists() else {}
    record = {
        "command": " ".join(command) + f" --workload W --seed S --seconds {seconds} --trace 0",
        "method": METHOD,
        "parent_commit": args.parent_commit,
        "machine": old.get("machine"),
        "workloads": old.get("workloads", {}),
    }
    for workload in args.workload:
        key = workload if args.seed == 0 else f"{workload}@seed{args.seed}"
        pairs = []
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": sides[0]}
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                try:
                    pair[side] = run_once(command, checkout.resolve(), workload, args.seed, seconds)
                except subprocess.CalledProcessError as exc:
                    print(
                        f"{workload} pair {i + 1}/{args.pairs}: the {side} run exited {exc.returncode}",
                        file=sys.stderr,
                    )
                    return 1
            record["machine"] = pair["change"]["machine"]
            pairs.append(pair)
            record["workloads"][key] = {"seed": args.seed} | summarize(pairs, bench["end_to_end"])
            args.out.write_text(json.dumps(record, indent=2) + "\n")
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
