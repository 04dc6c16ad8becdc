#!/usr/bin/env python3
"""Run the full experiment battery and write one JSON report per run.

Exit status is the worst exit code across the battery (0 pass, 2 fail,
3 config error), so the script doubles as a CI gate.
"""

import argparse
import pathlib
import sys

from adlocal.cli import ExperimentConfig, emit_report, run

BATTERY = [
    ("extract-all", "zmod:2", 2, {}),
    ("extract-all", "zmod:3", 2, {}),
    ("extract-all", "zmod:2", 3, {}),
    ("extract-all", "zmod:2", 5, {"witness_samples": 3}),
    ("extract-all", "poly:2:3", 2, {}),
    ("lemma2", "zmod:2", 2, {}),
    ("lemma2", "zmod:3", 2, {}),
    ("lemma2", "zmod:2", 3, {}),
    ("lemma3", "zmod:2", 3, {}),
    ("extend-deriv", "zmod:2", 3, {}),
    ("extend-deriv", "zmod:2", 4, {}),
    ("extend-2local", "zmod:2", 4, {"two_local_pairs": 200}),
    ("extend-2local", "zmod:2", 5, {}),
    ("prop9", "zmod:2", 4, {}),
    ("prop9", "zmod:2", 5, {}),
    ("prop9", "poly:2:2", 3, {"witness_samples": 4}),
    ("prop10", "zmod:2", 2, {"gen_pairs": 10}),
    ("prop10", "zmod:4", 2, {"gen_pairs": 25}),
    ("prop10", "zmod:2", 3, {"gen_pairs": 25}),
    ("prop10", "zmod:2", 4, {"gen_pairs": 1}),
    ("two-local-check", "zmod:2", 2, {}),
    ("two-local-check", "zmod:2", 3, {}),
]

STATUS_CODE = {"pass": 0, "fail": 2, "error": 3}


def report_name(experiment: str, ring: str, n: int, extra: dict) -> str:
    """The report file of one battery entry: experiment, ring and n, then
    each extra setting in sorted order (``_force`` for a flag), so entries
    that differ only in their extras write different files."""
    parts = [experiment, ring.replace(":", "-"), f"n{n}"]
    parts += [key if value is True else f"{key}-{value}" for key, value in sorted(extra.items())]
    return "_".join(parts) + ".json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports", help="directory for the JSON reports")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for experiment, ring, n, extra in BATTERY:
        config = ExperimentConfig(ring=ring, n=n, experiment=experiment, seed=args.seed, **extra)
        report = run(config)
        emit_report(report, path=str(outdir / report_name(experiment, ring, n, extra)))
        print(
            f"{report.status:5s}  {experiment:16s} ring={ring:10s} n={n} "
            f"checks={report.checks} ({report.elapsed_ms} ms)"
        )
        worst = max(worst, STATUS_CODE[report.status])
    sys.exit(worst)


if __name__ == "__main__":
    main()
