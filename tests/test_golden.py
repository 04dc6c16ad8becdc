"""Golden CLI reports: each experiment below must reproduce its committed
report byte for byte, with elapsed_ms set to 0.

After a change that is meant to alter results, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from pathlib import Path

import pytest

from adlocal.cli import ExperimentConfig, emit_report, run

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    "extract-all-zmod3-n2": dict(experiment="extract-all", ring="zmod:3", n=2),
    "extract-all-poly22-n2": dict(experiment="extract-all", ring="poly:2:2", n=2),
    "extract-all-zmod2-n5-w3": dict(
        experiment="extract-all", ring="zmod:2", n=5, witness_samples=3
    ),
    "extract-all-matzmod22-n2-force": dict(
        experiment="extract-all", ring="mat:zmod:2:2", n=2, force=True
    ),
    "prop9-zmod2-n3": dict(experiment="prop9", ring="zmod:2", n=3),
    "prop9-zmod2-n4": dict(experiment="prop9", ring="zmod:2", n=4),
    "prop9-zmod2-n5": dict(experiment="prop9", ring="zmod:2", n=5),
    "prop9-poly22-n3-w4": dict(experiment="prop9", ring="poly:2:2", n=3, witness_samples=4),
    "lemma2-zmod2-n3": dict(experiment="lemma2", ring="zmod:2", n=3),
    "lemma2-zmod3-n2": dict(experiment="lemma2", ring="zmod:3", n=2),
    "lemma3-zmod2-n3": dict(experiment="lemma3", ring="zmod:2", n=3),
    "extend-2local-zmod2-n3": dict(experiment="extend-2local", ring="zmod:2", n=3),
    "extend-2local-zmod2-n4": dict(
        experiment="extend-2local", ring="zmod:2", n=4, two_local_pairs=200
    ),
    "extend-2local-zmod2-n5": dict(experiment="extend-2local", ring="zmod:2", n=5),
    "two-local-check-zmod2-n2": dict(experiment="two-local-check", ring="zmod:2", n=2),
    "two-local-check-zmod3-n2": dict(experiment="two-local-check", ring="zmod:3", n=2),
    "two-local-check-zmod2-n3": dict(experiment="two-local-check", ring="zmod:2", n=3),
    "prop10-zmod2-n2-g10": dict(experiment="prop10", ring="zmod:2", n=2, gen_pairs=10),
    "prop10-zmod4-n2": dict(experiment="prop10", ring="zmod:4", n=2),
    "prop10-zmod2-n3": dict(experiment="prop10", ring="zmod:2", n=3, gen_pairs=25),
    "prop10-zmod2-n4-g1": dict(experiment="prop10", ring="zmod:2", n=4, gen_pairs=1),
    "extend-deriv-zmod2-n3": dict(experiment="extend-deriv", ring="zmod:2", n=3),
    "extend-deriv-zmod2-n4": dict(experiment="extend-deriv", ring="zmod:2", n=4),
}


def report_bytes(name: str) -> str:
    report = run(ExperimentConfig(**CONFIGS[name]))
    report.elapsed_ms = 0
    return emit_report(report)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report_bytes(name) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CONFIGS):
        (GOLDEN / f"{name}.json").write_text(report_bytes(name), encoding="utf-8")
        print(f"wrote {name}.json")
