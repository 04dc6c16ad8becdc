import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_experiments = _load("run_experiments")
extraction_demo = _load("extraction_demo")
sloc = _load("sloc")

from adlocal.cli import ExperimentConfig, run

PASSING = (("lemma2", "zmod:2", 2, {}), "pass", "lemma2_zmod-2_n2.json")
FAILING = (
    ("extract-all", "mat:zmod:2:2", 2, {"force": True, "witness_samples": 2}),
    "fail",
    "extract-all_mat-zmod-2-2_n2_force_witness_samples-2.json",
)
ERRORING = (
    ("extract-all", "zmod:2", 2, {"witness_samples": 0}),
    "error",
    "extract-all_zmod-2_n2_witness_samples-0.json",
)


def _run_battery(monkeypatch, tmp_path, battery):
    monkeypatch.setattr(run_experiments, "BATTERY", battery)
    monkeypatch.setattr(sys, "argv", ["run_experiments.py", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        run_experiments.main()
    return exit_info.value.code


@pytest.mark.parametrize(
    "runs,worst",
    [([PASSING, FAILING], 2), ([PASSING, ERRORING], 3), ([ERRORING, FAILING, PASSING], 3)],
)
def test_run_experiments_exits_with_the_worst_status(monkeypatch, tmp_path, capsys, runs, worst):
    assert _run_battery(monkeypatch, tmp_path, [entry for entry, _, _ in runs]) == worst
    # one report per run, named by experiment, ring, n and the sorted extras
    got = {path.name: json.loads(path.read_text())["status"] for path in tmp_path.iterdir()}
    assert got == {name: status for _, status, name in runs}
    assert len(capsys.readouterr().out.splitlines()) == len(runs)


def test_run_experiments_keeps_entries_that_differ_only_in_budgets(monkeypatch, tmp_path):
    # before the extras were part of the name, the second entry's report
    # replaced the first one's
    battery = [("prop10", "zmod:2", 2, {"gen_pairs": 1}), ("prop10", "zmod:2", 2, {"gen_pairs": 2})]
    assert _run_battery(monkeypatch, tmp_path, battery) == 0
    got = {path.name: json.loads(path.read_text()) for path in tmp_path.iterdir()}
    assert sorted(got) == ["prop10_zmod-2_n2_gen_pairs-1.json", "prop10_zmod-2_n2_gen_pairs-2.json"]
    for pairs in (1, 2):
        report = got[f"prop10_zmod-2_n2_gen_pairs-{pairs}.json"]
        want = run(ExperimentConfig(ring="zmod:2", n=2, experiment="prop10", gen_pairs=pairs))
        assert report["config"]["gen_pairs"] == pairs
        assert report["checks"] == want.checks
    checks = [got[name]["checks"] for name in sorted(got)]
    assert checks[0] != checks[1]


def test_extraction_demo_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["extraction_demo.py", "--ring", "zmod:2", "--n", "2"])
    extraction_demo.main()
    out = capsys.readouterr().out
    assert "carrier M_2(zmod:2), 16 elements" in out
    assert "implements the hidden map on all 16 elements: True" in out
    assert "difference from the hidden element is central: True" in out


README_DEMO_OUT = """\
carrier M_2(zmod:3), 81 elements
hidden element a = [[1, 1], [2, 2]]

oracle answered 2 unit/staircase queries:
  pair (e_12, staircase) -> [[0, 0], [2, 1]]
  pair (e_21, staircase) -> [[0, 1], [2, 1]]

off-diagonal assembly: [[0, 1], [2, 0]]
diagonal source (fixed pair (1, 2)): [[0, 0], [2, 1]]
assembled witness:     [[0, 1], [2, 1]]

implements the hidden map on all 81 elements: True
difference from the hidden element is central: True
difference: [[2, 0], [0, 2]]
"""


def test_extraction_demo_prints_the_readme_example(monkeypatch, capsys):
    argv = ["extraction_demo.py", "--ring", "zmod:3", "--n", "2", "--index", "44"]
    monkeypatch.setattr(sys, "argv", argv)
    extraction_demo.main()
    assert capsys.readouterr().out == README_DEMO_OUT


def test_extraction_demo_samples_above_the_enumeration_cap(monkeypatch, capsys):
    # M5(Z2) has 2^25 elements, too many to enumerate: the maps are compared
    # on the sampled verification elements and centrality is decided on the
    # matrix units
    monkeypatch.setattr(sys, "argv", ["extraction_demo.py", "--ring", "zmod:2", "--n", "5"])
    extraction_demo.main()
    out = capsys.readouterr().out
    assert "carrier M_5(zmod:2), 33554432 elements" in out
    assert "sampled elements: True" in out
    assert "difference from the hidden element is central: True" in out


SLOC_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line


# a comment line
class A:
    """Class docstring."""

    text = """a string that is no docstring,
    over two lines"""

    def f(self):
        """Function docstring,

        over three lines."""
        return (1 +
                2)
'''


def test_sloc_counts_code_lines_only(tmp_path, capsys):
    # import, class, the two lines of the string, def, and the two lines of
    # the return: blank lines, comments and docstrings do not count
    assert sloc.code_lines(SLOC_FIXTURE) == 7
    (tmp_path / "a.py").write_text(SLOC_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert sloc.main([str(tmp_path / "b.py"), str(tmp_path / "a.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     7  a.py",
        "     1  b.py",
        "     8  total",
    ]


SLOC_BUDGET = 1969  # the library's code-line budget, set in ROADMAP.md


def test_library_stays_within_its_code_line_budget():
    total = sum(
        sloc.code_lines(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src" / "adlocal").glob("*.py")
    )
    assert total <= SLOC_BUDGET, f"{total} code lines in src/adlocal, budget {SLOC_BUDGET}"
