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

PASSING = (("lemma2", "zmod:2", 2, {}), "pass")
FAILING = (("extract-all", "mat:zmod:2:2", 2, {"force": True, "witness_samples": 2}), "fail")
ERRORING = (("extract-all", "zmod:2", 2, {"witness_samples": 0}), "error")


@pytest.mark.parametrize(
    "runs,worst",
    [([PASSING, FAILING], 2), ([PASSING, ERRORING], 3), ([ERRORING, FAILING, PASSING], 3)],
)
def test_run_experiments_exits_with_the_worst_status(monkeypatch, tmp_path, capsys, runs, worst):
    monkeypatch.setattr(run_experiments, "BATTERY", [entry for entry, _ in runs])
    monkeypatch.setattr(sys, "argv", ["run_experiments.py", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        run_experiments.main()
    assert exit_info.value.code == worst
    # one report per run, named by experiment, ring and n
    got = {path.name: json.loads(path.read_text())["status"] for path in tmp_path.iterdir()}
    assert got == {
        f"{experiment}_{ring.replace(':', '-')}_n{n}.json": status
        for (experiment, ring, n, _), status in runs
    }
    assert len(capsys.readouterr().out.splitlines()) == len(runs)


def test_extraction_demo_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["extraction_demo.py", "--ring", "zmod:2", "--n", "2"])
    extraction_demo.main()
    out = capsys.readouterr().out
    assert "carrier M_2(zmod:2), 16 elements" in out
    assert "implements the hidden map on all 16 elements: True" in out
    assert "difference from the hidden element is central: True" in out
