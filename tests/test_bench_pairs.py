import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_ref_s", "unit": "1/ref_s", "better": "higher", "bound": 0.2},
]


def _pair(first, parent, change, failed=(0, 0)):
    names = [m["name"] for m in SPEC]
    return {
        "first": first,
        "parent": {"failed": failed[0], "metrics": dict(zip(names, parent))},
        "change": {"failed": failed[1], "metrics": dict(zip(names, change))},
    }


def test_summary_on_fixed_numbers():
    pairs = [
        _pair("parent", (1.0, 200.0), (1.0, 300.0)),
        _pair("change", (1.2, 210.0), (1.1, 190.0), failed=(1, 0)),
        _pair("parent", (1.1, 220.0), (1.3, 310.0)),
    ]
    out = bench_pairs.summarize(pairs, SPEC)
    assert out["pairs"] == 3
    assert out["failed"] == {"parent": 1, "change": 0}
    setup = out["metrics"]["setup_s"]
    assert setup["parent"] == {"median": 1.1, "q1": 1.05, "q3": 1.15}
    assert setup["change"] == {"median": 1.1, "q1": 1.05, "q3": 1.2}
    assert setup["change_better_in_pairs"] == 1  # a tie counts for neither side
    assert setup["change_vs_parent_pct"] == 0.0
    assert (setup["unit"], setup["better"], setup["bound"]) == ("s", "lower", 0.25)
    rate = out["metrics"]["items_per_ref_s"]
    assert rate["parent"] == {"median": 210.0, "q1": 205.0, "q3": 215.0}
    assert rate["change"] == {"median": 300.0, "q1": 245.0, "q3": 305.0}
    assert rate["change_better_in_pairs"] == 2
    assert rate["change_vs_parent_pct"] == 42.9  # (300 - 210) / 210
    assert [r["first"] for r in out["runs"]] == ["parent", "change", "parent"]
    assert out["runs"][1]["change"] == {"setup_s": 1.1, "items_per_ref_s": 190.0}


def test_summary_signs_a_worse_median_by_direction():
    # the percentage is the change of the median with its sign, so a slower
    # set-up reads positive and a lower rate negative
    out = bench_pairs.summarize([_pair("parent", (2.0, 100.0), (2.5, 80.0))], SPEC)
    assert out["metrics"]["setup_s"]["change_vs_parent_pct"] == 25.0
    assert out["metrics"]["items_per_ref_s"]["change_vs_parent_pct"] == -20.0
    assert out["metrics"]["setup_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert out["metrics"]["setup_s"]["change_better_in_pairs"] == 0


def test_unknown_workload_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(
            ["--parent", ".", "--change", ".", "--workload", "nope", "--out", str(tmp_path / "b.json")]
        )
    assert exc.value.code == 2
    assert "unknown workload" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_every_end_to_end_metric_of_the_benchmark_is_summarized():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    values = {m["name"]: 1.0 for m in spec}
    pair = {
        "first": "parent",
        "parent": {"failed": 0, "metrics": values},
        "change": {"failed": 0, "metrics": values},
    }
    out = bench_pairs.summarize([pair], spec)
    assert list(out["metrics"]) == [m["name"] for m in spec]


def test_a_failed_run_keeps_the_pairs_finished_before_it(tmp_path, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    calls = []

    def run_once(command, checkout, workload, seed, seconds):
        calls.append(checkout)
        if len(calls) == 3:  # the first run of pair 2, the change's
            raise subprocess.CalledProcessError(7, command)
        return {"failed": 0, "metrics": {m["name"]: 1.0 for m in spec}, "machine": {"cpu": "test"}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "b.json"
    argv = ["--parent", "p", "--change", "c", "--workload", "closure", "--pairs", "3", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert len(calls) == 3
    assert "closure pair 2/3: the change run exited 7" in capsys.readouterr().err
    record = json.loads(out.read_text())
    assert record["machine"] == {"cpu": "test"}
    assert record["workloads"]["closure"]["pairs"] == 1
    assert [r["first"] for r in record["workloads"]["closure"]["runs"]] == ["parent"]
