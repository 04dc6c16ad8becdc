"""The library API the benchmark imports.

The benchmark loads ``perfbench/workloads.py`` and ``perfbench/tracing.py``
as scripts, so a renamed or removed adlocal name breaks it without breaking
any other test.  Each workload is built here the way the benchmark builds
it, with a disabled tracer, and must pass its negative control and its
first item.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD_NAMES = ("extend-m4", "witness-search", "closure")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _load("workloads"), _load("tracing")


def test_the_benchmark_runs_these_workloads(perfbench):
    workloads, _ = perfbench
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_control_and_first_item(perfbench, name):
    workloads, tracing = perfbench
    tracer = tracing.Tracer(enabled=False)
    workload = workloads.WORKLOADS[name]
    rings = workloads.build_carriers(workload.carriers, tracer)
    work = workload(rings, 0, tracer)
    assert work.negative_control() is True
    assert work.item(0) is True
