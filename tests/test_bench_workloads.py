"""The benchmark's workloads still build on the package's current API.

bench/workloads.py is loaded by path, as bench/run.py loads it, so an API
change the benchmark relies on fails here rather than in a benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["certify_grid", "single_rollout", "iss_calibrate"])
def test_workload_builds_prepares_and_runs(workloads, tmp_path, name):
    # constructed as bench/run.py does: (seed, work directory, worker count)
    workload = workloads.WORKLOADS[name](0, tmp_path, 1)
    assert workload.name == name
    inputs = workload.prepare(0)
    # one op and its check, about a second for all three
    assert workload.check(0, workload.run(inputs)) == []
