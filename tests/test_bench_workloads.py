"""The benchmark's workloads and tracer still build on the package's current API.

bench/workloads.py and bench/tracing.py are loaded by path from the checkout,
so an API change the benchmark relies on fails here rather than in a
benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _load_by_path("bench_workloads", BENCH / "workloads.py")


@pytest.fixture(scope="module")
def tracing():
    yield from _load_by_path("bench_tracing", BENCH / "tracing.py")


@pytest.mark.parametrize("name", ["certify_grid", "single_rollout", "iss_calibrate"])
def test_workload_builds_prepares_and_runs(workloads, tmp_path, name):
    # constructed as bench/run.py does: (seed, work directory, worker count)
    workload = workloads.WORKLOADS[name](0, tmp_path, 1)
    assert workload.name == name
    inputs = workload.prepare(0)
    # one op and its check, about a second for all three
    assert workload.check(0, workload.run(inputs)) == []


def test_tracer_finds_every_name_it_wraps(tracing):
    # certify.rk4_step is a stale wrap the benchmark still lists (certify no
    # longer imports rk4_step); any other miss means a refactor dropped a
    # name the benchmark's per-layer metrics read
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["layersafe.certify.rk4_step"]
