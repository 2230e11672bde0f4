"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a source checkout. Checks that:
  1. self-time arithmetic is exact on a synthetic nested call;
  2. a traced op writes artifacts byte-identical to the same op untraced;
  3. the exact per-layer counts repeat exactly when an op is traced twice;
  4. run.py exits nonzero, printing no result, where the sources are absent.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_out" / "selftest"


def check_self_time() -> list:
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)

    def mid_body():
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def top_body():
        mid()
        leaf()

    tracer.op = 7
    tracer.wrap("top", top_body)()
    sp = tracer.arrays()
    names = [sp["names"][k] for k in sp["name_id"]]
    # clock reads: top 0..9, mid 1..6, leaves 2..3, 4..5 and 7..8
    want = {
        "names": ["top", "mid", "leaf", "leaf", "leaf"],
        "parent": [-1, 0, 1, 1, 0],
        "duration": [9.0, 5.0, 1.0, 1.0, 1.0],
        "self": [3.0, 3.0, 1.0, 1.0, 1.0],
        "op_id": [7] * 5,
    }
    got = {
        "names": names,
        "parent": sp["parent"].tolist(),
        "duration": sp["duration"].tolist(),
        "self": sp["self"].tolist(),
        "op_id": sp["op_id"].tolist(),
    }
    return [f"{k}: got {got[k]}, want {want[k]}" for k in want if got[k] != want[k]]


def _run_op(cls, i: int, tracer=None):
    work = WORK / cls.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = cls(workloads.DEFAULT_SEED, work, 1)
    inputs = wl.prepare(i)
    if tracer is not None:
        tracer.op = i
        tracing.install(tracer)
    try:
        op = wl.run(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = wl.check(i, op)
    return {n: workloads.sha256(p) for n, p in op.artifacts.items()}, problems


def check_traced_artifacts_and_counts(cls) -> list:
    plain, problems = _run_op(cls, 1)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        digests, more = _run_op(cls, 1, tracer)
        problems += more
        if tracer.missing:
            problems.append(f"names not found to wrap: {tracer.missing}")
        if digests != plain:
            problems.append(f"traced artifacts {digests} != untraced {plain}")
        m = tracing.op_metrics(tracer.arrays(), 1)
        runs.append({k: m[k] for k in sorted(tracing.EXACT) if k in m})
    if runs[0] != runs[1]:
        problems.append(f"exact counts differ between traced runs: {runs[0]} != {runs[1]}")
    return problems


def check_refuses_without_sources() -> list:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "single_rollout",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    checks = [("self-time arithmetic", check_self_time)]
    for cls in workloads.WORKLOADS.values():
        checks.append(
            (f"{cls.name}: traced artifacts and exact counts",
             lambda cls=cls: check_traced_artifacts_and_counts(cls))
        )
    checks.append(("refuses to run without sources", check_refuses_without_sources))
    failed = 0
    for title, fn in checks:
        problems = fn()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {title}")
        for p in problems:
            print(f"    {p}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
