"""Run one workload of the layersafe benchmark and print its result.

    python3 bench/run.py --workload certify_grid --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. Set-up is
timed in fresh interpreters; then op 0 runs once as a warm-up and ops 1, 2,
... run back to back (a closed loop, one client) until ``--seconds`` have
passed. Every op's outputs are checked; a failed check or an exception is a
failed op.

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported; op 1 is then replayed traced. With ``--trace 1`` every op runs
twice on the same inputs, untraced and then traced, and the per-layer
metrics come from the traced runs. Either way a traced run must write
artifacts byte-identical to its untraced twin, and the paired difference of
wall times is the tracing overhead. The last line of stdout is the result
object; the line before it holds the run's provenance. Scratch files go
under ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_TIMED_OPS = 3
REF_SHARE = 0.05  # reference-kernel time after an op, as a share of the op's time
REF_MAX_REPS = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _setup_seconds() -> tuple[float, float]:
    """One cold set-up timed inside a fresh interpreter, and its reference time."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    setup, ref = proc.stdout.split()
    return float(setup), float(ref)


def _ref_time(refkernel, reps: int) -> float:
    """Mean reference-kernel time over ``reps`` back-to-back runs."""
    return statistics.mean(refkernel.seconds() for _ in range(reps))


class Runner:
    """Runs ops of one workload and keeps their timings and outcomes."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def op(self, i: int, traced: bool = False, expect: dict | None = None) -> dict:
        """Run op ``i``; ``expect`` maps artifact names to required digests."""
        from tracing import install  # bench-local modules
        from workloads import sha256

        inputs = self.wl.prepare(i)
        self.attempted += 1
        problems = []
        if traced:
            self.tracer.op = i
            install(self.tracer)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = self.wl.run(inputs)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            result = None
            problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            if traced:
                self.tracer.uninstall()
        digests = {}
        if result is not None:
            try:
                problems += self.wl.check(i, result)
                digests = {n: sha256(p) for n, p in result.artifacts.items()}
            except Exception as exc:  # unreadable or malformed artifacts
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            if expect is not None and digests != expect:
                problems.append(f"artifact digests {digests} differ from expected {expect}")
        if problems:
            self.failed += 1
            for msg in problems:
                print(f"op {i} ({'traced' if traced else 'untraced'}): {msg}", file=sys.stderr)
        return {
            "i": i,
            "traced": traced,
            "ok": not problems,
            "wall_s": wall,
            "cpu_s": cpu,
            "steps": result.steps if result is not None else 0,
            "digests": digests,
        }


def run(args) -> tuple[dict, dict]:
    import numpy as np

    import refkernel
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    nproc = len(os.sched_getaffinity(0))
    setup_samples = [_setup_seconds() for _ in range(SETUP_PROBES)]

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    try:
        if args.trace:
            tracing.install(tracer)  # set-up spans carry op id -1
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, work, nproc)
        finally:
            tracer.uninstall()
        refs = None
        if args.seed == workloads.DEFAULT_SEED:
            refs = json.loads((BENCH / "references.json").read_text()).get(args.workload)
        runner = Runner(wl, tracer)

        runner.op(0, expect=refs)  # warm-up: checked, not timed
        timed = []
        ref_before = _ref_time(refkernel, 3)
        deadline = time.perf_counter() + args.seconds
        i = 1
        while time.perf_counter() < deadline or len(timed) < MIN_TIMED_OPS:
            rec = runner.op(i)
            reps = max(1, min(REF_MAX_REPS, round(REF_SHARE * rec["wall_s"] / refkernel.NOMINAL_S)))
            ref_after = _ref_time(refkernel, reps)
            rec["ref_s"] = (ref_before + ref_after) / 2.0
            timed.append(rec)
            if args.trace:  # the same inputs again, traced
                expect = rec["digests"] if rec["ok"] else None
                timed.append(runner.op(i, traced=True, expect=expect))
                ref_after = _ref_time(refkernel, reps)
            ref_before = ref_after
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if not args.trace:
            expect = timed[0]["digests"] if timed[0]["ok"] else None
            timed.append(runner.op(1, traced=True, expect=expect))
        plain = {r["i"]: r for r in timed if r["ok"] and not r["traced"]}
        traced = [r for r in timed if r["ok"] and r["traced"]]
        pairs = [(plain[r["i"]], r) for r in traced if r["i"] in plain]
        if not plain or not pairs:
            raise RuntimeError("no successful op to report")
        plain = list(plain.values())
        plain_p50 = statistics.median(r["wall_s"] for r in plain)
        overhead_s = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
        overhead = (overhead_s, overhead_s / plain_p50)

        if args.trace:
            cpu_util = [r["cpu_s"] / (r["wall_s"] * nproc) for r in traced]
            metrics = tracing.layer_report(tracer, [r["i"] for r in traced], cpu_util, overhead)
            tracer.save(OUT / f"spans-{args.workload}.npz")
        else:
            # times scaled to the reference kernel's nominal speed; raw ones
            # are in the provenance line
            scale = [refkernel.NOMINAL_S / r["ref_s"] for r in plain]
            metrics = {
                "setup_s": {
                    "value": statistics.median(
                        t * refkernel.NOMINAL_S / ref for t, ref in setup_samples
                    ),
                    "unit": "s",
                },
                "norm_op_p50_s": {
                    "value": statistics.median(r["wall_s"] * k for r, k in zip(plain, scale)),
                    "unit": "s",
                },
                "norm_steps_per_s": {
                    "value": statistics.median(
                        r["steps"] / (r["wall_s"] * k) for r, k in zip(plain, scale)
                    ),
                    "unit": "1/s",
                },
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "reference_nominal_s": refkernel.NOMINAL_S,
        "setup_s_raw": [t for t, _ref in setup_samples],
        "setup_ref_s": [ref for _t, ref in setup_samples],
        "timed_ops": len(timed),
        "op_p50_s_raw": plain_p50,
        "op_wall_s": [r["wall_s"] for r in timed],
        "op_ref_s": [r.get("ref_s") for r in timed],
        "op_index": [r["i"] for r in timed],
        "op_traced": [r["traced"] for r in timed],
        "trace_overhead_s": overhead[0],
        "trace_overhead_ratio": overhead[1],
        "trace_overhead_basis": "median over ops run both ways of traced minus untraced wall time",
        "unwrapped_names": tracer.missing,
        "workload_settings": {
            k: v for k, v in vars(type(wl)).items()
            if not k.startswith("_") and isinstance(v, (int, float, str, tuple))
        },
    }
    return result, provenance


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "layersafe" / "__init__.py").is_file():
        print(f"error: no layersafe sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layersafe

    if Path(layersafe.__file__).resolve().parent != (SRC / "layersafe").resolve():
        print(f"error: imported layersafe from {layersafe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, provenance = run(args)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, "result": result}, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
