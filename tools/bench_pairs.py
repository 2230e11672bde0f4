"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python3 tools/bench_pairs.py --parent /path/to/parent/checkout \\
        --workload iss_calibrate --pairs 10 --seconds 25 --out BENCH_11.json

Pair i (seeds 1..N) runs ``bench/run.py --workload W --seed i --seconds S
--trace 0`` once in the parent checkout and once in this checkout, each in
its own interpreter and each with the ``bench/`` files of its own checkout.
Odd pairs run the parent first, even pairs this checkout first. Every run's
four end-to-end metrics and its ``correct``/``attempted``/``failed`` fields
are kept; the script exits 1 without writing if any run is not correct.

Per metric it writes, for both sides, the median and quartiles
(``statistics.quantiles(n=4)``, exclusive method), how many pairs each
side won, ties counting for neither, the change's median gain and whether
the gain rule holds: the change won at least nine tenths of the pairs and
its median beats the parent's by more than the parent's interquartile
range. "better" comes from BENCHMARK.json.
``--out`` may already hold other workloads: their entries are kept and this
workload's entry is replaced, so one file can cover every workload. Each
side's revision is its ``git describe``, or for a checkout outside git (say
a ``git archive`` copy) its source digest; the source digest, ``tree:`` and
a digest of its ``src/``, is recorded for both sides either way, since a
``-dirty`` describe may come from files outside ``src/``. Uses the
standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if not (args.parent / "bench" / "run.py").is_file():
        p.error(f"no bench/run.py under {args.parent}")
    return args


def _revision(root: Path) -> str:
    """``git describe`` of a checkout; outside a git work tree (an exported
    copy), its source digest."""
    proc = subprocess.run(
        ["git", "-C", str(root), "describe", "--always", "--dirty"], capture_output=True, text=True
    )
    if proc.returncode == 0:
        return proc.stdout.strip()
    return _src_digest(root)


def _src_digest(root: Path) -> str:
    """``tree:`` and the SHA-256 over the sorted relative paths and bytes of
    a checkout's ``src/`` files, ``__pycache__`` left out."""
    src = root / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        rel = path.relative_to(src)
        if path.is_file() and "__pycache__" not in rel.parts:
            data = path.read_bytes()
            digest.update(f"{rel.as_posix()}\0{len(data)}\0".encode() + data)
    return f"tree:{digest.hexdigest()}"


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its provenance line and result object."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    provenance_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    return {
        "provenance": json.loads(provenance_line)["provenance"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _spread(values: list) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, the pairs each side won,
    the change's median gain (positive when better) and whether the gain
    rule holds: at least nine tenths of the pairs won and a median gain
    larger than the parent's interquartile range."""
    out = {}
    for name, lower_is_better in better.items():
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = 1.0 if lower_is_better else -1.0
        gains = [sign * (p - c) for p, c in zip(parent, change)]
        p_spread, c_spread = _spread(parent), _spread(change)
        median_gain = sign * (p_spread["median"] - c_spread["median"])
        change_wins = sum(g > 0 for g in gains)
        out[name] = {
            "better": "lower" if lower_is_better else "higher",
            "parent": p_spread,
            "change": c_spread,
            "change_wins": change_wins,
            "parent_wins": sum(g < 0 for g in gains),
            "median_gain": median_gain,
            "gain_rule_holds": 10 * change_wins >= 9 * len(runs)
            and median_gain > p_spread["iqr"],
        }
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    parent = args.parent.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    runs = []
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(parent if side == "parent" else ROOT, args.workload, seed, args.seconds)
            print(f"seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
        runs.append(pair)
    bad = [(r["seed"], side) for r in runs for side in ("parent", "change") if not r[side]["correct"]]
    if bad:
        print(f"error: runs not correct (seed, side): {bad}", file=sys.stderr)
        return 1

    report = json.loads(args.out.read_text()) if args.out.is_file() else {}
    report.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "command": f"bench/run.py --workload {args.workload} --seed <i> "
                   f"--seconds {args.seconds:g} --trace 0",
        "revisions": {"parent": _revision(parent), "change": _revision(ROOT)},
        "src_digests": {"parent": _src_digest(parent), "change": _src_digest(ROOT)},
        "provenance": runs[0]["change"]["provenance"],
        "metrics": summarize(runs, better),
        "runs": [
            {
                "seed": r["seed"],
                "first": r["first"],
                **{side: {k: v for k, v in r[side].items() if k != "provenance"}
                   for side in ("parent", "change")},
            }
            for r in runs
        ],
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
