"""Record the default-seed artifact digests that run.py checks op 0 against.

    python3 bench/record_references.py

Run from the root of a source checkout, at a commit whose artifacts are known
good. A speedup must leave these digests unchanged; re-recording them is a
deliberate statement that the program's output changed.
"""
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    work = BENCH.parent / ".bench_out" / "references"
    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = cls(workloads.DEFAULT_SEED, work, 1)
        op = wl.run(wl.prepare(0))
        problems = wl.check(0, op)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        refs[name] = {n: workloads.sha256(p) for n, p in op.artifacts.items()}
    shutil.rmtree(work, ignore_errors=True)
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
