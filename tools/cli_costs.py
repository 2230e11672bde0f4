"""Median wall time and peak RSS of the five CLI commands on the bundled scenarios.

    python3 tools/cli_costs.py --repeat 5
    python3 tools/cli_costs.py --repeat 5 --src /path/to/parent/src --src src
    python3 tools/cli_costs.py --repeat 1 --only simulate

Each run is ``python -m layersafe COMMAND SCENARIO --out <tmpdir>`` in a
fresh interpreter with ``PYTHONPATH`` set to one ``--src`` directory
(default: this checkout's ``src/``), its output sent to a log file. The
child is reaped with ``os.wait4``, whose ``ru_maxrss`` gives its peak
resident set; wall time runs from the spawn to the reap, interpreter
start-up and imports included. Each repeat runs every command once from
every ``--src``, the sources back to back and in alternating order, so drift
on a shared host falls on all of them alike. Prints, per source, one line
per command: the median wall time and the median and largest peak RSS over
the repeats, in MB of 2**20 bytes.
Exits 1 if any run exits non-zero, after printing the end of its log.
Uses the standard library only.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = {
    "simulate": ["simulate", "two_disks"],
    "case-study": ["case-study", "two_disks"],
    "certify": ["certify", "two_disks"],
    "recurrence-demo": ["recurrence-demo", "two_disks"],
    "iss": ["iss", "open_field"],
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="runs per command (default 3)")
    ap.add_argument(
        "--src", action="append", type=Path, help="a src/ directory to run (repeatable)"
    )
    ap.add_argument(
        "--only", action="append", choices=list(COMMANDS), help="run only this command (repeatable)"
    )
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    args.src = [src.resolve() for src in args.src or [ROOT / "src"]]
    return args


def run_once(argv, src: Path, workdir: Path) -> tuple:
    """(exit code, wall seconds, peak RSS in MB) of one CLI run in a fresh interpreter."""
    out, log = workdir / "out", workdir / "log.txt"
    env = dict(os.environ, PYTHONPATH=str(src))
    to_log = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), to_log, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    cmd = [sys.executable, "-m", "layersafe", *argv, "--out", str(out)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, cmd, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    names = args.only or list(COMMANDS)
    walls = {(src, name): [] for src in args.src for name in names}
    rss = {key: [] for key in walls}
    for i in range(args.repeat):
        for name in names:
            for src in args.src if i % 2 == 0 else args.src[::-1]:
                with tempfile.TemporaryDirectory() as tmp:
                    code, wall, peak = run_once(COMMANDS[name], src, Path(tmp))
                    if code != 0:
                        tail = (Path(tmp) / "log.txt").read_text()[-2000:]
                        print(f"{name} from {src}: exit {code}\n{tail}", file=sys.stderr)
                        return 1
                walls[src, name].append(wall)
                rss[src, name].append(peak)
    for src in args.src:
        print(f"layersafe from {src}, {args.repeat} run(s) per command")
        print(f"{'command':<16} {'median_wall_s':>13} {'median_rss_mb':>13} {'max_rss_mb':>10}")
        for name in names:
            print(
                f"{name:<16} {statistics.median(walls[src, name]):>13.3f} "
                f"{statistics.median(rss[src, name]):>13.1f} {max(rss[src, name]):>10.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
