"""Print sha256 digests of every artifact and stdout of fifteen CLI runs.

Runs, through ``layersafe.cli.main`` and in a fresh temporary directory with
relative ``--out`` paths (so the printed paths do not depend on where it
runs):

    simulate two_disks
    case-study two_disks --alphas 0.5,1,5
    case-study two_disks_desired.scn --alphas 0.5,1,5
    recurrence-demo two_disks
    iss open_field
    iss open_field --disturbance kind=none
    iss open_field --disturbance kind=random,amplitude=0.1,seed=7
    iss open_field --disturbance kind=constant,amplitude=0.1
    iss open_field --disturbance kind=sine,amplitude=0.1,frequency=0.37
    iss open_field --disturbance kind=random,amplitude=0.1,seed=7,segment=0.0125
    certify two_disks
    certify two_disks --velocity safe --grid pos:30x30 --horizon 6
    certify two_disks --grid pos:6x6 --horizon 0.5    (certify._CHUNK = 1)
    certify open_field --grid pos:6x6 --horizon 0.5
    certify two_disks --velocity zero --grid pos:6x6 --horizon 0.5

where two_disks_desired.scn is two_disks with sim.initial_velocity = desired,
written into the temporary directory, and the certify_chunk1 run sets
``layersafe.certify._CHUNK`` to 1 for that run alone, so every start rolls
out alone on Python floats. It prints one sorted
``<sha256>  <name>`` line per artifact and per command's stdout. Two builds
write byte-identical artifacts exactly when their outputs match.
``tools/artifact_digests.txt`` holds the lines of the last build whose
artifacts were meant to change; ``--check PATH`` compares against such a
file, prints a unified diff and exits 1 on any difference:

    PYTHONPATH=src python tools/artifact_digests.py --check tools/artifact_digests.txt

The imported layersafe module's path goes to stderr. Takes under a minute
on one core.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import layersafe
from layersafe import certify, cli

DESIRED_SCENARIO = "two_disks_desired.scn"

RUNS = (
    ("simulate", ["simulate", "two_disks"]),
    ("case_study", ["case-study", "two_disks", "--alphas", "0.5,1,5"]),
    (  # nonzero initial tracking error, so the exponential envelope is checked
        "case_study_desired",
        ["case-study", DESIRED_SCENARIO, "--alphas", "0.5,1,5"],
    ),
    ("recurrence_demo", ["recurrence-demo", "two_disks"]),
    ("iss", ["iss", "open_field"]),
    (  # the zero-offset branches of the ISS checks
        "iss_no_disturbance",
        ["iss", "open_field", "--disturbance", "kind=none"],
    ),
    (  # echoes disturbance.seed and disturbance.segment
        "iss_random",
        ["iss", "open_field", "--disturbance", "kind=random,amplitude=0.1,seed=7"],
    ),
    (  # echoes a constant kind: amplitude, no frequency
        "iss_constant",
        ["iss", "open_field", "--disturbance", "kind=constant,amplitude=0.1"],
    ),
    (  # a sine whose period is no multiple of the step
        "iss_sine",
        ["iss", "open_field", "--disturbance", "kind=sine,amplitude=0.1,frequency=0.37"],
    ),
    (  # t + dt/2 lands on segment boundaries: floor_divide on the stage-time grids
        "iss_random_boundary",
        ["iss", "open_field", "--disturbance", "kind=random,amplitude=0.1,seed=7,segment=0.0125"],
    ),
    ("certify", ["certify", "two_disks"]),
    (
        "certify_safe",
        ["certify", "two_disks", "--velocity", "safe", "--grid", "pos:30x30", "--horizon", "6"],
    ),
    (  # every start rolled alone, on Python floats
        "certify_chunk1",
        ["certify", "two_disks", "--grid", "pos:6x6", "--horizon", "0.5"],
    ),
    (  # a batch of starts under a disturbance
        "certify_open_field",
        ["certify", "open_field", "--grid", "pos:6x6", "--horizon", "0.5"],
    ),
    (  # starts at rest
        "certify_zero",
        ["certify", "two_disks", "--velocity", "zero", "--grid", "pos:6x6", "--horizon", "0.5"],
    ),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _desired_scenario_text() -> str:
    text = layersafe.bundled_scenario_path("two_disks.scn").read_text()
    safe = "sim.initial_velocity = safe\n"
    if text.count(safe) != 1:
        raise SystemExit(f"two_disks.scn no longer declares {safe.strip()!r}")
    return text.replace(safe, "sim.initial_velocity = desired\n")


def digests() -> list:
    """(digest, name) for every artifact and stdout, sorted by name."""
    out = []
    cwd, chunk = os.getcwd(), certify._CHUNK
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path(DESIRED_SCENARIO).write_text(_desired_scenario_text())
            for label, argv in RUNS:
                certify._CHUNK = 1 if label == "certify_chunk1" else chunk
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([*argv, "--out", label])
                out.append((_sha(buf.getvalue().encode()), f"{label}.stdout (exit {code})"))
                for path in sorted(Path(label).rglob("*")):
                    if path.is_file():
                        out.append((_sha(path.read_bytes()), path.as_posix()))
        finally:
            os.chdir(cwd)
            certify._CHUNK = chunk
    return sorted(out, key=lambda item: item[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print the digest of every artifact and stdout.")
    parser.add_argument(
        "--check",
        metavar="PATH",
        help="compare with the lines in PATH: print a unified diff, exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    print(f"layersafe from {Path(layersafe.__file__).parent}", file=sys.stderr)
    lines = [f"{digest}  {name}\n" for digest, name in digests()]
    if args.check is None:
        sys.stdout.writelines(lines)
        return 0
    expected = Path(args.check).read_text().splitlines(keepends=True)
    diff = list(difflib.unified_diff(expected, lines, args.check, "this build"))
    sys.stdout.writelines(diff)
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
