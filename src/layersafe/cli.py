"""Command-line front end.

    layersafe simulate SCENARIO [--out DIR]
    layersafe case-study SCENARIO [--alphas 0.5,1,5] [--out DIR]
    layersafe certify SCENARIO [--grid pos:40x40] [--alpha A] [--velocity MODE]
                      [--horizon T] [--out DIR]
    layersafe recurrence-demo SCENARIO [--out DIR]
    layersafe iss SCENARIO [--disturbance kind=random,amplitude=0.1,seed=7]
                  [--mu-gain C] [--out DIR]

A disturbance field is set in the scenario file or by an iss --disturbance item.

Exit codes: 0 success, 1 when a declared expectation fails (or a rollout
diverges), 2 on usage or configuration errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .certify import Grid, certify_initial_set
from .errors import ConfigurationError, DivergenceError, ScenarioError
from .harness import (
    _result_lines,
    default_out_dir,
    run_case_study,
    run_iss,
    run_recurrence_demo,
    run_simulate,
)
from .scenario import (
    _VELOCITY_MODES, DisturbanceSpec, Scenario, bundled_scenario_path, load_scenario, parse_value,
)


def _resolve_scenario_path(name: str) -> Path:
    """A filesystem path as given, or a bundled scenario by bare name."""
    p = Path(name)
    if p.is_file():
        return p
    if p.name == name:  # bare name, no directory part: try the bundled set
        base = name if name.endswith(".scn") else name + ".scn"
        try:
            return bundled_scenario_path(base)
        except ScenarioError:
            pass
    raise ConfigurationError(f"no such scenario file: {name}")


def _print_artifacts(art) -> None:
    summary_lines, verdicts = _result_lines(art.summary, art.expectation_results)
    print(f"wrote {art.trajectory_csv}", f"wrote {art.report_path}", sep="\n")
    print(*summary_lines, *verdicts, sep="\n")


def _finish(art) -> int:
    """Print one run's artifacts; 1 if an expectation failed."""
    _print_artifacts(art)
    return 1 if art.failed_expectations else 0


def _load(args) -> Scenario:
    return load_scenario(_resolve_scenario_path(args.scenario))


def _out(args) -> Path:
    return Path(args.out) if args.out else default_out_dir()


def _cmd_simulate(args) -> int:
    return _finish(run_simulate(_load(args), out_dir=_out(args)))


def _parse_alphas(text: str) -> list:
    try:
        alphas = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigurationError(f"--alphas must be comma-separated numbers, got {text!r}") from None
    if not alphas:
        raise ConfigurationError("--alphas must name at least one value")
    return alphas


def _cmd_case_study(args) -> int:
    artifacts, summary_path = run_case_study(
        _load(args), _parse_alphas(args.alphas), out_dir=_out(args)
    )
    for art in artifacts:
        print(f"[{art.label}]")
        _print_artifacts(art)
    print(f"wrote {summary_path}")
    return 1 if any(art.failed_expectations for art in artifacts) else 0


def _parse_grid(text: str, scn: Scenario) -> Grid:
    head, _, shape = text.partition(":")
    if head != "pos" or not shape:
        raise ConfigurationError(
            f"--grid must look like pos:<nx>x<ny> (position lattice), got {text!r}"
        )
    try:
        counts = tuple(int(v) for v in shape.split("x"))
    except ValueError:
        raise ConfigurationError(f"bad grid shape {shape!r}") from None
    if len(counts) != 2:
        raise ConfigurationError("position grids take exactly two counts, e.g. pos:40x40")
    return Grid(lower=scn.certify_lower, upper=scn.certify_upper, counts=counts)


def _cmd_certify(args) -> int:
    scn = _load(args)
    if args.alpha is not None:
        scn = scn.with_alpha(args.alpha)
    out = _out(args)
    grid = _parse_grid(args.grid, scn)
    report = certify_initial_set(scn, grid, horizon=args.horizon, velocity_mode=args.velocity)
    report_path = out / "certify_report.txt"
    points_path = out / "certify_points.csv"
    unsafe_path = out / "unsafe_points.csv"
    report.write(report_path)
    report.point_cloud_csv(points_path)
    report.point_cloud_csv(unsafe_path, verdict="unsafe_witness")
    print(f"wrote {report_path}")
    print(f"wrote {points_path}")
    print(f"wrote {unsafe_path}")
    for verdict, n in report.summary.items():
        print(f"  {verdict}: {n}")
    # stdout only: bench/references.json pins the report's bytes
    witnesses_in_s_v = sum(r.in_s_v for r in report.records("unsafe_witness"))
    print(f"  unsafe_witness inside S_V: {witnesses_in_s_v}")
    return 0


def _cmd_recurrence_demo(args) -> int:
    return _finish(run_recurrence_demo(_load(args), out_dir=_out(args)))


def _parse_disturbance(text: str, base: DisturbanceSpec) -> DisturbanceSpec:
    fields = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, val = item.partition("=")
        if not eq:
            raise ConfigurationError(
                f"--disturbance items must be key=value, got {item!r}"
            )
        key = key.strip()
        if key in fields:  # as a scenario file refuses a repeated key
            raise ConfigurationError(f"duplicate disturbance field {key!r}")
        try:
            fields[key] = parse_value(f"disturbance.{key}", val.strip())
        except KeyError:
            raise ConfigurationError(f"unknown disturbance field {key!r}") from None
        except ValueError as exc:
            raise ConfigurationError(f"bad value for disturbance {key}: {exc}") from None
    return dataclasses.replace(base, **fields)


def _cmd_iss(args) -> int:
    scn = _load(args)
    if args.disturbance:
        scn = scn.with_disturbance(_parse_disturbance(args.disturbance, scn.disturbance))
    return _finish(run_iss(scn, out_dir=_out(args), mu_gain=args.mu_gain))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layersafe",
        description="Layered safe-control rollouts, certification, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "scenario",
            help="scenario file path, or a bundled name (two_disks, open_field)",
        )
        p.add_argument("--out", default=None, help="artifact directory (default: $LAYERSAFE_OUT or ./runs)")

    p = sub.add_parser("simulate", help="single rollout from the scenario start")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("case-study", help="alpha sweep sharing all other parameters")
    common(p)
    p.add_argument("--alphas", default="0.5,1,5", help="comma-separated alpha values")
    p.set_defaults(func=_cmd_case_study)

    p = sub.add_parser("certify", help="classify a grid of initial states")
    common(p)
    p.add_argument("--grid", default="pos:25x25", help="position lattice, e.g. pos:40x40")
    p.add_argument("--alpha", type=float, default=None, help="override gains.alpha")
    p.add_argument(
        "--velocity",
        choices=_VELOCITY_MODES,
        default="desired",
        help="initial-velocity mode for grid points",
    )
    p.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="rollout horizon, a whole number of sim.dt steps (default: sim.horizon)",
    )
    # inert since certify runs serially; still parsed because bench/workloads.py passes it
    p.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("recurrence-demo", help="rollout highlighting recurrent V with safe h")
    common(p)
    p.set_defaults(func=_cmd_recurrence_demo)

    p = sub.add_parser("iss", help="disturbed rollout with ISS checks")
    common(p)
    p.add_argument(
        "--disturbance",
        default=None,
        help="override, e.g. kind=sine,amplitude=0.1,frequency=1",
    )
    p.add_argument("--mu-gain", type=float, default=None, help="linear class-K gain (default: calibrated)")
    p.set_defaults(func=_cmd_iss)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
