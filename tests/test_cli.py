"""Exit codes and artifacts of the command-line front end (in-process)."""
import argparse
import csv
import math
import re
import subprocess
import sys

import pytest

from layersafe import bundled_scenario_path, dynamics
from layersafe.cli import build_parser, main
from layersafe.scenario import _VELOCITY_MODES

GOOD = """\
start = 0.4, 0.0
goal = 0.0, 0.0
obstacle.1.center = 40.0, 0.0
obstacle.1.radius = 0.5
gains.kp = 1.8
gains.kd = 8.0
gains.alpha = 0.5
sim.horizon = 1.0
expect.max_edot <= 1000.0
"""

# same world, but the declared floor is unreachable
BAD = GOOD.replace("expect.max_edot <= 1000.0", "expect.min_h >= 1000.0")


def _write(tmp_path, text, name="world.scn"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["simulate", "two_disks", "--bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag",
    [("certify two_disks", "--chunk 4"), ("simulate two_disks", "--seed 1"),
     ("iss open_field", "--seed 1")],
    ids=["certify-chunk", "simulate-seed", "iss-seed"],
)
def test_retired_options_are_usage_errors(tmp_path, capsys, command, flag):
    # certify's chunk is a module constant, and disturbance.seed is set in the
    # scenario file or by a --disturbance item: neither flag is parsed
    out = tmp_path / "out"
    assert main([*command.split(), *flag.split(), "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()
    assert main([command.split()[0], "--help"]) == 0
    assert flag.split()[0] not in capsys.readouterr().out


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "simulate" in out and "certify" in out


def test_simulate_pass_and_artifacts(tmp_path, capsys):
    scn = _write(tmp_path, GOOD)
    out = tmp_path / "out"
    assert main(["simulate", scn, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS expect.max_edot <= 1000.0" in stdout
    assert {p.name for p in out.iterdir()} == {"simulate.csv", "simulate_report.txt"}


def test_case_study_pass_and_artifacts(tmp_path, capsys):
    scn = _write(tmp_path, GOOD)
    out = tmp_path / "out"
    assert main(["case-study", scn, "--alphas", "0.5,1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    # expectations are judged only at the scenario's own alpha
    assert stdout.count("PASS expect.max_edot <= 1000.0") == 1
    assert {p.name for p in out.iterdir()} == {
        "case_study_alpha_0.5.csv",
        "case_study_alpha_0.5_report.txt",
        "case_study_alpha_1.csv",
        "case_study_alpha_1_report.txt",
        "case_study_summary.txt",
    }


def test_simulate_failing_expectation(tmp_path, capsys):
    scn = _write(tmp_path, BAD)
    assert main(["simulate", scn, "--out", str(tmp_path / "out")]) == 1
    assert "FAIL expect.min_h >= 1000.0" in capsys.readouterr().out


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.scn")]) == 2
    assert "no such scenario" in capsys.readouterr().err
    # a bare name that is no bundled scenario either
    assert main(["simulate", "no_such_bundle"]) == 2
    assert "no such scenario file" in capsys.readouterr().err


def test_certify_bad_grid(tmp_path, capsys):
    scn = _write(tmp_path, GOOD)
    out = str(tmp_path / "out")
    assert main(["certify", scn, "--grid", "vel:4x4", "--out", out]) == 2
    assert main(["certify", scn, "--grid", "pos:4x4x4", "--out", out]) == 2
    assert main(["certify", scn, "--grid", "pos:axb", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "pos:<nx>x<ny>" in err


def test_certify_non_finite_horizon(tmp_path, capsys):
    # refused with a usage error before any rollout or artifact, and so is a
    # horizon of 1.5 steps, which ran 2 steps and so ended past it; each
    # message names the horizon passed, not the scenario's sim.horizon
    out = tmp_path / "out"
    for value in ("inf", "nan"):
        argv = ["certify", "two_disks", "--grid", "pos:3x3", "--horizon", value, "--out", str(out)]
        assert main(argv) == 2
        assert f"error: horizon must be finite, got {float(value)!r}" in capsys.readouterr().err
        assert not out.exists()
    argv = ["certify", "two_disks", "--grid", "pos:3x3", "--horizon", "0.0015", "--out", str(out)]
    assert main(argv) == 2
    assert "error: horizon = 0.0015 must be a whole number of sim.dt = 0.001 steps, got 1.5 steps" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_step_count_that_overflows_is_refused(tmp_path, capsys):
    # horizon / dt overflows to inf, which round() could not count: a usage
    # error naming the horizon, at its line in a scenario file, not a traceback
    text = bundled_scenario_path("two_disks.scn").read_text()
    path = _write(tmp_path, text.replace("sim.dt = 0.001\n", "sim.dt = 1e-320\n"))
    out = tmp_path / "out"
    assert main(["simulate", path, "--out", str(out)]) == 2
    want = "error: line 29: sim.horizon = 10.0 holds too many sim.dt = 1e-320 steps to count\n"
    assert capsys.readouterr().err == want
    argv = ["certify", "two_disks", "--grid", "pos:3x3", "--horizon", "1e306", "--out", str(out)]
    assert main(argv) == 2
    want = "error: horizon = 1e+306 holds too many sim.dt = 0.001 steps to count\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_non_positive_obstacle_radius_names_its_line(tmp_path, capsys):
    text = bundled_scenario_path("two_disks.scn").read_text()
    path = _write(tmp_path, text.replace("obstacle.2.radius = 0.5\n", "obstacle.2.radius = -0.5\n"))
    assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: line 14: obstacle.2.radius must be positive, got -0.5\n"


def test_velocity_choices_are_the_scenario_modes():
    # one list of velocity modes: the scenario key's, which certify reads too
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    velocity = next(a for a in sub.choices["certify"]._actions if a.dest == "velocity")
    assert velocity.choices == _VELOCITY_MODES


def test_bad_alphas(tmp_path, capsys):
    scn = _write(tmp_path, GOOD)
    out = str(tmp_path / "out")
    assert main(["case-study", scn, "--alphas", "a,b", "--out", out]) == 2
    assert main(["case-study", scn, "--alphas", ",", "--out", out]) == 2
    # both format to the label case_study_alpha_0.5: refused before any run
    assert main(["case-study", scn, "--alphas", "0.5,1,0.5000001", "--out", out]) == 2
    # a bad alpha after a good one is refused before the good one runs
    assert main(["case-study", scn, "--alphas", "0.5,-1", "--out", out]) == 2
    assert main(["case-study", scn, "--alphas", "0.5,nan", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "comma-separated numbers" in err
    assert "at least one value" in err
    assert "share the artifact label case_study_alpha_0.5" in err
    assert "gains.alpha must be strictly positive, got -1.0" in err
    assert "gains.alpha must be strictly positive, got nan" in err
    assert not (tmp_path / "out").exists()


def test_bad_disturbance(tmp_path, capsys):
    scn = _write(tmp_path, GOOD)
    out = str(tmp_path / "out")
    assert main(["iss", scn, "--disturbance", "kindsine", "--out", out]) == 2
    assert main(["iss", scn, "--disturbance", "bogus=3", "--out", out]) == 2
    assert main(["iss", scn, "--disturbance", "amplitude=x", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "key=value" in err
    assert "unknown disturbance field" in err
    assert "bad value for disturbance" in err


def test_iss_rejects_repeated_disturbance_field(tmp_path, capsys):
    # a scenario file refuses a repeated key, so the override does too, rather
    # than letting the last value win
    out = tmp_path / "out"
    spec = "kind=sine,amplitude=0.1,kind=none"
    assert main(["iss", "open_field", "--disturbance", spec, "--out", str(out)]) == 2
    assert "error: duplicate disturbance field 'kind'" in capsys.readouterr().err
    assert not out.exists()


def test_iss_rejects_non_finite_disturbance(tmp_path, capsys):
    # an override the scenario format could not re-read is refused before any run
    out = tmp_path / "out"
    for field, spec in (
        ("segment", "kind=random,amplitude=0.1,segment=inf"),
        ("frequency", "kind=sine,amplitude=0.1,frequency=inf"),
    ):
        assert main(["iss", "open_field", "--disturbance", spec, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"bad value for disturbance {field}: value must be finite, got 'inf'" in err
        assert not out.exists()


def test_iss_rejects_segment_too_short_to_count(tmp_path, capsys):
    # t / segment past 2**63 used to read one table row at every time: the run
    # exited 0 and reported kind=random for what was a constant input
    out = tmp_path / "out"
    spec = "kind=random,amplitude=0.1,seed=7,segment=1e-300"
    assert main(["iss", "open_field", "--disturbance", spec, "--out", str(out)]) == 2
    assert "error: disturbance.segment = 1e-300 is too short" in capsys.readouterr().err
    assert not out.exists()


def test_iss_rejects_frequency_whose_rate_overflows(tmp_path, capsys):
    # 2*pi*1e308 is inf: the sine used to be NaN from the first step and the
    # run exited 1 on a non-finite state; the value is refused before the run
    out = tmp_path / "out"
    argv = ["iss", "open_field", "--disturbance", "kind=sine,amplitude=0.1,frequency=1e308",
            "--mu-gain", "0.14", "--out", str(out)]
    assert main(argv) == 2
    assert "disturbance.frequency = 1e+308 is too large" in capsys.readouterr().err
    assert not out.exists()


def test_iss_rejects_frequency_whose_phase_overflows_in_the_horizon(tmp_path, capsys):
    # 2*pi*1e307 is finite, but 2*pi*1e307*t is inf past t ~ 2.86 s: the run
    # used to exit 1 on a non-finite state at step 2862; the signal refuses it
    out = tmp_path / "out"
    argv = ["iss", "open_field", "--disturbance", "kind=sine,amplitude=0.1,frequency=1e307",
            "--mu-gain", "0.14", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: disturbance.frequency = 1e+307 is too large for t = 2.862" in err
    assert "non-finite state" not in err
    assert not out.exists()


def test_iss_rejects_out_of_range_disturbance(tmp_path, capsys):
    # an override outside a field's range is refused before any run, naming the key
    out = tmp_path / "out"
    argv = ["iss", "open_field", "--disturbance", "kind=random,amplitude=0.1,segment=-1",
            "--out", str(out)]
    assert main(argv) == 2
    assert "disturbance.segment must be finite and > 0, got -1.0" in capsys.readouterr().err
    assert not out.exists()


def test_iss_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["iss", "open_field", "--disturbance", "kind=random,amplitude=0.1,seed=-5",
            "--out", str(out)]
    assert main(argv) == 2
    assert "disturbance.seed must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_iss_rejects_invalid_mu_gain(tmp_path, capsys):
    # the offset is mu(r) = c r, so a gain that is not finite and > 0 is
    # refused before any rollout
    out = tmp_path / "out"
    for value in ("-1", "0", "nan", "inf"):
        argv = ["iss", "open_field", "--disturbance", "kind=none", "--mu-gain", value,
                "--out", str(out)]
        assert main(argv) == 2
        assert f"mu gain must be finite and positive, got {float(value)!r}" in capsys.readouterr().err
        assert not out.exists()


def test_iss_rejects_non_finite_envelope(tmp_path, capsys):
    # each value is finite, but the offset mu_gain * d_sup overflows: no
    # envelope check could judge it, so the run writes nothing
    out = tmp_path / "out"
    argv = ["iss", "open_field", "--mu-gain", "1e300",
            "--disturbance", "kind=constant,amplitude=1e10", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "mu gain 1e+300 at disturbance sup norm 10000000000.0 gives a non-finite" in err
    assert not out.exists()


def test_iss_refuses_its_envelope_before_it_rolls(tmp_path, capsys, monkeypatch):
    # the envelope is built before the disturbed run, so a refused gain
    # costs no RK4 step
    calls = []
    step = dynamics.rk4_step
    monkeypatch.setattr(dynamics, "rk4_step", lambda *a: calls.append(1) or step(*a))
    out = tmp_path / "out"
    argv = ["iss", "open_field", "--mu-gain", "1e300",
            "--disturbance", "kind=constant,amplitude=1e10", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "mu gain 1e+300 at disturbance sup norm 10000000000.0 gives a non-finite" in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command, report", [
    (["simulate"], "simulate_report.txt"),
    (["iss", "--disturbance", "kind=none", "--mu-gain", "0.14"], "iss_report.txt"),
    (["case-study", "--alphas", "0.5"], "case_study_alpha_0.5_report.txt"),
])
def test_runs_at_an_overflowing_recurrence_weight(tmp_path, capsys, command, report):
    # beta = 800 puts e^{beta t} past the largest double inside the window
    # (0, tau]: the recurrence check folds it with no warning (warnings are
    # errors in this suite) and reports a finite margin. case-study runs the
    # two_disks transit from its desired velocity, a nonzero initial error
    # whose envelope bound m e0 e^{-beta t} underflows to 0 past beta t ~ 745:
    # the envelope check gives that V the ratio inf, again with no warning,
    # and the transit fails its expectations
    study = command[0] == "case-study"
    text = bundled_scenario_path("two_disks.scn" if study else "open_field.scn").read_text()
    keys = [("rtf.beta", "800"), ("rtf.tau", "1.0"), ("sim.horizon", "2.0")]
    if study:
        keys.append(("sim.initial_velocity", "desired"))
    for key, value in keys:
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    out = tmp_path / "out"
    code = main([command[0], _write(tmp_path, text), *command[1:], "--out", str(out)])
    assert code == (1 if study else 0)
    summary = (out / report).read_text()
    margin = re.search(r"^  rtf_margin = (\S+)$", summary, flags=re.M)
    assert math.isfinite(float(margin.group(1)))
    if study:
        assert "\n  envelope_worst_ratio = inf\n" in summary


def test_recurrence_demo_without_certified_region(tmp_path, capsys):
    text = GOOD.replace("gains.alpha = 0.5", "gains.alpha = 5.0")
    scn = _write(tmp_path, text)
    assert main(["recurrence-demo", scn, "--out", str(tmp_path / "out")]) == 2
    assert "must exceed alpha" in capsys.readouterr().err


def test_certify_bundled_name(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "certify",
            "two_disks",
            "--grid",
            "pos:4x4",
            "--horizon",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "certified_safe:" in stdout
    assert (out / "certify_report.txt").is_file()
    assert (out / "certify_points.csv").is_file()
    assert (out / "unsafe_points.csv").is_file()
    # the S_V count reads the same records as the points file
    rows = list(csv.DictReader((out / "certify_points.csv").read_text().splitlines()[1:]))
    witnesses = [r for r in rows if r["verdict"] == "unsafe_witness"]
    inside = sum(r["in_s_v"] == "1" for r in witnesses)
    assert inside < len(witnesses)  # on this grid the in_s_v filter changes the count
    assert f"\n  unsafe_witness inside S_V: {inside}\n" in stdout


def test_certify_workers_flag_is_inert(tmp_path, capsys):
    argv = ["certify", "two_disks", "--grid", "pos:5x5", "--horizon", "0.2"]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert main([*argv, "--workers", "2", "--out", str(tmp_path / "workers")]) == 0
    capsys.readouterr()
    for name in ("certify_report.txt", "certify_points.csv", "unsafe_points.csv"):
        plain = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "workers" / name).read_bytes() == plain, name


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "layersafe", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "layersafe" in proc.stdout
