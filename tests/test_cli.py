"""Exit codes and artifacts of the command-line front end (in-process)."""
import subprocess
import sys

from layersafe.cli import main

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
    assert (out / "simulate.csv").is_file()
    assert (out / "simulate_report.txt").is_file()
    assert (out / "plot_runs.py").is_file()


def test_simulate_seed_override_runs(tmp_path, capsys):
    scn = _write(tmp_path, GOOD)
    assert main(["simulate", scn, "--seed", "7", "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_simulate_failing_expectation(tmp_path, capsys):
    scn = _write(tmp_path, BAD)
    assert main(["simulate", scn, "--out", str(tmp_path / "out")]) == 1
    assert "FAIL expect.min_h >= 1000.0" in capsys.readouterr().out


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.scn")]) == 2
    assert "no such scenario" in capsys.readouterr().err


def test_certify_bad_grid(tmp_path, capsys):
    scn = _write(tmp_path, GOOD)
    out = str(tmp_path / "out")
    assert main(["certify", scn, "--grid", "vel:4x4", "--out", out]) == 2
    assert main(["certify", scn, "--grid", "pos:4x4x4", "--out", out]) == 2
    assert main(["certify", scn, "--grid", "pos:axb", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "pos:<nx>x<ny>" in err


def test_bad_alphas(tmp_path, capsys):
    scn = _write(tmp_path, GOOD)
    out = str(tmp_path / "out")
    assert main(["case-study", scn, "--alphas", "a,b", "--out", out]) == 2
    assert main(["case-study", scn, "--alphas", ",", "--out", out]) == 2
    # both format to the label case_study_alpha_0.5: refused before any run
    assert main(["case-study", scn, "--alphas", "0.5,1,0.5000001", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "comma-separated numbers" in err
    assert "at least one value" in err
    assert "share the artifact label case_study_alpha_0.5" in err
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


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "layersafe", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "layersafe" in proc.stdout
