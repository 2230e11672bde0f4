"""The repository's helper scripts under tools/, loaded by path."""
import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return _load("bench_pairs")


def test_bench_pairs_names_a_checkout_outside_git(bench_pairs, tmp_path):
    # two identical exported copies get the same revision, and any changed
    # byte under src/ a different one
    copies = [tmp_path / name for name in ("a", "b")]
    for copy in copies:
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (copies[1] / "src" / "layersafe" / "__pycache__").mkdir(exist_ok=True)
    (copies[1] / "src" / "layersafe" / "__pycache__" / "stale.pyc").write_bytes(b"\0")
    a, b = (bench_pairs._revision(copy) for copy in copies)
    assert a.startswith("tree:") and len(a) == len("tree:") + 64
    assert a == b
    module = copies[1] / "src" / "layersafe" / "errors.py"
    module.write_bytes(module.read_bytes() + b"\n")
    assert bench_pairs._revision(copies[1]) != a


def _pairs(parent, change, name="norm_op_p50_s"):
    return [
        {"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
        for p, c in zip(parent, change)
    ]


def test_bench_pairs_gain_rule(bench_pairs):
    # the rule: at least nine tenths of the pairs won, ties counting for
    # neither, and a median gain larger than the parent's IQR
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    lower = {"norm_op_p50_s": True}

    def rule(change, better=lower):
        name = next(iter(better))
        return bench_pairs.summarize(_pairs(parent, change, name), better)[name]

    clear = [p - 0.2 for p in parent]
    got = rule(clear)
    assert (got["change_wins"], got["parent_wins"], got["gain_rule_holds"]) == (10, 0, True)
    assert abs(got["median_gain"] - 0.2) < 1e-12 and got["parent"]["iqr"] < 0.2
    assert rule(clear[:9] + [parent[9]])["gain_rule_holds"]  # 9 wins, one tie
    assert not rule(clear[:8] + parent[8:])["gain_rule_holds"]  # 8 wins
    # every pair won, by less than the parent's spread
    small = rule([p - 0.01 for p in parent])
    assert small["change_wins"] == 10 and not small["gain_rule_holds"]
    # a higher-is-better metric gains when the change reads higher
    higher = {"norm_steps_per_s": False}
    assert rule([p + 0.2 for p in parent], higher)["gain_rule_holds"]
    assert not rule(clear, higher)["gain_rule_holds"]


def test_cli_costs_runs_one_command(capsys):
    # one simulate run in a fresh interpreter, reaped with its peak RSS
    cli_costs = _load("cli_costs")
    assert cli_costs.main(["--repeat", "1", "--only", "simulate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["command", "median_wall_s", "median_rss_mb", "max_rss_mb"]
    name, wall, median_rss, max_rss = lines[2].split()
    assert name == "simulate" and float(wall) > 0.0
    assert 0.0 < float(median_rss) == float(max_rss)


def test_artifact_digests_check(monkeypatch, tmp_path, capsys):
    # the simulate run alone, against its lines in the checked-in digests:
    # a match exits 0, one altered digest exits 1 with a diff naming its line
    digests = _load("artifact_digests")
    monkeypatch.setattr(digests, "RUNS", [run for run in digests.RUNS if run[0] == "simulate"])
    lines = [
        ln
        for ln in (ROOT / "tools" / "artifact_digests.txt").read_text().splitlines(keepends=True)
        if ln.split()[1].startswith(("simulate.", "simulate/"))
    ]
    assert len(lines) == 3
    expected = tmp_path / "expected.txt"
    expected.write_text("".join(lines))
    assert digests.main(["--check", str(expected)]) == 0
    assert capsys.readouterr().out == ""
    altered = ("0" * 64) + lines[1][64:]
    expected.write_text("".join([lines[0], altered, lines[2]]))
    assert digests.main(["--check", str(expected)]) == 1
    out = capsys.readouterr().out
    assert f"-{altered}" in out and f"+{lines[1]}" in out
