"""The repository's helper scripts under tools/, loaded by path."""
import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
