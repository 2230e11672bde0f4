"""The package's public surface: ``__all__`` names exactly what it exports,
and every exported name is used by the program, the benchmark or an
acceptance criterion."""
import ast
import re
import types
from pathlib import Path

import layersafe as ls

ROOT = Path(__file__).resolve().parent.parent


def test_all_matches_public_names():
    public = {
        name
        for name, obj in vars(ls).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(ls.__all__) == public
    assert len(ls.__all__) == len(set(ls.__all__))


def test_every_public_name_is_used():
    # a use is any line, other than the name's own def, class or assignment,
    # in the package's modules (the re-exporting __init__ aside), the
    # benchmark's scripts or the acceptance tests
    files = [p for p in (ROOT / "src" / "layersafe").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    lines = [ln for p in sorted(files) for ln in p.read_text().splitlines()]
    unused = []
    for name in ls.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(?:(?:def|class)\s+{re.escape(name)}\b|{re.escape(name)}\s*[:=])")
        if not any(word.search(ln) and not own.match(ln) for ln in lines):
            unused.append(name)
    assert unused == []


def test_only_scenario_builds_the_loop():
    # scenario.build_loop is the one place the closed loop is assembled;
    # estimate_mu_gain builds its own probe disturbances
    builders = {"build_pair", "build_barrier", "build_law", "build_scenario_rcbf", "make_disturbance"}
    found = []
    for path in sorted((ROOT / "src" / "layersafe").glob("*.py")):
        if path.name == "scenario.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if getattr(top, "name", None) == "estimate_mu_gain":
                continue
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if isinstance(node, ast.Call) and name in builders:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_only_vnorm_and_the_fused_passes_take_a_root():
    # _vec.vnorm is the one norm, one body on (x, y) with no if statement
    # for another argument shape; the barrier kernel's fused passes, the
    # random table's radius draw and its overflow-safe sup norm keep their
    # own roots
    allowed = {
        ("_vec.py", "vnorm"),
        ("barrier.py", "min_distance_barrier"),
        ("robustness.py", "_disk"),
        ("robustness.py", "_largest_norm"),
    }
    found = []
    for path in sorted((ROOT / "src" / "layersafe").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) in allowed:
                if top.name == "vnorm":
                    found += [f"vnorm:{n.lineno} if" for n in ast.walk(top) if isinstance(n, ast.If)]
                continue
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if isinstance(node, ast.Call) and name == "sqrt":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _functions(path):
    """(name, node) of each top-level function and method in a module."""
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.ClassDef):
            methods = [f for f in top.body if isinstance(f, ast.FunctionDef)]
            yield from ((f"{top.name}.{f.name}", f) for f in methods)
        elif isinstance(top, ast.FunctionDef):
            yield top.name, top


def test_each_forked_rule_has_one_copy():
    # the law has one body for floats and columns, the divergence message is
    # built in one function, and the random table is read only by _random_rows
    text, nested, message, draws = "non-finite state at step", [], [], []
    for path in sorted((ROOT / "src" / "layersafe").glob("*.py")):
        for name, func in _functions(path):
            where = f"{path.name}:{name}"
            for node in ast.walk(func):
                inner = isinstance(node, ast.FunctionDef) and node is not func
                if inner and name == "assemble_closed_loop":
                    nested.append(node.name)
                elif isinstance(node, ast.Constant) and text in str(node.value):
                    message.append(where)
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_draws":
                    draws.append(where)
    assert nested == ["evaluate"]
    assert set(message) == {"dynamics.py:_divergence"}
    assert set(draws) == {"robustness.py:_random_rows"}


def test_readme_quick_start_runs(monkeypatch, tmp_path, capsys):
    # the README's library example, run as written: a renamed or removed name
    # fails here instead of leaving the docs stale
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n.*?```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "min clearance:" in out and "recurrence:" in out and "chain slack:" in out
