"""The package's public surface: ``__all__`` names exactly what it exports,
and every exported name is used by the program, the benchmark or an
acceptance criterion."""
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
