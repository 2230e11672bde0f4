"""Write-then-rename artifact emission."""
import errno

import pytest

from layersafe import _io


def test_parts_are_written_in_order(tmp_path):
    path = tmp_path / "sub" / "a.txt"
    assert _io.atomic_write_text(path, "whole\n") == path
    assert path.read_text() == "whole\n"
    assert _io.atomic_write_text(path, (p for p in ["a,", "b\n", "", "c\n"])) == path
    assert path.read_text() == "a,b\nc\n"
    assert [p.name for p in path.parent.iterdir()] == ["a.txt"]


def test_failed_write_keeps_the_target_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "a.txt"
    path.write_text("previous\n")

    def parts():
        yield "first\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        _io.atomic_write_text(path, parts())
    with pytest.raises(TypeError):  # a part that is not a string
        _io.atomic_write_text(path, ["first\n", b"second\n"])

    class FullDisk:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(_io, "open", lambda p, mode: FullDisk(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        _io.atomic_write_text(path, "whole\n")
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
