"""Write-then-rename artifact emission, and the exact %.17g table formatter."""
import errno
import math
from fractions import Fraction

import numpy as np
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


def _percent_text(table):
    """The '%' operator's text of a float table: format_rows' reference."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


def _first_difference(got, want):
    for k, (g, w) in enumerate(zip(got.splitlines(), want.splitlines())):
        if g != w:
            return k, g, w
    return len(got), len(want)


def _near_ties(k, spread=8):
    """Doubles x = m * 2**e in [10**(16 - k), 10**(17 - k)) whose product
    x * 10**k = m * 5**k / 2**s (s = -(e + k)) lies j / 2**s off a rounding
    tie, 0 < |j| <= spread: m * 5**k = 2**(s - 1) + j modulo 2**s."""
    lo = Fraction(10) ** (16 - k)
    e0 = lo.numerator.bit_length() - lo.denominator.bit_length() - 53
    out = []
    for e in range(e0 - 1, e0 + 5):
        s = -(e + k)
        inverse = pow(5**k, -1, 2**s)
        for j in [*range(-spread, 0), *range(1, spread + 1)]:
            for m in range((2 ** (s - 1) + j) * inverse % 2**s, 2**53, 2**s):
                if lo <= m * Fraction(2) ** e < 10 * lo:
                    out.append(math.ldexp(m, e))
    return out


def test_format_rows_matches_percent_operator():
    # 1.13e6 doubles against '%.17g' % x, byte for byte
    rng = np.random.default_rng(25)
    bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64, endpoint=False).view(np.float64)
    subnormal = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
    magnitude = 10.0 ** rng.uniform(-30, 30, 400_000) * rng.choice([-1.0, 1.0], 400_000)
    # nextafter neighbours of 10**k, eight steps each way
    steps = [np.array([10.0**k for k in range(-30, 31)])]
    for toward in (0.0, np.inf):
        near = steps[0]
        for _ in range(8):
            near = np.nextafter(near, toward)
            steps.append(near)
    # exact ties: x * 10**k = m * 5**k / 2 with m odd lies halfway between
    # two 17-digit significands (k > 22 on the two-step product)
    ties = [np.array([1e15 + 0.25, 1e15 + 0.75, -(1e15 + 0.25)])]
    for k in range(2, 25):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        m = rng.integers(lo // 2, hi // 2, 200) * 2 + 1
        ties.append(np.ldexp(m.astype(np.float64), -(k + 1)))
    # near ties where the two-step product's error could round the wrong way
    ties.append(np.array([x for k in range(23, 45) for x in _near_ties(k)]))
    # doubles below a power of ten whose 17 digits carry to it, and the '%g'
    # switch points between fixed and exponential notation
    switch = [1e-14, 1e-305, 1e98, 1e153, 1e-4, 9.9999999999999995e-05, 1e-5, 1e16, 1e17]
    switch = np.array(switch + [np.nextafter(v, t) for v in switch for t in (0.0, np.inf)])
    integers = rng.integers(1, 10**17, 100_000).astype(np.float64)
    small = rng.integers(1, 2**53, 100_000) * 2.0 ** rng.integers(-100, 0, 100_000)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324])
    values = np.concatenate(
        [bits, subnormal, magnitude, *steps, *ties, switch, integers, integers / 8, small, special]
    )
    assert values.size >= 10**6
    assert np.count_nonzero((np.abs(values) < 2.2250738585072014e-308) & (values != 0)) > 20_000
    table = values[: values.size // 20 * 20].reshape(-1, 20)
    got, want = _io.format_rows(table), _percent_text(table)
    assert got == want, _first_difference(got, want)
    # rows that do not fill a formatting chunk evenly, and a row's last column
    odd = values[: 7 * 1001].reshape(1001, 7)
    assert _io.format_rows(odd) == _percent_text(odd)
    column = values[:3001, None]
    assert _io.format_rows(column) == _percent_text(column)


def test_format_rows_edge_cases():
    cases = [
        (0.0, "0"),
        (-0.0, "-0"),
        (np.nan, "nan"),
        (-np.nan, "nan"),
        (np.inf, "inf"),
        (-np.inf, "-inf"),
        (0.1, "0.10000000000000001"),
        (1.5, "1.5"),
        (-2.0, "-2"),
        (1234.5678, "1234.5678"),
        (0.001, "0.001"),
        (1e-4, "0.0001"),
        (9.9999999999999995e-05, "9.9999999999999991e-05"),
        (2.5e-05, "2.5000000000000001e-05"),
        (1e-07, "9.9999999999999995e-08"),
        (1e-14, "1e-14"),
        (1e-27, "1e-27"),
        (1e15 + 0.25, "1000000000000000.2"),
        (1e15 + 0.75, "1000000000000000.8"),
        (1e16, "10000000000000000"),
        (1e16 + 2, "10000000000000002"),
        (99999999999999984.0, "99999999999999984"),
        (1e17, "1e+17"),
        (1e300, "1.0000000000000001e+300"),
        (5e-324, "4.9406564584124654e-324"),
    ]
    for value, text in cases:
        assert _io.format_rows(np.array([[value]])) == text + "\n", value
    table = np.array([[1.0, -0.0, 0.5], [np.nan, 2.5e-7, -1e20]])
    assert _io.format_rows(table) == "1,-0,0.5\nnan,2.4999999999999999e-07,-1e+20\n"
    assert _io.format_rows(np.empty((0, 3))) == ""
