"""``tools/temme_table.py`` and the Temme coefficients ``filters`` holds."""

import importlib.util
from pathlib import Path

import mpmath

from gibbsaccel.filters import _TEMME_D

TOOL = Path(__file__).resolve().parents[1] / "tools" / "temme_table.py"

SPEC = importlib.util.spec_from_file_location("temme_table", TOOL)
tool = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tool)


def test_known_coefficients():
    # Temme (1979) and DLMF 8.12: C_0 = -1/3 + eta/12 - 2 eta^2/135 + ...,
    # C_1(0) = -1/540, C_2(0) = 25/6048
    with mpmath.workdps(30):
        d = tool.temme_coefficients(3, 3)
        expected = [
            [mpmath.mpf(-1) / 3, mpmath.mpf(1) / 12, mpmath.mpf(-2) / 135],
            mpmath.mpf(-1) / 540,
            mpmath.mpf(25) / 6048,
        ]
        assert all(abs(v - e) < 1e-28 for v, e in zip(d[0], expected[0]))
        assert abs(d[1][0] - expected[1]) < 1e-28
        assert abs(d[2][0] - expected[2]) < 1e-28


def test_checked_in_table_is_the_correctly_rounded_literal():
    # literal() rounds the table computed at tool.DIGITS = 50 digits
    namespace = {}
    exec(tool.literal(), namespace)
    assert namespace["_TEMME_D"] == _TEMME_D
