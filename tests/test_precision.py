import os
import subprocess
import sys
from pathlib import Path

from mpmath import mpf

from xilab.precision import to_decimal

SRC = Path(__file__).resolve().parents[1] / "src"


class TestNoPrecisionState:
    def test_import_changes_no_mpmath_setting(self):
        # a fresh interpreter: the suite's own fixture holds 60 digits here
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import mpmath, xilab, xilab.cli; print(mpmath.mp.dps, mpmath.mp.prec)"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.split() == ["15", "53"]


class TestConstructors:
    def test_to_decimal_roundtrip(self):
        x = mpf(1) / 7
        assert abs(mpf(to_decimal(x)) - x) < mpf(10) ** (-55)
