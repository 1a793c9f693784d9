import pytest
from mpmath import mpf

from xilab.precision import set_working_dps, to_decimal, working_dps


class TestWorkingPrecision:
    def test_floor_enforced(self):
        with pytest.raises(ValueError):
            set_working_dps(14)
        set_working_dps(15)
        assert working_dps() == 15


class TestConstructors:
    def test_to_decimal_roundtrip(self):
        x = mpf(1) / 7
        assert abs(mpf(to_decimal(x)) - x) < mpf(10) ** (-55)
