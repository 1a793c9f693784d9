"""Working-precision management and decimal forms of extended-precision numbers.

All extended-precision values in this package are mpmath ``mpf``/``mpc``
numbers created under the module's working precision (decimal digits).
Arithmetic rounds at the current working precision, so mixing values created
at lower precision with higher-precision ones loses nothing: the result
carries max(operand precision) significant digits.

The default (60 digits) is set at import and changed by
:func:`set_working_dps`. This module reads no environment variable; the
command line reads ``XI_LAB_PRECISION`` (see ``xilab.cli``).
"""

from __future__ import annotations

import mpmath as mp
from mpmath import mpc, mpf

MIN_DPS = 15
DEFAULT_DPS = 60


def set_working_dps(dps: int) -> None:
    """Set the working precision in decimal digits (>= 15)."""
    if dps < MIN_DPS:
        raise ValueError(f"working precision must be >= {MIN_DPS} digits, got {dps}")
    mp.mp.dps = dps


def working_dps() -> int:
    return mp.mp.dps


def to_decimal(x, digits: int | None = None) -> str:
    """Decimal-string form preserving the working precision (for JSON)."""
    return mp.nstr(mpf(x) if not isinstance(x, mpc) else x,
                   digits or mp.mp.dps, strip_zeros=False)


def pretty(x, digits: int = 6) -> str:
    """Human-facing rounding, 6 significant digits by default."""
    return mp.nstr(x, digits)


set_working_dps(DEFAULT_DPS)
