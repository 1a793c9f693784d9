"""Working-precision management and extended-precision scalar helpers.

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

from contextlib import contextmanager

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


@contextmanager
def local_dps(dps: int):
    """Temporarily run at a different working precision."""
    if dps < MIN_DPS:
        raise ValueError(f"working precision must be >= {MIN_DPS} digits, got {dps}")
    old = mp.mp.dps
    mp.mp.dps = dps
    try:
        yield
    finally:
        mp.mp.dps = old


@contextmanager
def extra_dps(n: int):
    """Temporarily add guard digits."""
    old = mp.mp.dps
    mp.mp.dps = old + n
    try:
        yield
    finally:
        mp.mp.dps = old


def xreal(x, dps: int | None = None) -> mpf:
    """Build an extended-precision real from str/int/float/mpf.

    Strings are the lossless way in; floats are accepted for convenience
    and carry only their native 53 bits.
    """
    if dps is None:
        return mpf(x)
    if dps < MIN_DPS:
        raise ValueError(f"value precision must be >= {MIN_DPS} digits, got {dps}")
    with local_dps(max(dps, mp.mp.dps)):
        return mpf(x)


def xcomplex(re, im=0) -> mpc:
    return mpc(xreal(re), xreal(im))


def to_decimal(x, digits: int | None = None) -> str:
    """Decimal-string form preserving the working precision (for JSON)."""
    return mp.nstr(mpf(x) if not isinstance(x, mpc) else x,
                   digits or mp.mp.dps, strip_zeros=False)


def pretty(x, digits: int = 6) -> str:
    """Human-facing rounding, 6 significant digits by default."""
    return mp.nstr(x, digits)


set_working_dps(DEFAULT_DPS)
