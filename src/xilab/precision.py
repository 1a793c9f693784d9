"""Precision constants and decimal forms of extended-precision numbers.

All extended-precision values in this package are mpmath ``mpf``/``mpc``
numbers. The package follows mpmath's convention: arithmetic rounds at
mpmath's current working precision, and the caller sets it, e.g.
``with mp.workdps(60): ...``. Importing the package changes no mpmath
setting, and no library function sets the precision. The command line is
the one place that decides it (``xilab.cli``: ``--precision``, else
:data:`DEFAULT_DPS`, at least :data:`MIN_DPS`; no environment variable).
"""

from __future__ import annotations

import mpmath as mp
from mpmath import mpc, mpf

MIN_DPS = 15
DEFAULT_DPS = 60


def to_decimal(x) -> str:
    """Decimal-string form preserving the working precision (for JSON)."""
    return mp.nstr(mpf(x) if not isinstance(x, mpc) else x, mp.mp.dps, strip_zeros=False)


def pretty(x, digits: int = 6) -> str:
    """Human-facing rounding, 6 significant digits by default."""
    return mp.nstr(x, digits)
