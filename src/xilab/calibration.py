"""Linear calibration of polynomial roots onto reference zeros.

The two lowest real roots are anchored onto the first two reference zeros
(z = A b + c, ascending roots onto ascending zeros); the remaining mapped
roots estimate the higher zeros. The quadratic-model row instead uses the
fixed affine map y = -A (sqrt(2) - b) with A = sqrt(2) N^{2/3}, the Airy
scale at the Hermite edge sqrt(2), applied to the largest roots, whose zero
tables descend. A zero table is a plain tuple of floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath import mpf

from .errors import XilabError


@dataclass(frozen=True)
class Calibration:
    A: mpf
    c: mpf

    def apply(self, b):
        return self.A * b + self.c


def fit_linear(real_roots, ref: tuple) -> Calibration:
    """Fit z = A b + c through the two lowest roots and the first two zeros.

    real_roots: ascending real root list (complex roots excluded upstream);
    ref: the reference zeros (floats) in their published (first, ...) order.
    """
    b1, b2 = real_roots[0], real_roots[1]
    for b in (b1, b2):
        if isinstance(b, mp.mpc) and mp.im(b) != 0:
            raise XilabError(f"anchor root {b} is not real")
    if b1 == b2:
        raise XilabError("anchor roots coincide")
    z1, z2 = mpf(str(ref[0])), mpf(str(ref[1]))
    A = (z2 - z1) / (mpf(b2) - mpf(b1))
    c = z1 - A * mpf(b1)
    return Calibration(A=A, c=c)


def estimate_zeros(cal: Calibration, real_roots) -> list:
    """z_i = A b_i + c over the real roots, in their given order."""
    return [cal.apply(mpf(b)) for b in real_roots]


def airy_fixed_map(N: int):
    """The quadratic-model calibration y = -A (sqrt(2) - b) at matrix size N,
    A = sqrt(2) N^{2/3}; written as 8 * 2^{1/6} (N/16)^{2/3}, whose factor is
    exactly 1 at N = 16."""
    A = 8 * mpf(2) ** (mpf(1) / 6) * (mpf(N) / 16) ** (mpf(2) / 3)
    return Calibration(A=A, c=-A * mp.sqrt(2))
