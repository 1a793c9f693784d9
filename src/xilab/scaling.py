"""Normalization of an expanded potential and the double-scaling constants.

A Taylor-expanded U is brought to the normal form

    U_p(x) = x^{p+1}/(p+1) + sum_{n=2}^{deg} s_{n-1} x^n / n + a_0

by the substitution x -> x/lambda with lambda = (a_{p+1} (p+1))^{1/(p+1)},
giving couplings s_{n-1} = n a_n lambda^{-n}. Even kernels populate only odd
couplings through degree p-1; the gamma-eta family keeps every coupling
through degree p.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath import mpf

from .errors import XilabError
from .precision import to_decimal


@dataclass(frozen=True)
class ScaledPotential:
    """Normalized degree-(p+1) potential with couplings s_1..s_{deg-1}."""

    p: int
    s: tuple            # s_1 .. s_{couplings_through-1}
    a0: mpf
    lam: mpf            # the rescale factor

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "lambda": to_decimal(self.lam),
            "a0": to_decimal(self.a0),
            "s": [to_decimal(v) for v in self.s],
        }


@dataclass(frozen=True)
class ModelParams:
    """One (p,1) model instance: size, couplings and scaling constants."""

    p: int
    N: int
    epsilon: mpf
    g: mpf
    s: tuple

    def weighted_couplings(self) -> dict:
        """k -> s_k * epsilon^(p-k) for the nonzero couplings."""
        return {k + 1: sv * self.epsilon ** (self.p - (k + 1))
                for k, sv in enumerate(self.s) if sv != 0}


def rescale_potential(u: tuple, p: int, *,
                      couplings_through: int | None = None) -> ScaledPotential:
    """Normalize a Taylor-expanded potential (coefficients u[0..], lowest
    degree first) for the degree-p model.

    couplings_through: highest x-degree mapped to a coupling (default p-1;
    the gamma-eta pipeline passes p to keep the degree-p term as s_{p-1}).

    A degree-(p+1) coefficient within 10^-(dps/2) of the larger of its two
    lower neighbours vanishes (a ValueError): an even kernel's odd
    coefficients are exactly 0, and the riemann kernel's come out of the
    expansion near 1e4 eps times their neighbours, rounding dust whose sign
    is chance. A negative one is the same config error: the model needs
    V ~ x^(p+1) with a positive coefficient, so another --p is the remedy.
    """
    if len(u) < p + 2:
        raise ValueError(f"need the expansion through order {p + 1}, have {len(u) - 1}")
    top = u[p + 1]
    dust = abs(top) <= mpf(10) ** (-(mp.mp.dps // 2)) * max(abs(u[p]), abs(u[p - 1]))
    if dust or not top > 0:
        how = "vanishes" if dust else "is not positive"
        raise ValueError(f"the expansion's x^{p + 1} coefficient {how} ({mp.nstr(top, 3)}), "
                         f"so it has no degree-{p} model: choose another --p")
    hi = couplings_through if couplings_through is not None else p - 1
    lam = (top * (p + 1)) ** (mpf(1) / (p + 1))
    s = tuple(n * u[n] * lam ** (-n) for n in range(2, hi + 1))
    return ScaledPotential(p=p, s=s, a0=u[0], lam=lam)


def cosh_couplings(p: int) -> ScaledPotential:
    """Closed-form couplings of the cosh potential: s_{2j+1} = (p!)^{(2j+2)/(p+1)} / (2j+1)!."""
    if p < 3 or p % 2 == 0:
        raise ValueError("the cosh family needs odd p >= 3")
    s = [mpf(0)] * (p - 2)
    fac = mp.factorial(p)
    for j in range((p - 1) // 2):
        k = 2 * j + 1
        s[k - 1] = fac ** (mpf(2 * j + 2) / (p + 1)) / mp.factorial(k)
    lam = fac ** (-mpf(1) / (p + 1))  # ((p+1)/(p+1)!)^{1/(p+1)} reduces to this
    return ScaledPotential(p=p, s=tuple(s), a0=mpf(1), lam=lam)


def double_scaling(p: int, N: int, s: tuple = (), *, g_override=None) -> ModelParams:
    """epsilon = N^{-1/(p+1)}; g = (1/N)(1 + sum_k s_k eps^{p-k}).

    g_override replaces the computed g (used to reproduce rows whose
    reference tables were generated with a foreign g, and given as ``--g``
    on the command line); a non-finite or non-positive one is a ValueError.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    s = tuple(mpf(str(v)) if isinstance(v, float) else mpf(v) for v in s)
    eps = (mpf(1) / N) ** (mpf(1) / (p + 1))
    if g_override is not None:
        g = mpf(g_override)
        if not mp.isfinite(g):
            raise ValueError(f"--g must be finite, got {g_override}")
        if not g > 0:
            raise ValueError(f"--g must be positive, got {mp.nstr(g, 8)}")
    else:
        corr = sum((sv * eps ** (p - (k + 1)) for k, sv in enumerate(s)), mpf(0))
        g = (1 + corr) / N
    if not g > 0:
        raise XilabError(f"computed g = {mp.nstr(g, 8)} <= 0; couplings leave the model's domain")
    return ModelParams(p=p, N=N, epsilon=eps, g=g, s=s)
