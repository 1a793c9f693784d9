"""Catalog of Fourier kernels Phi and potentials U(x) = -log Phi(x).

Taylor expansion of U at 0 at extended precision. Expansions are exact
series arithmetic on the kernel terms, never finite differences: the
theta-type sums converge so fast near 0 that a handful of terms gives full
working precision. The riemann kernel is summed as a series (series_exp) and
its log taken once (series_log). The ramanujan kernel is an eta product, and
log prod_n (1 - q^n) = -sum_m sigma(m) q^m / m turns its U into one divisor
sum whose Taylor coefficients follow from a Stirling transform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import count

import mpmath as mp
import numpy as np
from mpmath import mpf

from .series import series_exp, series_log, series_mul

#: the potential families; only ``explicit`` reads the ``p`` and ``s`` fields
KINDS = ("riemann", "ramanujan", "eta_gamma", "cosh", "explicit")


def check_degree(p: int) -> None:
    if p < 2:
        raise ValueError(f"model degree p must be >= 2, got {p}")


def _default_tolerance() -> mpf:
    return mpf(10) ** (-(mp.mp.dps + 10))


@dataclass(frozen=True)
class PotentialSpec:
    """One potential family instance.

    kind: one of riemann | ramanujan | eta_gamma | cosh | explicit
    p: model degree (>= 2) of the explicit kind, x^{p+1}/(p+1) + sum s_{n-1} x^n / n
    s: its couplings s_1..s_{p-2} (missing entries zero; none is the
        generalized Airy potential x^{p+1}/(p+1), at p = 2 the quadratic model),
        kept exact (ints and decimal strings; a float becomes its shortest
        decimal string) and converted at the precision of each expansion

    The riemann and ramanujan kernel sums take no setting: each runs until a
    term (for ramanujan, a bound on what the next term adds to any
    coefficient) falls below 10^-(dps+10) at the current working precision.
    """

    kind: str
    p: int = 0
    s: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "explicit":
            check_degree(self.p)
            if len(self.s) > self.p - 2:
                raise ValueError(f"explicit coupling list longer than p-2 = {self.p - 2}")
        couplings = []
        for v in self.s:
            v = str(v) if isinstance(v, float) else v
            if not mp.isfinite(mpf(v)):  # mpf rejects a coupling that is not a number
                raise ValueError(f"coupling {v!r} is not finite")
            couplings.append(v)
        object.__setattr__(self, "s", tuple(couplings))


# ---------------------------------------------------------------------------
# Taylor expansion of U at 0


def _phi_riemann_series(order: int, tol: mpf) -> tuple:
    def exp_series(scale):  # exp(scale x)
        return [scale ** n / mp.factorial(n) for n in range(order + 1)]

    e2, e92, e52 = exp_series(mpf(2)), exp_series(mpf(9) / 2), exp_series(mpf(5) / 2)
    total = [mpf(0)] * (order + 1)
    # no term cap in either kernel sum: these terms carry e^{-pi n^2} and the
    # ramanujan bound e^{-2 pi m}, so both fall at least geometrically and end
    for n in count(1):
        s2, s92, s52 = -mp.pi * n * n, 4 * mp.pi ** 2 * n ** 4, 6 * mp.pi * n ** 2
        damp = series_exp(tuple([c * s2 for c in e2]))
        pre = tuple([x * s92 - y * s52 for x, y in zip(e92, e52)])
        term = series_mul(pre, damp)
        total = [t + c for t, c in zip(total, term)]
        if max(abs(c) for c in term) < tol:
            return tuple(total)


def _stirling2(order: int) -> list:
    """Rows 0..order of the Stirling numbers of the second kind, S[k][j]."""
    rows = [[1]]
    for k in range(1, order + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, k + 1)])
    return rows


def _u_ramanujan_series(order: int, tol: mpf) -> tuple:
    """U = 6x + 2 pi e^{-x} - 24 sum_n log(1 - e^{-2 pi n e^{-x}})
         = 6x + 2 pi e^{-x} + 24 sum_m sigma(m)/m e^{-2 pi m e^{-x}}.

    [x^k] e^{-a e^{-x}} = (-1)^k e^{-a} sum_j S(k,j) (-a)^j / k!, so with
    E_j = sum_m sigma(m) m^{j-1} e^{-2 pi m} (O(terms * order) products)
    one Stirling transform gives every coefficient:

        [x^k] U = (-1)^k (2 pi + 24 sum_j S(k,j) (-2 pi)^j E_j) / k!  (+6 at k=1).
    """
    # the m-th term adds at most 24 (1 + ln m) e^{-a} (a + order)^order / order!
    # to a coefficient (a = 2 pi m; sigma(m)/m <= 1 + ln m and
    # sum_j S(k,j) a^j <= (a + k)^k); once a >= order the bounds fall by e^{-pi}
    # or more per term, so the sum takes terms 1..M, M the first m whose next
    # term's bound is below tol
    log_tol = float(mp.log(tol))

    def log_bound(m):
        a = 2 * math.pi * m
        return (math.log(24 * (1 + math.log(m))) - a
                + order * math.log(a + order) - math.lgamma(order + 1))

    terms = next(m for m in count(1)
                 if 2 * math.pi * (m + 1) >= order and log_bound(m + 1) < log_tol)
    sigma = [0] * (terms + 1)
    for d in range(1, terms + 1):
        sigma[d::d] = [s + d for s in sigma[d::d]]
    # the alternating Stirling sum cancels digits (1.4 at order 8, 6 at 20,
    # 8.4 at 28): work with order + 10 guard digits
    with mp.workdps(mp.mp.dps + order + 10):
        two_pi = 2 * mp.pi
        q = mp.exp(-two_pi)
        E = [mpf(0)] * (order + 1)
        qm = mpf(1)
        for m in range(1, terms + 1):
            qm *= q
            t = sigma[m] * qm / m
            for j in range(order + 1):
                E[j] += t
                t *= m
        S = _stirling2(order)
        P = [(-two_pi) ** j * e for j, e in enumerate(E)]
        c = [(-1) ** k * (two_pi + 24 * sum((S[k][j] * P[j] for j in range(k + 1)), mpf(0)))
             / math.factorial(k) for k in range(order + 1)]
        c[1] += 6
    return tuple([+v for v in c])


def taylor_u(spec: PotentialSpec, order: int) -> tuple:
    """Taylor coefficients of U(x) at 0, degrees 0..order."""
    if order < 2:
        raise ValueError("expansion order must be >= 2")
    tol = _default_tolerance()
    if spec.kind == "riemann":
        phi = _phi_riemann_series(order, tol)
        return tuple([-c for c in series_log(phi)])
    if spec.kind == "ramanujan":
        return _u_ramanujan_series(order, tol)
    if spec.kind == "eta_gamma":
        # (x+log2)/2 + e^{-x}/2 + 1, expanded term by term
        c = [mp.log(2) / 2 + mpf(3) / 2]
        for n in range(1, order + 1):
            c.append((-1) ** n / (2 * mp.factorial(n)))
        c[1] += mpf(1) / 2
        return tuple(c)
    if spec.kind == "cosh":
        return tuple([1 / mp.factorial(n) if n % 2 == 0 else mpf(0)
                      for n in range(order + 1)])
    if spec.kind == "explicit":
        # already a normalized potential: x^{p+1}/(p+1) + sum s_{n-1} x^n / n
        c = [mpf(0)] * (order + 1)
        if spec.p + 1 <= order:
            c[spec.p + 1] = mpf(1) / (spec.p + 1)
        for n, sv in enumerate(spec.s, start=2):
            if n <= order:
                c[n] = mpf(sv) / n
        return tuple(c)
    raise AssertionError(f"unhandled kind {spec.kind}")


def poly_u(coeffs) -> tuple:
    """U = sum c_n x^n, c ascending, as a vectorised float64 function, and whether U is even."""
    cs = np.array([float(c) for c in coeffs], dtype=np.float64)
    return functools.partial(np.polyval, cs[::-1]), all(abs(c) == 0 for c in cs[1::2])


def _u_eta_gamma_f64(x):
    # its transform 2^{-iz} Gamma(1/2-iz)/e is smooth and zero-free on the real axis
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return (x + np.log(2.0)) / 2 + np.exp(-(x + np.log(2.0))) + 1


def float64_u(spec: PotentialSpec) -> tuple:
    """``spec``'s U as the quadrature integrates it, a vectorised float64 function,
    and whether U is even. The explicit kind's coefficients are ``taylor_u``'s at
    a fixed 113 bits, rounded to float64; riemann and ramanujan have no closed form yet."""
    if spec.kind == "cosh":
        return np.cosh, True
    if spec.kind == "eta_gamma":
        return _u_eta_gamma_f64, False
    if spec.kind == "explicit":
        with mp.workprec(113):
            return poly_u(taylor_u(spec, spec.p + 1))
    raise ValueError(f"the {spec.kind} potential has no float64 closed form yet")
