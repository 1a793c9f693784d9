"""Catalog of Fourier kernels Phi and potentials U(x) = -log Phi(x).

Point evaluation at extended precision plus Taylor expansion of U at 0.
Expansions are exact series arithmetic on the kernel terms (series_exp /
series_log), never finite differences: the theta-type sums converge so fast
near 0 that a handful of terms gives full working precision. The riemann
kernel is summed as a series and its log taken once; the ramanujan kernel is
a product, so its U is expanded as a sum of series_log terms, one per factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath import mpf

from .errors import NonConvergence
from .series import TaylorSeries, series_exp, series_log

KINDS = ("riemann", "ramanujan", "eta_gamma", "cosh", "monomial", "explicit")


def _default_tolerance() -> mpf:
    return mpf(10) ** (-(mp.mp.dps + 10))


@dataclass(frozen=True)
class PotentialSpec:
    """One potential family instance.

    kind: one of riemann | ramanujan | eta_gamma | cosh | monomial | explicit
    degree: even monomial degree 2n (monomial kind only)
    p: model degree for explicit couplings
    s: couplings s_1..s_{p-2} for the explicit kind (missing entries zero),
        kept exact (ints and decimal strings; a float becomes its shortest
        decimal string) and converted at the precision of each expansion
    max_terms: truncation of the kernel sums, which stop once a term falls
        below 10^-(dps+10) at the current working precision
    """

    kind: str
    degree: int = 0
    p: int = 0
    s: tuple = ()
    max_terms: int = 64

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "monomial":
            if self.degree <= 0 or self.degree % 2:
                raise ValueError("monomial degree must be a positive even integer")
        if self.kind == "explicit":
            if self.p < 3:
                raise ValueError("explicit couplings need p >= 3")
            if len(self.s) > self.p - 2:
                raise ValueError(f"explicit coupling list longer than p-2 = {self.p - 2}")
        couplings = []
        for v in self.s:
            v = str(v) if isinstance(v, float) else v
            mpf(v)  # rejects a coupling that is not a number
            couplings.append(v)
        object.__setattr__(self, "s", tuple(couplings))


@dataclass(frozen=True)
class KernelValue:
    phi: mpf
    phi_prime: mpf | None = None


# ---------------------------------------------------------------------------
# point evaluation


def phi_riemann(x, max_terms: int = 64, term_tolerance=None) -> KernelValue:
    """Theta-type kernel whose Fourier transform is the Riemann Xi function.

    Phi(x)  = sum_n (4 pi^2 n^4 e^{9x/2} - 6 pi n^2 e^{5x/2}) exp(-pi n^2 e^{2x})
    Phi'(x) = sum_n (30 pi^2 n^4 e^{9x/2} - 15 pi n^2 e^{5x/2}
                     - 8 pi^3 n^6 e^{13x/2}) exp(-pi n^2 e^{2x})
    """
    x = mpf(x)
    tol = mpf(term_tolerance) if term_tolerance is not None else _default_tolerance()
    e2 = mp.exp(2 * x)
    e92 = mp.exp(mpf(9) / 2 * x)
    e52 = mp.exp(mpf(5) / 2 * x)
    e132 = mp.exp(mpf(13) / 2 * x)
    phi = mpf(0)
    dphi = mpf(0)
    for n in range(1, max_terms + 1):
        w = mp.exp(-mp.pi * n * n * e2)
        t = (4 * mp.pi ** 2 * n ** 4 * e92 - 6 * mp.pi * n ** 2 * e52) * w
        dt = (30 * mp.pi ** 2 * n ** 4 * e92 - 15 * mp.pi * n ** 2 * e52
              - 8 * mp.pi ** 3 * n ** 6 * e132) * w
        phi += t
        dphi += dt
        if abs(t) < tol and abs(dt) < tol:
            return KernelValue(phi, dphi)
    raise NonConvergence(f"riemann kernel sum did not reach tolerance in {max_terms} terms")


def phi_ramanujan(x, max_terms: int = 64, term_tolerance=None) -> KernelValue:
    """Modular-discriminant kernel: e^{-6x} e^{-2 pi e^{-x}} prod_n (1 - e^{-2 pi n e^{-x}})^24."""
    x = mpf(x)
    tol = mpf(term_tolerance) if term_tolerance is not None else _default_tolerance()
    q = mp.exp(-x)
    phi = mp.exp(-6 * x) * mp.exp(-2 * mp.pi * q)
    for n in range(1, max_terms + 1):
        f = 1 - mp.exp(-2 * mp.pi * n * q)
        phi *= f ** 24
        if abs(1 - f ** 24) < tol:
            return KernelValue(phi)
    raise NonConvergence(f"ramanujan kernel product did not reach tolerance in {max_terms} factors")


def u_eta_gamma(x) -> mpf:
    """Closed-form potential of the gamma-times-eta kernel.

    U(x) = -log( e^{-(x+log 2)/2} / exp(e^{-(x+log 2)} + 1) )
         = (x + log 2)/2 + e^{-(x+log 2)} + 1
    """
    x = mpf(x)
    return (x + mp.log(2)) / 2 + mp.exp(-(x + mp.log(2))) + 1


def u_eta_gamma_prime(x) -> mpf:
    """d/dx of the closed form: 1/2 - e^{-(x+log 2)}."""
    return mpf(1) / 2 - mp.exp(-(mpf(x) + mp.log(2)))


# ---------------------------------------------------------------------------
# Taylor expansion of U at 0


def _phi_riemann_series(order: int, max_terms: int, tol: mpf) -> TaylorSeries:
    e2 = TaylorSeries.exponential(2, order)
    e92 = TaylorSeries.exponential(mpf(9) / 2, order)
    e52 = TaylorSeries.exponential(mpf(5) / 2, order)
    total = TaylorSeries.zero(order)
    for n in range(1, max_terms + 1):
        damp = series_exp(e2 * (-mp.pi * n * n))
        pre = e92 * (4 * mp.pi ** 2 * n ** 4) - e52 * (6 * mp.pi * n ** 2)
        term = pre * damp
        total = total + term
        if max(abs(c) for c in term.coeffs) < tol:
            return total
    raise NonConvergence(f"riemann kernel series did not settle in {max_terms} terms")


def _u_ramanujan_series(order: int, max_terms: int, tol: mpf) -> TaylorSeries:
    # U = 6x + 2 pi e^{-x} - 24 sum_n log(1 - e^{-2 pi n e^{-x}}): one
    # series_exp and one series_log per factor, O(order^2) each
    em = TaylorSeries.exponential(-1, order)
    total = TaylorSeries.identity(order) * 6 + em * (2 * mp.pi)
    for n in range(1, max_terms + 1):
        total = total - series_log(1 - series_exp(em * (-2 * mp.pi * n))) * 24
        if abs(mp.exp(-2 * mp.pi * n)) * 24 < tol:
            return total
    raise NonConvergence(f"ramanujan kernel series did not settle in {max_terms} factors")


def taylor_u(spec: PotentialSpec, order: int) -> TaylorSeries:
    """Taylor series of U(x) at 0 through the requested order."""
    if order < 2:
        raise ValueError("expansion order must be >= 2")
    tol = _default_tolerance()
    if spec.kind == "riemann":
        phi = _phi_riemann_series(order, spec.max_terms, tol)
        return -series_log(phi)
    if spec.kind == "ramanujan":
        return _u_ramanujan_series(order, spec.max_terms, tol)
    if spec.kind == "eta_gamma":
        # (x+log2)/2 + e^{-x}/2 + 1, expanded term by term
        c = [mp.log(2) / 2 + mpf(3) / 2]
        for n in range(1, order + 1):
            c.append((-1) ** n / (2 * mp.factorial(n)))
        c[1] += mpf(1) / 2
        return TaylorSeries(c)
    if spec.kind == "cosh":
        return TaylorSeries([1 / mp.factorial(n) if n % 2 == 0 else mpf(0)
                             for n in range(order + 1)])
    if spec.kind == "monomial":
        c = [mpf(0)] * (order + 1)
        if spec.degree <= order:
            c[spec.degree] = mpf(1) / spec.degree
        return TaylorSeries(c)
    if spec.kind == "explicit":
        # already a normalized potential: x^{p+1}/(p+1) + sum s_{n-1} x^n / n
        c = [mpf(0)] * (order + 1)
        if spec.p + 1 <= order:
            c[spec.p + 1] = mpf(1) / (spec.p + 1)
        for i, sv in enumerate(spec.s):
            n = i + 2
            if n <= order:
                c[n] = mpf(sv) / n
        return TaylorSeries(c)
    raise AssertionError(f"unhandled kind {spec.kind}")
