"""Truncated power series at extended precision.

Two flavours:

* :class:`TaylorSeries` — dense univariate series in x with mpf coefficients.
* :class:`BiSeries` — series in one variable whose coefficients are dense
  polynomials in a second variable (used to carry the ``a*b`` cross term of
  the character-polynomial exponent through a series exponential).

Binary operations truncate to the minimum order of the operands, so no
fictitious high-order terms are ever produced. Values are immutable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import mpmath as mp
from mpmath import mpf

from .errors import NonPositiveConstantTerm, NonzeroInnerConstant


class TaylorSeries:
    """Dense truncated series sum_{n=0}^{K} c_n x^n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(mpf(c) if not isinstance(c, mpf) else c for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("TaylorSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, n: int) -> mpf:
        return self.coeffs[n] if n <= self.order else mpf(0)

    def __eq__(self, other):
        return isinstance(other, TaylorSeries) and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(mp.nstr(c, 8) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"TaylorSeries([{head}{tail}], order={self.order})"

    @classmethod
    def zero(cls, order: int) -> "TaylorSeries":
        return cls([mpf(0)] * (order + 1))

    @classmethod
    def identity(cls, order: int) -> "TaylorSeries":
        """The series x."""
        c = [mpf(0)] * (order + 1)
        if order >= 1:
            c[1] = mpf(1)
        return cls(c)

    @classmethod
    def exponential(cls, scale, order: int) -> "TaylorSeries":
        """Series of exp(scale * x)."""
        s = mpf(scale)
        return cls([s ** n / mp.factorial(n) for n in range(order + 1)])

    def truncated(self, order: int) -> "TaylorSeries":
        if order >= self.order:
            return self
        return TaylorSeries(self.coeffs[: order + 1])

    def __add__(self, other):
        if isinstance(other, TaylorSeries):
            k = min(self.order, other.order)
            return TaylorSeries([self.coeffs[n] + other.coeffs[n] for n in range(k + 1)])
        c = list(self.coeffs)
        c[0] = c[0] + mpf(other)
        return TaylorSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return TaylorSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TaylorSeries) else -mpf(other))

    def __rsub__(self, other):
        return (-self) + mpf(other)

    def __mul__(self, other):
        if isinstance(other, TaylorSeries):
            k = min(self.order, other.order)
            out = [mpf(0)] * (k + 1)
            for i, a in enumerate(self.coeffs[: k + 1]):
                if a == 0:
                    continue
                for j in range(k + 1 - i):
                    out[i + j] += a * other.coeffs[j]
            return TaylorSeries(out)
        s = mpf(other)
        return TaylorSeries([c * s for c in self.coeffs])

    __rmul__ = __mul__

    def evaluate(self, x) -> mpf:
        """Horner evaluation of the truncated polynomial."""
        acc = mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def differentiate(self) -> "TaylorSeries":
        if self.order == 0:
            return TaylorSeries([mpf(0)])
        return TaylorSeries([n * c for n, c in enumerate(self.coeffs)][1:])


def series_exp(s: TaylorSeries) -> TaylorSeries:
    """exp of a series via the recurrence (exp f)' = f' exp f."""
    k = s.order
    f = s.coeffs
    g = [mpf(0)] * (k + 1)
    g[0] = mp.exp(f[0])
    for n in range(1, k + 1):
        acc = mpf(0)
        for j in range(1, n + 1):
            acc += j * f[j] * g[n - j]
        g[n] = acc / n
    return TaylorSeries(g)


def series_log(s: TaylorSeries) -> TaylorSeries:
    """log of a series via (log f)' = f'/f; needs f(0) > 0."""
    f = s.coeffs
    if not f[0] > 0:
        raise NonPositiveConstantTerm(
            f"series_log needs a positive constant term, got {mp.nstr(f[0], 8)}")
    k = s.order
    g = [mpf(0)] * (k + 1)
    g[0] = mp.log(f[0])
    for n in range(1, k + 1):
        acc = n * f[n]
        for j in range(1, n):
            acc -= j * g[j] * f[n - j]
        g[n] = acc / (n * f[0])
    return TaylorSeries(g)


def series_compose(f: TaylorSeries, g: TaylorSeries) -> TaylorSeries:
    """f(g(x)) around 0, Horner style; needs g(0) = 0."""
    if g.coeffs[0] != 0:
        raise NonzeroInnerConstant(
            f"inner series must vanish at 0, got constant {mp.nstr(g.coeffs[0], 8)}")
    k = min(f.order, g.order)
    gt = g.truncated(k)
    acc = TaylorSeries.zero(k)
    for c in reversed(f.coeffs[: k + 1]):
        acc = acc * gt + c
    return acc


# ---------------------------------------------------------------------------
# series with polynomial coefficients


class BiSeries:
    """Series in `a` whose coefficient at a^m is a dense polynomial in `b`.

    Stored as a tuple of coefficient tuples, lowest degrees first. The
    character-polynomial exponent has b-degree exactly 1 at a^1 and 0
    elsewhere, which makes exp triangular: the a^m coefficient of the result
    has b-degree at most m.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Sequence]):
        cs = tuple(tuple(mpf(c) if not isinstance(c, mpf) else c for c in poly)
                   or (mpf(0),) for poly in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("BiSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def poly(self, m: int) -> tuple:
        return self.coeffs[m] if m <= self.order else (mpf(0),)

    def b_degree(self, m: int) -> int:
        p = self.poly(m)
        for d in range(len(p) - 1, -1, -1):
            if p[d] != 0:
                return d
        return 0

    def __add__(self, other: "BiSeries") -> "BiSeries":
        k = min(self.order, other.order)
        return BiSeries([_padd(self.coeffs[m], other.coeffs[m]) for m in range(k + 1)])

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        k = min(self.order, other.order)
        out = [(mpf(0),)] * (k + 1)
        for i in range(k + 1):
            pi = self.coeffs[i]
            if len(pi) == 1 and pi[0] == 0:
                continue
            for j in range(k + 1 - i):
                out[i + j] = _padd(out[i + j], _pmul(pi, other.coeffs[j]))
        return BiSeries(out)

    def exp(self) -> "BiSeries":
        """exp by the same derivative recurrence as the scalar case.

        The constant coefficient must be the zero polynomial; the exponent
        series used here always satisfies that (the potential vanishes at
        the expansion point).
        """
        if self.b_degree(0) != 0 or self.coeffs[0][0] != 0:
            raise ValueError("BiSeries.exp expects a vanishing constant coefficient")
        k = self.order
        g: list[tuple] = [(mpf(1),)]
        for n in range(1, k + 1):
            acc = (mpf(0),)
            for j in range(1, n + 1):
                pj = self.coeffs[j]
                if len(pj) == 1 and pj[0] == 0:
                    continue
                acc = _padd(acc, _pscale(_pmul(pj, g[n - j]), j))
            g.append(_pscale(acc, mp.mpf(1) / n))
        return BiSeries(g)


def _padd(a: Sequence, b: Sequence) -> tuple:
    n = max(len(a), len(b))
    out = [mpf(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return tuple(out)


def _pmul(a: Sequence, b: Sequence) -> tuple:
    out = [mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _pscale(a: Sequence, s) -> tuple:
    return tuple(c * s for c in a)
