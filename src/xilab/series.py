"""Truncated power series at extended precision.

:class:`TaylorSeries` is a dense univariate series in x with mpf
coefficients. Binary operations truncate to the minimum order of the
operands, so no fictitious high-order terms are ever produced. Values are
immutable.

Coefficient tuples are built from lists, never from generators. CPython 3.11
allocates a tuple built from a generator for 10 items, then resizes it,
so each one freed lands on the free list of its final size while the
10-item list drains; a process repeating Q_N builds (table1 in a loop)
grew its resident memory by ~0.1 MB per report until those lists filled.
"""

from __future__ import annotations

from typing import Iterable

import mpmath as mp
from mpmath import mpf

from .errors import NonPositiveConstantTerm


class TaylorSeries:
    """Dense truncated series sum_{n=0}^{K} c_n x^n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple([mpf(c) if not isinstance(c, mpf) else c for c in coeffs])
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


def series_exp(s: TaylorSeries) -> TaylorSeries:
    """exp of a series via the recurrence (exp f)' = f' exp f."""
    k = s.order
    f = s.coeffs
    g = [mpf(0)] * (k + 1)
    g[0] = mp.exp(f[0])
    # exact zeros of f add nothing: the sum runs over the nonzero terms only
    # (a p-term exponent costs O(k p), not O(k^2))
    terms = [(j, j * f[j]) for j in range(1, k + 1) if f[j] != 0]
    for n in range(1, k + 1):
        acc = mpf(0)
        for j, jf in terms:
            if j > n:
                break
            acc += jf * g[n - j]
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
