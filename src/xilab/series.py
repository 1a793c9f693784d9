"""Truncated power series at extended precision.

A series is a tuple of mpf coefficients, lowest degree first: (c_0, ..., c_K)
stands for sum_{n=0}^{K} c_n x^n. The product truncates to the shorter
operand, so no fictitious high-order terms are ever produced.

Coefficient tuples are built from lists, never from generators. CPython 3.11
allocates a tuple built from a generator for 10 items, then resizes it,
so each one freed lands on the free list of its final size while the
10-item list drains; a process repeating Q_N builds (table1 in a loop)
grew its resident memory by ~0.1 MB per report until those lists filled.
"""

from __future__ import annotations

import mpmath as mp
from mpmath import mpf

from .errors import XilabError


def series_mul(a: tuple, b: tuple) -> tuple:
    """The product a * b through the shorter operand's order."""
    k = min(len(a), len(b)) - 1
    out = [mpf(0)] * (k + 1)
    for i, ai in enumerate(a[: k + 1]):
        if ai == 0:
            continue
        for j in range(k + 1 - i):
            out[i + j] += ai * b[j]
    return tuple(out)


def series_exp(f: tuple) -> tuple:
    """exp of a series via the recurrence (exp f)' = f' exp f."""
    k = len(f) - 1
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
    return tuple(g)


def series_log(f: tuple) -> tuple:
    """log of a series via (log f)' = f'/f; needs f(0) > 0."""
    if not f[0] > 0:
        raise XilabError(
            f"series_log needs a positive constant term, got {mp.nstr(f[0], 8)}")
    k = len(f) - 1
    g = [mpf(0)] * (k + 1)
    g[0] = mp.log(f[0])
    for n in range(1, k + 1):
        acc = n * f[n]
        for j in range(1, n):
            acc -= j * g[j] * f[n - j]
        g[n] = acc / (n * f[0])
    return tuple(g)
