"""Aberth-Ehrlich simultaneous root finding at working precision.

All roots are iterated together. They start from the float64 roots of Q
(``np.roots`` on the coefficients scaled by the Fujiwara radius); when the
Newton corrections of the first sweep show those starts are poor, the
iteration restarts from a deterministic circle of starting points (Fujiwara
radius, fixed angular offset). Each root stops on its own once its step is
below the target or |Q| is at the rounding floor; the roots are then
polished with Newton steps, each stopping at that same floor, and
conjugate-symmetrized. Exact zero roots (vanishing low-order coefficients)
are split off before the iteration. A root is accepted on backward error:
|Q(r)| measured against the coefficient magnitudes at |r|.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np
from mpmath import mpc, mpf

from .errors import NoConvergence
from .matrix_model import CharPolynomial
from .precision import to_decimal

#: tolerances are decimal strings, converted at the caller's working precision
DEFAULT_IM_TOLERANCE = "1e-8"

#: the float64 starts are used when their worst relative Newton correction
#: |Q/Q'| / max(|z|, 1), read off the first sweep, is below this; otherwise
#: the circle start is. On (7,1) models at N = 12..18 starts up to 0.02
#: converged in at most 5 sweeps, while starts from 0.035 up took 110-170
#: sweeps, two to three times as many as from the circle
FLOAT64_START_TOL = "1e-2"


@dataclass(frozen=True)
class RootSet:
    """Roots of a CharPolynomial with residuals and realness flags."""

    roots: tuple            # mpc, ascending by (re, im)
    residuals: tuple        # backward errors, same order
    im_tolerance: mpf
    is_real: tuple          # bool per root
    pair_ids: tuple         # conjugate-pair id or -1, per root
    sweeps: int = 0         # Aberth sweeps spent
    start: str = "circle"   # starting points: "float64", "circle", or "none"
                            # when every root is an exact zero

    @property
    def on_critical_line(self) -> bool:
        return all(self.is_real)

    @property
    def n_complex_pairs(self) -> int:
        return sum(1 for r, real in zip(self.roots, self.is_real)
                   if not real and mp.im(r) > 0)

    def real_roots(self) -> list:
        """Ascending real parts of roots flagged real."""
        return [mp.re(r) for r, real in zip(self.roots, self.is_real) if real]

    def complex_pairs(self) -> list:
        """One representative (positive imaginary part) per conjugate pair."""
        return [r for r, real in zip(self.roots, self.is_real)
                if not real and mp.im(r) > 0]

    def to_json(self) -> str:
        return json.dumps({
            "im_tolerance": to_decimal(self.im_tolerance),
            "on_critical_line": self.on_critical_line,
            "sweeps": self.sweeps,
            "start": self.start,
            "roots": [{"re": to_decimal(mp.re(r)), "im": to_decimal(mp.im(r)),
                       "is_real": bool(flag), "pair": pid,
                       "residual": to_decimal(res)}
                      for r, flag, pid, res in zip(self.roots, self.is_real,
                                                   self.pair_ids, self.residuals)],
        })

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["re", "im", "is_real"])
        for r, flag in zip(self.roots, self.is_real):
            w.writerow([mp.nstr(mp.re(r), 17), mp.nstr(mp.im(r), 17), int(flag)])
        return buf.getvalue()


def _poly_and_deriv(coeffs, z):
    p = coeffs[-1]
    dp = mpc(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _abs_poly(coeffs, r):
    """sum |q_n| r^n: the scale of Q's values (and of their rounding) at |z| = r."""
    s = mpf(0)
    for c in reversed(coeffs):
        s = s * r + abs(c)
    return s


def _backward_error(Q, z):
    scale = _abs_poly(Q.coeffs, abs(z))
    return abs(Q(z)) / (scale if scale != 0 else mpf(1))


def _fujiwara_radius(coeffs):
    n = len(coeffs) - 1
    lead = abs(coeffs[-1])
    r = mpf(0)
    for k in range(1, n + 1):
        c = abs(coeffs[n - k]) / lead
        if c != 0:
            r = max(r, 2 * c ** (mpf(1) / k))
    return r if r > 0 else mpf(1)


def _float64_start(coeffs, radius):
    """Roots of Q(radius * x) by ``np.roots`` in float64, lifted to mpc and
    scaled back; None when float64 fails (no convergence, non-finite values,
    two equal roots). Whether they are good enough to keep is decided in the
    first Aberth sweep, from the Newton corrections it computes anyway.

    The Fujiwara radius makes the scaled leading coefficient the largest, so
    dividing by it leaves float64 coefficients in [-1, 1]: nothing overflows.
    """
    n = len(coeffs) - 1
    lead = coeffs[-1] * radius ** n
    scaled = [float(c * radius ** k / lead) for k, c in enumerate(coeffs)]
    try:
        xs = np.roots(scaled[::-1])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(xs)) or len(set(xs.tolist())) != n:
        return None
    return [mpc(complex(x)) * radius for x in xs]


def _circle_start(n, radius):
    """Deterministic, symmetry-breaking start: a slight spiral off the circle."""
    zs = []
    for k in range(n):
        theta = 2 * mp.pi * k / n + mpf("0.3") / n
        r = radius * (mpf(1) / 2 + mpf(k) / (4 * n))
        zs.append(mpc(r * mp.cos(theta), r * mp.sin(theta)))
    return zs


def find_roots(Q: CharPolynomial, *, max_sweeps: int = 200,
               im_tolerance=DEFAULT_IM_TOLERANCE) -> RootSet:
    """All complex roots by Aberth-Ehrlich iteration plus Newton polish.

    When q_0 .. q_{m-1} are exactly zero, b = 0 is a root of multiplicity m:
    those roots are returned as exact zeros and the iteration runs on
    Q / b^m. (Near a multiple root at 0 the backward error |Q(z)| /
    sum |q_n| |z|^n stays ~1 unless z is exactly 0, so no iterate meets it.)
    """
    n = Q.N
    coeffs = Q.coeffs
    if n < 1 or coeffs[-1] == 0:
        raise ValueError("need degree >= 1 with a nonzero leading coefficient")
    target = mpf(10) ** (-(mp.mp.dps // 2))
    m = next(k for k, c in enumerate(coeffs) if c != 0)
    zs, sweeps, start = _aberth(coeffs[m:], max_sweeps, target)
    zs = [mpc(0)] * m + zs

    errs = [_backward_error(Q, z) for z in zs]
    worst = max(errs)
    if worst > target:
        raise NoConvergence(
            f"worst backward error {mp.nstr(worst, 3)} above target {mp.nstr(target, 3)}; "
            "raise the working precision for this coefficient spread")

    zs, is_real, pair_ids = _symmetrize(zs, im_tolerance)
    order = sorted(range(n), key=lambda i: (mp.re(zs[i]), mp.im(zs[i])))
    zs = [zs[i] for i in order]
    is_real = [is_real[i] for i in order]
    pair_ids = [pair_ids[i] for i in order]
    errs = [_backward_error(Q, z) for z in zs]
    return RootSet(roots=tuple(zs), residuals=tuple(errs),
                   im_tolerance=mpf(im_tolerance), is_real=tuple(is_real),
                   pair_ids=tuple(pair_ids), sweeps=sweeps, start=start)


def _aberth(coeffs, max_sweeps, target):
    """Roots of a polynomial with q_0 != 0: (roots, sweeps, start)."""
    n = len(coeffs) - 1
    if n == 0:
        return [], 0, "none"
    radius = _fujiwara_radius(coeffs)
    zs = _float64_start(coeffs, radius)
    start = "float64"
    if zs is None:
        zs, start = _circle_start(n, radius), "circle"

    # a root is frozen once its relative step is below the target (the cubic
    # step and the Newton polish then reach full precision) or once |Q| is
    # within the rounding error of evaluating it (further steps are noise)
    floor = 4 * n * mp.eps
    start_tol = mpf(FLOAT64_START_TOL)
    frozen = [False] * n
    sweeps = 0
    while sweeps < max_sweeps and not all(frozen):
        vals = {i: _poly_and_deriv(coeffs, zs[i]) for i in range(n) if not frozen[i]}
        if start == "float64" and sweeps == 0 and any(
                p != 0 and (dp == 0 or abs(p / dp) >= start_tol * max(abs(zs[i]), 1))
                for i, (p, dp) in vals.items()):
            zs, start = _circle_start(n, radius), "circle"
            continue
        sweeps += 1
        new = list(zs)
        newton = {}
        for i, (p, dp) in vals.items():
            if abs(p) <= floor * _abs_poly(coeffs, abs(zs[i])):
                frozen[i] = True
            elif dp == 0:
                new[i] = zs[i] * (1 + mpf("1e-10")) + mpf("1e-10")
            else:
                newton[i] = p / dp
        # sum_{j != i} 1/(z_i - z_j) for the roots taking a step: each
        # reciprocal is computed once and added to both roots of its pair
        ab = [mpc(0)] * n
        for i in range(n):
            for j in range(i + 1, n):
                if i in newton or j in newton:
                    r = 1 / (zs[i] - zs[j])
                    ab[i] += r
                    ab[j] -= r
        for i, w in newton.items():
            denom = 1 - w * ab[i]
            step = w / denom if denom != 0 else w
            new[i] = zs[i] - step
            frozen[i] = abs(step) < target * max(abs(zs[i]), mpf(1))
        zs = new

    # Newton polish, at most 6 steps, each root stopping at the same floor
    for i in range(n):
        for _ in range(6):
            p, dp = _poly_and_deriv(coeffs, zs[i])
            if dp == 0 or abs(p) <= floor * _abs_poly(coeffs, abs(zs[i])):
                break
            zs[i] = zs[i] - p / dp
    return zs, sweeps, start


def _symmetrize(zs, im_tolerance):
    """Zero near-real imaginary parts; average conjugate partners exactly."""
    n = len(zs)
    out = list(zs)
    is_real = [False] * n
    pair_ids = [-1] * n
    used = [False] * n
    for i in range(n):
        if abs(mp.im(out[i])) < mpf(im_tolerance) * (1 + abs(mp.re(out[i]))):
            out[i] = mpc(mp.re(out[i]), 0)
            is_real[i] = True
            used[i] = True
    next_pair = 0
    for i in range(n):
        if used[i]:
            continue
        best, dist = -1, mp.inf
        for j in range(n):
            if j != i and not used[j]:
                d = abs(out[j] - mp.conj(out[i]))
                if d < dist:
                    best, dist = j, d
        if best < 0:
            used[i] = True  # unpaired; leave as-is (cannot happen for real coeffs)
            continue
        a = (out[i] + mp.conj(out[best])) / 2
        out[i], out[best] = a, mp.conj(a)
        pair_ids[i] = pair_ids[best] = next_pair
        next_pair += 1
        used[i] = used[best] = True
    return out, is_real, pair_ids


def classify(rs: RootSet, im_tolerance) -> RootSet:
    """Re-flag an existing root set under a different imaginary tolerance."""
    tol = mpf(im_tolerance)
    zs, is_real, pair_ids = _symmetrize(list(rs.roots), tol)
    return replace(rs, roots=tuple(zs), im_tolerance=tol,
                   is_real=tuple(is_real), pair_ids=tuple(pair_ids))


def reconstruct_coefficients(rs: RootSet, lead) -> list:
    """Expand lead * prod (b - r_i); oracle for backward-error checks."""
    cs = [mpc(lead)]
    for r in rs.roots:
        nxt = [mpc(0)] * (len(cs) + 1)
        for d, c in enumerate(cs):
            nxt[d + 1] += c
            nxt[d] -= c * r
        cs = nxt
    # imaginary dust cancels for conjugate-symmetric sets
    return [mp.re(c) for c in cs]
