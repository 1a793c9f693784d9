"""Aberth-Ehrlich simultaneous root finding at working precision.

A polynomial Q of degree N with q_N != 0 is a constant times
f_N(y) = [t^N] exp(C(t) - y t), where C = sum_{m<=k} c_m t^m is the
exponent the ``CharPolynomial`` carries: for the model's Q_N the k = min(p, N)
terms ``matrix_model.q_polynomial`` builds it from, read here, not recovered
from the rounded coefficients. Then f_N' = -f_{N-1} and

    (n+1) f_{n+1} = -y f_n + sum_{m=1}^{min(k,n+1)} m c_m f_{n+1-m},   f_0 = 1,

which gives Q/Q' = -f_N/f_{N-1} in float64 to ~1e-15 relative at N = 16-48
(float64 Horner on the monomial coefficients: 1e-8 at N = 16, O(1) at 32),
at O(N k) per evaluation. Exact power-of-two rescaling keeps the f_n inside
float64's range, so the start holds at N = 200 too (2e-14 on the riemann row).
The start: the eigenvalues of the recurrence's N x N lower-Hessenberg
matrix, refined by a vectorised complex128 Aberth on the recurrence. Then
extended-precision Aberth sweeps, each root stopping once its step is below
the target or |Q| is at the rounding floor, Newton polish to that floor, and
conjugate symmetrization. One fused Horner pass (``_eval``) gives Q, Q' and
sum |q_k| |z|^k; the polish ends on one, whose backward error
|Q(r)| / sum |q_k| |r|^k accepts the root. Exact zero roots (vanishing
low-order coefficients) are split off first; the quotient gets its exponent
from ``CharPolynomial.from_coeffs``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath import mpc, mpf
from mpmath.libmp import fzero, mpc_abs, mpc_add, mpc_mul, mpf_abs, mpf_add, mpf_mul

from .errors import NonConvergence
from .matrix_model import CharPolynomial
from .precision import to_decimal

#: a root is real when |Im| < IM_TOLERANCE (1 + |Re|); a decimal string,
#: converted at the caller's working precision
IM_TOLERANCE = "1e-8"
#: sweep cap of the float64 and of the extended-precision Aberth iteration
MAX_SWEEPS = 200


@dataclass(frozen=True)
class RootSet:
    """Roots of a CharPolynomial with residuals and realness flags."""

    roots: tuple            # mpc, ascending by (re, im)
    residuals: tuple        # backward errors, same order
    im_tolerance: mpf
    is_real: tuple          # bool per root
    pair_ids: tuple         # conjugate-pair id or -1, per root
    sweeps: int = 0         # extended-precision Aberth sweeps spent

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

    def as_dict(self) -> dict:
        return {
            "im_tolerance": to_decimal(self.im_tolerance),
            "on_critical_line": self.on_critical_line,
            "sweeps": self.sweeps,
            "roots": [{"re": to_decimal(mp.re(r)), "im": to_decimal(mp.im(r)),
                       "is_real": bool(flag), "pair": pid,
                       "residual": to_decimal(res)}
                      for r, flag, pid, res in zip(self.roots, self.is_real,
                                                   self.pair_ids, self.residuals)],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["re", "im", "is_real"])
        for r, flag in zip(self.roots, self.is_real):
            w.writerow([mp.nstr(mp.re(r), 17), mp.nstr(mp.im(r), 17), int(flag)])
        return buf.getvalue()


def _eval(raw, z):
    """Q(z), Q'(z) and sum |q_k| |z|^k in one Horner pass over ``raw``, the
    pairs (q_k, |q_k|) as ``mpmath.libmp`` values, highest degree first: mpc's
    own arithmetic, without building an mpc per operation."""
    prec = mp.mp.prec
    zr = z._mpc_
    r = mpc_abs(zr, prec, "n")
    lead, s = raw[0]
    p, dp = (lead, fzero), (fzero, fzero)
    for c, a in raw[1:]:
        dp = mpc_add(mpc_mul(dp, zr, prec, "n"), p, prec, "n")
        re, im = mpc_mul(p, zr, prec, "n")
        p = (mpf_add(re, c, prec, "n"), im)
        s = mpf_add(mpf_mul(s, r, prec, "n"), a, prec, "n")
    return mp.make_mpc(p), mp.make_mpc(dp), mp.make_mpf(s)


def find_roots(Q: CharPolynomial) -> RootSet:
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
    core = Q if m == 0 else CharPolynomial.from_coeffs(coeffs[m:])
    raw = [(c._mpf_, mpf_abs(c._mpf_)) for c in map(mpf, reversed(core.coeffs))]
    zs, sweeps, errs = _aberth(raw, _float64_start(core), target)
    worst = max(errs, default=0)
    if worst > target:
        raise NonConvergence(
            f"worst backward error {mp.nstr(worst, 3)} above target {mp.nstr(target, 3)}; "
            "raise the working precision for this coefficient spread")

    zs, is_real, pair_ids = _symmetrize([mpc(0)] * m + zs, IM_TOLERANCE)
    order = sorted(range(n), key=lambda i: (mp.re(zs[i]), mp.im(zs[i])))
    zs = [zs[i] for i in order]
    is_real = [is_real[i] for i in order]
    pair_ids = [pair_ids[i] for i in order]
    # the reported residuals are those of the symmetrized roots
    errs = []
    for z in zs:
        p, _, s = _eval(raw, z)
        errs.append(abs(p) / s if z != 0 else mpf(0))
    return RootSet(roots=tuple(zs), residuals=tuple(errs),
                   im_tolerance=mpf(IM_TOLERANCE), is_real=tuple(is_real),
                   pair_ids=tuple(pair_ids), sweeps=sweeps)


def _scaled_exponent(exponent):
    """m c_m / s^m for m = 1..k in float64, the exponent of Q(s x), and s: the
    power of 2 below max_m |m c_m|^(1/m), which keeps them in float64 range."""
    mc = [m * c for m, c in enumerate(exponent, 1)]
    size = max((abs(v) ** (mpf(1) / m) for m, v in enumerate(mc, 1)), default=1)
    s = mpf(2) ** int(mp.floor(mp.log(size, 2)))
    return np.array([float(v / s ** m) for m, v in enumerate(mc, 1)]), s


def _float64_start(Q):
    """Starting points for Q (q_0 != 0): the recurrence's Hessenberg
    eigenvalues, polished by float64 Aberth on the recurrence, lifted to mpc."""
    n = Q.N
    mc, scale = _scaled_exponent(Q.exponent)
    p = len(mc)
    k = np.arange(n)
    lag = k[:, None] - k[None, :]
    band = np.zeros(n)
    band[:p] = mc
    H = np.where(lag >= 0, band[np.maximum(lag, 0)], 0.0)
    H[k[:-1], k[1:]] = -(k[:-1] + 1)
    zs = np.linalg.eigvals(H).astype(complex)
    sqrt_eps = np.sqrt(np.finfo(float).eps)
    # a root stops at a relative step of 1e-14, or when a step below sqrt(eps)
    # fails to shrink: rounding noise (1e-10 on some random polynomials)
    live = np.ones(n, bool)
    last = np.full(n, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(MAX_SWEEPS):
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            f = np.zeros((n + 1, idx.size), complex)
            f[0] = 1
            for j in range(n):
                lo = max(j + 1 - p, 0)
                # f_n falls like 1/n!: where the terms a column reads leave
                # [2^-500, 2^500], scale them by a power of 2 (exact, so no
                # ratio f_n/f_{n-1} moves) before they underflow or overflow
                e = np.frexp(np.abs(f[lo:j + 1]).max(axis=0))[1]
                far = np.abs(e) > 500
                if far.any():
                    f[lo:j + 1, far] *= np.ldexp(1.0, -e[far])
                f[j + 1] = (mc[j - lo::-1] @ f[lo:j + 1] - zs[idx] * f[j]) / (j + 1)
            w = -f[n] / f[n - 1]  # Q/Q' by the recurrence
            diff = zs[idx, None] - zs[None, :]
            diff[np.arange(idx.size), idx] = np.inf
            step = w / (1 - w * (1 / diff).sum(axis=1))
            ok = np.isfinite(step)
            zs[idx[ok]] -= step[ok]
            rel = abs(step) / np.maximum(abs(zs[idx]), 1)
            live[idx] = ok & (rel >= 1e-14) & ((rel < last[idx]) | (rel >= sqrt_eps))
            last[idx] = rel
    # equal values (a multiple root; here float64 stops at once) would make the
    # next Aberth divide by zero: move the k-th repeat off by k sqrt(eps)
    rep = np.array([np.count_nonzero(zs[:i] == zs[i]) for i in range(n)])
    zs += rep * sqrt_eps * np.maximum(abs(zs), 1) * np.exp(0.3j)
    return [mpc(complex(z)) * scale for z in zs]


def _aberth(raw, zs, target):
    """Roots of a polynomial with q_0 != 0 from the starts ``zs``:
    (roots, sweeps, backward errors)."""
    n = len(zs)
    # a root is frozen once its relative step is below the target (the cubic
    # step and the Newton polish then reach full precision) or once |Q| is
    # within the rounding error of evaluating it (further steps are noise)
    floor = 4 * n * mp.eps
    frozen = [False] * n
    sweeps = 0
    while sweeps < MAX_SWEEPS and not all(frozen):
        sweeps += 1
        new = list(zs)
        newton = {}
        for i in range(n):
            if frozen[i]:
                continue
            p, dp, s = _eval(raw, zs[i])
            if abs(p) <= floor * s:
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

    # Newton polish, at most 6 steps, each root stopping at the same floor;
    # the last evaluation gives the root's backward error
    errs = []
    for i in range(n):
        for steps in range(7):
            p, dp, s = _eval(raw, zs[i])
            if dp == 0 or abs(p) <= floor * s or steps == 6:
                break
            zs[i] = zs[i] - p / dp
        errs.append(abs(p) / s)
    return zs, sweeps, errs


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

