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

One Aberth loop (``_aberth``) runs twice, with two evaluators of Q/Q' and the
backward error |Q(z)| / sum |q_k| |z|^k, and one stop rule. The start: the
eigenvalues of the recurrence's N x N lower-Hessenberg matrix, refined by the
loop on the recurrence in float64 (vectorised over the live roots; it gives
no backward error). Then the loop at working precision on one fused Horner
pass (``_eval``: Q, Q' and sum |q_k| |z|^k). A root is real when its real
part alone meets the backward-error target, on a real Horner pass
(``_eval_real``: Q and the scale, rounded as ``_eval`` rounds them at
im = 0); the other roots are averaged with their conjugate partners, and
the target judges the roots as reported.
Exact zero roots (vanishing low-order coefficients) are split off first; the
quotient gets its exponent from ``CharPolynomial.from_coeffs``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath import mpc, mpf
from mpmath.libmp import fzero, mpc_abs, mpc_add, mpc_mul, mpf_abs, mpf_add, mpf_mul

from .errors import XilabError
from .matrix_model import CharPolynomial
from .precision import to_decimal

#: sweep cap of the Aberth loop, in float64 and at working precision alike
MAX_SWEEPS = 200


@dataclass(frozen=True)
class RootSet:
    """Roots of a CharPolynomial with residuals and realness flags."""

    roots: tuple            # mpc, ascending by (re, im)
    residuals: tuple        # backward errors, same order
    is_real: tuple          # bool per root
    pair_ids: tuple         # conjugate-pair id or -1, per root
    sweeps: int = 0         # extended-precision sweeps in which a root stepped

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


def _eval_real(raw, x):
    """Q(x) and sum |q_k| |x|^k at a real ``x`` (an mpf): ``_eval``'s pass at
    im = 0 without Q', with the same roundings, so |Q(x)| / sum |q_k| |x|^k
    is ``_eval``'s to the bit."""
    prec = mp.mp.prec
    xr = x._mpf_
    r = mpf_abs(xr, prec, "n")
    p, s = raw[0]
    for c, a in raw[1:]:
        p = mpf_add(mpf_mul(p, xr, prec, "n"), c, prec, "n")
        s = mpf_add(mpf_mul(s, r, prec, "n"), a, prec, "n")
    return mp.make_mpf(p), mp.make_mpf(s)


def find_roots(Q: CharPolynomial) -> RootSet:
    """All complex roots by Aberth-Ehrlich iteration.

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

    def evaluate(zs):
        ws, errs = [], []
        for z in zs:
            p, dp, s = _eval(raw, z)
            ws.append(p / dp if dp != 0 else None)
            errs.append(abs(p) / s)
        return ws, errs

    zs, sweeps = _aberth(_float64_start(core), evaluate, +mp.eps)
    found = [(mpc(0), mpf(0), True, -1)] * m + list(zip(*_symmetrize(zs, raw, target)))
    worst = max(err for _, err, _, _ in found)
    if worst > target:
        raise XilabError(
            f"worst backward error {mp.nstr(worst, 3)} above target {mp.nstr(target, 3)}; "
            "raise the working precision for this coefficient spread")
    found.sort(key=lambda r: (mp.re(r[0]), mp.im(r[0])))
    zs, errs, is_real, pair_ids = zip(*found)
    return RootSet(roots=zs, residuals=errs, is_real=is_real, pair_ids=pair_ids,
                   sweeps=sweeps)


def _scaled_exponent(exponent):
    """m c_m / s^m for m = 1..k in float64, the exponent of Q(s x), and s: the
    power of 2 below max_m |m c_m|^(1/m), which keeps them in float64 range."""
    mc = [m * c for m, c in enumerate(exponent, 1)]
    size = max((abs(v) ** (mpf(1) / m) for m, v in enumerate(mc, 1)), default=1)
    s = mpf(2) ** int(mp.floor(mp.log(size, 2)))
    return np.array([float(v / s ** m) for m, v in enumerate(mc, 1)]), s


def _recurrence(mc, n):
    """Q/Q' = -f_N/f_{N-1} of Q(s x) by the recurrence in float64, vectorised
    over the roots it is given (None where not finite); no backward error."""
    p = len(mc)

    def evaluate(zs):
        z = np.array(zs)
        f = np.zeros((n + 1, z.size), complex)
        f[0] = 1
        with np.errstate(all="ignore"):
            for j in range(n):
                lo = max(j + 1 - p, 0)
                # f_n falls like 1/n!: where the terms a column reads leave
                # [2^-500, 2^500], scale them by a power of 2 (exact, so no
                # ratio f_n/f_{n-1} moves) before they underflow or overflow
                e = np.frexp(np.abs(f[lo:j + 1]).max(axis=0))[1]
                far = np.abs(e) > 500
                if far.any():
                    f[lo:j + 1, far] *= np.ldexp(1.0, -e[far])
                f[j + 1] = (mc[j - lo::-1] @ f[lo:j + 1] - z * f[j]) / (j + 1)
            w = -f[n] / f[n - 1]
        return [complex(v) if np.isfinite(v) else None for v in w], [math.inf] * z.size

    return evaluate


def _apart(zs):
    """Move the k-th repeat of a value off by k sqrt(eps) relative: equal
    values (a multiple root) would make the Aberth sum divide by zero."""
    rep = np.array([np.count_nonzero(zs[:i] == zs[i]) for i in range(len(zs))])
    return zs + rep * np.sqrt(np.finfo(float).eps) * np.maximum(abs(zs), 1) * np.exp(0.3j)


def _float64_start(Q):
    """Starting points for Q (q_0 != 0): the recurrence's Hessenberg
    eigenvalues, refined by the Aberth loop on the recurrence, lifted to mpc."""
    n = Q.N
    mc, scale = _scaled_exponent(Q.exponent)
    k = np.arange(n)
    lag = k[:, None] - k[None, :]
    band = np.zeros(n)
    band[:len(mc)] = mc
    H = np.where(lag >= 0, band[np.maximum(lag, 0)], 0.0)
    H[k[:-1], k[1:]] = -(k[:-1] + 1)
    zs, _ = _aberth(list(_apart(np.linalg.eigvals(H).astype(complex))),
                    _recurrence(mc, n), 1e-14)
    return [mpc(z) * scale for z in _apart(np.array(zs))]


def _aberth(zs, evaluate, tol):
    """Aberth-Ehrlich iteration on the starts ``zs`` (complex or mpc): the
    roots, and the number of sweeps in which some root stepped.

    ``evaluate`` maps the live roots to their Q/Q' (None where it is not
    finite) and backward errors (inf where it cannot give one). A root stops
    when its backward error is within 4 n tol (|Q| at the rounding floor of
    evaluating it), when its relative step is below tol, or when a step below
    sqrt(tol) fails to shrink (rounding noise)."""
    n = len(zs)
    zs = list(zs)
    floor, noise = 4 * n * tol, tol ** 0.5
    last = [math.inf] * n
    live = list(range(n))
    sweeps = 0
    for _ in range(MAX_SWEEPS):
        if not live:
            break
        ws, errs = evaluate([zs[i] for i in live])
        steps = {i: w for i, w, err in zip(live, ws, errs)
                 if w is not None and err > floor}
        if not steps:
            break
        sweeps += 1
        # sum_{j != i} 1/(z_i - z_j) for the roots taking a step: each
        # reciprocal is computed once and added to both roots of its pair
        ab = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if i in steps or j in steps:
                    r = 1 / (zs[i] - zs[j])
                    ab[i] += r
                    ab[j] -= r
        live = []
        for i, w in steps.items():
            denom = 1 - w * ab[i]
            step = w / denom if denom != 0 else w
            rel = abs(step) / max(abs(zs[i]), 1)
            zs[i] -= step
            if rel >= tol and (rel < last[i] or rel >= noise):
                live.append(i)
            last[i] = rel
    return zs, sweeps


def _symmetrize(zs, raw, target):
    """The roots as reported, their backward errors, realness flags and pair
    ids. A root is real when its real part meets ``target`` on its own,
    evaluated by the real Horner pass ``_eval_real``; the others are
    averaged exactly with their nearest conjugate partners, which are not
    tested on their own (the conjugate of a non-real root is not real)."""

    def residual(z):
        p, _, s = _eval(raw, z)
        return abs(p) / s

    n = len(zs)
    out = list(zs)
    errs = [None] * n
    is_real = [False] * n
    pair_ids = [-1] * n
    next_pair = 0
    for i in range(n):
        if errs[i] is not None:
            continue
        x = mp.re(zs[i])
        p, s = _eval_real(raw, x)
        err = abs(p) / s
        if err <= target:
            out[i], errs[i], is_real[i] = mpc(x), err, True
            continue
        rest = [j for j in range(n) if j != i and errs[j] is None]
        if not rest:  # unpaired (cannot happen for real coefficients)
            errs[i] = residual(zs[i])
            continue
        best = min(rest, key=lambda j: abs(zs[j] - mp.conj(zs[i])))
        a = (zs[i] + mp.conj(zs[best])) / 2
        out[i], out[best] = a, mp.conj(a)
        errs[i] = errs[best] = residual(a)
        pair_ids[i] = pair_ids[best] = next_pair
        next_pair += 1
    return out, errs, is_real, pair_ids
