"""Reference routes to Q_N that the tests compare the production build against.

``xilab.matrix_model.q_polynomial`` builds Q_N from the generating function.
The routes here share nothing with it but ``CharPolynomial`` and the model
parameters:

* ``q_sequence``: series extraction of Q_n = (-g)^n n! [a^n] exp E(a, b),
  with the exponent carried as a :class:`BiSeries` (the ``a*b`` cross term
  makes its coefficients polynomials in b);
* ``jacobi_matrix``: the multiplication-by-b operator in the Q basis, whose
  characteristic polynomial is (-1)^N Q_N;
* ``hermite_q``: the p = 2 closed form;
* ``shifted``: the coefficients of Q(b + c), by Horner's rule.

The polynomials they return get their exponent from
``CharPolynomial.from_coeffs``, as any polynomial known only by its
coefficients does.

Plain mpmath references for code the package evaluates its own way:

* ``horner``: Q(z), Q'(z) and sum |q_k| |z|^k by Horner's rule on mpc values
  (``xilab.roots`` runs the same pass on raw ``mpmath.libmp`` values);
* ``series_compose``: f(g(x)) for truncated series (coefficient tuples,
  lowest degree first, as ``xilab.series`` keeps them);
* ``scaled_ba_function``: the quadrature integrand of a rescaled potential,
  truncated at degree p+1;
* ``full_grid_zeros`` and ``full_grid_minima``: the zero scans with psi
  summed on the whole scan grid before any of it is read;
* ``bisect_zero``: a sign change refined by plain bisection, the reference
  for ``baker_akhiezer.refine_zero``;
* ``symmetric_grid_psi``: an even potential's psi summed on the unfolded
  node set -K h .. K h;
* ``phi_riemann``, ``phi_ramanujan``, ``u_eta_gamma`` and
  ``u_eta_gamma_prime``: point values of the kernels and potentials that
  ``xilab.potentials`` expands in series;
* ``v_shifted`` and ``v_shifted_prime``: V(1+u) and V'(1+u) of a
  ``ModelPotential``;
* ``coupling`` and ``coefficient``: s_k and the x^n coefficient of a
  ``ScaledPotential``, zero where it has none;
* ``u_series``: the normalized series a ``ScaledPotential`` stands for;
* ``differentiate`` and ``exp_series``: the derivative of a coefficient
  tuple, and the coefficients of exp(scale x);
* ``reduced_ansatz_n2``: the N=2 saddle solution on the symmetric slice,
  by bisection;
* ``reconstruct_coefficients``: lead * prod (b - r) over a root set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath import mpc, mpf
from numpy.polynomial.polynomial import polyval

from xilab import baker_akhiezer as ba
from xilab.baker_akhiezer import BAFunction
from xilab.errors import XilabError
from xilab.matrix_model import CharPolynomial, ModelPotential
from xilab.potentials import _default_tolerance
from xilab.roots import RootSet
from xilab.scaling import ModelParams, ScaledPotential
from xilab.series import series_mul


class BiSeries:
    """Series in `a` whose coefficient at a^m is a dense polynomial in `b`.

    Stored as a tuple of coefficient tuples, lowest degrees first. The
    character-polynomial exponent has b-degree exactly 1 at a^1 and 0
    elsewhere, which makes exp triangular: the a^m coefficient of the result
    has b-degree at most m.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Sequence]):
        cs = tuple([tuple([mpf(c) if not isinstance(c, mpf) else c for c in poly])
                    or (mpf(0),) for poly in coeffs])
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
        """exp by the derivative recurrence (exp f)' = f' exp f.

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
    return tuple([c * s for c in a])


def _exponent_biseries(params: ModelParams, V: ModelPotential, order: int) -> BiSeries:
    """E(a) = a b / g + S(a) / g through a^order."""
    g = params.g
    coeffs: list[tuple] = [(mpf(0),)]
    for m in range(1, order + 1):
        sig = V.s_coeffs[m - 1] if m <= V.p else mpf(0)
        if m == 1:
            coeffs.append((sig / g, 1 / g))  # + b/g
        else:
            coeffs.append((sig / g,))
    return BiSeries(coeffs)


def q_sequence(params: ModelParams, V: ModelPotential, N: int) -> list[CharPolynomial]:
    """Q_0..Q_N from one series exponential (Q_n = (-g)^n n! [a^n] exp E)."""
    ex = _exponent_biseries(params, V, N).exp()
    out = []
    for n in range(N + 1):
        fac = (-params.g) ** n * mp.factorial(n)
        poly = ex.poly(n)
        cs = [fac * c for c in poly] + [mpf(0)] * (n + 1 - len(poly))
        out.append(CharPolynomial.from_coeffs(cs[: n + 1]))
    return out


def hermite_q(N: int, g) -> CharPolynomial:
    """Closed form for the quadratic model: (g/4)^{N/2} H_N(b/sqrt(g))."""
    g = mpf(g)
    if N < 0:
        raise ValueError("N must be >= 0")
    if not g > 0:
        raise ValueError("g must be positive")
    # physicists' Hermite coefficients by recurrence H_{n+1} = 2x H_n - 2n H_{n-1}
    h_prev = [mpf(1)]
    if N == 0:
        return CharPolynomial.from_coeffs((mpf(1),))
    h = [mpf(0), mpf(2)]
    for n in range(1, N):
        nxt = [mpf(0)] * (n + 2)
        for d, c in enumerate(h):
            nxt[d + 1] += 2 * c
        for d, c in enumerate(h_prev):
            nxt[d] -= 2 * n * c
        h_prev, h = h, nxt
    scale = (g / 4) ** (mpf(N) / 2)
    rg = mp.sqrt(g)
    return CharPolynomial.from_coeffs([scale * h[d] * rg ** (-d) for d in range(N + 1)])


def shifted(q: CharPolynomial, c) -> CharPolynomial:
    """Coefficients of Q(b + c)."""
    N = q.N
    out = [mpf(0)] * (N + 1)
    out[0] = q.coeffs[N]
    for n in range(N - 1, -1, -1):
        # multiply by (b + c), then add coeffs[n]
        nxt = [mpf(0)] * (N + 1)
        for d in range(N):
            if out[d] != 0:
                nxt[d + 1] += out[d]
                nxt[d] += out[d] * c
        nxt[0] += q.coeffs[n]
        out = nxt
    return CharPolynomial.from_coeffs(out)


@dataclass(frozen=True)
class HessenbergMatrix:
    """Multiplication-by-b operator in the Q basis (lower Hessenberg)."""

    N: int
    rows: tuple  # tuple of tuples, N x N

    def entry(self, n: int, m: int) -> mpf:
        return self.rows[n][m]

    def char_poly_at(self, b) -> mpf:
        """det(b I - J) by LU elimination with partial pivoting."""
        n = self.N
        a = [[b * (i == j) - self.rows[i][j] for j in range(n)] for i in range(n)]
        det = mpf(1)
        for col in range(n):
            piv = max(range(col, n), key=lambda r: abs(a[r][col]))
            if a[piv][col] == 0:
                return mpf(0)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                f = a[r][col] * inv
                if f == 0:
                    continue
                for cc in range(col, n):
                    a[r][cc] -= f * a[col][cc]
        return det


def jacobi_matrix(params: ModelParams, V: ModelPotential, N: int) -> HessenbergMatrix:
    """Expand b Q_n = sum_{m<=n+1} J_{n,m} Q_m and return the N x N block.

    The expansion is exact back-substitution in the graded basis Q_0..Q_{n+1}
    (leading coefficients are (-1)^n, so degrees match indices). Dropping the
    Q_N component of the last row is multiplication modulo Q_N; the block's
    characteristic polynomial is the monic (-1)^N Q_N.
    """
    qs = q_sequence(params, V, N)
    for n, q in enumerate(qs):
        if q.coeffs[n] == 0:
            raise AssertionError(f"Q_{n} has degree below {n}")
    rows = []
    for n in range(N):
        # residual <- b * Q_n, coefficients of degree 0..n+1
        resid = [mpf(0)] + list(qs[n].coeffs)
        coeffs_in_basis = [mpf(0)] * (N + 1)
        for m in range(n + 1, -1, -1):
            c = resid[m] / qs[m].coeffs[m]
            coeffs_in_basis[m] = c
            if c != 0:
                for d in range(m + 1):
                    resid[d] -= c * qs[m].coeffs[d]
        rows.append(tuple(coeffs_in_basis[:N]))
    return HessenbergMatrix(N=N, rows=tuple(rows))


def horner(coeffs, z):
    """Q(z), Q'(z) and sum |q_k| |z|^k, coefficients lowest degree first."""
    p, dp, scale = mpf(0), mpf(0), mpf(0)
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
        scale = scale * abs(z) + abs(c)
    return p, dp, scale


def series_compose(f: tuple, g: tuple) -> tuple:
    """f(g(x)) around 0, Horner style; needs g(0) = 0."""
    if g[0] != 0:
        raise ValueError(
            f"inner series must vanish at 0, got constant {mp.nstr(g[0], 8)}")
    k = min(len(f), len(g)) - 1
    acc = (mpf(0),) * (k + 1)
    for c in reversed(f[: k + 1]):
        prod = series_mul(acc, g)
        acc = (prod[0] + c,) + prod[1:]
    return acc


def coupling(sp: ScaledPotential, k: int) -> mpf:
    """s_k, zero when absent."""
    if 1 <= k <= len(sp.s):
        return sp.s[k - 1]
    return mpf(0)


def coefficient(sp: ScaledPotential, n: int) -> mpf:
    """Coefficient of x^n of the normalized potential (s_{n-1}/n)."""
    if n == sp.p + 1:
        return mpf(1) / n
    return coupling(sp, n - 1) / n


def scaled_ba_function(sp: ScaledPotential) -> BAFunction:
    """The quadrature integrand of the normalized potential
    sum_{n=2}^{p+1} coefficient(n) x^n, the constant and linear terms dropped."""
    cs = [0.0, 0.0] + [float(coefficient(sp, n)) for n in range(2, sp.p + 2)]
    return BAFunction.from_poly(cs, name=f"scaled(p={sp.p})")


def symmetric_grid_psi(f: BAFunction, zs) -> np.ndarray:
    """Re psi at each z from the full symmetric node set k h, k = -K..K, with
    weights h e^{-U}: the sum an even ``BAFunction`` folds onto k >= 0."""
    xs = np.arange(-(len(f.xs) - 1), len(f.xs)) * f.h
    with np.errstate(over="ignore"):
        env = f.h * np.exp(-f.u(xs))
    return np.array([np.sum(env * np.cos(z * xs)) for z in zs])


def _full_grid(f: BAFunction, step: float):
    """The scan grid, psi and |psi| on all of it, and the noise-floor
    envelope reader of ``baker_akhiezer._scan``."""
    zs = np.arange(ba.SCAN_START, ba.Z_MAX, step)
    vals = f.psi_grid(zs)
    mags = np.abs(vals)
    w = max(1, int(round(1.0 / step)))
    floor = ba.NOISE * abs(f.psi(0.0))

    def envelope(i):
        env = np.max(mags[max(0, i - w): i + w + 1])
        return env if env >= floor else None

    return zs, vals, mags, envelope


def bisect_zero(g, a: float, b: float, ga: float, gb: float) -> float:
    """``baker_akhiezer.refine_zero``'s zero by plain bisection of [a, b] to a
    bracket no wider than BISECT_TOL: the reference for its ITP steps."""
    while b - a > ba.BISECT_TOL:
        m = 0.5 * (a + b)
        gm = g(m)
        if ga * gm <= 0:
            b = m
        else:
            a, ga = m, gm
    return float(0.5 * (a + b))


def full_grid_zeros(f: BAFunction, count: int, refine=ba.refine_zero) -> tuple:
    """The first ``count`` (or fewer) sign-change zeros of ``psi_zeros``, each
    refined by ``refine`` (``psi_zeros``'s own by default), from a scan that
    sums the whole grid first."""
    zs, vals, _, envelope = _full_grid(f, ba.ZERO_SCAN_STEP)
    vals = vals.real
    zeros = []
    for i in range(len(zs) - 1):
        if len(zeros) >= count:
            break
        a, b, fa = zs[i], zs[i + 1], vals[i]
        if fa != 0.0 and fa * vals[i + 1] >= 0:
            continue
        if envelope(i) is None:
            break
        if fa == 0.0:
            zeros.append(float(a))
        else:
            zeros.append(refine(lambda z: f.psi(z).real, a, b, fa, vals[i + 1]))
    return tuple(zeros)


def full_grid_minima(f: BAFunction, count: int) -> list:
    """``magnitude_minima``'s dips from a scan that sums the whole grid first."""
    zs, _, mags, envelope = _full_grid(f, ba.DIP_SCAN_STEP)
    out = []
    for i in range(1, len(zs) - 1):
        if len(out) >= count:
            break
        if not (mags[i] < mags[i - 1] and mags[i] < mags[i + 1]):
            continue
        env = envelope(i)
        if env is None:
            break
        if mags[i] < ba.DIP_DEPTH * env:
            out.append(float(zs[i]))
    return out


@dataclass(frozen=True)
class KernelValue:
    phi: mpf
    phi_prime: mpf | None = None


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
    raise XilabError(f"riemann kernel sum did not reach tolerance in {max_terms} terms")


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
    raise XilabError(f"ramanujan kernel product did not reach tolerance in {max_terms} factors")


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


def v_shifted(V: ModelPotential, u) -> mpf:
    """V(1+u) = -S(u)."""
    acc = mpf(0)
    for c in reversed(V.s_coeffs):
        acc = (acc + c) * u
    return -acc


def v_shifted_prime(V: ModelPotential, u):
    """V'(1+u) = -S'(u)."""
    acc = 0 * u
    for c in reversed(V.v_shifted_prime_coeffs()):
        acc = acc * u + c
    return acc


def u_series(sp: ScaledPotential) -> tuple:
    """a0 + sum_n coefficient(n) x^n through x^{p+1}."""
    return tuple([sp.a0, mpf(0)] + [coefficient(sp, n) for n in range(2, sp.p + 2)])


def differentiate(u: tuple) -> tuple:
    """The derivative series, one order shorter (the zero series at order 0)."""
    if len(u) == 1:
        return (mpf(0),)
    return tuple([n * c for n, c in enumerate(u)][1:])


def exp_series(scale, order: int) -> tuple:
    """exp(scale x) through x^order."""
    return tuple([mpf(scale) ** n / mp.factorial(n) for n in range(order + 1)])


def reduced_ansatz_n2(V: ModelPotential, g: float, *,
                      a_max: float = 50.0, n_scan: int = 20000) -> float:
    """Bisection oracle for the N=2 saddle system on the symmetric slice a2 = -a1.

    The two b-equations force a1 + a2 = 0, and the a-equations determine
    b1, b2 from a1, leaving one scalar equation
        h(a1) = a1/g + 1/(D(a1) - g/a1) = 0,   D(a) = V'(1+a) - V'(1-a).
    h has poles, but h(a1) = 0 exactly when a1 * D(a1) = 0, so the
    nondegenerate roots are the positive zeros of the polynomial D, which
    do not depend on g (g enters only b1 = -b2 = V'(1+a1) - g/(2 a1)).
    Scans a1 in (0, a_max] for a sign change of D and bisects.
    Raises ValueError when no root bracket exists or D vanishes identically.
    """
    vp = np.array([float(c) for c in V.v_shifted_prime_coeffs()])
    # D is twice the odd part of V'(1+u)
    d = np.where(np.arange(len(vp)) % 2 == 1, 2 * vp, 0.0)
    if not np.any(d):
        raise ValueError("V'(1+a) - V'(1-a) vanishes identically: every a1 "
                         "solves the reduced N=2 equation")
    xs = np.linspace(a_max / n_scan, a_max, n_scan)
    vals = polyval(xs, d)
    brackets = np.flatnonzero(vals[:-1] * vals[1:] <= 0)
    if not len(brackets):
        raise ValueError("no sign change of V'(1+a) - V'(1-a) for a > 0: "
                         "the symmetric slice admits no nondegenerate solution")
    i = brackets[0]
    lo, hi, flo = xs[i], xs[i + 1], vals[i]
    for _ in range(200):
        m = 0.5 * (lo + hi)
        fm = polyval(m, d)
        if flo * fm <= 0:
            hi = m
        else:
            lo, flo = m, fm
    return 0.5 * (lo + hi)


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
