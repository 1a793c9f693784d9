"""Baker-Akhiezer functions psi(z) = integral e^{-U(x)} e^{izx} dx.

The trapezoidal rule on uniform nodes x_k = k h, cut where the envelope
e^{-(U(x)-U(0))} falls below 10^{-TAIL_DECADES}. For integrands analytic
in a strip about the real axis the rule converges geometrically in 1/h
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56, 2014). The sum is periodic in z with period 2 pi/h and
aliases psi(z -+ 2 pi/h) onto psi(z), so h is sized for the band
|z| <= Z_MAX: starting from H_START it is halved until two successive sums
agree to STEP_TOL of |psi(0)| at the probes PROBE_ZS. For an even U the
nodes are folded onto k >= 0, with the weights for k >= 1 doubled, and psi
is the cosine sum alone: real, with half the nodes and no sine sum. The
weights at the nodes are precomputed once, so psi at a z is one Fourier
sum, the package's hot kernel, and its value depends on z alone, not on
the grid or call that sums it. A zero scan sums psi on its grid only as
far as it reads it (the zeros lie far below Z_MAX), then refines each sign
change with ITP, a few single-z sums a zero (``refine_zero``). Both scans
return the zeros they find above the noise floor, up to the count asked;
``quadrature_zeros`` alone fails on fewer. Zero tables are tuples.

Everything here runs in float64 and reads no global precision: the node
set depends on U alone, and the sums agree with the exact transform to
~1e-15 of |psi(0)|, far below the 1e-10 refinement tolerance and the 1e-3
agreement expected of the zero tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import XilabError
from .kernels import fourier_eval

LN10 = float(np.log(10.0))

#: the grid is cut where e^{-(U(x)-U(0))} falls below 10^-TAIL_DECADES
TAIL_DECADES = 18
#: the band psi is sized for and evaluated on: |z| <= Z_MAX
Z_MAX = 80.0
#: first trapezoid step; halved until the sums at PROBE_ZS settle
H_START = 0.2
#: z values where successive sums are compared; aliasing error grows with
#: |z|, so the band edge Z_MAX bounds it over the whole band
PROBE_ZS = (0.0, 20.0, 40.0, Z_MAX)
#: successive sums must agree to this fraction of |psi(0)|
STEP_TOL = 1e-14
#: halvings allowed before giving up (H_START / 2^8 ~ 8e-4)
MAX_HALVINGS = 8
#: the zero scans run from SCAN_START to Z_MAX; psi_zeros on a grid of
#: ZERO_SCAN_STEP, refining each sign change to a bracket of BISECT_TOL,
#: magnitude_minima on a grid of DIP_SCAN_STEP, keeping local minima of |psi|
#: below DIP_DEPTH times the largest |psi| within +-1 in z
SCAN_START = 1e-3
ZERO_SCAN_STEP = 0.05
BISECT_TOL = 1e-10
DIP_SCAN_STEP = 0.02
DIP_DEPTH = 1e-2
#: the ITP refinement's constants (Oliveira & Takahashi 2021): the regula
#: falsi point moves ITP_KAPPA1 / (starting width) * width^ITP_KAPPA2 toward
#: the midpoint, and a zero takes at most ITP_N0 more sums than bisection's
ITP_KAPPA1 = 0.2
ITP_KAPPA2 = 2
ITP_N0 = 1
#: quadrature noise floor of the float64 sums, relative to |psi(0)|
NOISE = 100 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class BAFunction:
    """A potential prepared for quadrature: nodes and envelope cached."""

    name: str
    u: Callable          # vectorized float64 potential
    even: bool
    x_max: float         # positive-side cutoff
    x_min: float         # negative-side cutoff
    h: float             # trapezoid step
    xs: np.ndarray       # quadrature nodes k h; k >= 0 alone for an even U
    env: np.ndarray      # h * exp(-U(node)), doubled at k >= 1 for an even U

    @classmethod
    def from_callable(cls, u, *, name: str = "custom",
                      even: bool = True) -> "BAFunction":
        # the bisection leaves each cutoff where U - U(0) >= target, so the
        # envelope there is at most 10^-TAIL_DECADES of its value at 0
        target = TAIL_DECADES * LN10
        x_pos = _solve_cutoff(u, target)
        x_neg = x_pos if even else _solve_cutoff(lambda x: u(-x), target)

        def grid(h):
            # an even U's node pair +-x sums to 2 cos(z x) e^{-U(x)}: fold it
            k = np.arange(0 if even else -np.ceil(x_neg / h), np.ceil(x_pos / h) + 1)
            xs = k * h
            with np.errstate(over="ignore"):
                env = h * np.exp(-u(xs))
            if even:
                env[1:] *= 2
            return xs, env

        h = H_START
        xs, env = grid(h)
        probes = np.array(PROBE_ZS)
        sums = fourier_eval(xs, env, probes, sine=not even)
        for _ in range(MAX_HALVINGS):
            h /= 2
            xs, env = grid(h)
            finer = fourier_eval(xs, env, probes, sine=not even)
            gap = float(np.max(np.abs(finer - sums)))
            if gap <= STEP_TOL * abs(finer[0]):
                return cls(name=name, u=u, even=even, x_max=x_pos, x_min=-x_neg,
                           h=h, xs=xs, env=env)
            sums = finer
        raise XilabError(
            f"trapezoid sums for {name} still differ by {gap:.3e} of |psi(0)| "
            f"at step {h:.3g} after {MAX_HALVINGS} halvings")

    @classmethod
    def from_poly(cls, coeffs, *, name: str = "poly") -> "BAFunction":
        """Potential sum c_n x^n from an ascending coefficient list."""
        cs = np.array([float(c) for c in coeffs], dtype=np.float64)
        even = all(abs(c) == 0 for c in cs[1::2])
        highest_first = cs[::-1]

        def u(x):
            return np.polyval(highest_first, x)

        return cls.from_callable(u, name=name, even=even)

    def psi(self, z) -> complex:
        """psi(z) for one z: the value ``psi_grid`` gives z on any grid."""
        return complex(self.psi_grid([z])[0])

    def psi_grid(self, zs) -> np.ndarray:
        """psi at each z; each value depends on its z alone. For even U it is
        the cosine sum on the folded nodes, and the imaginary part is 0."""
        return fourier_eval(self.xs, self.env, in_band(zs), sine=not self.even)


def in_band(zs) -> np.ndarray:
    """zs as float64, rejecting |z| > Z_MAX, where the trapezoid sum aliases."""
    zs = np.asarray(zs, dtype=np.float64)
    if zs.size and not np.max(np.abs(zs)) <= Z_MAX:
        raise ValueError(f"|z| = {np.max(np.abs(zs)):g} is outside the quadrature "
                         f"band |z| <= {Z_MAX:g}")
    return zs


def _solve_cutoff(u, target: float) -> float:
    lo, hi = 0.0, 1.0
    u0 = float(u(np.array([0.0]))[0])
    while float(u(np.array([hi]))[0]) - u0 < target:
        hi *= 2
        if hi > 1e6:
            raise XilabError("potential grows too slowly for a quadrature cutoff")
    # bisect until lo and hi are adjacent floats: the midpoint then rounds onto one
    while lo < (m := (lo + hi) / 2) < hi:
        if float(u(np.array([m]))[0]) - u0 < target:
            lo = m
        else:
            hi = m
    return hi


def _scan(f: BAFunction, step: float):
    """The grid SCAN_START, SCAN_START + step, ... below Z_MAX, psi and |psi|
    on it, and two readers.

    ``through(i)`` sums psi up to grid point i. The zeros the scans return
    lie far below Z_MAX, so psi is summed lazily: one ``psi_grid`` call per
    block, each block as long as all before it and the first as long as the
    +-1 window, so at most about twice what the scan reads is summed.
    Nothing past what ``through`` has summed may be read from ``vals`` or
    ``mags``.

    ``envelope(i)`` is the largest |psi| within +-1 in z of point i, or None
    where that is below the quadrature noise floor NOISE * |psi(0)|. Both
    zero scans stop at the first candidate without an envelope: past it sign
    changes and dips are rounding noise of the float64 sum.
    """
    zs = np.arange(SCAN_START, Z_MAX, step)
    vals = np.empty(len(zs), dtype=np.complex128)
    mags = np.empty(len(zs))
    w = max(1, int(round(1.0 / step)))
    floor = NOISE * abs(f.psi(0.0))
    summed = 0

    def through(i):
        nonlocal summed
        while summed <= i and summed < len(zs):
            stop = min(len(zs), max(2 * summed, 2 * w + 1))
            vals[summed:stop] = f.psi_grid(zs[summed:stop])
            mags[summed:stop] = np.abs(vals[summed:stop])
            summed = stop

    def envelope(i):
        through(i + w)
        env = np.max(mags[max(0, i - w): i + w + 1])
        return env if env >= floor else None

    return zs, vals, mags, through, envelope


def refine_zero(g, a: float, b: float, ga: float, gb: float) -> float:
    """A zero of the real function ``g`` in the bracket [a, b], where
    ga = g(a) is not 0 and gb = g(b) has the other sign or is 0: the
    midpoint of a bracket no wider than BISECT_TOL, or a z where g is 0.

    ITP (Oliveira & Takahashi, "An Enhancement of the Bisection Method
    Average Performance Preserving Minmax Optimality", ACM TOMS 47, 2021).
    Each step sums g once, at the regula falsi point moved toward the
    midpoint by kappa1 * width^ITP_KAPPA2 and kept within the distance of
    the midpoint that leaves the step count at most ITP_N0 above
    bisection's. Superlinear on a simple zero: a 0.05 scan bracket takes
    6-9 sums where bisection takes 29, and a triple root by one of its ends
    31 (30 and one for the rounding of the last step).
    """
    kappa1 = ITP_KAPPA1 / (b - a)
    n_max = math.ceil(math.log2(max(b - a, BISECT_TOL) / BISECT_TOL)) + ITP_N0
    j = 0
    while b - a > BISECT_TOL:
        mid = 0.5 * (a + b)
        # ITP keeps it >= 0 for n_max steps; a step past them (rounding of
        # the last) bisects
        radius = max(0.0, BISECT_TOL * 2.0 ** (n_max - j - 1) - 0.5 * (b - a))
        falsi = (gb * a - ga * b) / (gb - ga)
        toward = math.copysign(1.0, mid - falsi)
        shift = kappa1 * (b - a) ** ITP_KAPPA2
        x = falsi + toward * shift if shift <= abs(mid - falsi) else mid
        if abs(x - mid) > radius:
            x = mid - toward * radius
        gx = g(x)
        if gx == 0.0:
            return float(x)
        if (gx > 0) == (ga > 0):
            a, ga = x, gx
        else:
            b, gb = x, gx
        j += 1
    return float(0.5 * (a + b))


def psi_zeros(f: BAFunction, count: int) -> tuple:
    """The first `count` positive real zeros by sign scan plus ITP
    refinement (``refine_zero``), or as many as lie above the quadrature
    noise floor."""
    if not f.even:
        raise ValueError("real zero scan needs an even potential; "
                         "use magnitude_minima for complex-valued psi")
    zs, vals, _, through, envelope = _scan(f, ZERO_SCAN_STEP)
    vals = vals.real  # a view: it fills as through() sums
    zeros = []
    for i in range(len(zs) - 1):
        if len(zeros) >= count:
            break
        through(i + 1)
        a, b, fa = zs[i], zs[i + 1], vals[i]
        if fa != 0.0 and fa * vals[i + 1] >= 0:
            continue  # no zero in [a, b)
        if envelope(i) is None:
            break  # past the resolvable range
        if fa == 0.0:
            zeros.append(float(a))  # the grid point is the zero
        else:
            zeros.append(refine_zero(lambda z: f.psi(z).real, a, b, fa, vals[i + 1]))
    return tuple(zeros)


def magnitude_minima(f: BAFunction, count: int) -> list:
    """Approximate zero locations of a complex-valued psi via |psi| dips.

    Plot-quality heuristic only. A dip counts when |psi| is a local minimum
    below DIP_DEPTH times its envelope (the largest |psi| within +-1 in z), so
    exponentially decaying functions are handled; dips lost in the
    quadrature noise floor are rejected.
    """
    zs, _, mags, through, envelope = _scan(f, DIP_SCAN_STEP)
    out = []
    for i in range(1, len(zs) - 1):
        if len(out) >= count:
            break
        through(i + 1)
        if not (mags[i] < mags[i - 1] and mags[i] < mags[i + 1]):
            continue
        env = envelope(i)
        if env is None:
            break  # past the resolvable range
        if mags[i] < DIP_DEPTH * env:
            out.append(float(zs[i]))
    return out


# ---------------------------------------------------------------------------
# reference zero tables
#
# The generalized-Airy reference integrands are stored as explicit
# coefficient lists; they define the functions the published zero tables
# refer to. The zeta-type rows keep published zeros only (recomputing those
# is out of scope here).

_GEN_AIRY = [0, 0, 0, 0, 0, 0, 0, 0, 1 / 8]
_GEN_AIRY_M130 = [0, 0, -1 / 2, 0, 3 / 4, 0, 0, 0, 1 / 8]
_GEN_AIRY_133 = [0, 0, 1 / 2, 0, 3 / 4, 0, 3 / 4, 0, 1 / 8]

REFERENCE_TABLE = {
    "riemann": (14.1347, 21.022, 25.0109),
    "ramanujan": (9.22238, 13.90755, 17.442777),
    "bessel_k": (2.96255, 4.53449, 5.87987),
    "airy": (-2.33811, -4.08795, -5.52056),
    "gen_airy": (2.56503, 5.08746, 7.53357),
    "gen_airy_m130": (2.89881, 5.99627, 8.6996),
    "gen_airy_133": (4.17486, 7.69736, 10.9217),
}
# the corrected gamma-eta transform's |psi| dips sit at the zeta zeros
REFERENCE_TABLE["eta_gamma_corrected"] = REFERENCE_TABLE["riemann"]


def _u_eta_gamma_f64(x):
    # the catalogued row potential; its transform is 2^{-iz} Gamma(1/2-iz)/e,
    # smooth and zero-free on the real axis
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return (x + np.log(2.0)) / 2 + np.exp(-(x + np.log(2.0))) + 1


def _u_eta_gamma_corrected_f64(x):
    # denominator e^t + 1 instead of e^{t+1}: the transform becomes
    # Gamma(1/2+iz) eta(1/2+iz) (up to a phase), whose |psi| dips sit at the
    # first zeta zeros -- the plot-grade companion of the row potential
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-(x + np.log(2.0)))
    # log(e^t + 1) = t + log1p(e^-t), overflow-safe on the steep side
    return (x + np.log(2.0)) / 2 + t + np.log1p(np.exp(-t))


QUADRATURE_INTEGRANDS = {
    "bessel_k": lambda: BAFunction.from_callable(np.cosh, name="bessel_k"),
    "gen_airy": lambda: BAFunction.from_poly(_GEN_AIRY, name="gen_airy"),
    "gen_airy_m130": lambda: BAFunction.from_poly(_GEN_AIRY_M130, name="gen_airy_m130"),
    "gen_airy_133": lambda: BAFunction.from_poly(_GEN_AIRY_133, name="gen_airy_133"),
    # complex-valued psi (non-even potentials); |psi| dips mark zeros,
    # plot use only
    "eta_gamma": lambda: BAFunction.from_callable(_u_eta_gamma_f64,
                                                  name="eta_gamma", even=False),
    "eta_gamma_corrected": lambda: BAFunction.from_callable(
        _u_eta_gamma_corrected_f64, name="eta_gamma_corrected", even=False),
}


def reference_table(function_id: str) -> tuple:
    """The published zeros of ``function_id`` (ValueError if none)."""
    try:
        return REFERENCE_TABLE[function_id]
    except KeyError:
        raise ValueError(
            f"no reference zeros for {function_id!r}; "
            f"known: {sorted(REFERENCE_TABLE)}") from None


def integrand(function_id: str):
    """The set-up of the quadrature integrand named ``function_id`` (call it
    for the ``BAFunction``); ValueError if none."""
    try:
        return QUADRATURE_INTEGRANDS[function_id]
    except KeyError:
        raise ValueError(
            f"no quadrature integrand for {function_id!r}; "
            f"known: {sorted(QUADRATURE_INTEGRANDS)}") from None


def quadrature_zeros(function_id: str, count: int = 3) -> tuple:
    """Recompute a reference row's first ``count`` zeros from its integrand;
    finding fewer above the noise floor is a XilabError.

    Non-even integrands give complex psi on the real axis; their zeros are
    located as |psi| minima (plot-grade heuristic, not used by acceptance).
    """
    make = integrand(function_id)
    if count < 1:
        raise ValueError(f"zero count must be >= 1, got {count}")
    f = make()
    if f.even:
        zeros = psi_zeros(f, count)
        what = f"zeros in (0, {Z_MAX:g}) above the quadrature noise floor"
    else:
        zeros = tuple(magnitude_minima(f, count))
        what = f"|psi| dips for {function_id}"
    if len(zeros) < count:
        raise XilabError(f"found {len(zeros)} of {count} {what}")
    return zeros
