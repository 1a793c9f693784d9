"""Baker-Akhiezer functions psi(z) = integral e^{-U(x)} e^{izx} dx.

Composite Gauss-Legendre quadrature over [-X, X] with X chosen so the
envelope e^{-U} is below 10^{-(dps+5)} at the cutoff. Panels are sized so U
varies by at most 5 per panel (and never wider than 1/2, which keeps the
e^{izx} oscillation trivially resolved for |z| <= 50). The envelope values
at the nodes are precomputed once, so a zero scan costs one Fourier sum per
z; that sum is the package's hot kernel.

Everything here runs in float64: the integrand is smooth, unit-scale and
exponentially localized, so composite 64-node panels deliver ~1e-15
relative accuracy, far below the 1e-10 bisection tolerance and the 1e-3
agreement expected of the zero tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientZerosFound, TailNotNegligible, UnknownReference
from .kernels import fourier_eval
from .precision import working_dps
from .scaling import ScaledPotential

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
LN10 = float(np.log(10.0))


@dataclass(frozen=True)
class BAFunction:
    """A potential prepared for quadrature: nodes and envelope cached."""

    name: str
    u: Callable          # vectorized float64 potential
    even: bool
    x_max: float         # positive-side cutoff
    x_min: float         # negative-side cutoff
    xs: np.ndarray       # quadrature nodes
    env: np.ndarray      # weight * exp(-U(node))
    panel_edges: np.ndarray

    @classmethod
    def from_callable(cls, u, *, name: str = "custom", even: bool = True,
                      tail_digits: int | None = None, refine: int = 1) -> "BAFunction":
        digits = tail_digits if tail_digits is not None else working_dps() + 5
        # keep exp(-U) representable in float64
        target = min(digits * LN10, 700.0)
        x_pos = _solve_cutoff(u, target)
        x_neg = x_pos if even else _solve_cutoff(lambda x: u(-x), target)
        with np.errstate(over="ignore"):
            for x in (x_pos, -x_neg):
                tail = float(np.exp(-u(np.array([x]))[0]))
                if not tail <= 10.0 ** (-min(digits, 300)) * 1e3:
                    raise TailNotNegligible(
                        f"envelope at cutoff {x:.3f} is {tail:.3e}, above the bound")
        edges = _panel_edges(u, x_pos, x_neg, even=even)
        if refine > 1:
            edges = np.concatenate(
                [np.linspace(edges[i], edges[i + 1], refine + 1)[:-1]
                 for i in range(len(edges) - 1)] + [edges[-1:]])
        mid = (edges[1:] + edges[:-1]) / 2
        half = (edges[1:] - edges[:-1]) / 2
        xs = (mid[:, None] + half[:, None] * GL_NODES[None, :]).ravel()
        with np.errstate(over="ignore"):
            env = (half[:, None] * GL_WEIGHTS[None, :]).ravel() * np.exp(-u(xs))
        return cls(name=name, u=u, even=even, x_max=x_pos, x_min=-x_neg,
                   xs=xs, env=env, panel_edges=edges)

    @classmethod
    def from_poly(cls, coeffs, *, name: str = "poly", refine: int = 1) -> "BAFunction":
        """Potential sum c_n x^n from an ascending coefficient list."""
        cs = np.array([float(c) for c in coeffs], dtype=np.float64)
        even = all(abs(c) == 0 for c in cs[1::2])

        def u(x):
            return np.polynomial.polynomial.polyval(x, cs)

        return cls.from_callable(u, name=name, even=even, refine=refine)

    @classmethod
    def from_scaled_potential(cls, sp: ScaledPotential, *, name: str | None = None,
                              refine: int = 1) -> "BAFunction":
        cs = [0.0] * (sp.p + 2)
        for n in range(2, sp.p + 1):
            cs[n] = float(sp.coefficient(n))
        cs[sp.p + 1] = 1.0 / (sp.p + 1)
        return cls.from_poly(cs, name=name or f"scaled(p={sp.p})", refine=refine)

    def psi(self, z) -> complex:
        """psi(z) for one z; for even U and real z the imaginary part is zeroed."""
        val = fourier_eval(self.xs, self.env, np.array([float(z)]))[0]
        if self.even:
            return complex(val.real, 0.0)
        return complex(val)

    def psi_grid(self, zs) -> np.ndarray:
        out = fourier_eval(self.xs, self.env, np.asarray(zs, dtype=np.float64))
        if self.even:
            return out.real + 0j
        return out


def _solve_cutoff(u, target: float) -> float:
    lo, hi = 0.0, 1.0
    u0 = float(u(np.array([0.0]))[0])
    while float(u(np.array([hi]))[0]) - u0 < target:
        hi *= 2
        if hi > 1e6:
            raise TailNotNegligible("potential grows too slowly for a quadrature cutoff")
    for _ in range(80):
        m = (lo + hi) / 2
        if float(u(np.array([m]))[0]) - u0 < target:
            lo = m
        else:
            hi = m
    return hi


def _panel_edges(u, x_pos: float, x_neg: float, *, even: bool, du: float = 5.0,
                 max_width: float = 0.5) -> np.ndarray:
    def one_side(sign, cutoff):
        edges = [0.0]
        while edges[-1] < cutoff:
            lo = edges[-1]
            hi = min(lo + max_width, cutoff)
            ulo = float(u(np.array([sign * lo]))[0])
            while hi - lo > 1e-6:
                if abs(float(u(np.array([sign * hi]))[0]) - ulo) <= du:
                    break
                hi = lo + (hi - lo) / 2
            edges.append(hi)
        return np.array(edges)

    pos = one_side(+1.0, x_pos)
    neg = pos if even else one_side(-1.0, x_neg)
    return np.concatenate([-neg[::-1][:-1], pos])


@dataclass(frozen=True)
class ReferenceZeros:
    function_id: str
    zeros: tuple
    provenance: str  # "published-table" | "quadrature"


def psi_zeros(f: BAFunction, count: int, *, scan_step: float = 0.05,
              z_start: float = 1e-3, z_max: float = 80.0,
              bisect_tol: float = 1e-10) -> ReferenceZeros:
    """First `count` positive real zeros by sign scan plus bisection."""
    if not f.even:
        raise ValueError("real zero scan needs an even potential; "
                         "use magnitude_minima for complex-valued psi")
    zs_grid = np.arange(z_start, z_max, scan_step)
    vals = f.psi_grid(zs_grid).real
    zeros = []
    for i in range(len(zs_grid) - 1):
        if len(zeros) >= count:
            break
        a, b = zs_grid[i], zs_grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            zeros.append(float(a))
            continue
        if fa * fb < 0:
            while b - a > bisect_tol:
                m = 0.5 * (a + b)
                fm = f.psi(m).real
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            zeros.append(0.5 * (a + b))
    if len(zeros) < count:
        raise InsufficientZerosFound(
            f"found {len(zeros)} of {count} zeros in (0, {z_max})")
    return ReferenceZeros(function_id=f.name, zeros=tuple(zeros[:count]),
                          provenance="quadrature")


def magnitude_minima(f: BAFunction, count: int, *, scan_step: float = 0.02,
                     z_start: float = 1e-3, z_max: float = 80.0,
                     depth: float = 1e-2) -> list:
    """Approximate zero locations of a complex-valued psi via |psi| dips.

    Plot-quality heuristic only. A dip counts when |psi| is a local minimum
    at least 1/depth below the surrounding envelope (a +-1 window in z), so
    exponentially decaying functions are handled; dips lost in the
    quadrature noise floor are rejected.
    """
    zs_grid = np.arange(z_start, z_max, scan_step)
    mags = np.abs(f.psi_grid(zs_grid))
    noise = 100 * np.finfo(float).eps * abs(f.psi(0.0))
    w = max(1, int(round(1.0 / scan_step)))
    out = []
    for i in range(1, len(zs_grid) - 1):
        if not (mags[i] < mags[i - 1] and mags[i] < mags[i + 1]):
            continue
        envelope = np.max(mags[max(0, i - w): i + w + 1])
        if envelope < noise:
            break  # past the resolvable range
        if mags[i] < depth * envelope:
            out.append(float(zs_grid[i]))
            if len(out) >= count:
                break
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
    "riemann": ReferenceZeros("riemann", (14.1347, 21.022, 25.0109), "published-table"),
    "ramanujan": ReferenceZeros("ramanujan", (9.22238, 13.90755, 17.442777), "published-table"),
    "bessel_k": ReferenceZeros("bessel_k", (2.96255, 4.53449, 5.87987), "published-table"),
    "airy": ReferenceZeros("airy", (-2.33811, -4.08795, -5.52056), "published-table"),
    "gen_airy": ReferenceZeros("gen_airy", (2.56503, 5.08746, 7.53357), "published-table"),
    "gen_airy_m130": ReferenceZeros("gen_airy_m130", (2.89881, 5.99627, 8.6996), "published-table"),
    "gen_airy_133": ReferenceZeros("gen_airy_133", (4.17486, 7.69736, 10.9217), "published-table"),
}

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


def reference_table(function_id: str) -> ReferenceZeros:
    try:
        return REFERENCE_TABLE[function_id]
    except KeyError:
        raise UnknownReference(
            f"no reference zeros for {function_id!r}; "
            f"known: {sorted(REFERENCE_TABLE)}") from None


def quadrature_zeros(function_id: str, count: int = 3) -> ReferenceZeros:
    """Recompute a reference row's zeros from its integrand.

    Non-even integrands give complex psi on the real axis; their zeros are
    located as |psi| minima (plot-grade heuristic, not used by acceptance).
    """
    if function_id not in QUADRATURE_INTEGRANDS:
        raise UnknownReference(
            f"no quadrature integrand for {function_id!r}; "
            f"known: {sorted(QUADRATURE_INTEGRANDS)}")
    f = QUADRATURE_INTEGRANDS[function_id]()
    if not f.even:
        dips = magnitude_minima(f, count, depth=1e-2)
        if len(dips) < count:
            raise InsufficientZerosFound(
                f"found {len(dips)} of {count} |psi| dips for {function_id}")
        return ReferenceZeros(function_id=function_id, zeros=tuple(dips),
                              provenance="quadrature-magnitude")
    return psi_zeros(f, count)
