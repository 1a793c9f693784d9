"""Characteristic polynomials of the coupled-matrix model.

The expectation value of det(b - B) for the (p,1) model is the degree-N
polynomial Q_N(b) obtained from the exponent

    E(a) = a b / g + S(a) / g,
    S(a) = T_p(a) + sum_k s_k eps^{p-k} T_k(a),
    T_n(a) = sum_{j=1}^{n} (1 - (1-a)^j) / j
           = sum_{m=1}^{n} (-1)^{m+1} C(n,m) a^m / m,

as Q_N(b) = (-g)^N N! [a^N] exp(E(a)). S collects the matrix potential in
shifted form, V(1 + u) = -S(u), so V(1) = 0 and the leading coefficient of
Q_N is exactly (-1)^N. The block T_n carries the degree-n interaction; the
quadratic model (p = 2) is the exactly Gaussian case with S(a) = -a^2/4,
whose Q_N is the scaled Hermite closed form.

Q_N is built one way, from the generating function (see ``q_polynomial``),
and keeps the exponent it was built from: the root finder's float64 start
reads it. The tests check Q_N against independent routes kept in
``tests/oracles.py``: series extraction of the bivariate exponential, the
Hessenberg determinant and the p = 2 closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import mpmath as mp
from mpmath import mpf

from .precision import to_decimal
from .scaling import ModelParams
from .series import series_exp, series_log

MAX_N = 64


@dataclass(frozen=True)
class ModelPotential:
    """Matrix potential in shifted form: coefficients of S(a) = -V(1+a)."""

    p: int
    s_coeffs: tuple  # sigma_1 .. sigma_p, S(a) = sum sigma_m a^m

    def v_shifted_prime_coeffs(self) -> tuple:
        """Coefficients (degree 0..p-1) of V'(1+u) = -S'(u)."""
        return tuple(-(m + 1) * c for m, c in enumerate(self.s_coeffs))


def build_potential(params: ModelParams) -> ModelPotential:
    """Assemble S(a) for the model's degree and weighted couplings."""
    p = params.p
    if p == 2:
        if any(v != 0 for v in params.s):
            raise ValueError("the quadratic model takes no couplings")
        # Gaussian fixed point; reproduces the scaled Hermite closed form.
        return ModelPotential(p=2, s_coeffs=(mpf(0), -mpf(1) / 4))
    sigma = [mpf(0)] * (p + 1)  # index m
    weights = {p: mpf(1)}
    for k, w in params.weighted_couplings().items():
        weights[k] = weights.get(k, mpf(0)) + w
    for n, w in weights.items():
        for m in range(1, n + 1):
            sigma[m] += w * (-1) ** (m + 1) * comb(n, m) / m
    return ModelPotential(p=p, s_coeffs=tuple(sigma[1:]))


@dataclass(frozen=True)
class CharPolynomial:
    """Q_N(b) with extended-precision coefficients, lowest degree first, and
    its exponent c_1 .. c_k (k <= N):

        Q_N(b) = q_N (-1)^N N! [t^N] exp(c_1 t + ... + c_k t^k - b t).

    ``q_polynomial`` stores the exponent it builds Q_N from (k = min(p, N)).
    A polynomial known only by its coefficients gets it from
    ``from_coeffs``.
    """

    N: int
    coeffs: tuple
    exponent: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.N + 1:
            raise ValueError("coefficient count must be N + 1")
        if len(self.exponent) > self.N:
            raise ValueError("exponent longer than the degree")

    @classmethod
    def from_coeffs(cls, coeffs) -> "CharPolynomial":
        """The polynomial with these coefficients; its exponent is
        log(T / T_0) with T_j = (-1)^j q_{N-j} (N-j)!, by ``series_log``."""
        coeffs = tuple(coeffs)
        n = len(coeffs) - 1
        if coeffs[n] == 0:
            raise ValueError("need a nonzero leading coefficient")
        lead = coeffs[n] * mp.factorial(n)
        t = [(-1) ** j * coeffs[n - j] * mp.factorial(n - j) / lead for j in range(n + 1)]
        return cls(N=n, coeffs=coeffs, exponent=series_log(tuple(t))[1:])

    def as_dict(self) -> dict:
        return {"N": self.N, "coeffs": [to_decimal(c) for c in self.coeffs]}


def q_polynomial(params: ModelParams, V: ModelPotential, N: int) -> CharPolynomial:
    """Q_N from the generating function sum_n Q_n(y) t^n / n!.

    The generating function factors into a scalar series exp(S(-g t)/g)
    times e^{-y t}, so Q_N(y) = N! sum_k T_{N-k} (-y)^k / k! with T the
    scalar exponential's coefficients.
    """
    if N > MAX_N:
        raise ValueError(f"N = {N} exceeds the default cap {MAX_N}; "
                         "raise precision and MAX_N deliberately if you mean it")
    g = params.g
    k = min(V.p, N)
    c = [mpf(0)] * (N + 1)
    for m in range(1, k + 1):
        c[m] = V.s_coeffs[m - 1] * (-g) ** m / g
    T = series_exp(tuple(c))
    out = [mpf(0)] * (N + 1)
    for j in range(N + 1):
        out[j] = mp.factorial(N) * T[N - j] * (-1) ** j / mp.factorial(j)
    return CharPolynomial(N=N, coeffs=tuple(out), exponent=tuple(c[1:k + 1]))
