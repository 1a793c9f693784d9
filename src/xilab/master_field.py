"""Quenched master-field least squares and the saddle-point eigenvalue system.

The quenched equations for stochastic-time-independent matrices (a, b) with
diagonal master momenta p are packed into residuals

    E = i(p_k - p_l) a_kl + V'(a + I)_kl / g - b_kl / g - eta1_kl
    F = i(p_k - p_l) b_kl - a_kl / g - eta2_kl

and the cost C = sum |E|^2 + |F|^2 is minimized over Hermitian (a, b) by
damped Gauss-Newton with backtracking and seeded multi-restart. A best cost
that stays above the threshold tau flags an obstruction: no Hermitian master
pair reproduces the model within tolerance.

A restart stops when C <= eps^2 * sum |t|^2, the sum running over the
entries of every term t of E and F: below that floor float64 rounding, not
the fit, sets the cost (Madsen, Nielsen & Tingleff, Methods for Non-Linear
Least Squares Problems, 2004, sec. 3.2). A restart that ends at the floor
ends the search. Otherwise a restart stops when the gradient vanishes, when
no damping gives a descent step, or after max_iters iterations, and the
next restart runs. ``MasterResult.stop`` and ``restarts`` report which.

The saddle system couples eigenvalue vectors through unit-strength Coulomb
repulsion:

    -V'(1 + a_i)/g + b_i/g + sum_{j != i} 1/(a_i - a_j) = 0
     a_i/g          + sum_{j != i} 1/(b_i - b_j) = 0

solved (where solutions exist) by damped Newton from interleaved grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .errors import SingularJacobian
from .kernels import master_cost, master_residuals
from .matrix_model import ModelPotential


_MOMENTUM_BOUND = float(np.pi)  # half-width of the seeded uniform momentum draw


def _vp_float(potential: ModelPotential) -> np.ndarray:
    """Float coefficients (degree 0..p-1) of V'(1+u)."""
    return np.array([float(c) for c in potential.v_shifted_prime_coeffs()])


@dataclass(frozen=True)
class MasterConfig:
    N: int
    g: float
    potential: ModelPotential
    seed: int = 0
    momenta: tuple | None = None       # explicit values; None: seeded uniform draw
    sigma: float = 0.0
    max_iters: int = 200
    restarts: int = 4
    tau: float | None = None           # obstruction threshold; default relative
    hermitian: bool = True

    def momentum_vector(self) -> np.ndarray:
        if self.momenta is None:
            rng = np.random.default_rng(self.seed)
            return rng.uniform(-_MOMENTUM_BOUND, _MOMENTUM_BOUND, self.N)
        p = np.asarray(self.momenta, dtype=np.float64)
        if p.shape != (self.N,):
            raise ValueError("explicit momenta must have length N")
        return p

    def noise(self) -> tuple[np.ndarray, np.ndarray]:
        """Hermitian Gaussian noise pair at scale sigma (zero when sigma=0)."""
        if self.sigma == 0.0:
            z = np.zeros((self.N, self.N), dtype=np.complex128)
            return z, z.copy()
        rng = np.random.default_rng(self.seed + 1)

        def herm():
            g = rng.normal(size=(self.N, self.N)) + 1j * rng.normal(size=(self.N, self.N))
            return self.sigma * (g + g.conj().T) / 2

        return herm(), herm()

    def vp_coeffs(self) -> np.ndarray:
        return _vp_float(self.potential).astype(np.complex128)


@dataclass(frozen=True)
class MasterState:
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class MasterResult:
    cost: float
    state: MasterState
    iterations: int
    obstruction: bool
    trace: tuple
    best_seed: int
    stop: str       # why the returned solve ended: floor, stalled, max_iters, gradient
    restarts: int   # restarts run


# --- Hermitian (or general) packing ----------------------------------------


@lru_cache(maxsize=8)
def _packing(N: int, hermitian: bool) -> np.ndarray:
    """The complex N^2 x n map P with vec(a) = P @ theta_a (row-major vec).

    Hermitian: theta_a holds the N diagonal entries, then (re, im) of each
    a_ij with i < j in row order. General: the N^2 real parts, then the N^2
    imaginary parts. The columns of P are the basis directions.
    """
    if hermitian:
        P = np.zeros((N * N, N * N), dtype=np.complex128)
        P[np.arange(N) * (N + 1), np.arange(N)] = 1.0
        i, j = np.triu_indices(N, 1)
        re = N + 2 * np.arange(len(i))
        P[i * N + j, re] = P[j * N + i, re] = 1.0
        P[i * N + j, re + 1], P[j * N + i, re + 1] = 1j, -1j
    else:
        P = np.hstack([np.eye(N * N), 1j * np.eye(N * N)])
    P.flags.writeable = False
    return P


def n_params(N: int, hermitian: bool) -> int:
    return 2 * _packing(N, hermitian).shape[1]


def unpack_state(theta: np.ndarray, N: int, hermitian: bool = True) -> MasterState:
    a, b = (theta.reshape(2, -1) @ _packing(N, hermitian).T).reshape(2, N, N)
    return MasterState(a=a, b=b)


def _fixed_inputs(cfg: MasterConfig) -> tuple:
    """(momenta, eta1, eta2, V' coefficients): fixed for a whole solve."""
    return (cfg.momentum_vector(), *cfg.noise(), cfg.vp_coeffs())


def residuals(cfg: MasterConfig, state: MasterState):
    """Exact residual matrices (E, F) for a state."""
    p_mom, eta1, eta2, vp = _fixed_inputs(cfg)
    return master_residuals(p_mom, state.a, state.b, vp, cfg.g, eta1, eta2)[:2]


def _residual_vector(E, F) -> np.ndarray:
    return np.concatenate([E.real.ravel(), E.imag.ravel(),
                           F.real.ravel(), F.imag.ravel()])


def _cost_from_theta(cfg, theta, fixed):
    p_mom, eta1, eta2, vp = fixed
    st = unpack_state(theta, cfg.N, cfg.hermitian)
    E, F, floor = master_residuals(p_mom, st.a, st.b, vp, cfg.g, eta1, eta2)
    return master_cost(E, F), E, F, floor


def _jacobian(cfg, theta, fixed):
    """d(residual vector)/d(theta) as one linear map.

    For row-major vec, vec(X h Y) = kron(X, Y^T) vec(h), so V'(a) has the
    derivative L = sum_m c_m sum_{j<m} kron(a^j, (a^{m-1-j})^T). With
    D = diag(vec(i(p_k - p_l))), vec E has blocks (D P + L P / g, -P / g)
    and vec F has (-P / g, D P) in (theta_a, theta_b).
    """
    p_mom, _, _, vp = fixed
    N, g = cfg.N, cfg.g
    P = _packing(N, cfg.hermitian)
    a = unpack_state(theta, N, cfg.hermitian).a
    powers = [np.eye(N, dtype=np.complex128)]
    for _ in range(len(vp) - 2):
        powers.append(powers[-1] @ a)
    L = sum((vp[m] * np.kron(powers[j], powers[m - 1 - j].T)
             for m in range(1, len(vp)) for j in range(m)),
            np.zeros((N * N, N * N), dtype=np.complex128))
    DP = (1j * (p_mom[:, None] - p_mom[None, :])).reshape(-1, 1) * P
    JE = np.hstack([DP + L @ P / g, -P / g])
    JF = np.hstack([-P / g, DP])
    return np.vstack([JE.real, JE.imag, JF.real, JF.imag])


def cost_gradient(cfg: MasterConfig, theta: np.ndarray) -> np.ndarray:
    """Analytic gradient of C with respect to the packed parameters."""
    fixed = _fixed_inputs(cfg)
    _, E, F, _ = _cost_from_theta(cfg, theta, fixed)
    return 2.0 * (_jacobian(cfg, theta, fixed).T @ _residual_vector(E, F))


def cost_at(cfg: MasterConfig, theta: np.ndarray) -> float:
    return _cost_from_theta(cfg, theta, _fixed_inputs(cfg))[0]


def _descend(cfg, theta, fixed):
    """One damped Gauss-Newton descent from theta.

    Returns (cost, theta, iterations, trace, stop). The floor is checked
    before each Jacobian is built; the other stops are a vanishing gradient,
    no damping giving a descent step ("stalled") and max_iters.
    """
    npar = len(theta)
    c, E, F, floor = _cost_from_theta(cfg, theta, fixed)
    trace = [c]
    lam = 1e-8
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        if c <= floor:
            stop = "floor"
            break
        J = _jacobian(cfg, theta, fixed)
        Jr = J.T @ _residual_vector(E, F)  # half the cost gradient
        if np.linalg.norm(2.0 * Jr) < 1e-14:
            stop = "gradient"
            break
        A = J.T @ J
        for _ in range(16):
            try:
                step = np.linalg.solve(A + lam * np.eye(npar), -Jr)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            cand = theta + step
            c2, E2, F2, floor2 = _cost_from_theta(cfg, cand, fixed)
            if c2 < c:
                theta, c, E, F, floor = cand, c2, E2, F2, floor2
                trace.append(c)
                lam = max(lam / 3, 1e-14)
                break
            lam *= 10
        else:  # no damping gave a descent step
            stop = "stalled"
            break
    else:  # the last step may have reached the floor
        stop = "floor" if c <= floor else "max_iters"
    return c, theta, iters, tuple(trace), stop


def optimize(cfg: MasterConfig) -> MasterResult:
    """Multi-restart damped Gauss-Newton minimization of the cost.

    The restarts end early only when one of them ends at the rounding floor;
    a stalled or obstructed solve searches every restart.
    """
    fixed = _fixed_inputs(cfg)
    npar = n_params(cfg.N, cfg.hermitian)
    best = None
    for restart in range(cfg.restarts):
        seed = cfg.seed + 100 * restart
        rng = np.random.default_rng(seed)
        theta = 0.5 * rng.standard_normal(npar) if restart else np.zeros(npar)
        c, theta, iters, trace, stop = _descend(cfg, theta, fixed)
        if best is None or c < best[0]:
            best = (c, theta, iters, trace, stop, seed)
        if stop == "floor":
            break

    c, theta, iters, trace, stop, seed_used = best
    tau = cfg.tau if cfg.tau is not None else 1e-10 * (1.0 + trace[0])
    return MasterResult(cost=c, state=unpack_state(theta, cfg.N, cfg.hermitian),
                        iterations=iters, obstruction=bool(c > tau), trace=trace,
                        best_seed=seed_used, stop=stop, restarts=restart + 1)


# ---------------------------------------------------------------------------
# saddle-point system


@dataclass(frozen=True)
class SaddleResult:
    a: np.ndarray
    b: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def _inverse_differences(v: np.ndarray) -> np.ndarray:
    """R_ij = 1/(v_i - v_j), with R_ii = 0."""
    diff = v[:, None] - v[None, :]
    np.fill_diagonal(diff, np.inf)
    return 1.0 / diff


def coulomb_force(v: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(v_i - v_j); equals d/dv_i log |Vandermonde(v)|."""
    return _inverse_differences(v).sum(axis=1)


def saddle_residual(potential: ModelPotential, g: float, a: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """Stacked residual [a-equations, b-equations]."""
    return _saddle_residual(_vp_float(potential), g, a, b)


def _saddle_residual(vp, g, a, b):
    return np.concatenate([-polyval(a, vp) / g + b / g + coulomb_force(a),
                           a / g + coulomb_force(b)])


def _saddle_jacobian(vpp, g, a, b):
    """d(saddle residual)/d(a, b), with vpp the coefficients of V''(1+u)."""
    ra, rb = _inverse_differences(a) ** 2, _inverse_differences(b) ** 2
    coupling = np.eye(len(a)) / g
    return np.block([[ra - np.diag(ra.sum(axis=1) + polyval(a, vpp) / g), coupling],
                     [coupling, rb - np.diag(rb.sum(axis=1))]])


def saddle_solve(potential: ModelPotential, g: float, N: int, *, seed: int = 0,
                 max_iters: int = 250, restarts: int = 8,
                 tol: float = 1e-10) -> SaddleResult:
    """Damped Newton from interleaved spread grids; best-found on failure."""
    if N < 2:
        raise ValueError("the saddle system needs N >= 2")
    vp = _vp_float(potential)
    vpp = polyder(vp)
    rng = np.random.default_rng(seed)
    best = None
    for restart in range(restarts):
        spread = 1.0 + 0.5 * restart
        a = np.linspace(-spread, spread, N) + 0.05 * rng.standard_normal(N)
        b = np.linspace(-spread, spread, N)[::-1].copy() + 0.05 * rng.standard_normal(N)
        singular_retries = 3
        it = 0
        f = _saddle_residual(vp, g, a, b)
        for it in range(1, max_iters + 1):
            norm = np.linalg.norm(f)
            if norm < tol:
                break
            J = _saddle_jacobian(vpp, g, a, b)
            damp = 0.0
            while True:
                try:
                    step = np.linalg.solve(J + damp * np.eye(2 * N), -f)
                    break
                except np.linalg.LinAlgError:
                    damp = 10 * damp if damp else 1e-10
                    singular_retries -= 1
                    if singular_retries <= 0:
                        raise SingularJacobian("saddle Jacobian stayed singular under damping")
            for halvings in range(40):
                lam = 0.5 ** halvings
                a2, b2 = a + lam * step[:N], b + lam * step[N:]
                if _distinct(a2) and _distinct(b2):
                    f2 = _saddle_residual(vp, g, a2, b2)
                    if np.linalg.norm(f2) < norm:
                        a, b, f = a2, b2, f2
                        break
            else:  # no step length reduced the residual
                break
        norm = float(np.linalg.norm(f))
        cand = SaddleResult(a=a, b=b, residual_norm=norm, iterations=it,
                            converged=norm < tol)
        if best is None or norm < best.residual_norm:
            best = cand
        if best.converged:
            break
    return best


def _distinct(v, floor: float = 1e-12) -> bool:
    vs = np.sort(v)
    return bool(np.all(np.abs(np.diff(vs)) > floor))


def reduced_ansatz_n2(potential: ModelPotential, g: float, *,
                      a_max: float = 50.0, n_scan: int = 20000) -> float:
    """Bisection oracle for the N=2 system on the symmetric slice a2 = -a1.

    The two b-equations force a1 + a2 = 0, and the a-equations determine
    b1, b2 from a1, leaving one scalar equation
        h(a1) = a1/g + 1/(D(a1) - g/a1) = 0,   D(a) = V'(1+a) - V'(1-a).
    h has poles, but h(a1) = 0 exactly when a1 * D(a1) = 0, so the
    nondegenerate roots are the positive zeros of the polynomial D, which
    do not depend on g (g enters only b1 = -b2 = V'(1+a1) - g/(2 a1)).
    Scans a1 in (0, a_max] for a sign change of D and bisects.
    Raises ValueError when no root bracket exists or D vanishes identically.
    """
    vp = _vp_float(potential)
    # D is twice the odd part of V'(1+u)
    d = np.where(np.arange(len(vp)) % 2 == 1, 2 * vp, 0.0)
    if not np.any(d):
        raise ValueError("V'(1+a) - V'(1-a) vanishes identically: every a1 "
                         "solves the reduced N=2 equation")

    def gap(a1):
        return polyval(a1, d)

    xs = np.linspace(a_max / n_scan, a_max, n_scan)
    vals = gap(xs)
    brackets = np.flatnonzero(vals[:-1] * vals[1:] <= 0)
    if not len(brackets):
        raise ValueError("no sign change of V'(1+a) - V'(1-a) for a > 0: "
                         "the symmetric slice admits no nondegenerate solution")
    i = brackets[0]
    lo, hi, flo = xs[i], xs[i + 1], vals[i]
    for _ in range(200):
        m = 0.5 * (lo + hi)
        fm = gap(m)
        if flo * fm <= 0:
            hi = m
        else:
            lo, flo = m, fm
    return 0.5 * (lo + hi)
