"""Quenched master-field least squares and the saddle-point eigenvalue system.

The quenched equations for stochastic-time-independent matrices (a, b) with
diagonal master momenta p are packed into residuals

    E = i(p_k - p_l) a_kl + V'(a + I)_kl / g - b_kl / g - eta1_kl
    F = i(p_k - p_l) b_kl - a_kl / g - eta2_kl

and the cost C = sum |E|^2 + |F|^2 is minimized over Hermitian (a, b) by
damped Gauss-Newton with backtracking and seeded multi-restart. A best cost
that stays above the threshold tau flags an obstruction: no Hermitian master
pair reproduces the model within tolerance.

The saddle system couples eigenvalue vectors through unit-strength Coulomb
repulsion:

    -V'(1 + a_i)/g + b_i/g + sum_{j != i} 1/(a_i - a_j) = 0
     a_i/g          + sum_{j != i} 1/(b_i - b_j) = 0

solved (where solutions exist) by damped Newton from interleaved grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularJacobian
from .kernels import master_cost, master_residuals
from .matrix_model import ModelPotential


@dataclass(frozen=True)
class MasterConfig:
    N: int
    g: float
    potential: ModelPotential
    seed: int = 0
    momenta: tuple | str = "uniform"   # explicit values or "uniform" on [-bound, bound]
    momentum_bound: float = float(np.pi)
    sigma: float = 0.0
    max_iters: int = 200
    restarts: int = 4
    tau: float | None = None           # obstruction threshold; default relative
    hermitian: bool = True

    def momentum_vector(self) -> np.ndarray:
        if isinstance(self.momenta, str):
            if self.momenta != "uniform":
                raise ValueError(f"unknown momenta mode {self.momenta!r}")
            rng = np.random.default_rng(self.seed)
            return rng.uniform(-self.momentum_bound, self.momentum_bound, self.N)
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
        return np.array([float(c) for c in self.potential.v_shifted_prime_coeffs()],
                        dtype=np.complex128)


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


# --- Hermitian (or general) packing ----------------------------------------


def n_params(N: int, hermitian: bool) -> int:
    per = N * N if hermitian else 2 * N * N
    return 2 * per


def unpack_state(theta: np.ndarray, N: int, hermitian: bool = True) -> MasterState:
    per = N * N if hermitian else 2 * N * N
    return MasterState(a=_unpack_one(theta[:per], N, hermitian),
                       b=_unpack_one(theta[per:], N, hermitian))


def _unpack_one(v, N, hermitian):
    m = np.zeros((N, N), dtype=np.complex128)
    if hermitian:
        idx = 0
        for i in range(N):
            m[i, i] = v[idx]
            idx += 1
        for i in range(N):
            for j in range(i + 1, N):
                m[i, j] = v[idx] + 1j * v[idx + 1]
                m[j, i] = v[idx] - 1j * v[idx + 1]
                idx += 2
    else:
        re = v[: N * N].reshape(N, N)
        im = v[N * N:].reshape(N, N)
        m = re + 1j * im
    return m


def _basis_matrices(N, hermitian):
    """Direction d(state)/d(theta_mu) for one matrix's parameter block."""
    out = []
    if hermitian:
        for i in range(N):
            h = np.zeros((N, N), dtype=np.complex128)
            h[i, i] = 1.0
            out.append(h)
        for i in range(N):
            for j in range(i + 1, N):
                h = np.zeros((N, N), dtype=np.complex128)
                h[i, j] = 1.0
                h[j, i] = 1.0
                out.append(h)
                h = np.zeros((N, N), dtype=np.complex128)
                h[i, j] = 1j
                h[j, i] = -1j
                out.append(h)
    else:
        for i in range(N):
            for j in range(N):
                h = np.zeros((N, N), dtype=np.complex128)
                h[i, j] = 1.0
                out.append(h)
        for i in range(N):
            for j in range(N):
                h = np.zeros((N, N), dtype=np.complex128)
                h[i, j] = 1j
                out.append(h)
    return out


def residuals(cfg: MasterConfig, state: MasterState):
    """Exact residual matrices (E, F) for a state."""
    eta1, eta2 = cfg.noise()
    return master_residuals(cfg.momentum_vector(), state.a, state.b,
                            cfg.vp_coeffs(), cfg.g, eta1, eta2)


def _residual_vector(E, F) -> np.ndarray:
    return np.concatenate([E.real.ravel(), E.imag.ravel(),
                           F.real.ravel(), F.imag.ravel()])


def _cost_from_theta(cfg, theta, p_mom, eta1, eta2, vp):
    st = unpack_state(theta, cfg.N, cfg.hermitian)
    E, F = master_residuals(p_mom, st.a, st.b, vp, cfg.g, eta1, eta2)
    return master_cost(E, F), E, F


def _jacobian(cfg, theta, p_mom, vp):
    """d(residual vector)/d(theta), assembled per basis direction."""
    N = cfg.N
    st = unpack_state(theta, N, cfg.hermitian)
    basis = _basis_matrices(N, cfg.hermitian)
    d = 1j * (p_mom[:, None] - p_mom[None, :])
    # powers of a for the polynomial directional derivative
    deg = len(vp) - 1
    powers = [np.eye(N, dtype=np.complex128)]
    for _ in range(max(deg - 1, 0)):
        powers.append(powers[-1] @ st.a)
    cols = []
    zero = np.zeros((N, N), dtype=np.complex128)
    for h in basis:  # a-block directions
        dvp = zero
        for m in range(1, deg + 1):
            c = vp[m]
            if c == 0:
                continue
            acc = np.zeros((N, N), dtype=np.complex128)
            for j in range(m):
                acc += powers[j] @ h @ powers[m - 1 - j]
            dvp = dvp + c * acc
        dE = d * h + dvp / cfg.g
        dF = -h / cfg.g
        cols.append(_residual_vector(dE, dF))
    for h in basis:  # b-block directions
        dE = -h / cfg.g
        dF = d * h
        cols.append(_residual_vector(dE, dF))
    return np.column_stack(cols)


def cost_gradient(cfg: MasterConfig, theta: np.ndarray) -> np.ndarray:
    """Analytic gradient of C with respect to the packed parameters."""
    p_mom = cfg.momentum_vector()
    eta1, eta2 = cfg.noise()
    vp = cfg.vp_coeffs()
    _, E, F = _cost_from_theta(cfg, theta, p_mom, eta1, eta2, vp)
    J = _jacobian(cfg, theta, p_mom, vp)
    return 2.0 * (J.T @ _residual_vector(E, F))


def cost_at(cfg: MasterConfig, theta: np.ndarray) -> float:
    p_mom = cfg.momentum_vector()
    eta1, eta2 = cfg.noise()
    c, _, _ = _cost_from_theta(cfg, theta, p_mom, eta1, eta2, cfg.vp_coeffs())
    return c


def optimize(cfg: MasterConfig) -> MasterResult:
    """Multi-restart damped Gauss-Newton minimization of the cost."""
    p_mom = cfg.momentum_vector()
    eta1, eta2 = cfg.noise()
    vp = cfg.vp_coeffs()
    npar = n_params(cfg.N, cfg.hermitian)

    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + 100 * restart)
        theta = 0.5 * rng.standard_normal(npar) if restart else np.zeros(npar)
        c, E, F = _cost_from_theta(cfg, theta, p_mom, eta1, eta2, vp)
        trace = [c]
        lam = 1e-8
        iters = 0
        for iters in range(1, cfg.max_iters + 1):
            J = _jacobian(cfg, theta, p_mom, vp)
            r = _residual_vector(E, F)
            grad = 2.0 * (J.T @ r)
            if c < 1e-30 or np.linalg.norm(grad) < 1e-14:
                break
            A = J.T @ J
            accepted = False
            for _ in range(16):
                try:
                    step = np.linalg.solve(A + lam * np.eye(npar), -(J.T @ r))
                except np.linalg.LinAlgError:
                    lam *= 10
                    continue
                cand = theta + step
                c2, E2, F2 = _cost_from_theta(cfg, cand, p_mom, eta1, eta2, vp)
                if c2 < c:
                    theta, c, E, F = cand, c2, E2, F2
                    trace.append(c)
                    lam = max(lam / 3, 1e-14)
                    accepted = True
                    break
                lam *= 10
            if not accepted:
                break
        state = unpack_state(theta, cfg.N, cfg.hermitian)
        cand = (c, state, iters, tuple(trace), cfg.seed + 100 * restart)
        if best is None or c < best[0]:
            best = cand
        if best[0] < 1e-30:
            break

    c, state, iters, trace, seed_used = best
    tau = cfg.tau if cfg.tau is not None else 1e-10 * (1.0 + trace[0])
    return MasterResult(cost=c, state=state, iterations=iters,
                        obstruction=bool(c > tau), trace=trace, best_seed=seed_used)


# ---------------------------------------------------------------------------
# saddle-point system


@dataclass(frozen=True)
class SaddleResult:
    a: np.ndarray
    b: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def _vpp_coeffs(potential: ModelPotential) -> np.ndarray:
    vp = np.array([float(c) for c in potential.v_shifted_prime_coeffs()])
    if len(vp) < 2:
        return np.zeros(1)
    return np.array([m * vp[m] for m in range(1, len(vp))])


def saddle_residual(potential: ModelPotential, g: float, a: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """Stacked residual [a-equations, b-equations]."""
    vp = np.array([float(c) for c in potential.v_shifted_prime_coeffs()])
    N = len(a)
    Fa = np.empty(N)
    Fb = np.empty(N)
    for i in range(N):
        coul_a = sum(1.0 / (a[i] - a[j]) for j in range(N) if j != i)
        coul_b = sum(1.0 / (b[i] - b[j]) for j in range(N) if j != i)
        Fa[i] = -np.polynomial.polynomial.polyval(a[i], vp) / g + b[i] / g + coul_a
        Fb[i] = a[i] / g + coul_b
    return np.concatenate([Fa, Fb])


def _saddle_jacobian(potential, g, a, b):
    vpp = _vpp_coeffs(potential)
    N = len(a)
    J = np.zeros((2 * N, 2 * N))
    for i in range(N):
        for j in range(N):
            if i == j:
                J[i, i] = -np.polynomial.polynomial.polyval(a[i], vpp) / g \
                    - sum(1.0 / (a[i] - a[k]) ** 2 for k in range(N) if k != i)
                J[i, N + i] = 1.0 / g
                J[N + i, i] = 1.0 / g
                J[N + i, N + i] = -sum(1.0 / (b[i] - b[k]) ** 2 for k in range(N) if k != i)
            else:
                J[i, j] = 1.0 / (a[i] - a[j]) ** 2
                J[N + i, N + j] = 1.0 / (b[i] - b[j]) ** 2
    return J


def saddle_solve(potential: ModelPotential, g: float, N: int, *, seed: int = 0,
                 max_iters: int = 250, restarts: int = 8,
                 tol: float = 1e-10) -> SaddleResult:
    """Damped Newton from interleaved spread grids; best-found on failure."""
    if N < 2:
        raise ValueError("the saddle system needs N >= 2")
    rng = np.random.default_rng(seed)
    best = None
    for restart in range(restarts):
        spread = 1.0 + 0.5 * restart
        a = np.linspace(-spread, spread, N) + 0.05 * rng.standard_normal(N)
        b = np.linspace(-spread, spread, N)[::-1].copy() + 0.05 * rng.standard_normal(N)
        singular_retries = 3
        it = 0
        f = saddle_residual(potential, g, a, b)
        for it in range(1, max_iters + 1):
            norm = np.linalg.norm(f)
            if norm < tol:
                break
            J = _saddle_jacobian(potential, g, a, b)
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
            lam = 1.0
            improved = False
            for _ in range(40):
                a2 = a + lam * step[:N]
                b2 = b + lam * step[N:]
                if _distinct(a2) and _distinct(b2):
                    f2 = saddle_residual(potential, g, a2, b2)
                    if np.linalg.norm(f2) < norm:
                        a, b, f = a2, b2, f2
                        improved = True
                        break
                lam /= 2
            if not improved:
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


def coulomb_force(v: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(v_i - v_j); equals d/dv_i log |Vandermonde(v)|."""
    N = len(v)
    return np.array([sum(1.0 / (v[i] - v[j]) for j in range(N) if j != i)
                     for i in range(N)])


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
    vp = np.array([float(c) for c in potential.v_shifted_prime_coeffs()])
    # D is twice the odd part of V'(1+u)
    d = np.where(np.arange(len(vp)) % 2 == 1, 2 * vp, 0.0)
    if not np.any(d):
        raise ValueError("V'(1+a) - V'(1-a) vanishes identically: every a1 "
                         "solves the reduced N=2 equation")

    def gap(a1):
        return np.polynomial.polynomial.polyval(a1, d)

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
