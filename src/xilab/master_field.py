"""Quenched master-field least squares and the saddle-point eigenvalue system.

The quenched equations for stochastic-time-independent matrices (a, b) with
diagonal master momenta p are packed into residuals

    E = i(p_k - p_l) a_kl + V'(a + I)_kl / g - b_kl / g - eta1_kl
    F = i(p_k - p_l) b_kl - a_kl / g - eta2_kl

and the cost C = sum |E|^2 + |F|^2 is minimized over Hermitian (a, b).
b enters E and F linearly and entry by entry, so for a given a the best b
has a closed form, and min_b C(a, b) = sum |rho|^2 with

    rho = (d X - Y/g) / sigma,   X = d a + V'(a + I)/g - eta1,  Y = a/g + eta2,

d = i(p_k - p_l) and sigma^2 = |d|^2 + 1/g^2, entrywise (variable
projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973). Damped
Gauss-Newton with backtracking and seeded multi-restart minimizes that
reduced cost over a alone: N^2 real unknowns (2N^2 for general matrices)
against 2N^2 (4N^2) for the pair. A best cost above 1e-10 (1 + C_0), C_0
the reduced cost at the start of the restart that found it, flags an
obstruction: no Hermitian master pair reproduces the model within
tolerance.

A restart stops when the reduced cost is at most eps^2 * sum |t|^2, the
sum running over the entries of every term t of rho: below that floor
float64 rounding, not the fit, sets the cost (Madsen, Nielsen & Tingleff,
Methods for Non-Linear Least Squares Problems, 2004, sec. 3.2). A restart
that ends at the floor ends the search. Otherwise a restart stops when the
gradient vanishes, when no damping gives a descent step, or after
_MAX_ITERS iterations, and the next of _RESTARTS restarts runs.
``MasterResult.stop`` and ``restarts`` report which.

The saddle system couples eigenvalue vectors through unit-strength Coulomb
repulsion:

    -V'(1 + a_i)/g + b_i/g + sum_{j != i} 1/(a_i - a_j) = 0
     a_i/g          + sum_{j != i} 1/(b_i - b_j) = 0

solved by Newton in complex arithmetic from seeded complex starts, keeping
the real solutions (Sommese & Wampler, The Numerical Solution of Systems of
Polynomials Arising in Engineering and Science, 2005).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import XilabError
from .matrix_model import ModelPotential


_MOMENTUM_BOUND = float(np.pi)  # half-width of the seeded uniform momentum draw
_EPS2 = np.finfo(np.float64).eps ** 2  # float64 unit roundoff squared, ~4.9e-32
_MAX_ITERS = 200  # Gauss-Newton iterations a restart may take
_RESTARTS = 4     # restarts a solve may run
# largest N per solver: master's Jacobian grows as N^4 and the saddle's stacked
# systems as N^2; at the caps each peaks under 150 MB RSS (one BLAS thread)
MASTER_MAX_N = 24
SADDLE_MAX_N = 64


def _vp_float(potential: ModelPotential) -> np.ndarray:
    """Float coefficients (degree 0..p-1) of V'(1+u)."""
    return np.array([float(c) for c in potential.v_shifted_prime_coeffs()])


@dataclass(frozen=True)
class MasterConfig:
    N: int
    g: float
    potential: ModelPotential
    seed: int = 0
    sigma: float = 0.0
    hermitian: bool = True


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
    stop: str       # why the returned solve ended: floor, stalled, max_iters, gradient
    restarts: int   # restarts run


# --- Hermitian (or general) basis and packing ----------------------------


@lru_cache(maxsize=8)
def _basis(N: int, hermitian: bool) -> tuple:
    """The complex N^2 x n map P with vec(a) = P @ theta (row-major vec), as
    its two nonzeros per column, and the weights that pack a residual.

    Hermitian: theta holds the N diagonal entries, then (re, im) of each
    a_ij with i < j in row order. Column k of P holds c1[k] at row i1[k],
    the diagonal or upper entry, and c2[k] at row i2[k], the mirrored lower
    entry (c2 = 0 on the diagonal). General: the N^2 real parts, then the
    N^2 imaginary parts, one nonzero a column (c2 = 0).

    A residual matrix rho packs to w * Re(conj(c1) rho[i1]): a Hermitian
    rho by its upper triangle, weight 1 on the diagonal and sqrt(2) off it,
    so that the packed sum of squares is sum |rho_kl|^2 in both layouts.
    Returns (i1, c1, i2, c2, w).
    """
    if hermitian:
        i, j = np.triu_indices(N, 1)
        diag = np.arange(N) * (N + 1)
        i1 = np.concatenate([diag, np.repeat(i * N + j, 2)])
        i2 = np.concatenate([diag, np.repeat(j * N + i, 2)])
        c1 = np.concatenate([np.ones(N), np.tile([1, 1j], len(i))])
        c2 = np.concatenate([np.zeros(N), np.tile([1, -1j], len(i))])
        w = np.concatenate([np.ones(N), np.full(2 * len(i), np.sqrt(2.0))])
    else:
        i1 = i2 = np.tile(np.arange(N * N), 2)
        c1 = np.repeat([1, 1j], N * N)
        c2, w = np.zeros(2 * N * N, dtype=np.complex128), np.ones(2 * N * N)
    out = (i1, c1, i2, c2, w)
    for v in out:
        v.flags.writeable = False
    return out


def n_params(N: int, hermitian: bool) -> int:
    return len(_basis(N, hermitian)[0])


def unpack(theta: np.ndarray, N: int, hermitian: bool = True) -> np.ndarray:
    """The matrix a = P @ theta."""
    i1, c1, i2, c2, _ = _basis(N, hermitian)
    a = np.zeros(N * N, dtype=np.complex128)
    np.add.at(a, i1, c1 * theta)
    np.add.at(a, i2, c2 * theta)
    return a.reshape(N, N)


def _pack(rho: np.ndarray, hermitian: bool) -> np.ndarray:
    i1, c1, _, _, w = _basis(rho.shape[0], hermitian)
    return w * (c1.conj() * rho.ravel()[i1]).real


def _fixed_inputs(cfg: MasterConfig) -> tuple:
    """(momenta, eta1, eta2, V' coefficients), fixed for a whole solve, and
    the generator of the restart starts.

    The seed's SeedSequence is spawned once into three streams: the momenta,
    a uniform draw on [-pi, pi]; the Hermitian Gaussian noise pair at scale
    sigma (zero when sigma = 0); and the restart starts. So no two streams,
    of one seed or of two, share their draws.
    """
    momenta, noise, starts = map(np.random.default_rng,
                                 np.random.SeedSequence(cfg.seed).spawn(3))
    p_mom = momenta.uniform(-_MOMENTUM_BOUND, _MOMENTUM_BOUND, cfg.N)

    def herm():
        if cfg.sigma == 0.0:
            return np.zeros((cfg.N, cfg.N), dtype=np.complex128)
        g = noise.normal(size=(cfg.N, cfg.N)) + 1j * noise.normal(size=(cfg.N, cfg.N))
        return cfg.sigma * (g + g.conj().T) / 2

    vp = _vp_float(cfg.potential).astype(np.complex128)
    return (p_mom, herm(), herm(), vp), starts


def _matrix_poly(a, vp_coeffs):
    """V'(a + I) as the matrix polynomial sum_m c_m a^m, by Horner's rule."""
    n = a.shape[0]
    acc = np.zeros((n, n), dtype=np.complex128)
    for c in vp_coeffs[::-1]:
        acc = acc @ a
        acc += c * np.eye(n)
    return acc


def quenched_residuals(p_mom, a, b, vp_coeffs, g, eta1, eta2):
    """Residual matrices (E, F) of the quenched equations, and their floor.

    p_mom is float64, the matrices and V' coefficients complex128. The floor
    is eps^2 * sum |t|^2 over the entries of every term t of E and F (d*a,
    Vp(a)/g, b/g, eta1, d*b, a/g, eta2), d = i(p_k - p_l): the order of the
    cost that float64 rounding of those terms alone leaves in E and F. The
    solve does not evaluate them; they judge a reported state (a, b).
    """
    d = 1j * (p_mom[:, None] - p_mom[None, :])
    da, db = d * a, d * b
    vpg, bg, ag = _matrix_poly(a, vp_coeffs) / g, b / g, a / g
    E = da + vpg - bg - eta1
    F = db - ag - eta2
    floor = _EPS2 * sum(np.vdot(t, t).real for t in (da, vpg, bg, eta1, db, ag, eta2))
    return E, F, float(floor)


def master_residuals(p_mom, a, vp_coeffs, g, eta1, eta2):
    """The residual kernel of the solve: the reduced residual rho of a, the
    best b for it, and rho's floor.

    With X = d*a + V'(a + I)/g - eta1 and Y = a/g + eta2 (entrywise
    products, d = i(p_k - p_l)), E = X - b/g and F = d*b - Y. Entry by
    entry |E|^2 + |F|^2 is least at b = (X/g + conj(d) Y) / sigma^2,
    sigma^2 = |d|^2 + 1/g^2, where it equals |rho|^2 with
    rho = (d X - Y/g) / sigma; rho and b are Hermitian when a is. The floor
    is eps^2 * sum |t|^2 over the entries of rho's terms t (d^2 a, a/g^2,
    d V'(a + I)/g, d eta1, eta2/g, each over sigma).
    """
    delta = p_mom[:, None] - p_mom[None, :]
    d, sigma = 1j * delta, np.sqrt(delta ** 2 + g ** -2.0)
    vpg = _matrix_poly(a, vp_coeffs) / g
    X, Y = d * a + vpg - eta1, a / g + eta2
    rho = (d * X - Y / g) / sigma
    b = (X / g + d.conj() * Y) / sigma ** 2
    terms = (d * d * a, a / g ** 2, d * vpg, d * eta1, eta2 / g)
    floor = _EPS2 * np.sum(sum(np.abs(t) ** 2 for t in terms) / sigma ** 2)
    return rho, b, float(floor)


def master_cost(E, F) -> float:
    """C = sum |E_kl|^2 + |F_kl|^2."""
    return float(np.sum(np.abs(E) ** 2) + np.sum(np.abs(F) ** 2))


def _cost_from_theta(cfg, theta, fixed):
    """(cost, packed residual, floor) of the reduced problem at a = P theta."""
    p_mom, eta1, eta2, vp = fixed
    rho, _, floor = master_residuals(p_mom, unpack(theta, cfg.N, cfg.hermitian), vp,
                                     cfg.g, eta1, eta2)
    r = _pack(rho, cfg.hermitian)
    return float(r @ r), r, floor


def _jacobian(cfg, theta, fixed):
    """d(packed rho)/d(theta).

    Entrywise d^2 - 1/g^2 = -sigma^2, so d rho = -sigma h + d L(h) / (g sigma)
    for a step h in a, L the derivative of V'(a + I). For row-major vec,
    vec(X h Y) = kron(X, Y^T) vec(h), so L = sum_j kron(a^j, M_j^T) with
    M_j = sum_m c_{j+m+1} a^m: row (k, l) of L is sum_j outer(a^j[k], M_j[:, l]).
    Only the rows i1 that the packing reads are formed, one batched product,
    and L P gathers two of their columns; the -sigma h term packs to a diagonal.
    """
    p_mom, _, _, vp = fixed
    N, g, deg = cfg.N, cfg.g, len(vp) - 1
    i1, c1, i2, c2, w = _basis(N, cfg.hermitian)
    a = unpack(theta, N, cfg.hermitian)
    powers = [np.eye(N, dtype=np.complex128)]
    for _ in range(deg - 1):
        powers.append(powers[-1] @ a)
    M = [sum(vp[j + m + 1] * powers[m] for m in range(deg - j)) for j in range(deg)]
    k, l = np.divmod(i1, N)
    delta = p_mom[k] - p_mom[l]
    sigma = np.sqrt(delta ** 2 + g ** -2.0)
    scale = w * c1.conj() * 1j * delta / (g * sigma)  # the packing and d/(g sigma), per row
    U = np.stack([scale[:, None] * x[k] for x in powers], axis=-1)  # (n, N, deg)
    V = np.stack([x.T[l] for x in M], axis=1)                       # (n, deg, N)
    L = (U @ V).reshape(len(i1), N * N)
    # in place: each fresh n x n temporary costs its page faults
    LP, mirror = L[:, i1], L[:, i2]
    LP *= c1
    mirror *= c2
    LP += mirror
    J = np.ascontiguousarray(LP.real)
    J.ravel()[::len(i1) + 1] -= w * sigma  # the diagonal of the contiguous J
    return J


def _descend(cfg, theta, fixed):
    """One damped Gauss-Newton descent from theta.

    Returns (cost, theta, iterations, trace, stop). The floor is checked
    before each Jacobian is built; the other stops are a vanishing gradient,
    no damping giving a descent step ("stalled") and _MAX_ITERS ("max_iters").
    A starting cost that is not finite in float64 is a XilabError: no step
    can descend from it, and inf <= inf would read as the floor.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite cost raises below
        c, r, floor = _cost_from_theta(cfg, theta, fixed)
    if not np.isfinite(c):
        raise XilabError(f"the master fit's starting cost is {c} in float64; "
                         "sigma, g or the couplings overflow it")
    trace = [c]
    lam = 1e-8
    for iters in range(1, _MAX_ITERS + 1):
        if c <= floor:
            stop = "floor"
            break
        J = _jacobian(cfg, theta, fixed)
        Jr = J.T @ r  # half the cost gradient
        if np.linalg.norm(2.0 * Jr) < 1e-14:
            stop = "gradient"
            break
        A = J.T @ J
        diag = A.diagonal().copy()
        for _ in range(16):
            np.fill_diagonal(A, diag + lam)
            try:
                step = np.linalg.solve(A, -Jr)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            cand = theta + step
            c2, r2, floor2 = _cost_from_theta(cfg, cand, fixed)
            if c2 < c:
                theta, c, r, floor = cand, c2, r2, floor2
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
    """Multi-restart damped Gauss-Newton minimization of the reduced cost.

    The search runs over a alone, b = b*(a) in closed form (variable
    projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973). The
    restarts end early only when one of them ends at the rounding floor; a
    stalled or obstructed solve searches every restart.
    """
    if not (np.isfinite(cfg.sigma) and cfg.sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {cfg.sigma}")
    if cfg.N > MASTER_MAX_N:
        raise ValueError(f"the master fit takes N <= {MASTER_MAX_N}, got {cfg.N}")
    with np.errstate(over="ignore", divide="ignore"):  # the fit forms g^2 and 1/g^2
        if not np.isfinite(np.float64(cfg.g) ** np.array([2.0, -2.0])).all():
            raise ValueError(f"g = {cfg.g} has a square or inverse square outside float64's range")
    fixed, starts = _fixed_inputs(cfg)
    npar = n_params(cfg.N, cfg.hermitian)
    best = None
    for restart in range(_RESTARTS):
        theta = 0.5 * starts.standard_normal(npar) if restart else np.zeros(npar)
        c, theta, iters, trace, stop = _descend(cfg, theta, fixed)
        if best is None or c < best[0]:
            best = (c, theta, iters, trace, stop)
        if stop == "floor":
            break

    c, theta, iters, trace, stop = best
    p_mom, eta1, eta2, vp = fixed
    a = unpack(theta, cfg.N, cfg.hermitian)
    b = master_residuals(p_mom, a, vp, cfg.g, eta1, eta2)[1]
    return MasterResult(cost=c, state=MasterState(a=a, b=b),
                        iterations=iters, obstruction=bool(c > 1e-10 * (1.0 + trace[0])),
                        trace=trace, stop=stop, restarts=restart + 1)


# ---------------------------------------------------------------------------
# saddle-point system


@dataclass(frozen=True)
class SaddleResult:
    a: np.ndarray
    b: np.ndarray
    residual_norm: float
    iterations: int     # stacked Newton sweeps (Jacobian builds)
    converged: bool
    solutions: tuple    # every distinct real solution: (a, b, residual_norm)
    n_complex: int      # distinct converged non-real solutions


# Set by measurement: with 96 starts every seed 0-5 found a real solution of
# the README example, the N=2 quartic and three catalogued rows at N = 4-6.
_SADDLE_STARTS = 96
_SADDLE_SWEEPS = 250  # stacked Newton sweeps a solve may take
_STALL_SWEEPS = 8     # sweeps a start may go without halving its residual
_STEP_CAP = 0.5       # longest step, relative to 1 + |x|
_REAL_TOL = 1e-8      # imaginary part, relative to 1 + |x|, projected away
_SAME_TOL = 1e-6      # max-norm distance, relative to 1 + |x|, of one solution
_SOLVED_TOL = 1e-10   # residual norm below which a real iterate is a solution


def _inverse_differences(v: np.ndarray) -> np.ndarray:
    """R_ij = 1/(v_i - v_j) over the last axis, with R_ii = 0."""
    return 1.0 / (v[..., :, None] - v[..., None, :] + np.diag(np.full(v.shape[-1], np.inf)))


def _saddle_residual(vp, g, a, b):
    """Stacked residual [a-equations, b-equations]; vp holds V'(1+u)'s
    coefficients, lowest degree first.

    Returns the residual and the inverse differences of a and b it sums,
    which the Jacobian reuses."""
    ra, rb = _inverse_differences(a), _inverse_differences(b)
    return np.concatenate([-np.polyval(vp[::-1], a) / g + b / g + ra.sum(axis=-1),
                           a / g + rb.sum(axis=-1)], axis=-1), ra, rb


def _saddle_jacobian(vpp, g, a, ra, rb):
    """d(saddle residual)/d(a, b) over a batch; vpp holds V''(1+u)'s
    coefficients, lowest degree first, ra and rb the inverse differences of a and b."""
    n = a.shape[-1]
    J = np.zeros(a.shape[:-1] + (2 * n, 2 * n), dtype=np.result_type(a, ra, rb))
    ra2, rb2, i = ra ** 2, rb ** 2, np.arange(n)
    J[..., :n, :n], J[..., n:, n:] = ra2, rb2
    J[..., i, i] -= ra2.sum(axis=-1) + np.polyval(vpp[::-1], a) / g
    J[..., n + i, n + i] -= rb2.sum(axis=-1)
    J[..., i, n + i] = J[..., n + i, i] = 1.0 / g
    return J


def _distinct_rows(x: np.ndarray) -> np.ndarray:
    """Mask of the rows of x that no earlier row lies within _SAME_TOL of."""
    near = np.max(np.abs(x[:, None] - x[None]), axis=2) \
        <= _SAME_TOL * (1.0 + np.max(np.abs(x), axis=1))[:, None]
    return ~np.tril(near, -1).any(axis=1)


def saddle_solve(potential: ModelPotential, g: float, N: int, *, seed: int = 0) -> SaddleResult:
    """Newton in complex arithmetic from seeded starts, all in one stacked sweep.

    Starts: a on [-s, s], s ~ U(1, 3), b on the reversed grid at s * 10^U(-2, 0),
    plus complex normal noise at 0.2 of each spread. A start stops when its
    residual turns non-finite (a singular Jacobian gives a NaN step), stops
    halving for _STALL_SWEEPS sweeps, or, below _SOLVED_TOL, for one; one
    that nears the reals is projected there. The solve ends after at most
    _SADDLE_SWEEPS sweeps. a, b are the first real solution in
    lexicographic order; with none, the best real part of a final iterate,
    and a XilabError if its residual is not finite in float64.
    """
    if not 2 <= N <= SADDLE_MAX_N:
        raise ValueError(f"the saddle system needs 2 <= N <= {SADDLE_MAX_N}, got {N}")
    vp = _vp_float(potential)
    vpp = np.polyder(vp[::-1])[::-1]
    rng, grid = np.random.default_rng(seed), np.linspace(-1.0, 1.0, N)
    sa = rng.uniform(1.0, 3.0, (_SADDLE_STARTS, 1))
    spread = np.repeat(np.hstack([sa, sa * 10.0 ** rng.uniform(-2.0, 0.0, sa.shape)]), N, axis=1)
    noise = rng.standard_normal(spread.shape) + 1j * rng.standard_normal(spread.shape)
    x = spread * (np.concatenate([grid, -grid]) + 0.2 * noise)
    # per start: its last residual norm, its last halved norm and that sweep
    norm, last, halved_at = np.empty(len(x)), np.full(len(x), np.inf), np.zeros(len(x), dtype=int)
    live = np.arange(len(x))  # the starts a sweep reads and writes
    with np.errstate(all="ignore"):
        for sweeps in range(_SADDLE_SWEEPS + 1):
            xl = x[live]
            size = 1.0 + np.max(np.abs(xl.real), axis=1)
            near_real = np.max(np.abs(xl.imag), axis=1) <= _REAL_TOL * size
            xl[near_real] = xl[near_real].real
            x[live] = xl
            f, ra, rb = _saddle_residual(vp, g, xl[:, :N], xl[:, N:])
            norm[live] = nl = np.linalg.norm(f, axis=1)
            halved = live[nl < 0.5 * last[live]]
            last[halved], halved_at[halved] = norm[halved], sweeps
            # below _SOLVED_TOL: polish while halving
            stall = np.where(nl < _SOLVED_TOL, 1, _STALL_SWEEPS)
            keep = np.isfinite(nl) & (sweeps - halved_at[live] < stall)
            live, xl = live[keep], xl[keep]
            if sweeps >= _SADDLE_SWEEPS or not live.size:
                break
            J, f = _saddle_jacobian(vpp, g, xl[:, :N], ra[keep], rb[keep]), f[keep, :, None]
            try:
                step = np.linalg.solve(J, -f)[..., 0]
            except np.linalg.LinAlgError:  # an exactly singular J: a NaN step ends its start
                ok, step = np.linalg.slogdet(J)[0] != 0, np.full_like(f[..., 0], np.nan)
                step[ok] = np.linalg.solve(J[ok], -f[ok])[..., 0]
            cap = _STEP_CAP * (1.0 + np.linalg.norm(xl, axis=1))
            x[live] = xl + step / np.maximum(np.linalg.norm(step, axis=1) / cap, 1.0)[:, None]
        # canonical order: the system is symmetric under permuting the pairs
        # (a_i, b_i); Re + Im separates the conjugate a's of a complex solution
        order = np.argsort(x[:, :N].real + x[:, :N].imag, axis=1)[:, None]
        x = np.take_along_axis(x.reshape(-1, 2, N), order, axis=2).reshape(-1, 2 * N)
        real, xr = np.all(x.imag == 0, axis=1), x.real
        rr = np.linalg.norm(_saddle_residual(vp, g, xr[:, :N], xr[:, N:])[0], axis=1)
        found = np.flatnonzero((rr < _SOLVED_TOL) & real)
        found = found[np.lexsort(xr[found].T[::-1])]
        sols = tuple((xr[i, :N], xr[i, N:], float(rr[i])) for i in found[_distinct_rows(xr[found])])
        # with no real solution, the best real part of a final iterate
        best = found[0] if sols else np.argmin(np.nan_to_num(rr, nan=np.inf))
    if not np.isfinite(rr[best]):
        raise XilabError(f"no saddle start has a finite residual in float64 at g = {g}")
    return SaddleResult(a=xr[best, :N], b=xr[best, N:], residual_norm=float(rr[best]),
                        iterations=sweeps, converged=bool(sols), solutions=sols,
                        n_complex=int(_distinct_rows(x[(norm < _SOLVED_TOL) & ~real]).sum()))

