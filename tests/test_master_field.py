import numpy as np
import pytest

from xilab.kernels import master_cost
from xilab.master_field import (MasterConfig, MasterState, coulomb_force,
                                cost_at, cost_gradient, n_params, optimize,
                                reduced_ansatz_n2, residuals, saddle_residual,
                                saddle_solve)
from xilab.matrix_model import ModelPotential, build_potential
from xilab.scaling import double_scaling


def gaussian_potential():
    params = double_scaling(2, 16, (), g_mode="plain")
    return build_potential(params)


def septic_potential(s=("1", "0", "3", "0", "3")):
    params = double_scaling(7, 16, s)
    return build_potential(params), float(params.g)


def brute_force_residuals(cfg, state):
    """Independent double-loop evaluation of the quenched equations."""
    N = cfg.N
    p = cfg.momentum_vector()
    eta1, eta2 = cfg.noise()
    vp = cfg.vp_coeffs()
    apow = [np.eye(N, dtype=complex)]
    for _ in range(len(vp) - 1):
        apow.append(apow[-1] @ state.a)
    vmat = sum(c * apow[m] for m, c in enumerate(vp))
    E = np.empty((N, N), dtype=complex)
    F = np.empty((N, N), dtype=complex)
    for k in range(N):
        for l in range(N):
            E[k, l] = 1j * (p[k] - p[l]) * state.a[k, l] + vmat[k, l] / cfg.g \
                - state.b[k, l] / cfg.g - eta1[k, l]
            F[k, l] = 1j * (p[k] - p[l]) * state.b[k, l] - state.a[k, l] / cfg.g \
                - eta2[k, l]
    return E, F


class TestResiduals:
    def test_n1_closed_form(self):
        cfg = MasterConfig(N=1, g=0.25, potential=gaussian_potential(),
                           seed=3, sigma=0.7)
        eta1, eta2 = cfg.noise()
        a = np.array([[-cfg.g * eta2[0, 0]]])
        b = np.array([[cfg.potential.v_shifted_prime(a[0, 0]) - cfg.g * eta1[0, 0]]])
        E, F = residuals(cfg, MasterState(a=a, b=b))
        assert master_cost(E, F) < 1e-28

    def test_zero_state_gaussian(self):
        cfg = MasterConfig(N=3, g=0.5, potential=gaussian_potential(), sigma=0.0)
        z = np.zeros((3, 3), dtype=complex)
        E, F = residuals(cfg, MasterState(a=z, b=z))
        # V'(1) = 0 for the quadratic model, so everything vanishes
        assert master_cost(E, F) == 0.0

    def test_matches_brute_force(self):
        pot, g = septic_potential()
        cfg = MasterConfig(N=4, g=g, potential=pot, seed=11, sigma=0.3)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = (a + a.conj().T) / 2
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = (b + b.conj().T) / 2
        st = MasterState(a=a, b=b)
        E1, F1 = residuals(cfg, st)
        E2, F2 = brute_force_residuals(cfg, st)
        assert np.max(np.abs(E1 - E2)) < 1e-12
        assert np.max(np.abs(F1 - F2)) < 1e-12

    def test_linearity_in_noise(self):
        pot = gaussian_potential()
        base = MasterConfig(N=3, g=0.5, potential=pot, seed=2, sigma=0.4)
        double = MasterConfig(N=3, g=0.5, potential=pot, seed=2, sigma=0.8)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3)); a = (a + a.T) / 2
        st = MasterState(a=a.astype(complex), b=np.zeros((3, 3), complex))
        E1, F1 = residuals(base, st)
        E2, F2 = residuals(double, st)
        eta1a, eta2a = base.noise()
        eta1b, eta2b = double.noise()
        assert np.allclose(E2 - E1, -(eta1b - eta1a))
        assert np.allclose(F2 - F1, -(eta2b - eta2a))

    def test_cost_trivials(self):
        z = np.zeros((2, 2))
        assert master_cost(z, z) == 0.0
        e = np.zeros((2, 2)); e[0, 1] = 3.0
        assert master_cost(e, z) == 9.0


class TestOptimize:
    def test_n1_reaches_floor(self):
        cfg = MasterConfig(N=1, g=0.3, potential=gaussian_potential(),
                           seed=7, sigma=0.5, restarts=2)
        res = optimize(cfg)
        assert res.cost < 1e-20
        assert res.obstruction is False

    def test_p2_n4_solvable(self):
        cfg = MasterConfig(N=4, g=1.0 / 16, potential=gaussian_potential(),
                           seed=1, sigma=0.0, restarts=2)
        res = optimize(cfg)
        assert res.cost < 1e-12
        assert res.obstruction is False

    def test_trace_monotone(self):
        pot, g = septic_potential()
        cfg = MasterConfig(N=4, g=g, potential=pot, seed=9, sigma=0.0,
                           restarts=1, max_iters=60)
        res = optimize(cfg)
        diffs = np.diff(res.trace)
        assert np.all(diffs <= 0)

    def test_seed_reproducible(self):
        pot, g = septic_potential()
        cfg = MasterConfig(N=3, g=g, potential=pot, seed=4, sigma=0.2,
                           restarts=2, max_iters=40)
        r1 = optimize(cfg)
        r2 = optimize(cfg)
        assert r1.cost == r2.cost
        assert np.array_equal(r1.state.a, r2.state.a)
        assert np.array_equal(r1.state.b, r2.state.b)
        assert r1.trace == r2.trace

    def test_general_complex_mode(self):
        # dropping the Hermitian constraint doubles the parameters and still
        # solves the N=1 case exactly
        cfg = MasterConfig(N=1, g=0.3, potential=gaussian_potential(), seed=7,
                           sigma=0.5, restarts=2, hermitian=False)
        assert n_params(1, False) == 2 * n_params(1, True)
        res = optimize(cfg)
        assert res.cost < 1e-20

    def test_fixed_momentum_list(self):
        cfg = MasterConfig(N=3, g=0.5, potential=gaussian_potential(),
                           momenta=(0.1, -0.7, 2.0))
        assert np.allclose(cfg.momentum_vector(), [0.1, -0.7, 2.0])
        with pytest.raises(ValueError):
            MasterConfig(N=2, g=0.5, potential=gaussian_potential(),
                         momenta=(1.0,)).momentum_vector()

    def test_gradient_matches_finite_differences(self):
        pot, g = septic_potential()
        cfg = MasterConfig(N=3, g=g, potential=pot, seed=13, sigma=0.25)
        rng = np.random.default_rng(21)
        theta = 0.4 * rng.standard_normal(n_params(3, True))
        grad = cost_gradient(cfg, theta)
        h = 1e-6
        for idx in range(0, len(theta), 4):
            e = np.zeros_like(theta)
            e[idx] = h
            fd = (cost_at(cfg, theta + e) - cost_at(cfg, theta - e)) / (2 * h)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            assert abs(grad[idx] - fd) / denom < 1e-6, f"param {idx}"


class TestSaddle:
    def test_residual_postcondition_restated(self):
        pot = gaussian_potential()
        a = np.array([1.0, -1.0])
        b = np.array([0.5, -0.5])
        f = saddle_residual(pot, 1.0, a, b)
        assert f.shape == (4,)

    def test_coulomb_matches_vandermonde_gradient(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = np.sort(rng.normal(size=5) * 2)
            got = coulomb_force(v)
            h = 1e-7
            for i in range(5):
                def logdelta(vec):
                    return sum(np.log(abs(vec[a] - vec[b]))
                               for a in range(5) for b in range(a))
                vp = v.copy(); vp[i] += h
                vm = v.copy(); vm[i] -= h
                fd = (logdelta(vp) - logdelta(vm)) / (2 * h)
                assert abs(got[i] - fd) < 1e-5

    def test_permutation_symmetry_of_residual(self):
        pot, g = septic_potential()
        rng = np.random.default_rng(8)
        a = np.sort(rng.normal(size=4))
        b = np.sort(rng.normal(size=4))
        f = saddle_residual(pot, g, a, b)
        perm = np.array([2, 0, 3, 1])
        fp = saddle_residual(pot, g, a[perm], b[perm])
        assert np.allclose(np.sort(f[:4]), np.sort(fp[:4]))
        assert np.allclose(np.sort(f[4:]), np.sort(fp[4:]))

    def test_best_found_reported(self):
        res = saddle_solve(gaussian_potential(), 1.0, 2, restarts=2, max_iters=60)
        assert np.isfinite(res.residual_norm)
        assert isinstance(res.converged, bool)

    def test_reduced_ansatz_n2_gaussian_has_no_root(self):
        # the symmetric-slice equation reduces to a1 * D(a1) = 0 with
        # D(a) = V'(1+a) - V'(1-a) = a, which has no positive zero
        with pytest.raises(ValueError):
            reduced_ansatz_n2(gaussian_potential(), 1.0)

    def test_reduced_ansatz_n2_rejects_pole_of_h(self):
        # h(a) = a/g + 1/(a - g/a) has a pole at a = sqrt(g), not a root
        with pytest.raises(ValueError):
            reduced_ansatz_n2(gaussian_potential(), 0.2)

    def test_reduced_ansatz_n2_gen_airy_133_has_no_root(self):
        # V'(1+a) - V'(1-a) has only positive coefficients here
        with pytest.raises(ValueError):
            reduced_ansatz_n2(septic_potential()[0], 1.0)

    def test_reduced_ansatz_n2_even_response_raises(self):
        # V'(1+u) = 1 - u^2 is even, so every a1 solves the reduced equation
        with pytest.raises(ValueError):
            reduced_ansatz_n2(ModelPotential(p=3, s_coeffs=(-1.0, 0.0, 1 / 3)), 1.0)

    @pytest.mark.parametrize("g", [1.0, 0.2])
    def test_reduced_ansatz_n2_quartic_closed_form(self, g):
        # V'(1+u) = u^3 - u: V'(1+a) - V'(1-a) = 2a^3 - 2a vanishes at a = 1
        quartic = ModelPotential(p=4, s_coeffs=(0.0, 0.5, 0.0, -0.25))
        assert abs(reduced_ansatz_n2(quartic, g) - 1.0) < 1e-12
