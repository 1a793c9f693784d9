import mpmath as mp
import numpy as np
import pytest

from oracles import reduced_ansatz_n2, v_shifted_prime
from xilab import master_field as mf
from xilab.master_field import (MasterConfig, MasterState, _cost_from_theta,
                                _fixed_inputs, _inverse_differences, _jacobian, _pack,
                                _saddle_jacobian, _saddle_residual, master_cost,
                                master_residuals, n_params, optimize,
                                quenched_residuals, saddle_solve, unpack)
from xilab.matrix_model import ModelPotential, build_potential
from xilab.scaling import double_scaling


def gaussian_potential():
    params = double_scaling(2, 16, ())
    return build_potential(params)


def septic_potential(s=("1", "0", "3", "0", "3")):
    params = double_scaling(7, 16, s)
    return build_potential(params), float(params.g)


def residuals(cfg, state):
    """(E, F) of a state, from the inputs the solve holds fixed."""
    p_mom, eta1, eta2, vp = _fixed_inputs(cfg)[0]
    return quenched_residuals(p_mom, state.a, state.b, vp, cfg.g, eta1, eta2)[:2]


def brute_force_residuals(cfg, state):
    """Independent double-loop evaluation of the quenched equations."""
    N = cfg.N
    p, eta1, eta2, vp = _fixed_inputs(cfg)[0]
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


def unpack_loop(v, N, hermitian):
    """One matrix from its real parameters, entry by entry."""
    m = np.zeros((N, N), dtype=complex)
    if hermitian:
        for i in range(N):
            m[i, i] = v[i]
        k = N
        for i in range(N):
            for j in range(i + 1, N):
                m[i, j] = v[k] + 1j * v[k + 1]
                m[j, i] = v[k] - 1j * v[k + 1]
                k += 2
    else:
        for i in range(N):
            for j in range(N):
                m[i, j] = v[i * N + j] + 1j * v[N * N + i * N + j]
    return m


def residual_vector(cfg, theta):
    """The packed reduced residual at a = P theta."""
    return _cost_from_theta(cfg, theta, _fixed_inputs(cfg)[0])[1]


def elementwise_residuals(p_mom, a, b, vp_coeffs, g, eta1, eta2):
    """The quenched residuals entry by entry, V'(a + I) by Horner's rule, and
    eps^2 times the sum of |term|^2 over every term of every entry."""
    n = a.shape[0]
    vp = np.zeros((n, n), dtype=complex)
    for c in vp_coeffs[::-1]:
        vp = vp @ a
        for i in range(n):
            vp[i, i] += c
    E = np.empty((n, n), dtype=complex)
    F = np.empty((n, n), dtype=complex)
    sq = 0.0
    for k in range(n):
        for l in range(n):
            d = 1j * (p_mom[k] - p_mom[l])
            E[k, l] = d * a[k, l] + vp[k, l] / g - b[k, l] / g - eta1[k, l]
            F[k, l] = d * b[k, l] - a[k, l] / g - eta2[k, l]
            sq += sum(abs(t) ** 2 for t in (d * a[k, l], vp[k, l] / g, b[k, l] / g,
                                              eta1[k, l], d * b[k, l], a[k, l] / g,
                                              eta2[k, l]))
    return E, F, np.finfo(np.float64).eps ** 2 * sq


def v_prime_coeffs(pot):
    return np.array([float(c) for c in pot.v_shifted_prime_coeffs()])


def saddle_residual(pot, g, a, b):
    """The stacked saddle residual of a ModelPotential's equations."""
    return _saddle_residual(v_prime_coeffs(pot), g, a, b)[0]


def saddle_jacobian(pot, g, a, b):
    """The saddle Jacobian, from the inverse differences the residual builds."""
    vpp = np.polynomial.polynomial.polyder(v_prime_coeffs(pot))
    return _saddle_jacobian(vpp, g, a, *_saddle_residual(v_prime_coeffs(pot), g, a, b)[1:])


def saddle_residual_loop(pot, g, a, b):
    """The saddle equations evaluated one component at a time."""
    vp = v_prime_coeffs(pot)
    N = len(a)
    out = np.empty(2 * N, dtype=np.result_type(a, b))
    for i in range(N):
        coul_a = coul_b = 0.0
        for j in range(N):
            if j != i:
                coul_a += 1.0 / (a[i] - a[j])
                coul_b += 1.0 / (b[i] - b[j])
        vpa = sum(c * a[i] ** m for m, c in enumerate(vp))
        out[i] = -vpa / g + b[i] / g + coul_a
        out[N + i] = a[i] / g + coul_b
    return out


class TestPacking:
    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_unpack_matches_entrywise_loop(self, N, hermitian):
        theta = np.random.default_rng(N).standard_normal(n_params(N, hermitian))
        a = unpack(theta, N, hermitian)
        assert np.array_equal(a, unpack_loop(theta, N, hermitian))
        if hermitian:
            assert np.array_equal(a, a.conj().T)

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_jacobian_matches_finite_differences(self, hermitian):
        pot, g = septic_potential()
        cfg = MasterConfig(N=3, g=g, potential=pot, seed=13, sigma=0.25,
                           hermitian=hermitian)
        theta = 0.4 * np.random.default_rng(21).standard_normal(n_params(3, hermitian))
        J = _jacobian(cfg, theta, _fixed_inputs(cfg)[0])
        assert J.shape == (len(theta), len(theta)) == (9 * (2 - hermitian),) * 2
        h = 1e-6
        for k in range(len(theta)):
            e = np.zeros_like(theta)
            e[k] = h
            fd = (residual_vector(cfg, theta + e) - residual_vector(cfg, theta - e)) / (2 * h)
            scale = max(np.max(np.abs(fd)), 1.0)
            assert np.max(np.abs(J[:, k] - fd)) < 1e-7 * scale, f"column {k}"


class TestReduction:
    """b enters E and F linearly, entry by entry, so the solve eliminates it."""

    @staticmethod
    def at_best_b(N, hermitian):
        """(cfg, the reduced cost, a, b*(a), E, F) at a random a, E and F by
        the double loop."""
        pot, g = septic_potential()
        cfg = MasterConfig(N=N, g=g, potential=pot, seed=N, sigma=0.3, hermitian=hermitian)
        p_mom, eta1, eta2, vp = fixed = _fixed_inputs(cfg)[0]
        theta = 0.4 * np.random.default_rng(N).standard_normal(n_params(N, hermitian))
        cost = _cost_from_theta(cfg, theta, fixed)[0]
        a = unpack(theta, N, hermitian)
        b = master_residuals(p_mom, a, vp, g, eta1, eta2)[1]
        return cfg, cost, a, b, *brute_force_residuals(cfg, MasterState(a=a, b=b))

    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("N", [3, 4])
    def test_best_b_zeroes_the_b_gradient(self, N, hermitian):
        cfg, _, a, b, E, F = self.at_best_b(N, hermitian)
        p_mom = _fixed_inputs(cfg)[0][0]
        d = 1j * (p_mom[:, None] - p_mom[None, :])
        # dC/d(Re b_kl) + i dC/d(Im b_kl)
        grad = 2.0 * (d.conj() * F - E / cfg.g)
        scale = 2.0 * np.max(np.abs(d * F) + np.abs(E / cfg.g))
        assert np.max(np.abs(grad)) <= 1e-12 * scale
        if hermitian:
            assert np.max(np.abs(b - b.conj().T)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("N", [3, 4])
    def test_reduced_cost_is_the_cost_at_best_b(self, N, hermitian):
        _, cost, _, _, E, F = self.at_best_b(N, hermitian)
        assert abs(cost - master_cost(E, F)) <= 1e-12 * cost


class TestResiduals:
    def test_n1_closed_form(self):
        cfg = MasterConfig(N=1, g=0.25, potential=gaussian_potential(),
                           seed=3, sigma=0.7)
        _, eta1, eta2, _ = _fixed_inputs(cfg)[0]
        a = np.array([[-cfg.g * eta2[0, 0]]])
        b = np.array([[v_shifted_prime(cfg.potential, a[0, 0]) - cfg.g * eta1[0, 0]]])
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
        _, eta1a, eta2a, _ = _fixed_inputs(base)[0]
        _, eta1b, eta2b, _ = _fixed_inputs(double)[0]
        assert np.allclose(E2 - E1, -(eta1b - eta1a))
        assert np.allclose(F2 - F1, -(eta2b - eta2a))

    def test_cost_trivials(self):
        z = np.zeros((2, 2))
        assert master_cost(z, z) == 0.0
        e = np.zeros((2, 2)); e[0, 1] = 3.0
        assert master_cost(e, z) == 9.0

    def test_residual_paths_agree(self):
        rng = np.random.default_rng(1)
        N = 5
        p = rng.uniform(-np.pi, np.pi, N)
        a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        a = (a + a.conj().T) / 2
        b = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        b = (b + b.conj().T) / 2
        vp = np.array([0.3, -1.2, 0.7, 0.05], dtype=complex)
        eta1 = 0.1 * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
        eta2 = 0.1 * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
        E1, F1, floor1 = quenched_residuals(p, a, b, vp, 0.21, eta1, eta2)
        E2, F2, floor2 = elementwise_residuals(p, a, b, vp, 0.21, eta1, eta2)
        assert np.max(np.abs(E1 - E2)) < 1e-12
        assert np.max(np.abs(F1 - F2)) < 1e-12
        assert abs(floor1 - floor2) <= 1e-12 * floor2
        assert abs(master_cost(E1, F1) - master_cost(E2, F2)) < 1e-10


class TestOptimize:
    def test_n1_reaches_floor(self):
        cfg = MasterConfig(N=1, g=0.3, potential=gaussian_potential(),
                           seed=7, sigma=0.5)
        res = optimize(cfg)
        assert res.cost < 1e-20
        assert res.obstruction is False

    def test_p2_n4_solvable(self):
        cfg = MasterConfig(N=4, g=1.0 / 16, potential=gaussian_potential(),
                           seed=1, sigma=0.0)
        res = optimize(cfg)
        assert res.cost < 1e-12
        assert res.obstruction is False

    def test_trace_monotone(self):
        pot, g = septic_potential()
        cfg = MasterConfig(N=4, g=g, potential=pot, seed=9, sigma=0.0)
        res = optimize(cfg)
        diffs = np.diff(res.trace)
        assert np.all(diffs <= 0)

    def test_seed_reproducible(self):
        pot, g = septic_potential()
        cfg = MasterConfig(N=3, g=g, potential=pot, seed=4, sigma=0.2)
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
                           sigma=0.5, hermitian=False)
        assert n_params(1, False) == 2 * n_params(1, True)
        res = optimize(cfg)
        assert res.cost < 1e-20

    @staticmethod
    def float64_op_config(seed):
        """The float64 benchmark's master op: N=12, p=3, s=1.5, sigma=0.1."""
        with mp.workdps(60):
            params = double_scaling(3, 12, ("1.5",))
            pot = build_potential(params)
        return MasterConfig(N=12, g=float(params.g), potential=pot, seed=seed,
                            sigma=0.1)

    @staticmethod
    def count_jacobians(monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return _jacobian(*args)

        monkeypatch.setattr(mf, "_jacobian", counting)
        return calls

    @pytest.mark.parametrize("seed", [4731, 5118])
    def test_stops_at_rounding_floor(self, seed, monkeypatch):
        """A solvable fit ends on its first restart, a few Jacobians in,
        at or below eps^2 * sum |term|^2 of its own residual terms."""
        calls = self.count_jacobians(monkeypatch)
        cfg = self.float64_op_config(seed)
        res = optimize(cfg)
        p_mom, eta1, eta2, vp = _fixed_inputs(cfg)[0]
        rho, b, floor = master_residuals(p_mom, res.state.a, vp, cfg.g, eta1, eta2)
        r = _pack(rho, True)
        assert (res.restarts, res.stop, res.obstruction) == (1, "floor", False)
        assert len(calls) <= 6
        assert res.cost == r @ r <= floor
        assert np.array_equal(res.state.b, b)

    @pytest.mark.parametrize("max_iters, want", [(1, (3, "max_iters", 1)),
                                                 (3, (1, "floor", 3))])
    def test_max_iters_stop(self, max_iters, want, monkeypatch):
        """Short of the floor no restart ends the search early; a last
        step that lands on the floor ends it."""
        calls = self.count_jacobians(monkeypatch)
        monkeypatch.setattr(mf, "_MAX_ITERS", max_iters)
        monkeypatch.setattr(mf, "_RESTARTS", 3)
        res = optimize(self.float64_op_config(4731))
        assert (res.restarts, res.stop, res.iterations) == want
        assert len(calls) == 3

    def test_seeds_draw_from_disjoint_streams(self, monkeypatch):
        """Each seed's momenta, noise and restart starts come from generators
        that no other seed's draws start from (seed s's noise once drew from
        seed s+1's momentum stream)."""
        made = []
        real = np.random.default_rng

        def recording(seed=None):
            gen = real(seed)
            made.append(gen.bit_generator.state["state"]["state"])
            return gen

        monkeypatch.setattr(np.random, "default_rng", recording)
        monkeypatch.setattr(mf, "_MAX_ITERS", 1)
        monkeypatch.setattr(mf, "_RESTARTS", 3)
        states = {}
        for seed in range(4):
            made.clear()
            optimize(MasterConfig(N=2, g=0.3, potential=gaussian_potential(), seed=seed,
                                  sigma=0.5))
            states[seed] = set(made)
        for a in states:
            for b in states:
                assert a == b or not states[a] & states[b], (a, b)
        assert all(len(v) == 3 for v in states.values()), states

    def test_seed_is_spawned_once_per_solve(self, monkeypatch):
        """One spawn of the seed's SeedSequence gives all three streams (each
        stream was once spawned afresh, three spawns a solve)."""
        spawns = []

        class Counting(np.random.SeedSequence):
            def spawn(self, n):
                spawns.append(n)
                return super().spawn(n)

        monkeypatch.setattr(np.random, "SeedSequence", Counting)
        optimize(MasterConfig(N=2, g=0.3, potential=gaussian_potential(), seed=1, sigma=0.5))
        assert spawns == [3]

    @pytest.mark.parametrize("g", [1e200, -1e200, 1e-200, 0.0, np.inf, np.nan])
    def test_g_with_an_overflowing_square_raises(self, g, monkeypatch):
        """The fit forms g^2 and 1/g^2 as Python floats, where g = 1e200 and
        1e-200 raised OverflowError; it refuses such a g before drawing."""
        def no_draw(*args):
            raise AssertionError("the fit drew its inputs")

        monkeypatch.setattr(mf, "_fixed_inputs", no_draw)
        cfg = MasterConfig(N=2, g=g, potential=gaussian_potential(), seed=1, sigma=0.5)
        with pytest.raises(ValueError, match=r"^g = .* outside float64's range"):
            optimize(cfg)

    def test_gradient_matches_finite_differences(self):
        pot, g = septic_potential()
        cfg = MasterConfig(N=3, g=g, potential=pot, seed=13, sigma=0.25)
        rng = np.random.default_rng(21)
        theta = 0.4 * rng.standard_normal(n_params(3, True))
        fixed = _fixed_inputs(cfg)[0]
        _, r, _ = _cost_from_theta(cfg, theta, fixed)
        grad = 2.0 * (_jacobian(cfg, theta, fixed).T @ r)
        h = 1e-6
        for idx in range(0, len(theta), 4):
            e = np.zeros_like(theta)
            e[idx] = h
            fd = (_cost_from_theta(cfg, theta + e, fixed)[0]
                  - _cost_from_theta(cfg, theta - e, fixed)[0]) / (2 * h)
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
            got = _inverse_differences(v).sum(axis=-1)  # the residual's Coulomb sums
            h = 1e-7
            for i in range(5):
                def logdelta(vec):
                    return sum(np.log(abs(vec[a] - vec[b]))
                               for a in range(5) for b in range(a))
                vp = v.copy(); vp[i] += h
                vm = v.copy(); vm[i] -= h
                fd = (logdelta(vp) - logdelta(vm)) / (2 * h)
                assert abs(got[i] - fd) < 1e-5

    @pytest.mark.parametrize("N", [2, 4, 9])
    def test_residual_matches_elementwise_loop(self, N):
        """Real and complex points, one at a time and as a stacked batch."""
        pot, g = septic_potential()
        rng = np.random.default_rng(N)
        a = np.linspace(-2, 2, N) + 0.1 * rng.standard_normal(N)
        b = np.linspace(2, -2, N) + 0.1 * rng.standard_normal(N)
        ac, bc = a + 0.3j * rng.standard_normal(N), b + 0.3j * rng.standard_normal(N)
        for x, y in [(a, b), (ac, bc)]:
            got = saddle_residual(pot, g, x, y)
            want = saddle_residual_loop(pot, g, x, y)
            assert np.max(np.abs(got - want)) < 1e-14 * max(np.max(np.abs(want)), 1.0)
            stacked = saddle_residual(pot, g, np.stack([x, x[::-1]]), np.stack([y, y[::-1]]))
            assert np.array_equal(stacked[0], got)
            assert np.array_equal(stacked[1], saddle_residual(pot, g, x[::-1], y[::-1]))

    def test_jacobian_matches_finite_differences(self):
        """A real direction's difference quotient is the complex derivative
        at a complex point too; a stacked batch gives each point's J."""
        pot, g = septic_potential()
        for imag in (0.0, 0.2):
            rng = np.random.default_rng(4)
            a = np.linspace(-1.5, 1.5, 5) + 0.1 * rng.standard_normal(5) \
                + imag * 1j * rng.standard_normal(5)
            b = np.linspace(1.5, -1.5, 5) + 0.1 * rng.standard_normal(5) \
                + imag * 1j * rng.standard_normal(5)
            J = saddle_jacobian(pot, g, a, b)
            stacked = saddle_jacobian(pot, g, np.stack([a, -a]), np.stack([b, -b]))
            assert np.array_equal(stacked[0], J)
            assert np.array_equal(stacked[1], saddle_jacobian(pot, g, -a, -b))
            x = np.concatenate([a, b])
            h = 1e-6
            for k in range(10):
                e = np.zeros(10)
                e[k] = h
                xp, xm = x + e, x - e
                fd = (saddle_residual(pot, g, xp[:5], xp[5:])
                      - saddle_residual(pot, g, xm[:5], xm[5:])) / (2 * h)
                scale = max(np.max(np.abs(fd)), 1.0)
                assert np.max(np.abs(J[:, k] - fd)) < 1e-7 * scale, f"imag {imag} column {k}"

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

    def test_best_found_reported(self, monkeypatch):
        monkeypatch.setattr(mf, "_SADDLE_SWEEPS", 60)
        res = saddle_solve(gaussian_potential(), 1.0, 2)
        assert np.isfinite(res.residual_norm)
        assert isinstance(res.converged, bool)

    @staticmethod
    def readme_potential():
        """The README example's potential: p=3, s=1.5, built at N=4, 60 digits."""
        with mp.workdps(60):
            return build_potential(double_scaling(3, 4, ("1.5",)))

    @staticmethod
    def count_jacobians(monkeypatch, corrupt=None):
        calls = []

        def counting(*args):
            calls.append(1)
            J = _saddle_jacobian(*args)
            if corrupt is not None:
                corrupt(J)
            return J

        monkeypatch.setattr(mf, "_saddle_jacobian", counting)
        return calls

    def test_readme_example_converges(self):
        res = saddle_solve(self.readme_potential(), 1.0, 4)
        assert res.converged and res.residual_norm < 1e-10
        assert len(res.a) == len(res.b) == 4

    def test_quartic_small_g(self):
        # V'(1+u) = u^3 - u at g = 0.2: a = (-1, 1), b = (g/2, -g/2)
        quartic = ModelPotential(p=4, s_coeffs=(0.0, 0.5, 0.0, -0.25))
        res = saddle_solve(quartic, 0.2, 2)
        # below tol a start still steps while that halves its residual, so it
        # ends near the rounding floor, not just under tol
        assert res.converged and res.residual_norm < 1e-13
        got = np.concatenate([res.a, res.b])
        assert np.max(np.abs(got - [-1.0, 1.0, 0.1, -0.1])) < 1e-8

    def test_solutions_real_canonical_distinct(self):
        tol, pot = mf._SOLVED_TOL, self.readme_potential()
        res = saddle_solve(pot, 1.0, 4)
        assert len(res.solutions) >= 2
        assert np.array_equal(res.a, res.solutions[0][0])
        rows = []
        for a, b, r in res.solutions:
            assert a.dtype == b.dtype == np.float64
            assert np.all(np.diff(a) > 0)
            assert r < tol
            assert np.isclose(r, np.linalg.norm(saddle_residual(pot, 1.0, a, b)), rtol=1e-12)
            rows.append(np.concatenate([a, b]))
        for i in range(len(rows)):
            for j in range(i):
                assert np.max(np.abs(rows[i] - rows[j])) > 1e-6

    def test_same_seed_bit_identical(self):
        r1 = saddle_solve(self.readme_potential(), 1.0, 4, seed=3)
        r2 = saddle_solve(self.readme_potential(), 1.0, 4, seed=3)
        assert np.array_equal(r1.a, r2.a) and np.array_equal(r1.b, r2.b)
        assert (r1.residual_norm, r1.iterations, r1.n_complex) == \
            (r2.residual_norm, r2.iterations, r2.n_complex)
        assert len(r1.solutions) == len(r2.solutions)
        for s1, s2 in zip(r1.solutions, r2.solutions):
            assert np.array_equal(s1[0], s2[0]) and np.array_equal(s1[1], s2[1])
            assert s1[2] == s2[2]

    def test_cost_guard(self, monkeypatch):
        """One stacked Jacobian per sweep; the starts stop well before
        the sweep cap (46 sweeps measured on the README example at seed 0)."""
        calls = self.count_jacobians(monkeypatch)
        res = saddle_solve(self.readme_potential(), 1.0, 4)
        assert len(calls) == res.iterations <= mf._SADDLE_SWEEPS == 250
        assert res.iterations <= 92
        calls.clear()
        monkeypatch.setattr(mf, "_SADDLE_SWEEPS", 5)
        res = saddle_solve(self.readme_potential(), 1.0, 4)
        assert len(calls) == res.iterations == 5
        assert not res.converged

    def test_sweeps_evaluate_only_live_starts(self, monkeypatch):
        """Each sweep takes the residual of the starts still live, so the
        batches never grow; on the README example at seed 0 they total 1635
        start-rows over 47 residual passes, where all 96 starts a pass gave
        4512. The last call judges every final iterate."""
        sizes = []

        def recording(vp, g, a, b):
            sizes.append(len(a))
            return _saddle_residual(vp, g, a, b)

        monkeypatch.setattr(mf, "_saddle_residual", recording)
        res = saddle_solve(self.readme_potential(), 1.0, 4)
        sweeps, final = sizes[:-1], sizes[-1]
        assert len(sweeps) == res.iterations + 1 and final == mf._SADDLE_STARTS
        assert all(n >= m for n, m in zip(sweeps, sweeps[1:])), sweeps
        assert sum(sweeps) < 0.5 * mf._SADDLE_STARTS * res.iterations

    def test_singular_jacobian_drops_start(self, monkeypatch):
        """An exactly singular Jacobian ends its start; the others go on."""
        def zero_first(J):
            J[0] = 0.0

        calls = self.count_jacobians(monkeypatch, corrupt=zero_first)
        res = saddle_solve(self.readme_potential(), 1.0, 4)
        assert res.converged and res.residual_norm < 1e-10
        assert len(calls) == res.iterations

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
