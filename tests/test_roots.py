import mpmath as mp
import numpy as np
import pytest
from mpmath import mpc, mpf
from mpmath.libmp import mpf_abs

from conftest import assert_rel
from oracles import hermite_q, horner, reconstruct_coefficients
from xilab import matrix_model, roots
from xilab.matrix_model import CharPolynomial, build_potential, q_polynomial
from xilab.pipeline import RIEMANN_ROW_U, ROWS
from xilab.errors import XilabError
from xilab.roots import find_roots
from xilab.scaling import double_scaling, rescale_potential


def riemann_q(N=16):
    scaled = rescale_potential(tuple([mpf(c) for c in RIEMANN_ROW_U]), 7)
    params = double_scaling(7, N, scaled.s)
    V = build_potential(params)
    return q_polynomial(params, V, N)


def row_q(row_id, N):
    params = ROWS[row_id].model(N)
    return q_polynomial(params, build_potential(params), N)


def from_roots(rs):
    """Coefficients of prod (b - r), lowest degree first."""
    cs = [mpf(1)]
    for r in rs:
        cs = [-r * cs[0]] + [cs[k - 1] - r * cs[k] for k in range(1, len(cs))] + [cs[-1]]
    return tuple(cs)


class TestFindRoots:
    def test_quadratic_plus_one(self):
        rs = find_roots(CharPolynomial.from_coeffs((mpf(1), mpf(0), mpf(1))))
        ims = sorted(mp.im(r) for r in rs.roots)
        assert abs(ims[0] + 1) < mpf("1e-50") and abs(ims[1] - 1) < mpf("1e-50")
        assert rs.n_complex_pairs == 1
        assert not rs.on_critical_line

    def test_hermite16(self):
        rs = find_roots(hermite_q(16, mpf(1) / 16))
        assert rs.on_critical_line
        reals = rs.real_roots()
        assert len(reals) == 16
        assert_rel(reals[0], "-1.17218", "1e-4", "lowest")
        assert_rel(reals[-1], "1.17218", "1e-4", "highest")
        assert_rel(reals[7], "-0.0683703", "1e-4", "inner")
        assert_rel(reals[8], "0.0683703", "1e-4", "inner")

    def test_riemann_pair(self):
        rs = find_roots(riemann_q())
        assert rs.n_complex_pairs == 1
        pair = rs.complex_pairs()[0]
        assert_rel(mp.re(pair), "-0.677917", "1e-3", "re")
        assert_rel(mp.im(pair), "0.213125", "1e-3", "im")
        assert len(rs.real_roots()) == 14

    def test_root_count_and_conjugate_symmetry(self):
        rs = find_roots(riemann_q())
        assert len(rs.roots) == 16
        roots = set()
        for r in rs.roots:
            roots.add((mp.re(r), mp.im(r)))
        for re, im in roots:
            assert (re, -im) in roots

    def test_sum_and_product(self):
        q = riemann_q()
        rs = find_roots(q)
        total = sum(rs.roots, mpc(0))
        prod = mpc(1)
        for r in rs.roots:
            prod *= r
        assert abs(total - (-q.coeffs[15] / q.coeffs[16])) < mpf("1e-35")
        assert abs(prod - q.coeffs[0] / q.coeffs[16]) / abs(q.coeffs[0]) < mpf("1e-35")

    def test_residuals_reported(self):
        rs = find_roots(riemann_q())
        assert max(rs.residuals) < mpf(10) ** (-(mp.mp.dps // 2))

    def test_float64_start_converges_in_few_sweeps(self):
        rs = find_roots(riemann_q())
        assert 1 <= rs.sweeps <= 3

    def test_roots_do_not_depend_on_the_start(self, monkeypatch):
        """The extended-precision stage sets the roots and the start only its
        cost: starts moved off by ~1e-6 give the same roots in more sweeps."""
        q = riemann_q()
        rs = find_roots(q)
        start = roots._float64_start
        monkeypatch.setattr(roots, "_float64_start", lambda Q: [
            z * (1 + mpc("1e-6", "1e-6")) for z in start(Q)])
        moved = find_roots(q)
        assert moved.sweeps > rs.sweeps
        assert moved.is_real == rs.is_real
        for a, b in zip(moved.roots, rs.roots):
            assert abs(a - b) < mpf("1e-50")

    @pytest.mark.parametrize("row, N, dps", [("riemann", 16, 60), ("riemann", 32, 80),
                                             ("bessel_k", 32, 80)])
    def test_float64_start_is_near_the_roots(self, row, N, dps):
        """The float64 Aberth on the recurrence takes the Hessenberg
        eigenvalues (5e-6 off for riemann at N=32) to ~1e-15."""
        with mp.workdps(dps):
            q = row_q(row, N)
            rs = find_roots(q)
            for z in roots._float64_start(q):
                assert min(abs(z - r) for r in rs.roots) < mpf("1e-12") * max(abs(z), 1)

    def test_float64_start_outlives_float64_range(self, monkeypatch):
        """f_n falls like 1/n!, below 2^-1074 on the riemann row at N=200
        without rescaling (a worst relative Newton step of 0.2); the start
        still lands within 1e-12 of every root of Q built at 200 digits."""
        monkeypatch.setattr(matrix_model, "MAX_N", 200)
        with mp.workdps(200):
            q = row_q("riemann", 200)
            for z in roots._float64_start(q):
                p, dp = mp.polyval(q.coeffs[::-1], z, derivative=True)
                assert abs(p / dp) < mpf("1e-12") * max(abs(z), 1)

    @pytest.mark.parametrize("N", [16, 32])
    def test_stopping_rules_bound_the_evaluations(self, monkeypatch, N):
        """Each root's Q, Q' and scale are evaluated once per sweep it steps
        in, once more when it is found at the rounding floor, and once at its
        real part (Q and scale by the real pass), which gives a real root's
        reported residual; a conjugate pair shares one more for the averaged
        pair: n (sweeps + 2) calls of the two evaluators in all."""
        calls = [0]

        def counted(evaluator):
            def run(raw, z):
                calls[0] += 1
                return evaluator(raw, z)
            return run

        monkeypatch.setattr(roots, "_eval", counted(roots._eval))
        monkeypatch.setattr(roots, "_eval_real", counted(roots._eval_real))
        with mp.workdps(60 if N == 16 else 80):
            rs = find_roots(riemann_q(N))
        assert 2 * N <= calls[0] <= N * (rs.sweeps + 2)

    @pytest.mark.parametrize("coeffs", [
        (0, 0, -1, 1),      # b^2 (b - 1)
        (2, -3, 0, 1),      # (b - 1)^2 (b + 2)
        (1, -2, 1),         # (b - 1)^2: the eigenvalues repeat exactly
        (-1, 3, -3, 1),     # (b - 1)^3: likewise
    ], ids=["zero_double", "double", "exact_double", "exact_triple"])
    def test_repeated_roots_meet_gate(self, coeffs):
        q = CharPolynomial.from_coeffs([mpf(c) for c in coeffs])
        m = next(k for k, c in enumerate(coeffs) if c != 0)
        start = roots._float64_start(CharPolynomial.from_coeffs(q.coeffs[m:]))
        assert len(set(start)) == len(start)
        rs = find_roots(q)
        assert max(rs.residuals) < mpf(10) ** (-(mp.mp.dps // 2))
        assert rs.on_critical_line
        assert find_roots(q).roots == rs.roots

    def test_double_root_meets_gate(self):
        # (b - 1)^2 (b + 2): linear convergence at the double root still stops
        rs = find_roots(CharPolynomial.from_coeffs((mpf(2), mpf(-3), mpf(0), mpf(1))))
        assert max(rs.residuals) < mpf(10) ** (-(mp.mp.dps // 2))
        assert rs.sweeps < 200
        assert rs.on_critical_line
        reals = rs.real_roots()
        assert abs(reals[0] + 2) < mpf("1e-50")
        assert abs(reals[1] - 1) < mpf("1e-25") and abs(reals[2] - 1) < mpf("1e-25")

    @pytest.mark.parametrize("coeffs, m, others", [
        ((0, 0, 1, 0, 1), 2, (mpc(0, -1), mpc(0, 1))),   # b^2 (b^2 + 1)
        ((0, 0, 0, 2, 1), 3, (mpc(-2),)),                # b^3 (b + 2)
        ((0, 0, 0, 5), 3, ()),                           # 5 b^3
    ])
    def test_multiple_root_at_zero_is_exact(self, coeffs, m, others):
        # the vanishing low-order coefficients give exact zero roots; near a
        # multiple zero root no iterate could meet the backward-error gate
        rs = find_roots(CharPolynomial.from_coeffs([mpf(c) for c in coeffs]))
        zeros = [r for r in rs.roots if r == 0]
        assert len(zeros) == m
        assert all(flag for r, flag in zip(rs.roots, rs.is_real) if r == 0)
        rest = sorted((r for r in rs.roots if r != 0), key=lambda r: mp.im(r))
        assert len(rest) == len(others)
        for got, want in zip(rest, others):
            assert abs(got - want) < mpf("1e-50")
        assert max(rs.residuals) < mpf(10) ** (-(mp.mp.dps // 2))

    def test_forward_error_at_rounding_floor(self):
        """Each root is as accurate as the working precision allows: within
        2N eps K of its Newton refinement at 40 more digits, K = sum |q_n|
        |r|^n / |Q'(r)| (the Horner rounding bound over the derivative)."""
        q = riemann_q()
        rs = find_roots(q)
        eps = +mp.eps
        with mp.workdps(mp.mp.dps + 40):
            for z in rs.roots:
                r = z
                for _ in range(2):
                    p, dp, scale = horner(q.coeffs, r)
                    r -= p / dp
                limit = 2 * q.N * eps * scale / abs(dp)
                assert abs(z - r) <= limit

    def test_backward_error_gate(self, monkeypatch):
        """A one-sweep cap, which the float64 start shares, leaves the riemann
        row at N=48 at a worst backward error near 1e-4, above the 1e-50
        target: the gate raises. The MAX_SWEEPS budget meets it."""
        with mp.workdps(100):
            q = riemann_q(48)
            with monkeypatch.context() as m:
                m.setattr(roots, "MAX_SWEEPS", 1)
                with pytest.raises(XilabError, match="above target"):
                    find_roots(q)
            assert max(find_roots(q).residuals) < mpf(10) ** -50

    @pytest.mark.parametrize("row_id", list(ROWS))
    def test_model_roots_read_the_exponent(self, monkeypatch, row_id):
        """find_roots on a q_polynomial result reads the exponent Q_N was
        built from: no series_log runs."""
        q = row_q(row_id, 16)

        def refuse(s):
            raise AssertionError("series_log on the model path")

        monkeypatch.setattr(matrix_model, "series_log", refuse)
        with pytest.raises(AssertionError, match="model path"):
            CharPolynomial.from_coeffs(q.coeffs)
        assert len(find_roots(q).roots) == 16

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(CharPolynomial.from_coeffs((mpf(1),)))


class TestEvaluators:
    @pytest.mark.parametrize("row_id, N, dps", [(r, 16, 60) for r in ROWS]
                             + [("riemann", 48, 100)])
    def test_real_pass_is_the_complex_pass_at_im_0(self, row_id, N, dps):
        """At the real part of every root, the real Horner pass gives Q and
        sum |q_k| |x|^k, and so the residual, to the bit of _eval's."""
        with mp.workdps(dps):
            q = row_q(row_id, N)
            # find_roots's Horner input (q_0 != 0 here): (q_k, |q_k|) as
            # libmp values, highest degree first
            raw = [(c._mpf_, mpf_abs(c._mpf_)) for c in reversed(q.coeffs)]
            for z in find_roots(q).roots:
                x = mp.re(z)
                p, s = roots._eval_real(raw, x)
                pc, _, sc = roots._eval(raw, mpc(x))
                assert mp.im(pc) == 0
                assert (p._mpf_, s._mpf_) == (mp.re(pc)._mpf_, sc._mpf_)
                assert (abs(p) / s)._mpf_ == (abs(pc) / sc)._mpf_


class TestHighDegree:
    """The N >= 32 path, and general polynomials, whose exponent comes from
    their coefficients alone: at most 3 sweeps, and every backward error
    within the 10^-(dps/2) target."""

    @staticmethod
    def solve(q):
        rs = find_roots(q)
        assert rs.sweeps <= 3
        assert max(rs.residuals) < mpf(10) ** (-(mp.mp.dps // 2))
        return rs

    def test_riemann_n32(self):
        with mp.workdps(80):
            rs = self.solve(riemann_q(32))
        assert len(rs.real_roots()) == 30 and rs.n_complex_pairs == 1

    def test_bessel_k_n32(self):
        with mp.workdps(80):
            rs = self.solve(row_q("bessel_k", 32))
        assert rs.on_critical_line

    def test_wilkinson20(self):
        rs = self.solve(CharPolynomial.from_coeffs(from_roots(range(1, 21))))
        assert rs.on_critical_line
        for k, r in enumerate(rs.real_roots(), start=1):
            assert abs(r - k) < mpf("1e-40")

    def test_random_degree_24(self):
        coeffs = [mpf(float(x)) for x in np.random.default_rng(24).standard_normal(25)]
        rs = self.solve(CharPolynomial.from_coeffs(coeffs))
        for want in mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=100):
            assert min(abs(r - want) for r in rs.roots) < mpf("1e-40") * max(abs(want), 1)


class TestClassify:
    def test_scale_invariance(self):
        q = riemann_q()
        rs1 = find_roots(q)
        q2 = CharPolynomial.from_coeffs([c * mpf("7.3e5") for c in q.coeffs])
        rs2 = find_roots(q2)
        assert rs1.is_real == rs2.is_real
        assert rs1.n_complex_pairs == rs2.n_complex_pairs

    def test_near_axis_pair_is_reported(self):
        """b^2 - 200 b + 10000 + 2.5e-13 has roots 100 +- 5e-7 i. At the real
        part Q is 2.5e-13, a backward error of 6.25e-18, far above the 1e-30
        target: a pair, whose reported roots meet the target."""
        q = CharPolynomial.from_coeffs((mpf(100) ** 2 + mpf("25e-14"), mpf(-200), mpf(1)))
        rs = find_roots(q)
        assert rs.is_real == (False, False) and rs.pair_ids == (0, 0)
        assert rs.n_complex_pairs == 1
        assert abs(mp.im(rs.complex_pairs()[0]) - mpf("5e-7")) < mpf("1e-40")
        assert max(rs.residuals) <= mpf("1e-30")


class TestReconstruction:
    @pytest.mark.parametrize("maker", [
        lambda: hermite_q(16, mpf(1) / 16),
        pytest.param(riemann_q, id="riemann_q16"),
    ])
    def test_roundtrip(self, maker):
        q = maker()
        rs = find_roots(q)
        back = reconstruct_coefficients(rs, q.coeffs[-1])
        big = max(abs(c) for c in q.coeffs)
        spread = big / max(abs(q.coeffs[-1]), mpf(1))
        bound = mpf(10) ** (-(mp.mp.dps - 15 - mp.log10(spread))) * big
        for got, want in zip(back, q.coeffs):
            assert abs(got - want) < bound


class TestExponent:
    """The exponent q_polynomial stores against the one the coefficient
    constructor recovers from the rounded coefficients. The recovery
    carries their rounding: T_j = (-1)^j q_{N-j} (N-j)!/(q_N N!) off by
    eps |T_j| moves log T at t^m by up to eps K_m, with
    K_m = sum_j |T_j| |[t^(m-j)] 1/T| (0.03-0.4 eps K_m measured, 3e-49 of
    max |c_m| for bessel_k at N=16). So each entry, the dust past p
    included, must be within 10^-(dps-5) max |c_m| + N eps K_m."""

    @staticmethod
    def rounding_bound(q):
        n = q.N
        lead = q.coeffs[n] * mp.factorial(n)
        t = [(-1) ** j * q.coeffs[n - j] * mp.factorial(n - j) / lead for j in range(n + 1)]
        inv = [mpf(1)]
        for k in range(1, n + 1):
            inv.append(-sum(t[j] * inv[k - j] for j in range(1, k + 1)))
        return [n * mp.eps * sum(abs(t[j] * inv[m - j]) for j in range(m + 1))
                for m in range(1, n + 1)]

    @pytest.mark.parametrize("N, dps", [(16, 60), (48, 100)])
    @pytest.mark.parametrize("row_id", list(ROWS))
    def test_stored_exponent_matches_recovered(self, row_id, N, dps):
        with mp.workdps(dps):
            q = row_q(row_id, N)
            got = q.exponent
            back = CharPolynomial.from_coeffs(q.coeffs).exponent
            assert len(got) == min(ROWS[row_id].p, N) and len(back) == N
            floor = mpf(10) ** -(dps - 5) * max(abs(c) for c in got)
            full = list(got) + [mpf(0)] * (N - len(got))
            for m, (a, b, k) in enumerate(zip(full, back, self.rounding_bound(q)), start=1):
                assert abs(a - b) <= floor + k, f"{row_id} c_{m}"

    def test_exponent_longer_than_degree_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            CharPolynomial(N=1, coeffs=(mpf(0), mpf(1)), exponent=(mpf(1), mpf(2)))

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError, match="leading"):
            CharPolynomial.from_coeffs((mpf(1), mpf(0)))
