import mpmath as mp
import pytest
from mpmath import mpc, mpf

from conftest import assert_rel
from oracles import hermite_q
from xilab.matrix_model import CharPolynomial, build_potential, q_polynomial
from xilab.pipeline import RIEMANN_ROW_U
from xilab import roots
from xilab.roots import classify, find_roots, reconstruct_coefficients
from xilab.scaling import double_scaling, rescale_potential
from xilab.series import TaylorSeries


def riemann_q(N=16):
    scaled = rescale_potential(TaylorSeries([mpf(c) for c in RIEMANN_ROW_U]), 7)
    params = double_scaling(7, N, scaled.s)
    V = build_potential(params)
    return q_polynomial(params, V, N)


class TestFindRoots:
    def test_quadratic_plus_one(self):
        rs = find_roots(CharPolynomial(N=2, coeffs=(mpf(1), mpf(0), mpf(1))))
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
        assert rs.start == "float64"
        assert 1 <= rs.sweeps <= 8

    def test_circle_fallback_gives_the_same_roots(self, monkeypatch):
        q = riemann_q()
        rs = find_roots(q)
        monkeypatch.setattr(roots, "FLOAT64_START_TOL", "0")
        fallback = find_roots(q)
        assert fallback.start == "circle"
        assert fallback.sweeps > rs.sweeps
        assert fallback.is_real == rs.is_real
        for a, b in zip(fallback.roots, rs.roots):
            assert abs(a - b) < mpf("1e-50")

    @pytest.mark.parametrize("N, start", [(16, "float64"), (20, "circle")])
    def test_stopping_rules_bound_the_evaluations(self, monkeypatch, N, start):
        """Q/Q' is evaluated once per root per sweep it is live in, plus at
        most one sweep of start checks and one polish evaluation per root
        already at the rounding floor: n (sweeps + 2) in all."""
        q = riemann_q(N)
        calls = [0]
        horner = roots._poly_and_deriv

        def counted(coeffs, z):
            calls[0] += 1
            return horner(coeffs, z)

        monkeypatch.setattr(roots, "_poly_and_deriv", counted)
        rs = find_roots(q)
        assert rs.start == start
        assert calls[0] <= N * (rs.sweeps + 2)

    def test_repeated_float64_roots_rejected(self):
        # b^2 (b - 1): np.roots returns the zero root twice
        coeffs = (mpf(0), mpf(0), mpf(-1), mpf(1))
        assert roots._float64_start(coeffs, roots._fujiwara_radius(coeffs)) is None

    def test_double_root_meets_gate(self):
        # (b - 1)^2 (b + 2): linear convergence at the double root still stops
        rs = find_roots(CharPolynomial(N=3, coeffs=(mpf(2), mpf(-3), mpf(0), mpf(1))))
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
        rs = find_roots(CharPolynomial(N=len(coeffs) - 1,
                                       coeffs=tuple(mpf(c) for c in coeffs)))
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
                    p, dp = roots._poly_and_deriv(q.coeffs, r)
                    r -= p / dp
                limit = 2 * q.N * eps * roots._abs_poly(q.coeffs, abs(r)) / abs(dp)
                assert abs(z - r) <= limit

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(CharPolynomial(N=0, coeffs=(mpf(1),)))


class TestClassify:
    def test_scale_invariance(self):
        q = riemann_q()
        rs1 = find_roots(q)
        q2 = CharPolynomial(N=16, coeffs=tuple(c * mpf("7.3e5") for c in q.coeffs))
        rs2 = find_roots(q2)
        assert rs1.is_real == rs2.is_real
        assert rs1.n_complex_pairs == rs2.n_complex_pairs

    def test_retolerance(self):
        rs = find_roots(riemann_q())
        loose = classify(rs, mpf("10"))  # absurd tolerance flags everything real
        assert loose.on_critical_line

    def test_relative_tolerance_form(self):
        # root at 100 + 5e-7 i is "real" at 1e-8 relative tolerance (scale 101)
        q = CharPolynomial(N=2, coeffs=(mpf(100) ** 2 + mpf("25e-14"),
                                        mpf(-200), mpf(1)))
        rs = find_roots(q)
        assert all(rs.is_real)


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
