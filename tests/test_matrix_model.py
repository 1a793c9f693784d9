import mpmath as mp
import pytest
from mpmath import mpf

from conftest import assert_rel
from oracles import hermite_q, horner, jacobi_matrix, q_sequence, shifted, v_shifted
from xilab.matrix_model import build_potential, q_polynomial
from xilab.pipeline import RIEMANN_ROW_U, ROWS
from xilab.roots import find_roots
from xilab.scaling import double_scaling, rescale_potential

# printed reference coefficient tables, highest degree first
HERMITE_Q16 = ["1", "0", "-3.75", "0", "5.33203", "0", "-3.66577", "0",
               "1.28875", "0", "-0.225531", "0", "0.0176196", "0",
               "-0.000471954", "0", "1.84357e-6"]
RIEMANN_Q16 = ["1", "141.088", "8952.1", "338149.", "8.48406e6", "1.49383e8",
               "1.90155e9", "1.77654e10", "1.2243e11", "6.20423e11",
               "2.28714e12", "6.01787e12", "1.09783e13", "1.33068e13",
               "1.00497e13", "4.23563e12", "7.61563e11"]


def riemann_params(N=16):
    scaled = rescale_potential(tuple([mpf(c) for c in RIEMANN_ROW_U]), 7)
    return double_scaling(7, N, scaled.s)


def check_table(q, printed, tol, label):
    want = list(reversed([mpf(c) for c in printed]))
    for n, w in enumerate(want):
        if w == 0:
            assert abs(q.coeffs[n]) < mpf("1e-30"), f"{label} b^{n}"
        else:
            assert_rel(q.coeffs[n], w, tol, f"{label} b^{n}")


class TestHermite:
    def test_n1_is_b(self):
        q = hermite_q(1, mpf(1) / 16)
        assert q.coeffs == (mpf(0), mpf(1))

    def test_q16_table(self):
        q = hermite_q(16, mpf(1) / 16)
        check_table(q, HERMITE_Q16, "1e-5", "hermite")

    def test_quadratic_model_equals_closed_form(self):
        for N in (2, 4, 8, 16):
            params = double_scaling(2, N, ())
            V = build_potential(params)
            qa = q_polynomial(params, V, N)
            qb = hermite_q(N, params.g)
            for a, b in zip(qa.coeffs, qb.coeffs):
                if b == 0:
                    assert abs(a) < mpf("1e-55")
                else:
                    assert abs(a - b) / abs(b) < mpf("1e-40")

    def test_parity(self):
        q = hermite_q(16, mpf("0.0625"))
        assert all(q.coeffs[n] == 0 for n in range(1, 17, 2))


class TestQPolynomial:
    def test_q0_is_one(self):
        params = riemann_params()
        V = build_potential(params)
        assert q_polynomial(params, V, 0).coeffs == (mpf(1),)

    def test_leading_coefficient(self):
        params = riemann_params()
        V = build_potential(params)
        for n in (1, 2, 5, 8):
            q = q_polynomial(params, V, n)
            assert abs(q.coeffs[n] - (-1) ** n) < mpf("1e-50")

    def test_potential_vanishes_at_expansion_point(self):
        params = riemann_params()
        V = build_potential(params)
        assert v_shifted(V, mpf(0)) == 0

    def test_riemann_q16_table(self):
        params = riemann_params()
        V = build_potential(params)
        q = q_polynomial(params, V, 16)
        check_table(q, RIEMANN_Q16, "1e-3", "riemann")

    def test_root_shift(self):
        params = riemann_params(8)
        V = build_potential(params)
        q = q_polynomial(params, V, 8)
        shift = mpf("0.75")
        r0 = sorted([mp.re(r) for r in find_roots(q).roots])
        r1 = sorted([mp.re(r) for r in find_roots(shifted(q, shift)).roots])
        for a, b in zip(r0, r1):
            assert abs((b + shift) - a) < mpf("1e-30")


class TestGeneratingFunctionOracle:
    def test_n0(self):
        params = riemann_params()
        V = build_potential(params)
        assert (q_sequence(params, V, 0)[0].coeffs == q_polynomial(params, V, 0).coeffs
                == (mpf(1),))

    @pytest.mark.parametrize("p,s", [(3, ("1.5",)), (5, ("-0.5", "0", "2")),
                                     (7, ("1", "0", "3", "0", "3"))])
    def test_matches_series_route(self, p, s):
        params = double_scaling(p, 8, s)
        V = build_potential(params)
        qa = q_sequence(params, V, 8)[8]
        qb = q_polynomial(params, V, 8)
        for a, b in zip(qa.coeffs, qb.coeffs):
            denom = max(abs(b), mpf(1))
            assert abs(a - b) / denom < mpf("1e-45")

    def test_hermite_table_via_gf(self):
        params = double_scaling(2, 16, ())
        V = build_potential(params)
        q = q_polynomial(params, V, 16)
        check_table(q, HERMITE_Q16, "1e-5", "gf-hermite")


class TestCataloguedRowsAgainstOracle:
    """The production Q_N against the series route on the eight report rows."""

    @pytest.mark.parametrize("N,dps", [(16, 60), (32, 80)])
    @pytest.mark.parametrize("row_id", list(ROWS))
    def test_coefficients(self, row_id, N, dps):
        with mp.workdps(dps):
            params = ROWS[row_id].model(N)
            V = build_potential(params)
            got = q_polynomial(params, V, N)
            want = q_sequence(params, V, N)[N]
            floor = mpf(10) ** -dps * max(abs(c) for c in want.coeffs)
            for n, (a, b) in enumerate(zip(got.coeffs, want.coeffs)):
                bound = max(mpf(10) ** -(dps - 10) * abs(b), floor)
                assert abs(a - b) <= bound, f"{row_id} N={N} b^{n}"

    @pytest.mark.parametrize("row_id", list(ROWS))
    def test_roots_at_n16(self, row_id):
        params = ROWS[row_id].model(16)
        V = build_potential(params)
        got = find_roots(q_polynomial(params, V, 16))
        want = find_roots(q_sequence(params, V, 16)[16])
        assert got.is_real == want.is_real
        tol = mpf(10) ** -(mp.mp.dps // 2)
        for a, b in zip(got.roots, want.roots):
            assert abs(a - b) <= tol * max(abs(b), 1), f"{row_id} root {b}"


class TestJacobiMatrix:
    def test_1x1_block_is_root_of_q1(self):
        params = riemann_params()
        V = build_potential(params)
        J = jacobi_matrix(params, V, 1)
        q1 = q_polynomial(params, V, 1)
        root = -q1.coeffs[0] / q1.coeffs[1]
        assert abs(J.entry(0, 0) - root) < mpf("1e-50")

    def test_quadratic_model_tridiagonal(self):
        params = double_scaling(2, 8, ())
        V = build_potential(params)
        J = jacobi_matrix(params, V, 8)
        for i in range(8):
            for j in range(8):
                if abs(i - j) > 1:
                    assert abs(J.entry(i, j)) < mpf("1e-50"), (i, j)

    def test_determinant_matches_q(self):
        params = riemann_params(8)
        V = build_potential(params)
        N = 8
        J = jacobi_matrix(params, V, N)
        q = q_polynomial(params, V, N)
        for k in range(2 * N + 1):
            b = mpf(k - N) / 2
            det = J.char_poly_at(b)
            want = (-1) ** N * horner(q.coeffs, b)[0]
            denom = max(abs(want), mpf("1e-20"))
            assert abs(det - want) / denom < mpf("1e-40"), f"b={b}"


class TestBuildPotential:
    def test_quadratic_exponent(self):
        params = double_scaling(2, 16, ())
        V = build_potential(params)
        assert V.s_coeffs == (mpf(0), -mpf(1) / 4)

    def test_quadratic_rejects_couplings(self):
        params = double_scaling(3, 16, ("1",))
        bad = params.__class__(p=2, N=16, epsilon=params.epsilon, g=params.g,
                               s=("1",))
        with pytest.raises(ValueError):
            build_potential(bad)

    def test_degree(self):
        params = riemann_params()
        V = build_potential(params)
        assert len(V.s_coeffs) == 7

    def test_size_cap(self):
        params = riemann_params()
        V = build_potential(params)
        with pytest.raises(ValueError):
            q_polynomial(params, V, 65)
