import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from conftest import assert_rel
from xilab.errors import NonPositiveConstantTerm, NonzeroInnerConstant
from xilab.series import BiSeries, TaylorSeries, series_compose, series_exp, series_log


def poly(*cs):
    return TaylorSeries([mpf(str(c)) for c in cs])


class TestArithmetic:
    def test_difference_of_squares(self):
        s = poly(1, 1, 0) * poly(1, -1, 0)
        assert s.coeffs == (mpf(1), mpf(0), mpf(-1))

    def test_scale(self):
        assert (poly(0, 0, 1) * 3).coeffs == (mpf(0), mpf(0), mpf(3))

    def test_exp_times_exp_minus(self):
        k = 6
        e = TaylorSeries.exponential(1, k)
        em = TaylorSeries.exponential(-1, k)
        prod = e * em
        assert prod[0] == 1
        for n in range(1, k + 1):
            assert abs(prod[n]) < mpf(10) ** (-50)

    def test_min_order_truncation(self):
        a = poly(1, 2, 3)
        b = poly(1, 1)
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_immutable(self):
        s = poly(1, 2)
        with pytest.raises(AttributeError):
            s.coeffs = (mpf(0),)


class TestExpLog:
    def test_exp_zero(self):
        assert series_exp(poly(0, 0)).coeffs[0] == 1

    def test_exp_x(self):
        got = series_exp(TaylorSeries.identity(4))
        want = [1, 1, mpf(1) / 2, mpf(1) / 6, mpf(1) / 24]
        for g, w in zip(got.coeffs, want):
            assert_rel(g, w, "1e-55", "exp(x)")

    def test_exp_log_roundtrip_example(self):
        f = poly(0, 1, 0, 1, 0, 0)  # x + x^3
        back = series_log(series_exp(f))
        for n in range(6):
            assert abs(back[n] - f[n]) < mpf(10) ** (-50)

    def test_log_of_scaled_one(self):
        s = series_log(poly(1, 0, 0) * mp.e)
        assert_rel(s[0], 1, "1e-55", "log const")
        assert abs(s[1]) < mpf(10) ** (-55)

    def test_log_needs_positive_constant(self):
        with pytest.raises(NonPositiveConstantTerm):
            series_log(poly(0, 1))
        with pytest.raises(NonPositiveConstantTerm):
            series_log(poly(-2, 1))


class TestCompose:
    def test_affine(self):
        f = poly(1, 1)
        g = poly(0, 2)
        assert series_compose(f, g).coeffs == (mpf(1), mpf(2))

    def test_exp_of_2x(self):
        f = TaylorSeries([1 / mp.factorial(n) for n in range(4)])
        got = series_compose(f, poly(0, 2, 0, 0))
        want = [1, 2, 2, mpf(4) / 3]
        for g, w in zip(got.coeffs, want):
            assert_rel(g, w, "1e-55", "exp(2x)")

    def test_cosh_through_identity(self):
        k = 8
        cosh = TaylorSeries([1 / mp.factorial(n) if n % 2 == 0 else mpf(0)
                             for n in range(k + 1)])
        got = series_compose(cosh, TaylorSeries.identity(k))
        for n in range(k + 1):
            assert abs(got[n] - cosh[n]) < mpf(10) ** (-50)

    def test_inner_constant_rejected(self):
        with pytest.raises(NonzeroInnerConstant):
            series_compose(poly(1, 1), poly(1, 1))


small_coeff = st.integers(min_value=-8, max_value=8).map(lambda n: mpf(n) / 8)


class TestProperties:
    @given(st.lists(small_coeff, min_size=2, max_size=11))
    @settings(max_examples=40, deadline=None)
    def test_log_exp_roundtrip(self, cs):
        f = TaylorSeries(cs)
        back = series_log(series_exp(f))
        tol = mpf(10) ** (-(mp.mp.dps - 5))
        scale = max(1, max(abs(c) for c in cs))
        for n in range(len(cs)):
            assert abs(back[n] - f[n]) < tol * scale

    @given(st.lists(small_coeff, min_size=3, max_size=9),
           st.lists(small_coeff, min_size=3, max_size=9),
           st.lists(small_coeff, min_size=3, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_product_commutes_associates(self, a, b, c):
        fa, fb, fc = TaylorSeries(a), TaylorSeries(b), TaylorSeries(c)
        tol = mpf(10) ** (-(mp.mp.dps - 5))
        ab = fa * fb
        ba = fb * fa
        for x, y in zip(ab.coeffs, ba.coeffs):
            assert abs(x - y) < tol
        left = (fa * fb) * fc
        right = fa * (fb * fc)
        for x, y in zip(left.coeffs, right.coeffs):
            assert abs(x - y) < tol


class TestBiSeries:
    def test_triangular_exp(self):
        # exponent with b-degree 1 at order 1 only, like a*b/g
        k = 10
        coeffs = [(mpf(0),), (mpf(2), mpf(1))] + [(mpf(1) / (m * m),) for m in range(2, k + 1)]
        ex = BiSeries(coeffs).exp()
        for m in range(k + 1):
            assert ex.b_degree(m) == m, f"a^{m} coefficient must have b-degree {m}"

    def test_exp_matches_scalar_when_no_b(self):
        k = 8
        cs = [mpf(0), mpf(1), mpf(-1) / 2, mpf(1) / 3] + [mpf(0)] * (k - 3)
        bi = BiSeries([(c,) for c in cs]).exp()
        sc = series_exp(TaylorSeries(cs))
        for m in range(k + 1):
            assert abs(bi.poly(m)[0] - sc[m]) < mpf(10) ** (-50)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            BiSeries([(mpf(1),), (mpf(1),)]).exp()
