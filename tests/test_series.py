import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from conftest import assert_rel
from oracles import BiSeries, exp_series, series_compose
from xilab.errors import XilabError
from xilab.series import series_exp, series_log, series_mul


def poly(*cs):
    return tuple([mpf(str(c)) for c in cs])


class TestArithmetic:
    def test_difference_of_squares(self):
        assert series_mul(poly(1, 1, 0), poly(1, -1, 0)) == (mpf(1), mpf(0), mpf(-1))

    def test_exp_times_exp_minus(self):
        k = 6
        prod = series_mul(exp_series(1, k), exp_series(-1, k))
        assert prod[0] == 1
        for n in range(1, k + 1):
            assert abs(prod[n]) < mpf(10) ** (-50)

    def test_min_order_truncation(self):
        assert series_mul(poly(1, 2, 3), poly(1, 1)) == (mpf(1), mpf(3))
        assert series_mul(poly(1, 1), poly(1, 2, 3)) == (mpf(1), mpf(3))

    def test_returns_tuples_of_mpf(self):
        f = poly(1, 2, 3)
        for got in (series_mul(f, f), series_exp(f), series_log(f)):
            assert type(got) is tuple and len(got) == 3
            assert all(isinstance(c, mpf) for c in got)


class TestExpLog:
    def test_exp_zero(self):
        assert series_exp(poly(0, 0))[0] == 1

    def test_exp_x(self):
        got = series_exp(poly(0, 1, 0, 0, 0))
        want = [1, 1, mpf(1) / 2, mpf(1) / 6, mpf(1) / 24]
        for g, w in zip(got, want):
            assert_rel(g, w, "1e-55", "exp(x)")

    def test_exp_log_roundtrip_example(self):
        f = poly(0, 1, 0, 1, 0, 0)  # x + x^3
        back = series_log(series_exp(f))
        for n in range(6):
            assert abs(back[n] - f[n]) < mpf(10) ** (-50)

    def test_log_of_scaled_one(self):
        s = series_log((+mp.e, mpf(0), mpf(0)))
        assert_rel(s[0], 1, "1e-55", "log const")
        assert abs(s[1]) < mpf(10) ** (-55)

    def test_log_needs_positive_constant(self):
        with pytest.raises(XilabError, match="needs a positive constant term, got 0.0"):
            series_log(poly(0, 1))
        with pytest.raises(XilabError, match="needs a positive constant term, got -2.0"):
            series_log(poly(-2, 1))


class TestCompose:
    def test_affine(self):
        f = poly(1, 1)
        g = poly(0, 2)
        assert series_compose(f, g) == (mpf(1), mpf(2))

    def test_exp_of_2x(self):
        f = exp_series(1, 3)
        got = series_compose(f, poly(0, 2, 0, 0))
        want = [1, 2, 2, mpf(4) / 3]
        for g, w in zip(got, want):
            assert_rel(g, w, "1e-55", "exp(2x)")

    def test_cosh_through_identity(self):
        k = 8
        cosh = tuple([1 / mp.factorial(n) if n % 2 == 0 else mpf(0)
                      for n in range(k + 1)])
        got = series_compose(cosh, poly(0, 1, *[0] * (k - 1)))
        for n in range(k + 1):
            assert abs(got[n] - cosh[n]) < mpf(10) ** (-50)

    def test_inner_constant_rejected(self):
        with pytest.raises(ValueError):
            series_compose(poly(1, 1), poly(1, 1))


small_coeff = st.integers(min_value=-8, max_value=8).map(lambda n: mpf(n) / 8)


class TestProperties:
    @given(st.lists(small_coeff, min_size=2, max_size=11))
    @settings(max_examples=40, deadline=None)
    def test_log_exp_roundtrip(self, cs):
        f = tuple(cs)
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
        fa, fb, fc = tuple(a), tuple(b), tuple(c)
        tol = mpf(10) ** (-(mp.mp.dps - 5))
        ab = series_mul(fa, fb)
        ba = series_mul(fb, fa)
        assert len(ab) == len(ba) == min(len(a), len(b))
        for x, y in zip(ab, ba):
            assert abs(x - y) < tol
        left = series_mul(series_mul(fa, fb), fc)
        right = series_mul(fa, series_mul(fb, fc))
        assert len(left) == len(right) == min(len(a), len(b), len(c))
        for x, y in zip(left, right):
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
        sc = series_exp(tuple(cs))
        for m in range(k + 1):
            assert abs(bi.poly(m)[0] - sc[m]) < mpf(10) ** (-50)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            BiSeries([(mpf(1),), (mpf(1),)]).exp()
