import mpmath as mp
import numpy as np
import pytest
from mpmath import mpf

from conftest import assert_rel
from oracles import (differentiate, horner, phi_ramanujan, phi_riemann, u_eta_gamma,
                     u_eta_gamma_prime)
from xilab.errors import XilabError
from xilab.pipeline import ROWS, build_model, expand_spec
from xilab.potentials import (PotentialSpec, _phi_riemann_series,
                              _u_ramanujan_series, float64_u, taylor_u)


class TestRiemannKernel:
    def test_value_at_zero(self):
        kv = phi_riemann(0)
        # -log Phi(0) = 0.112728, i.e. Phi(0) = 0.8933938
        assert_rel(-mp.log(kv.phi), "0.112728", "1e-5", "a_0")
        assert_rel(kv.phi, "0.8933938", "1e-6", "Phi(0)")

    def test_second_term_size(self):
        # independent oracle: the n=2 term evaluated directly
        one = mpf(0)
        two = mpf(0)
        for n, acc in ((1, "one"), (2, "two")):
            t = (4 * mp.pi ** 2 * n ** 4 - 6 * mp.pi * n ** 2) * mp.exp(-mp.pi * n * n)
            if n == 1:
                one = t
            else:
                two = t
        want = (64 * mp.pi ** 2 - 24 * mp.pi) * mp.exp(-4 * mp.pi)
        assert abs(two - want) < mpf(10) ** (-30)
        assert_rel(two, "1.94e-3", "5e-3", "n=2 term")

    def test_difference_is_zero(self):
        x = mpf("0.3")
        assert phi_riemann(x).phi - phi_riemann(x).phi == 0

    def test_nonconvergence_error(self):
        with pytest.raises(XilabError, match="riemann kernel sum did not reach tolerance in 1 terms"):
            phi_riemann(0, max_terms=1, term_tolerance=mpf("1e-60"))

    def test_derivative_ratio_matches_u_prime(self):
        # -U'(x) = Phi'(x)/Phi(x), compared on the series side
        u = taylor_u(PotentialSpec(kind="riemann"), 10)
        du = differentiate(u)
        x = mpf("0.1")
        kv = phi_riemann(x)
        lhs = -horner(du, x)[0]
        rhs = kv.phi_prime / kv.phi
        # order-9 polynomial truncation of U' limits the match, not precision
        assert abs(lhs - rhs) < mpf("1e-8")


class TestRamanujanKernel:
    def test_constant(self):
        kv = phi_ramanujan(0)
        assert_rel(-mp.log(kv.phi), "6.32813", "1e-5", "a_0")

    def test_tail_limit(self):
        # all product factors -> 1 on the x -> -inf side, leaving
        # log Phi_L = -6x - 2 pi e^{-x}
        x = mpf(-40)
        kv = phi_ramanujan(x)
        assert abs(mp.log(kv.phi) + 6 * x + 2 * mp.pi * mp.exp(-x)) < mpf(10) ** (-40)

    def test_evenness_from_modularity(self):
        # the formula is manifestly asymmetric; equal values at +-x are a
        # genuine cross-check of the implementation
        a = phi_ramanujan(mpf("0.8")).phi
        b = phi_ramanujan(mpf("-0.8")).phi
        assert abs(a - b) / a < mpf(10) ** (-40)

    def test_degree8_truncation_against_point_value(self):
        u8 = taylor_u(PotentialSpec(kind="ramanujan"), 8)
        x = mpf("0.1")
        direct = -mp.log(phi_ramanujan(x).phi)
        # agreement to O(x^10): coefficient there is O(0.1), so ~1e-11
        assert abs(horner(u8, x)[0] - direct) < mpf("1e-9")


class TestEtaGamma:
    def test_point_values(self):
        assert_rel(u_eta_gamma(-mp.log(2)), 2, "1e-50", "U(-log 2)")
        want = mp.log(2) / 2 + mpf(1) / 2 + 1
        assert_rel(u_eta_gamma(0), want, "1e-50", "U(0)")

    def test_series_derivative_matches_closed_form(self):
        u = taylor_u(PotentialSpec(kind="eta_gamma"), 12)
        du = differentiate(u)
        # U'(x) = 1/2 - e^{-(x+log2)} = 1/2 - e^{-x}/2
        for n in range(12):
            want = (-1) ** (n + 1) / (2 * mp.factorial(n)) if n >= 1 else mpf(0)
            assert abs(du[n] - want) < mpf(10) ** (-50), f"degree {n}"
        x = mpf("0.2")
        assert abs(horner(du, x)[0] - u_eta_gamma_prime(x)) < mpf("1e-12")


class TestTaylorU:
    def test_riemann_low_orders(self):
        u = taylor_u(PotentialSpec(kind="riemann"), 8)
        assert_rel(u[0], "0.112728", "1e-5", "a_0")
        assert_rel(u[2], "9.3634", "1e-4", "a_2")
        assert_rel(u[4], "5.95896", "1e-5", "a_4")
        # the direct expansion's a_6/a_8 (the published row table differs there,
        # see the riemann-row note in pipeline.py)
        assert_rel(u[6], "-2.1510355", "1e-6", "a_6")
        assert_rel(u[8], "6.0543988", "1e-6", "a_8")

    def test_ramanujan_order8(self):
        u = taylor_u(PotentialSpec(kind="ramanujan"), 8)
        for n, want in ((0, "6.32813"), (2, "3.89463"), (4, "0.971962"),
                        (6, "-0.188291"), (8, "0.112629")):
            assert_rel(u[n], want, "1e-5", f"a_{n}")

    def test_ramanujan_against_taylor_oracle(self):
        # mp.taylor differentiates at raised precision, which needs more factors
        u = taylor_u(PotentialSpec(kind="ramanujan"), 8)
        want = mp.taylor(lambda x: -mp.log(phi_ramanujan(x, max_terms=1000).phi), 0, 8)
        tol = mpf("1e-55")
        for n in range(9):
            assert abs(u[n] - want[n]) < tol, f"a_{n}"
            if n % 2:  # U is even by modularity
                assert abs(u[n]) < tol, f"odd a_{n}"

    @pytest.mark.parametrize("order", [8, 20, 28])
    def test_ramanujan_high_orders_keep_the_working_digits(self, order):
        """The divisor sum stops on a bound that counts the (2 pi m)^k / k!
        growth of the k-th coefficient, and the alternating Stirling sum runs
        with guard digits: every even coefficient is within 1e-58 of the same
        series at 60 more digits. (A stop on 24 e^{-2 pi n} alone is 1.3e-46
        off at order 20 and 8.3e-39 at order 28.)"""
        spec = PotentialSpec(kind="ramanujan")
        u = taylor_u(spec, order)
        with mp.workdps(mp.mp.dps + 60):
            ref = taylor_u(spec, order)
        for n in range(0, order + 1, 2):
            assert abs(u[n] - ref[n]) <= mpf("1e-58") * abs(ref[n]), f"a_{n}"

    def test_cosh(self):
        u = taylor_u(PotentialSpec(kind="cosh"), 6)
        want = [1, 0, mpf(1) / 2, 0, mpf(1) / 24, 0, mpf(1) / 720]
        for n, w in enumerate(want):
            assert abs(u[n] - w) < mpf(10) ** (-55)

    def test_monomial_and_explicit(self):
        """Without couplings the explicit kind is the monomial x^{p+1}/(p+1)."""
        u = taylor_u(PotentialSpec(kind="explicit", p=7), 8)
        assert u[8] == mpf(1) / 8 and all(u[n] == 0 for n in range(8))
        e = taylor_u(PotentialSpec(kind="explicit", p=7, s=("1", "0", "3", "0", "3")), 8)
        assert e[2] == mpf(1) / 2 and e[4] == mpf(3) / 4 and e[6] == mpf(3) / 6
        assert e[8] == mpf(1) / 8

    @pytest.mark.parametrize("coupling", ["0.1", 0.1], ids=["str", "float"])
    def test_couplings_converted_at_the_expansion_precision(self, coupling):
        with mp.workdps(15):
            spec = PotentialSpec(kind="explicit", p=5, s=(coupling,))
        u = taylor_u(spec, 6)  # at the 60 digits every test runs at
        assert abs(u[2] - mpf("0.05")) < mpf("1e-61")

    def test_even_kernels_have_vanishing_odd_coefficients(self):
        tol = mpf(10) ** (-(mp.mp.dps // 2))
        for kind in ("riemann", "ramanujan"):
            u = taylor_u(PotentialSpec(kind=kind), 9)
            for n in (1, 3, 5, 7, 9):
                assert abs(u[n]) < tol, f"{kind} odd a_{n}"

    def test_tail_term_below_tolerance(self):
        """The kernel sums stop only once what they leave out is below tol:
        every coefficient agrees to tol with the same sum run to a 1e-20
        smaller tol at 30 more digits, for stops that fire at different
        terms."""
        for series in (_phi_riemann_series, _u_ramanujan_series):
            for order, decades in ((8, 10), (8, 40), (20, 25)):
                with mp.workdps(60):
                    tol = mpf(10) ** -decades
                    got = series(order, tol)
                with mp.workdps(90):
                    ref = series(order, tol * mpf(10) ** -20)
                    err = max(abs(a - b) for a, b in zip(got, ref))
                assert err < tol, (series.__name__, order, decades, err)

    def test_ramanujan_sum_sets_its_own_length(self):
        """At 300 digits the order-8 divisor sum needs 121 terms; it works that
        count out from its bound, and every coefficient agrees with a
        340-digit expansion."""
        with mp.workdps(300):
            u = taylor_u(PotentialSpec(kind="ramanujan"), 8)
        with mp.workdps(340):
            ref = taylor_u(PotentialSpec(kind="ramanujan"), 8)
            scale = max(abs(c) for c in ref)
            assert max(abs(a - b) for a, b in zip(u, ref)) < mpf("1e-295") * scale

    @pytest.mark.parametrize("spec", [
        PotentialSpec(kind="riemann"), PotentialSpec(kind="ramanujan"),
        PotentialSpec(kind="eta_gamma"), PotentialSpec(kind="cosh"),
        pytest.param(PotentialSpec(kind="explicit", p=7), id="monomial"),
        PotentialSpec(kind="explicit", p=7, s=("1", "0", "2"))], ids=lambda s: s.kind)
    def test_coefficient_tuples(self, spec):
        """taylor_u and expand_spec give a plain tuple of order + 1 mpf."""
        for got in (taylor_u(spec, 8), expand_spec(spec, 7)[0]):
            assert type(got) is tuple and len(got) == 9
            assert all(type(c) is mpf for c in got)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            taylor_u(PotentialSpec(kind="cosh"), 1)


class TestSpecConfig:
    @pytest.mark.parametrize("coupling", ["nan", "inf", "-inf", float("nan"), float("inf")])
    def test_non_finite_coupling_rejected(self, coupling):
        with pytest.raises(ValueError, match="not finite"):
            PotentialSpec(kind="explicit", p=5, s=("1", coupling))

    def test_explicit_spec_is_its_own_degree(self):
        """A degree-5 build of a p = 7 spec returned a model whose leading
        term was the x^6 coupling; any p but the spec's is a config error."""
        spec = PotentialSpec(kind="explicit", p=7, s=("1", "0", "3", "0", "3"))
        for p in (5, 8):
            with pytest.raises(ValueError, match=f"degree-7 model, not degree {p}"):
                build_model(spec, p, 16)
            with pytest.raises(ValueError, match=f"degree-7 model, not degree {p}"):
                expand_spec(spec, p)
        assert build_model(spec, 7, 16).s == tuple(mpf(v) for v in spec.s)

    def test_explicit_normal_form(self):
        """The explicit kind's couplings are its s, padded with zeros to p - 2,
        at lambda = 1: no rescale divides a coupling by n and multiplies it
        back, and no rounding-dust test judges the exact leading 1/(p+1)."""
        _, scaled = expand_spec(PotentialSpec(kind="explicit", p=5, s=("0.1", "1e30")), 5)
        assert scaled.s == (mpf("0.1"), mpf("1e30"), 0) and scaled.lam == 1
        assert expand_spec(PotentialSpec(kind="explicit", p=2), 2)[1].s == ()


#: a spec of every kind with a float64 view, and every report row's spec that has one
VIEWED_SPECS = {"cosh": PotentialSpec("cosh"), "eta_gamma": PotentialSpec("eta_gamma"),
                "explicit": PotentialSpec("explicit", p=5, s=("0.3", "-2", "0.7")),
                **{f"row {r.id}": r.potential for r in ROWS.values()
                   if isinstance(r.potential, PotentialSpec)
                   and r.potential.kind not in ("riemann", "ramanujan")}}


class TestFloat64View:
    @pytest.mark.parametrize("spec", VIEWED_SPECS.values(), ids=VIEWED_SPECS.keys())
    def test_matches_taylor_u_near_zero(self, spec):
        """An explicit U is taylor_u's polynomial, bit for bit; cosh and
        eta_gamma agree with their order-16 Taylor polynomial to 1e-14 for
        |x| <= 0.1. Even exactly when taylor_u's odd coefficients vanish."""
        u, even = float64_u(spec)
        xs = np.linspace(-0.1, 0.1, 41)
        if spec.kind == "explicit":
            c = taylor_u(spec, spec.p + 1)
            assert u(xs).tobytes() == np.polyval([float(v) for v in c[::-1]], xs).tobytes()
        else:
            c = taylor_u(spec, 16)
            for x, got in zip(xs, u(xs)):
                assert_rel(got, mp.polyval(c[::-1], mpf(x)), "1e-14", f"U({x})")
        assert even == all(v == 0 for v in c[1::2])

    @pytest.mark.parametrize("spec", [
        PotentialSpec("explicit", p=7, s=("0.1", "0.3", "1/3", "1e-30", "0.7")),
        PotentialSpec("cosh"), PotentialSpec("eta_gamma")], ids=lambda s: s.kind)
    def test_same_bits_at_any_working_precision(self, spec):
        # float(mpf("0.3") / 3) is 0.09999999999999999 at 15 digits, 0.1 at 60
        xs = np.linspace(-3, 3, 61)
        views = []
        for dps in (15, 60):
            with mp.workdps(dps):
                u, even = float64_u(spec)
                views.append((u(xs).tobytes(), even))
        assert views[0] == views[1]

    @pytest.mark.parametrize("kind", ["riemann", "ramanujan"])
    def test_kernels_without_a_closed_form_raise(self, kind):
        with pytest.raises(ValueError, match=f"the {kind} potential has no float64 closed form"):
            float64_u(PotentialSpec(kind))
