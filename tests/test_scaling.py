import mpmath as mp
import pytest
from mpmath import mpf

from conftest import assert_rel
from oracles import coefficient, coupling, u_series
from xilab.errors import XilabError
from xilab.pipeline import RIEMANN_ROW_U
from xilab.potentials import PotentialSpec, taylor_u
from xilab.scaling import (cosh_couplings, double_scaling, rescale_potential)


def riemann_row_series():
    return tuple([mpf(c) for c in RIEMANN_ROW_U])


class TestRescale:
    def test_riemann_row_couplings(self):
        sp = rescale_potential(riemann_row_series(), 7)
        assert_rel(coupling(sp, 1), "8.12192", "1e-5", "s_1")
        assert_rel(coupling(sp, 3), "4.48349", "1e-5", "s_3")
        assert_rel(coupling(sp, 5), "-1.02395", "1e-5", "s_5")
        assert coupling(sp, 2) == 0 and coupling(sp, 4) == 0

    def test_ramanujan_couplings(self):
        u = taylor_u(PotentialSpec(kind="ramanujan"), 8)
        sp = rescale_potential(u, 7)
        assert_rel(coupling(sp, 1), "7.99487", "1e-4", "s_1")
        assert_rel(coupling(sp, 3), "4.0958", "1e-4", "s_3")
        assert_rel(coupling(sp, 5), "-1.22159", "1e-4", "s_5")

    def test_monomial_is_fixed_point(self):
        u = taylor_u(PotentialSpec(kind="explicit", p=7), 8)
        sp = rescale_potential(u, 7)
        assert sp.lam == 1
        assert all(v == 0 for v in sp.s)

    def test_roundtrip_identity(self):
        sp = rescale_potential(riemann_row_series(), 7)
        again = rescale_potential(u_series(sp), 7)
        assert_rel(again.lam, 1, "1e-50", "lambda")
        for k in range(1, 6):
            assert abs(coupling(again, k) - coupling(sp, k)) < mpf(10) ** (-45)

    def test_substitution_invariance(self):
        # substituting x -> t x multiplies a_n by t^n and leaves couplings fixed
        u = riemann_row_series()
        t = mpf("1.7")
        scaled_u = tuple([c * t ** n for n, c in enumerate(u)])
        a = rescale_potential(u, 7)
        b = rescale_potential(scaled_u, 7)
        for k in range(1, 6):
            assert abs(coupling(a, k) - coupling(b, k)) < mpf(10) ** (-45)

    def test_needs_positive_top(self):
        """A negative top coefficient is a config error naming --p, as a
        vanishing one is."""
        with pytest.raises(ValueError, match="x\\^8 coefficient is not positive.*--p"):
            rescale_potential(tuple([mpf(1)] * 8 + [mpf(-1)]), 7)

    @pytest.mark.parametrize("dps, spec, p", [
        (60, PotentialSpec(kind="riemann"), 4),
        (60, PotentialSpec(kind="ramanujan"), 2),
        (15, PotentialSpec(kind="riemann"), 28),
        (60, PotentialSpec(kind="explicit", p=7), 5)])
    def test_vanishing_top_is_a_config_error(self, dps, spec, p):
        """An odd coefficient of an even kernel is rounding dust, or exactly 0."""
        with mp.workdps(dps):
            u = taylor_u(spec, p + 1)
            with pytest.raises(ValueError, match=f"x\\^{p + 1} coefficient vanishes.*--p"):
                rescale_potential(u, p)

    def test_small_top_is_kept(self):
        """eta_gamma's x^20 coefficient, 1/(2 * 20!) ~ 2e-19, is no dust at 15 digits."""
        with mp.workdps(15):
            u = taylor_u(PotentialSpec(kind="eta_gamma"), 20)
            assert len(rescale_potential(u, 19, couplings_through=19).s) == 18

    def test_needs_the_top_degree(self):
        with pytest.raises(ValueError, match="through order 8, have 7"):
            rescale_potential(tuple([mpf(1)] * 8), 7)

    def test_even_kernel_residuals_small(self):
        """The degrees the normal form drops are dust: an even kernel's odd
        coefficients through x^p, relative to the largest coefficient."""
        for kind in ("ramanujan", "riemann", "cosh"):
            u = taylor_u(PotentialSpec(kind=kind), 8)
            bound = mpf(10) ** (-(mp.mp.dps // 2)) * max(abs(c) for c in u)
            assert all(abs(u[n]) < bound for n in range(1, 8, 2)), kind

    def test_eta_gamma_extended_couplings(self):
        u = taylor_u(PotentialSpec(kind="eta_gamma"), 20)
        sp = rescale_potential(u, 19, couplings_through=19)
        assert len(sp.s) == 18
        # published list is in raw-coefficient normalization s_k/(k+1)
        printed = ["13.6947", "-33.7861", "62.5149", "-92.538", "114.15",
                   "-120.693", "111.66", "-91.8254", "67.9625", "-45.7281",
                   "28.2038", "-16.0572", "8.48885", "-4.18855", "1.93754",
                   "-0.843543", "0.34685", "-0.135112"]
        for k, want in enumerate(printed, start=1):
            assert_rel(coefficient(sp, k + 1), want, "1e-4", f"coefficient x^{k+1}")


class TestCoshCouplings:
    def test_p7_values(self):
        sp = cosh_couplings(7)
        assert_rel(coupling(sp, 1), "8.42573", "1e-5", "s_1")
        assert_rel(coupling(sp, 3), "11.8322", "1e-5", "s_3")
        assert_rel(coupling(sp, 5), "4.98473", "1e-5", "s_5")
        assert coupling(sp, 2) == 0 and coupling(sp, 4) == 0

    def test_direct_formula(self):
        sp = cosh_couplings(7)
        assert abs(coupling(sp, 1) - mp.factorial(7) ** mpf("0.25")) < mpf(10) ** (-50)

    def test_matches_taylor_rescale(self):
        u = taylor_u(PotentialSpec(kind="cosh"), 8)
        sp = rescale_potential(u, 7)
        cf = cosh_couplings(7)
        for k in range(1, 6):
            assert abs(coupling(sp, k) - coupling(cf, k)) < mpf(10) ** (-45)

    def test_top_coupling_identity(self):
        # s_{p-2} (p-2)! (p!)^{-(p-1)/(p+1)} = 1 for every odd p
        for p in (5, 7, 9, 11):
            sp = cosh_couplings(p)
            val = coupling(sp, p - 2) * mp.factorial(p - 2) \
                * mp.factorial(p) ** (-mpf(p - 1) / (p + 1))
            assert_rel(val, 1, "1e-45", f"p={p}")

    def test_needs_odd_p(self):
        with pytest.raises(ValueError):
            cosh_couplings(6)


class TestDoubleScaling:
    def test_epsilon_identity(self):
        for p, N in ((2, 16), (7, 16), (19, 16), (7, 5)):
            params = double_scaling(p, N, ())
            assert abs(params.epsilon ** (p + 1) * N - 1) < mpf(10) ** (-50)

    def test_p2_plain(self):
        params = double_scaling(2, 16, ())
        assert params.g == mpf(1) / 16

    def test_p7_empty_couplings(self):
        params = double_scaling(7, 16, ())
        assert params.g == mpf(1) / 16
        assert abs(params.epsilon - mpf(16) ** (-mpf(1) / 8)) < mpf(10) ** (-55)

    def test_riemann_corrected_g(self):
        sp = rescale_potential(riemann_row_series(), 7)
        params = double_scaling(7, 16, sp.s)
        # (1/16)(1 + s_1/8 + s_3/4 + s_5/2)
        assert_rel(params.g, "0.16400865", "1e-5", "g")

    def test_g_override(self):
        params = double_scaling(7, 16, (), g_override="0.25")
        assert params.g == mpf("0.25")

    def test_nonpositive_g_raises(self):
        with pytest.raises(XilabError, match="<= 0; couplings leave the model's domain"):
            double_scaling(3, 16, ("-5", "0"))
