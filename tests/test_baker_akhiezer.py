import functools

import mpmath as mp
import numpy as np
import pytest
from mpmath import mpf

from oracles import (bisect_zero, coefficient, full_grid_minima, full_grid_zeros,
                     scaled_ba_function, symmetric_grid_psi)
from xilab import baker_akhiezer as ba
from xilab.baker_akhiezer import (BISECT_TOL, BAFunction, QUADRATURE_INTEGRANDS,
                                  TAIL_DECADES, Z_MAX, magnitude_minima, psi_zeros,
                                  quadrature_zeros, reference_table, refine_zero)
from xilab.errors import XilabError

EVEN_INTEGRANDS = ("bessel_k", "gen_airy", "gen_airy_m130", "gen_airy_133")


@pytest.fixture(scope="module")
def cosh_f():
    return BAFunction.from_callable(np.cosh, name="bessel_k")


@pytest.fixture(scope="module")
def mono8_f():
    return BAFunction.from_poly([0, 0, 0, 0, 0, 0, 0, 0, 1 / 8], name="gen_airy")


@functools.lru_cache(maxsize=None)
def _integrand(fid):
    return QUADRATURE_INTEGRANDS[fid]()


class TestPsi:
    def test_bessel_values(self, cosh_f):
        # psi(z) = 2 K_{iz}(1); cross-checked against an independent evaluation
        for z in (0.5, 2.0, 3.7):
            want = 2 * mp.besselk(1j * z, 1).real
            got = cosh_f.psi(z).real
            assert abs(got - float(want)) < 1e-12 * max(1.0, abs(float(want)))

    def test_even_moment_closed_form(self, mono8_f):
        # psi(0) = 2 Gamma(1/8) 8^{1/8 - 1}
        want = float(2 * mp.gamma(mpf(1) / 8) * mpf(8) ** (mpf(1) / 8 - 1))
        assert abs(mono8_f.psi(0.0).real - want) < 1e-13

    def test_midpoint_rule_oracle(self, mono8_f):
        # crude independent quadrature at low accuracy
        xs = np.linspace(-mono8_f.x_max, mono8_f.x_max, 400001)
        h = xs[1] - xs[0]
        z = 1.3
        vals = np.exp(-xs ** 8 / 8) * np.cos(z * xs)
        approx = float(np.sum(vals) * h)
        assert abs(mono8_f.psi(z).real - approx) < 1e-8

    def test_symmetry(self, cosh_f):
        for z in (0.7, 4.1):
            assert cosh_f.psi(z) == cosh_f.psi(-z)

    def test_imaginary_part_zeroed(self, cosh_f):
        assert cosh_f.psi(2.5).imag == 0.0

    def test_bessel_aliasing_oracle(self, cosh_f):
        # psi(z) = 2 K_{iz}(1) across the whole band: the trapezoid sum
        # aliases psi(z -+ 2 pi/h) onto psi(z), worst at the band edge
        scale = cosh_f.psi(0.0).real
        for z in (0.5, 2.0, 3.7, 10.0, 25.0, 50.0, Z_MAX):
            want = float((2 * mp.besselk(1j * z, 1)).real)
            assert abs(cosh_f.psi(z).real - want) < 1e-13 * scale

    @pytest.mark.parametrize("fid", ["gen_airy", "gen_airy_m130", "gen_airy_133"])
    def test_gen_airy_quad_oracle(self, fid):
        # psi(z) = 2 int_0^inf e^{-U} cos(zx) dx by mp.quad at 30 digits, at
        # 0, the first and third published zero, and 30; e^{-U(3)} < 1e-200
        f = QUADRATURE_INTEGRANDS[fid]()
        cs = {"gen_airy": ba._GEN_AIRY, "gen_airy_m130": ba._GEN_AIRY_M130,
              "gen_airy_133": ba._GEN_AIRY_133}[fid]
        zeros = reference_table(fid)
        scale = f.psi(0.0).real
        for z in (0.0, zeros[0], zeros[2], 30.0):
            with mp.workdps(30):
                want = 2 * mp.quad(lambda x: mp.exp(-mp.polyval(cs[::-1], x))
                                   * mp.cos(z * x), mp.linspace(0, 3, 31))
            assert abs(f.psi(z).real - float(want)) < 1e-13 * scale

    def test_from_scaled_potential_wires_coefficients(self):
        from xilab.scaling import cosh_couplings
        sp = cosh_couplings(7)
        via_scaled = scaled_ba_function(sp)
        cs = [0.0] * 9
        for n in range(2, 8):
            cs[n] = float(coefficient(sp, n))
        cs[8] = 1.0 / 8
        via_poly = BAFunction.from_poly(cs, name="manual")
        assert np.array_equal(via_scaled.xs, via_poly.xs)
        assert np.array_equal(via_scaled.env, via_poly.env)
        # truncated-potential zeros sit near the full-kernel zeros over lambda
        zs = psi_zeros(via_scaled, 1)
        lam = float(sp.lam)
        assert abs(zs[0] * lam - 2.96255) < 0.2

    def test_tail_invariant(self):
        # envelope at each cutoff is below 10^-TAIL_DECADES of its value at 0;
        # the nodes reach both cutoffs, an even U's folded onto x >= 0
        for make in QUADRATURE_INTEGRANDS.values():
            f = make()
            u0 = f.u(np.array([0.0]))[0]
            for x in (f.x_min, f.x_max):
                tail = np.exp(-f.u(np.array([x]))[0])
                assert tail <= 10.0 ** -TAIL_DECADES * 1e3 * np.exp(-u0)
            assert f.xs[-1] >= f.x_max
            if f.even:
                assert f.xs[0] == 0.0 and f.x_min == -f.x_max
            else:
                assert f.xs[0] <= f.x_min

    def test_uniform_nodes(self, cosh_f):
        # nodes k h, k = 0..K for an even U; weights h e^{-U}, doubled at
        # k >= 1 for the node -k h folded onto k h
        k = np.round(cosh_f.xs / cosh_f.h)
        assert np.array_equal(cosh_f.xs, k * cosh_f.h)
        assert np.array_equal(k, np.arange(len(k)))
        weights = np.where(k == 0, 1.0, 2.0) * cosh_f.h * np.exp(-np.cosh(cosh_f.xs))
        assert np.allclose(cosh_f.env, weights, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("fid", EVEN_INTEGRANDS)
    def test_folded_even_grid_matches_full_grid(self, fid):
        """The cosine sum on the folded nodes is the sum on the full
        symmetric node set, to rounding, on the zero-scan grid."""
        f = _integrand(fid)
        zs = np.arange(ba.SCAN_START, Z_MAX, ba.ZERO_SCAN_STEP)
        want = symmetric_grid_psi(f, zs)
        got = f.psi_grid(zs)
        assert np.all(got.imag == 0.0)
        assert np.max(np.abs(got.real - want)) <= 1e-15 * abs(f.psi(0.0))

    @pytest.mark.parametrize("fid, h", [("bessel_k", 0.025), ("gen_airy", 0.0125),
                                        ("gen_airy_m130", 0.0125),
                                        ("gen_airy_133", 0.0125),
                                        ("eta_gamma", 0.025),
                                        ("eta_gamma_corrected", 0.025)])
    def test_step(self, fid, h):
        # folding the even grids leaves the halving where it stopped
        assert _integrand(fid).h == h

    @pytest.mark.parametrize("fid", EVEN_INTEGRANDS)
    def test_no_ambient_precision(self, fid):
        # nodes, weights and zeros depend on U alone, not on mp.dps
        runs = []
        for dps in (15, 60, 100):
            with mp.workdps(dps):
                f = QUADRATURE_INTEGRANDS[fid]()
                runs.append((len(f.xs), f.env, quadrature_zeros(fid)))
        for n, env, zeros in runs[1:]:
            assert n == runs[0][0]
            assert np.array_equal(env, runs[0][1])
            assert zeros == runs[0][2]

    def test_eta_gamma_corrected_direct_sum(self):
        # an independent fine trapezoid sum: h = 0.02 on [-8, 320], where
        # e^{-U} is below 1e-600 and 1e-69; exact to rounding for z <= 26
        f = QUADRATURE_INTEGRANDS["eta_gamma_corrected"]()
        zs = np.arange(0.0, 26.0 + 1e-9, 0.02)
        x = np.arange(-8.0, 320.0, 0.02)
        w = 0.02 * np.exp(-ba._u_eta_gamma_corrected_f64(x))
        want = np.concatenate([np.exp(1j * np.outer(zs[i:i + 50], x)) @ w
                               for i in range(0, len(zs), 50)])
        got = f.psi_grid(zs)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_band_limit(self, cosh_f):
        # beyond Z_MAX the sum aliases, so psi refuses instead of answering
        for bad in (Z_MAX + 1, -Z_MAX - 1):
            with pytest.raises(ValueError, match="band"):
                cosh_f.psi(bad)
            with pytest.raises(ValueError, match="band"):
                cosh_f.psi_grid([0.0, bad])
        assert cosh_f.psi(Z_MAX) == cosh_f.psi(-Z_MAX)

    @pytest.mark.parametrize("fid", sorted(QUADRATURE_INTEGRANDS))
    def test_value_depends_on_z_alone(self, fid):
        """psi at a z is the same bits from a single-z call (a bisection
        step) and from any grid it is summed in (a scan, the psi command):
        the zero-scan grid spans several kernel row blocks of every
        integrand, and is summed whole and in blocks of 1, 7 and 4096 rows."""
        f = _integrand(fid)
        zs = np.arange(ba.SCAN_START, Z_MAX, ba.ZERO_SCAN_STEP)
        whole = f.psi_grid(zs)
        assert [f.psi(z) for z in zs] == whole.tolist()
        for rows in (1, 7, 4096):
            parts = [f.psi_grid(zs[i:i + rows]) for i in range(0, len(zs), rows)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), rows

    def test_unresolvable_step_raises(self, monkeypatch):
        # the halvings are bounded: at h = 0.05 the sums at z = 80 still move
        # (the h = 0.1 sum aliases psi(17.2) ~ 1e-12), so two halvings raise
        monkeypatch.setattr(ba, "MAX_HALVINGS", 2)
        with pytest.raises(XilabError, match="trapezoid sums for bessel_k still differ"):
            BAFunction.from_callable(np.cosh, name="bessel_k")


class TestZeros:
    def test_bessel_zeros(self, cosh_f):
        got = psi_zeros(cosh_f, 3)
        for z, want in zip(got, (2.96255, 4.53449, 5.87987)):
            assert abs(z - want) < 1e-3

    def test_gen_airy_zeros(self, mono8_f):
        got = psi_zeros(mono8_f, 3)
        for z, want in zip(got, (2.56503, 5.08746, 7.53357)):
            assert abs(z - want) < 1e-3

    @pytest.mark.parametrize("fid", ["gen_airy_m130", "gen_airy_133"])
    def test_reference_rows_by_quadrature(self, fid):
        got = quadrature_zeros(fid, 3)
        want = reference_table(fid)
        for z, w in zip(got, want):
            assert abs(z - w) < 1e-3

    def test_zeros_are_simple_sign_changes(self, cosh_f):
        zs = psi_zeros(cosh_f, 3)
        for z in zs:
            lo = cosh_f.psi(z - 1e-6).real
            hi = cosh_f.psi(z + 1e-6).real
            assert lo * hi < 0

    def test_only_real_zeros_found_for_cosh(self, cosh_f):
        # the potential's derivative at imaginary argument has only real
        # zeros (sinh(iu)/i = sin u); consistent with a clean real-zero scan
        u = np.linspace(0.1, 9.0, 2000)
        vals = np.sin(u)
        got = psi_zeros(cosh_f, 3)
        assert len(got) == 3
        assert np.sign(vals[0]) > 0  # sin is real on the scan window

    def test_exhausted_window_raises(self):
        with pytest.raises(XilabError, match="found 18 of 50 zeros"):
            quadrature_zeros("bessel_k", 50)

    def test_scan_stops_at_the_noise_floor(self, cosh_f):
        """K_iz(1) decays like e^{-pi z/2}: past z ~ 21 its float64 sum is
        rounding noise with hundreds of sign changes, none of them a zero.
        The scan returns the 18 zeros above the floor however many are asked
        for; quadrature_zeros raises for more."""
        zs = psi_zeros(cosh_f, 18)
        assert 20 < zs[-1] < 21
        assert psi_zeros(cosh_f, 40) == zs
        with pytest.raises(XilabError, match="found 18 of 40"):
            quadrature_zeros("bessel_k", 40)

    @pytest.mark.parametrize("fid, count", [(fid, c) for fid in EVEN_INTEGRANDS
                                             for c in (1, 2, 3)]
                             + [("bessel_k", c) for c in range(4, 19)])
    def test_lazy_scan_matches_full_grid_zeros(self, fid, count):
        """Summing psi only as far as the scan reads finds the same zeros,
        to the bit, as summing the whole grid first."""
        f = _integrand(fid)
        assert psi_zeros(f, count) == full_grid_zeros(f, count)

    @pytest.mark.parametrize("fid, count", [(fid, c) for fid in EVEN_INTEGRANDS
                                             for c in (1, 2, 3)]
                             + [("eta_gamma_corrected", 1), ("eta_gamma_corrected", 2),
                                ("eta_gamma", 1)])
    def test_lazy_scan_matches_full_grid_minima(self, fid, count):
        f = _integrand(fid)
        assert magnitude_minima(f, count) == full_grid_minima(f, count)

    def test_scan_sums_only_what_it_reads(self, monkeypatch):
        """The first three bessel_k zeros lie below z = 6, so the scan sums
        psi on under a quarter of its 1600 grid points (the single-z sums
        are psi(0) and the bisection steps)."""
        f = _integrand("bessel_k")
        rows = []
        psi_grid = BAFunction.psi_grid

        def counted(self, zs):
            rows.append(len(zs))
            return psi_grid(self, zs)

        monkeypatch.setattr(BAFunction, "psi_grid", counted)
        psi_zeros(f, 3)
        assert len(np.arange(ba.SCAN_START, Z_MAX, ba.ZERO_SCAN_STEP)) == 1600
        assert 0 < sum(n for n in rows if n > 1) < 1600 / 4

    @pytest.mark.parametrize("fid", EVEN_INTEGRANDS)
    def test_refinement_sums_per_zero(self, fid, monkeypatch):
        """ITP refines the first three zeros in at most 30 single-z sums,
        psi(0) included, where bisection took 3 x 29 + 1 = 88."""
        calls = []
        psi = BAFunction.psi

        def counted(self, z):
            calls.append(z)
            return psi(self, z)

        monkeypatch.setattr(BAFunction, "psi", counted)
        quadrature_zeros(fid, 3)
        assert len(calls) <= 30

    @pytest.mark.parametrize("fid", EVEN_INTEGRANDS)
    def test_refined_zeros_match_bisection(self, fid):
        f = _integrand(fid)
        got = psi_zeros(f, 5)
        want = full_grid_zeros(f, 5, refine=bisect_zero)
        assert len(got) == len(want) == 5
        assert all(abs(z - w) <= BISECT_TOL for z, w in zip(got, want))

    @pytest.mark.parametrize("side", ["near_b", "near_a"])
    def test_refinement_of_a_triple_root(self, side):
        """A triple root 1e-10 from an end of a 0.05 bracket: the regula falsi
        point crawls there, and ITP's projection keeps the sums at most two
        above bisection's 29 (ITP_N0, and one for the rounding of the last
        step)."""
        a, b = 2.0, 2.05
        root = b - 1e-10 if side == "near_b" else a + 1e-10
        calls = []

        def g(z):
            calls.append(z)
            return (z - root) ** 3

        z = refine_zero(g, a, b, (a - root) ** 3, (b - root) ** 3)
        assert abs(z - root) <= BISECT_TOL
        assert len(calls) <= 31
        assert all(a < c < b for c in calls)

    def test_refinement_at_a_zero_end(self):
        # psi exactly 0 at the bracket's right end: the zero is that end
        z = refine_zero(lambda z: z - 1.0, 0.5, 1.0, -0.5, 0.0)
        assert abs(z - 1.0) <= BISECT_TOL

    def test_no_dips_asked_none_returned(self):
        f = QUADRATURE_INTEGRANDS["eta_gamma_corrected"]()
        assert magnitude_minima(f, 0) == []
        assert psi_zeros(QUADRATURE_INTEGRANDS["bessel_k"](), 0) == ()

    def test_magnitude_minima_finds_dips(self):
        # even case: |psi| dips at the real zeros
        f = QUADRATURE_INTEGRANDS["bessel_k"]()
        dips = magnitude_minima(f, 2)
        assert abs(dips[0] - 2.96255) < 5e-2

    def test_corrected_gamma_eta_dips_at_zeta_zeros(self):
        f = QUADRATURE_INTEGRANDS["eta_gamma_corrected"]()
        dips = magnitude_minima(f, 2)
        assert abs(dips[0] - 14.1347) < 5e-2
        assert abs(dips[1] - 21.022) < 5e-2

    def test_row_gamma_kernel_is_dip_free(self):
        # the catalogued row potential transforms to a zero-free Gamma kernel
        f = QUADRATURE_INTEGRANDS["eta_gamma"]()
        assert magnitude_minima(f, 1) == []


class TestReferenceTable:
    def test_known_ids(self):
        assert reference_table("riemann") == (14.1347, 21.022, 25.0109)
        assert reference_table("ramanujan") == (9.22238, 13.90755, 17.442777)
        assert reference_table("airy") == (-2.33811, -4.08795, -5.52056)
        assert reference_table("gen_airy")[0] == 2.56503

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="no reference zeros for 'nope'"):
            reference_table("nope")

    def test_provenance(self):
        # a reference row is the published table as catalogued, never a
        # recomputation; quadrature zeros are computed and agree with it only
        # to the table's digits
        assert reference_table("riemann") is ba.REFERENCE_TABLE["riemann"]
        got = quadrature_zeros("bessel_k")
        want = reference_table("bessel_k")
        assert got != want
        assert all(abs(z - w) < 1e-3 for z, w in zip(got, want))
