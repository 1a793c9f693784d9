import mpmath as mp
import pytest
from mpmath import mpf

from conftest import assert_rel
from xilab.baker_akhiezer import ReferenceZeros
from xilab.calibration import estimate_zeros, fit_linear
from xilab.errors import ComplexAnchor, DegenerateFit, MissingPipeline
from xilab.pipeline import ROW_IDS, build_table1


class TestFitLinear:
    def test_identity_fit(self):
        ref = ReferenceZeros("t", (0.0, 1.0), "published-table")
        cal = fit_linear([mpf(0), mpf(1)], ref)
        assert cal.A == 1 and cal.c == 0

    def test_riemann(self, rows):
        cal = rows("riemann").calibration
        assert_rel(cal.A, "2.20867", "1e-3", "A")
        assert_rel(cal.c, "64.5702", "1e-3", "c")

    def test_ramanujan(self, rows):
        cal = rows("ramanujan").calibration
        assert_rel(cal.A, "1.52532", "1e-3", "A")
        assert_rel(cal.c, "42.3072", "1e-3", "c")

    def test_cosh(self, rows):
        cal = rows("bessel_k").calibration
        assert_rel(cal.A, "0.193542", "1e-3", "A")
        assert_rel(cal.c, "16.0687", "1e-3", "c")

    def test_degenerate(self):
        ref = ReferenceZeros("t", (0.0, 1.0), "published-table")
        with pytest.raises(DegenerateFit):
            fit_linear([mpf(2), mpf(2)], ref)

    def test_complex_anchor(self):
        ref = ReferenceZeros("t", (0.0, 1.0), "published-table")
        with pytest.raises(ComplexAnchor):
            fit_linear([mp.mpc(1, 1), mpf(2)], ref)


class TestEstimateZeros:
    def test_first_two_exact(self, rows):
        for rid in ("riemann", "ramanujan", "bessel_k"):
            res = rows(rid)
            for got, want in zip(res.estimated_zeros[:2], res.reference.zeros[:2]):
                assert_rel(got, want, "1e-12", f"{rid} anchored zero")

    def test_riemann_third(self, rows):
        assert_rel(rows("riemann").estimated_zeros[2], "26.5505", "1e-4", "z3")

    def test_cosh_third(self, rows):
        assert_rel(rows("bessel_k").estimated_zeros[2], "5.80583", "1e-4", "z3")

    def test_eta_gamma_third(self, rows):
        assert_rel(rows("eta_gamma").estimated_zeros[2], "26.527", "1e-4", "z3")

    def test_affine_equivariance(self):
        ref = ReferenceZeros("t", (3.0, 5.0, 9.0), "published-table")
        roots = [mpf("-4"), mpf("-2"), mpf("1.5")]
        base = estimate_zeros(fit_linear(roots, ref), roots)
        lam, mu = mpf("2.5"), mpf("-7")
        moved = [lam * r + mu for r in roots]
        shifted = estimate_zeros(fit_linear(moved, ref), moved)
        for a, b in zip(base, shifted):
            assert abs(a - b) < mpf("1e-45")


class TestAiryRow:
    def test_fixed_map(self, rows):
        res = rows("airy")
        cal = res.calibration
        A = 8 * mpf(2) ** (mpf(1) / 6)
        assert abs(cal.A - A) < mpf("1e-50")
        for got, want in zip(res.estimated_zeros[:3],
                             ("-2.17335", "-4.01259", "-5.56709")):
            assert_rel(got, want, "1e-4", "mapped root")

    def test_third_vs_exact_gap(self, rows):
        res = rows("airy")
        gap = abs(res.estimated_zeros[2] - mpf("-5.52056"))
        assert_rel(gap, "0.0465", "0.03", "airy z3 gap")


class TestTable:
    def test_flags(self, rows):
        assert rows("riemann").table_row.on_critical_line is False
        assert rows("riemann").table_row.n_complex_pairs == 1
        assert rows("airy").table_row.on_critical_line is True
        assert rows("gen_airy_133").table_row.on_critical_line is True
        assert rows("eta_gamma").table_row.n_complex_pairs == 1

    def test_flag_matches_rootset(self, rows):
        for rid in ("riemann", "bessel_k", "gen_airy"):
            res = rows(rid)
            assert res.table_row.on_critical_line == res.run.roots.on_critical_line

    def test_missing_row_raises(self, rows):
        with pytest.raises(MissingPipeline):
            build_table1({"airy": rows("airy").table_row}, N=16, precision=60)

    def test_full_report_renders(self, rows):
        table = {rid: rows(rid).table_row for rid in ROW_IDS}
        report = build_table1(table, N=16, precision=60)
        text = report.to_text()
        assert "Riemann" in text and "K_iz(1)" in text
        assert len(report.to_csv().strip().splitlines()) == 9
        assert '"z3_estimated"' in report.to_json()

    def test_eta_gamma_pair_location(self, rows):
        pair = rows("eta_gamma").run.roots.complex_pairs()[0]
        assert_rel(mp.re(pair), "0.594787", "1e-2", "re")
        assert_rel(mp.im(pair), "0.166798", "1e-2", "im")
