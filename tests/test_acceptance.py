"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Two criteria assert, besides the stated tables, facts that correct them:

* criterion 3: the published order-8 riemann expansion agrees with the
  kernel's true Taylor series through x^4 but not at x^6/x^8. The direct
  expansion and its couplings are checked against an independent oracle
  computed in the test, the published x^6/x^8 entries are asserted to
  differ from it, and the model clauses are checked against the tables
  built from the published row.
* criterion 10's saddle clause at N=2: the N=2 system has a nondegenerate
  solution only where D(a) = V'(1+a) - V'(1-a) has a positive zero, which
  the Gaussian lacks. The clause's bounds are checked on the quartic
  V'(1+u) = u^3 - u, whose solution is known in closed form, and the
  Gaussian is asserted to have none (derivation in the test docstring).
"""

import mpmath as mp
import numpy as np
import pytest
from mpmath import mpf

from oracles import (coefficient, coupling, hermite_q, horner, jacobi_matrix,
                     q_sequence, reconstruct_coefficients, reduced_ansatz_n2)
from xilab.baker_akhiezer import quadrature_zeros, reference_table
from xilab.master_field import (MasterConfig, _cost_from_theta, _fixed_inputs,
                                _jacobian, n_params, optimize, saddle_solve)
from xilab.matrix_model import (CharPolynomial, ModelPotential, build_potential,
                                q_polynomial)
from xilab.pipeline import expand_spec
from xilab.potentials import PotentialSpec, taylor_u
from xilab.roots import find_roots
from xilab.scaling import cosh_couplings, double_scaling, rescale_potential

# ---------------------------------------------------------------------------
# published reference tables asserted below (highest degree first for Q)

HERMITE_Q16_TABLE = ["1", "0", "-3.75", "0", "5.33203", "0", "-3.66577", "0", "1.28875",
          "0", "-0.225531", "0", "0.0176196", "0", "-0.000471954", "0",
          "1.84357e-6"]
HERMITE_ROOTS_POSITIVE = ["1.17218", "0.967362", "0.79425", "0.636551", "0.487947", "0.345065",
          "0.205738", "0.0683703"]  # positive half of the symmetric root list
RIEMANN_EXPANSION_TABLE = {0: "0.112728", 2: "9.3634", 4: "5.95896", 6: "-2.09194", 8: "3.53296"}
RIEMANN_COUPLING_TABLE = {1: "8.12192", 3: "4.48349", 5: "-1.02395"}
RIEMANN_Q16_TABLE = ["1", "141.088", "8952.1", "338149.", "8.48406e6", "1.49383e8",
          "1.90155e9", "1.77654e10", "1.2243e11", "6.20423e11", "2.28714e12",
          "6.01787e12", "1.09783e13", "1.33068e13", "1.00497e13", "4.23563e12",
          "7.61563e11"]
RAMANUJAN_COUPLING_TABLE = {1: "7.99487", 3: "4.0958", 5: "-1.22159"}
COSH_COUPLING_TABLE = {1: "8.42573", 3: "11.8322", 5: "4.98473"}
ETA_GAMMA_COEFF_TABLE = ["13.6947", "-33.7861", "62.5149", "-92.538", "114.15", "-120.693",
           "111.66", "-91.8254", "67.9625", "-45.7281", "28.2038", "-16.0572",
           "8.48885", "-4.18855", "1.93754", "-0.843543", "0.34685",
           "-0.135112"]


class Checker:
    def __init__(self, criterion):
        self.criterion = criterion
        self.failures = []
        self.notes = []

    def check(self, label, ok, detail=""):
        if not ok:
            self.failures.append(f"{label}{' (' + detail + ')' if detail else ''}")

    def rel(self, label, got, want, tol):
        w = mpf(str(want))
        denom = abs(w) if w != 0 else mpf(1)
        err = abs(mp.mpf(got) - w) / denom if not isinstance(got, mp.mpc) \
            else abs(got - w) / denom
        self.check(label, err < mpf(str(tol)),
                   f"got {mp.nstr(mp.mpf(got), 9)} want {want} rel {mp.nstr(err, 3)}")

    def finish(self):
        status = "PASS" if not self.failures else "FAIL"
        note = f"  [{'; '.join(self.notes)}]" if self.notes else ""
        print(f"[criterion {self.criterion}] {status}{note}")
        if self.failures:
            pytest.fail(f"criterion {self.criterion}: " + "; ".join(self.failures),
                        pytrace=False)


def riemann_oracle_series(order, dps=40):
    """Taylor series of -log Phi at 0, independent of ``taylor_u``.

    Phi is summed directly by ``mp.nsum`` and differentiated numerically
    by ``mp.taylor``, rather than composed from truncated series.
    """
    def phi(x):
        return mp.nsum(lambda n: (4 * mp.pi ** 2 * n ** 4 * mp.exp(mpf(9) / 2 * x)
                                  - 6 * mp.pi * n ** 2 * mp.exp(mpf(5) / 2 * x))
                       * mp.exp(-mp.pi * n ** 2 * mp.exp(2 * x)), [1, mp.inf])

    with mp.workdps(dps):
        coeffs = mp.taylor(lambda x: -mp.log(phi(x)), 0, order)
    return tuple(coeffs)


def riemann_row_scaled():
    from xilab.pipeline import RIEMANN_ROW_U
    return rescale_potential(tuple([mpf(c) for c in RIEMANN_ROW_U]), 7)


def coeff_table_check(ck, q, printed, tol, label):
    want = list(reversed([mpf(c) for c in printed]))
    for n, w in enumerate(want):
        if w == 0:
            ck.check(f"{label} b^{n}", abs(q.coeffs[n]) < mpf("1e-30"))
        else:
            ck.rel(f"{label} b^{n}", q.coeffs[n], w, tol)


def single_pair_check(ck, rootset, re_want, im_want, tol, label):
    ck.check(f"{label} pair count", rootset.n_complex_pairs == 1,
             f"{rootset.n_complex_pairs} pairs")
    if rootset.n_complex_pairs == 1:
        pair = rootset.complex_pairs()[0]
        ck.rel(f"{label} pair re", mp.re(pair), re_want, tol)
        ck.rel(f"{label} pair im", mp.im(pair), im_want, tol)


def test_criterion_01_hermite_closed_form(rows):
    ck = Checker(1)
    params = double_scaling(2, 16, ())
    V = build_potential(params)
    q = q_polynomial(params, V, 16)
    coeff_table_check(ck, q, HERMITE_Q16_TABLE, "1e-4", "Q16")
    qh = hermite_q(16, mpf(1) / 16)
    for n, (a, b) in enumerate(zip(q.coeffs, qh.coeffs)):
        ck.check(f"q==hermite b^{n}", abs(a - b) <= mpf("1e-40") * max(1, abs(b)))
    reals = rows("airy").run.roots.real_roots()
    ck.check("16 real roots", len(reals) == 16)
    for want, got_neg, got_pos in zip(HERMITE_ROOTS_POSITIVE, reals[:8], reversed(reals[8:])):
        ck.rel("root -" + want, got_neg, "-" + want, "1e-4")
        ck.rel("root +" + want, got_pos, want, "1e-4")
    ck.finish()


def test_criterion_02_airy_mapping(rows):
    ck = Checker(2)
    est = rows("airy").estimated_zeros
    for got, want in zip(est[:3], ("-2.17335", "-4.01259", "-5.56709")):
        ck.rel("mapped root", got, want, "1e-4")
    gap = est[2] - mpf("-5.52056")
    ck.check("third-zero gap ~ -0.0465", abs(gap + mpf("0.0465")) < mpf("5e-4"),
             f"gap {mp.nstr(gap, 4)}")
    ck.check("exact zero table",
             reference_table("airy") == (-2.33811, -4.08795, -5.52056))
    ck.finish()


def test_criterion_03_riemann_pipeline(rows):
    """Riemann row: direct expansion, its couplings and the model tables.

    The published expansion row agrees with the kernel's Taylor series
    through x^4 only, so a_6, a_8 and the couplings computed from the
    direct expansion are checked against an independent oracle, and the
    published x^6/x^8 entries are asserted to differ from it. The model
    clauses check the tables built from the published row.
    """
    ck = Checker(3)
    u = taylor_u(PotentialSpec(kind="riemann"), 8)
    true_u = riemann_oracle_series(8)
    for n in (0, 2, 4):
        ck.rel(f"taylor_u a_{n}", u[n], RIEMANN_EXPANSION_TABLE[n], "1e-3")
    for n in (6, 8):
        ck.rel(f"taylor_u a_{n} vs oracle", u[n], true_u[n], "1e-12")
        published = mpf(RIEMANN_EXPANSION_TABLE[n])
        ck.check(f"published a_{n} differs from the series",
                 abs(published - true_u[n]) > mpf("1e-3") * abs(true_u[n]),
                 f"published {RIEMANN_EXPANSION_TABLE[n]} true {mp.nstr(true_u[n], 9)}")
    direct = rescale_potential(u, 7)
    oracle = rescale_potential(true_u, 7)
    for k in RIEMANN_COUPLING_TABLE:
        ck.rel(f"computed s_{k} vs oracle", coupling(direct, k), coupling(oracle, k), "1e-12")
    # model clauses from the published-coefficient row
    res = rows("riemann")
    ck.notes.append("g corrected by the couplings")
    for k, want in RIEMANN_COUPLING_TABLE.items():
        ck.rel(f"row s_{k}", res.run.params.s[k - 1], want, "1e-3")
    coeff_table_check(ck, res.run.q, RIEMANN_Q16_TABLE, "1e-3", "Q16")
    single_pair_check(ck, res.run.roots, "-0.677917", "0.213125", "1e-2", "roots")
    ck.check("14 real roots", len(res.run.roots.real_roots()) == 14)
    ck.rel("A", res.calibration.A, "2.20867", "1e-3")
    ck.rel("c", res.calibration.c, "64.5702", "1e-3")
    ck.rel("z3", res.estimated_zeros[2], "26.5505", "1e-3")
    ck.finish()


def test_criterion_04_ramanujan_pipeline(rows):
    ck = Checker(4)
    res = rows("ramanujan")
    scaled = expand_spec(res.row.potential, res.row.p)[1]
    for k, want in RAMANUJAN_COUPLING_TABLE.items():
        ck.rel(f"s_{k}", coupling(scaled, k), want, "1e-3")
    single_pair_check(ck, res.run.roots, "-0.506603", "0.513116", "1e-2", "roots")
    ck.rel("A", res.calibration.A, "1.52532", "1e-3")
    ck.rel("c", res.calibration.c, "42.3072", "1e-3")
    ck.rel("z3", res.estimated_zeros[2], "17.6636", "1e-3")
    ck.check("exact z3 on record",
             reference_table("ramanujan")[2] == 17.442777)
    ck.finish()


def test_criterion_05_cosh_bessel(rows):
    ck = Checker(5)
    sp = cosh_couplings(7)
    for k, want in COSH_COUPLING_TABLE.items():
        ck.rel(f"s_{k}", coupling(sp, k), want, "1e-4")
    res = rows("bessel_k")
    ck.check("all 16 roots real", res.run.roots.on_critical_line
             and len(res.run.roots.real_roots()) == 16)
    ck.rel("A", res.calibration.A, "0.193542", "1e-3")
    ck.rel("c", res.calibration.c, "16.0687", "1e-3")
    ck.rel("z3", res.estimated_zeros[2], "5.80583", "1e-3")
    quad = quadrature_zeros("bessel_k", 3)
    for got, want in zip(quad, (2.96255, 4.53449, 5.87987)):
        ck.check(f"quadrature zero {want}", abs(got - want) < 1e-3,
                 f"got {got:.6f}")
    ck.finish()


def test_criterion_06_real_zero_families(rows):
    ck = Checker(6)
    cases = [("gen_airy", "7.13834", "7.53357"),
             ("gen_airy_m130", "8.50607", "8.6996"),
             ("gen_airy_133", "10.5535", "10.9217")]
    for rid, z3_cal, z3_exact in cases:
        res = rows(rid)
        ck.check(f"{rid} all real", res.run.roots.on_critical_line)
        ck.rel(f"{rid} calibrated z3", res.estimated_zeros[2], z3_cal, "1e-3")
        quad = quadrature_zeros(rid, 3)
        ck.check(f"{rid} quadrature z3",
                 abs(quad[2] - float(z3_exact)) < 1e-3,
                 f"got {quad[2]:.5f} want {z3_exact}")
    ck.finish()


def test_criterion_07_eta_gamma(rows):
    ck = Checker(7)
    res = rows("eta_gamma")
    scaled = expand_spec(res.row.potential, res.row.p)[1]
    for k, want in enumerate(ETA_GAMMA_COEFF_TABLE, start=1):
        ck.rel(f"coefficient x^{k+1}", coefficient(scaled, k + 1), want, "1e-3")
    single_pair_check(ck, res.run.roots, "0.594787", "0.166798", "1e-2", "roots")
    ck.rel("A", res.calibration.A, "2.7621", "1e-3")
    ck.rel("c", res.calibration.c, "61.2001", "1e-3")
    ck.rel("z3", res.estimated_zeros[2], "26.527", "1e-3")
    ck.finish()


def test_criterion_08_oracle_equivalence():
    ck = Checker(8)
    rng = np.random.default_rng(20250809)
    made = 0
    while made < 20:
        p = int(rng.choice([3, 5, 7]))
        N = int(rng.integers(2, 9))
        s = tuple(str(round(x, 6)) for x in rng.uniform(-3, 3, p - 2))
        try:
            params = double_scaling(p, N, s)
        except Exception:
            continue  # couplings outside the model's domain; redraw
        made += 1
        V = build_potential(params)
        qa = q_sequence(params, V, N)[N]
        qb = q_polynomial(params, V, N)
        for n, (a, b) in enumerate(zip(qa.coeffs, qb.coeffs)):
            denom = max(abs(b), mpf("1e-10"))
            ck.check(f"set{made} q==gf b^{n}", abs(a - b) / denom < mpf("1e-30"))
        J = jacobi_matrix(params, V, N)
        dets, wants = [], []
        for k in range(2 * N + 1):
            b = mpf(k - N) / 2
            dets.append(J.char_poly_at(b))
            wants.append((-1) ** N * horner(qb.coeffs, b)[0])
        scale = max(abs(w) for w in wants)
        for d, w in zip(dets, wants):
            ck.check(f"set{made} det==Q", abs(d - w) / scale < mpf("1e-25"))
    ck.finish()


def test_criterion_09_root_properties(rows):
    ck = Checker(9)
    polys = {"hermite": hermite_q(16, mpf(1) / 16)}
    for rid in ("riemann", "ramanujan", "bessel_k", "gen_airy",
                "gen_airy_m130", "gen_airy_133", "eta_gamma"):
        polys[rid] = rows(rid).run.q
    for name, q in polys.items():
        rs = find_roots(q)
        back = reconstruct_coefficients(rs, q.coeffs[-1])
        big = max(abs(c) for c in q.coeffs)
        spread = big / max(abs(q.coeffs[-1]), mpf(1))
        bound = mpf(10) ** (-(mp.mp.dps - 15 - mp.log10(spread))) * big
        ck.check(f"{name} reconstruction",
                 all(abs(a - b) < bound for a, b in zip(back, q.coeffs)))
        pts = {(mp.re(r), mp.im(r)) for r in rs.roots}
        ck.check(f"{name} conjugate symmetry",
                 all((re, -im) in pts for re, im in pts))
        q2 = CharPolynomial.from_coeffs([c * mpf("31.7") for c in q.coeffs])
        rs2 = find_roots(q2)
        ck.check(f"{name} scale-invariant classification",
                 rs.is_real == rs2.is_real)
    ck.finish()


def test_criterion_10_master_field():
    ck = Checker(10)
    gaussian = build_potential(double_scaling(2, 16, ()))
    # N=1 closed-form case
    r1 = optimize(MasterConfig(N=1, g=0.3, potential=gaussian, seed=5, sigma=0.4))
    ck.check("N=1 cost < 1e-20", r1.cost < 1e-20, f"cost {r1.cost:.2e}")
    # p=2, sigma=0, N=4 exactly solvable case
    r2 = optimize(MasterConfig(N=4, g=1 / 16, potential=gaussian, seed=1, sigma=0.0))
    ck.check("p2 N4 cost < 1e-12", r2.cost < 1e-12, f"cost {r2.cost:.2e}")
    # analytic gradient vs central differences
    pot7 = build_potential(double_scaling(7, 16, ("1", "0", "3", "0", "3")))
    cfg = MasterConfig(N=3, g=0.2, potential=pot7, seed=13, sigma=0.25)
    rng = np.random.default_rng(77)
    theta = 0.4 * rng.standard_normal(n_params(3, True))
    # the reduced cost is |r|^2, so its gradient is 2 J^T r
    fixed = _fixed_inputs(cfg)[0]
    _, r, _ = _cost_from_theta(cfg, theta, fixed)
    grad = 2.0 * (_jacobian(cfg, theta, fixed).T @ r)
    h = 1e-6
    worst = 0.0
    for idx in range(len(theta)):
        e = np.zeros_like(theta)
        e[idx] = h
        fd = (_cost_from_theta(cfg, theta + e, fixed)[0]
              - _cost_from_theta(cfg, theta - e, fixed)[0]) / (2 * h)
        worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), abs(grad[idx]), 1e-8))
    ck.check("gradient matches FD to 1e-6", worst < 1e-6, f"worst {worst:.2e}")
    # monotone accepted-cost trace
    r3 = optimize(MasterConfig(N=4, g=float(double_scaling(7, 16, ("1", "0", "3", "0", "3")).g),
                               potential=pot7, seed=9, sigma=0.0))
    ck.check("trace monotone", bool(np.all(np.diff(r3.trace) <= 0)))
    # fixed-seed bit reproducibility
    cfgr = MasterConfig(N=3, g=0.2, potential=pot7, seed=4, sigma=0.2)
    ra, rb = optimize(cfgr), optimize(cfgr)
    ck.check("bit-reproducible", ra.cost == rb.cost and ra.trace == rb.trace
             and np.array_equal(ra.state.a, rb.state.a))
    ck.finish()


def test_criterion_10_saddle_n2():
    """Saddle clause of criterion 10 at N=2, g=1, seed 0.

    Summing the two b-equations forces a_1 + a_2 = 0; the a-equations then
    give b_1 - b_2 = D(a_1) - g/a_1 with D(a) = V'(1+a) - V'(1-a), and the
    remaining b-equation reduces to a_1 D(a_1) = 0. A nondegenerate solution
    therefore exists only at a positive zero of D. The Gaussian,
    V'(1+u) = u/2, has D(a) = a and none, so its oracle must raise and its
    solver must not report convergence. The quartic V'(1+u) = u^3 - u has
    D(a) = 2a^3 - 2a and the closed-form solution a = (1, -1),
    b = (-g/2, g/2), on which the clause's bounds are checked.
    """
    ck = Checker("10-saddle-N2")
    g = 1.0
    quartic = ModelPotential(p=4, s_coeffs=(mpf(0), mpf(1) / 2, mpf(0), -mpf(1) / 4))
    oracle_root = None
    try:
        oracle_root = reduced_ansatz_n2(quartic, g)
    except ValueError as exc:
        ck.check("reduced-ansatz oracle finds a root", False, str(exc))
    res = saddle_solve(quartic, g, 2, seed=0)
    ck.check("solver residual < 1e-10", res.residual_norm < 1e-10,
             f"residual {res.residual_norm:.2e}")
    if oracle_root is not None:
        ck.check("solver matches oracle to 1e-8",
                 abs(max(res.a) - oracle_root) < 1e-8)
        ck.check("oracle matches closed form to 1e-8", abs(oracle_root - 1.0) < 1e-8,
                 f"oracle {oracle_root!r}")
    order = np.argsort(res.a)[::-1]
    closed = np.array([1.0, -1.0, -g / 2, g / 2])
    got = np.concatenate([res.a[order], res.b[order]])
    ck.check("solver matches closed form to 1e-8", np.max(np.abs(got - closed)) < 1e-8,
             f"a {res.a} b {res.b}")

    gaussian = build_potential(double_scaling(2, 16, ()))
    try:
        reduced_ansatz_n2(gaussian, g)
        ck.check("gaussian: oracle finds no root", False)
    except ValueError:
        pass
    res = saddle_solve(gaussian, g, 2, seed=0)
    ck.check("gaussian: no converged nondegenerate point",
             not (res.converged and abs(res.a[0] - res.a[1]) > 1e-6),
             f"converged at a {res.a}")
    ck.finish()
