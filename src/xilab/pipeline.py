"""End-to-end model runs and the eight standard report rows.

``run_model`` chains expansion -> normalization -> double scaling ->
characteristic polynomial -> roots. ``ROWS`` catalogues the eight report
rows as data; ``run_row`` runs any of them along one path.

Row-specific reference data
---------------------------
* riemann: the row's order-8 expansion uses the published coefficient list.
  The direct series expansion of the kernel (``taylor_u``) agrees through
  x^4 but differs at x^6 and x^8; the published couplings are what the
  row's polynomial, root and calibration tables correspond to.
* ramanujan: the row's published tables were generated with the riemann
  row's g, so the row pins g to that value for comparability.
* gen_airy_133: the row's reference integrand carries the coefficient list
  in ``baker_akhiezer._GEN_AIRY_133`` (x^6 weight 3/4).
* eta_gamma: the row is compared with the riemann row's zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpf

from . import baker_akhiezer as ba
from .calibration import (Calibration, TableRow, ZeroReport, airy_fixed_map,
                          estimate_zeros, fit_linear)
from .errors import MissingPipeline
from .matrix_model import (CharPolynomial, ModelPotential, build_potential,
                           q_polynomial)
from .potentials import PotentialSpec, taylor_u
from .roots import RootSet, find_roots
from .scaling import (ModelParams, ScaledPotential, cosh_couplings,
                      double_scaling, rescale_potential)
from .series import TaylorSeries

#: published order-8 expansion defining the riemann row (degrees 0..8)
RIEMANN_ROW_U = ("0.112728", "0", "9.3634", "0", "5.95896", "0",
                 "-2.09194", "0", "3.53296")


@dataclass(frozen=True)
class RowSpec:
    """One catalogued report row, as data.

    potential: a ``PotentialSpec``, a published Taylor coefficient list
    (degrees 0..p+1), or None for the quadratic model, which has no couplings.
    reference: id of the reference zero table the roots are fitted onto.
    g_mode: "corrected" or "plain" (see ``double_scaling``), or the id of the
    row whose g this row borrows.
    calibration: "fit_linear" anchors the two lowest real roots, ascending;
    "airy_fixed_map" maps the real roots, largest first.
    """

    id: str
    label: str
    u_description: str
    p: int
    potential: PotentialSpec | tuple | None
    reference: str
    g_mode: str = "corrected"
    calibration: str = "fit_linear"


#: the report rows by id, in report order
ROWS = {row.id: row for row in (
    RowSpec("airy", "Ai(z)", "i x^3/3", 2, None, "airy",
            g_mode="plain", calibration="airy_fixed_map"),
    RowSpec("riemann", "Riemann Xi(z)", "-log(Phi(x))", 7, RIEMANN_ROW_U, "riemann"),
    RowSpec("ramanujan", "Ramanujan Xi_L(z)", "-log(Phi_L(x))", 7,
            PotentialSpec(kind="ramanujan"), "ramanujan", g_mode="riemann"),
    RowSpec("gen_airy", "Ai_(7,1)(z)", "x^8/8", 7,
            PotentialSpec(kind="monomial", degree=8), "gen_airy"),
    RowSpec("gen_airy_m130", "Ai_(7,1)(z,-1,3,0)", "x^8/8 + 3x^4/4 - x^2/2", 7,
            PotentialSpec(kind="explicit", p=7, s=("-1", "0", "3", "0", "0")),
            "gen_airy_m130"),
    RowSpec("gen_airy_133", "Ai_(7,1)(z,1,3,3)", "x^8/8 + 3x^6/6 + 3x^4/4 + x^2/2", 7,
            PotentialSpec(kind="explicit", p=7, s=("1", "0", "3", "0", "3")),
            "gen_airy_133"),
    RowSpec("bessel_k", "K_iz(1)", "cosh(x)", 7, PotentialSpec(kind="cosh"), "bessel_k"),
    RowSpec("eta_gamma", "Gamma(iz+1/2) eta(iz+1/2)", "(x+log 2)/2 + e^-(x+log 2) + 1",
            19, PotentialSpec(kind="eta_gamma"), "riemann"),
)}

ROW_IDS = tuple(ROWS)


@dataclass(frozen=True)
class ModelRun:
    """Artifacts of one pipeline run."""

    spec: PotentialSpec | None
    scaled: ScaledPotential | None
    params: ModelParams
    potential: ModelPotential
    q: CharPolynomial
    roots: RootSet


@dataclass(frozen=True)
class RowResult:
    row_id: str
    run: ModelRun | None
    calibration: Calibration
    estimated_zeros: tuple
    reference: ba.ReferenceZeros
    table_row: TableRow


def run_model(params: ModelParams, *, spec: PotentialSpec | None = None,
              scaled: ScaledPotential | None = None) -> ModelRun:
    """Characteristic polynomial and roots for one parameter set."""
    V = build_potential(params)
    q = q_polynomial(params, V, params.N)
    rts = find_roots(q)
    return ModelRun(spec=spec, scaled=scaled, params=params, potential=V,
                    q=q, roots=rts)


def expand_spec(spec: PotentialSpec, p: int):
    """U's Taylor series through x^{p+1} and its normal form for the degree-p model.

    The gamma-eta family keeps its degree-p term as the coupling s_{p-1}.
    """
    u = taylor_u(spec, p + 1)
    return u, rescale_potential(u, p, couplings_through=p if spec.kind == "eta_gamma" else None)


def spec_couplings(spec: PotentialSpec, p: int) -> ScaledPotential:
    """Normalized couplings of a spec; the cosh family takes its closed form."""
    return cosh_couplings(p) if spec.kind == "cosh" else expand_spec(spec, p)[1]


def run_from_spec(spec: PotentialSpec, p: int, N: int, *, g_mode: str = "corrected",
                  g_override=None) -> ModelRun:
    """Normalize and run a potential spec as a (p,1) model."""
    scaled = spec_couplings(spec, p)
    params = double_scaling(p, N, scaled.s, g_mode=g_mode, g_override=g_override)
    return run_model(params, spec=spec, scaled=scaled)


def row_model(row: RowSpec, N: int):
    """The row's spec, normalized potential and model parameters; no polynomial."""
    spec = row.potential if isinstance(row.potential, PotentialSpec) else None
    if spec is not None:
        scaled = spec_couplings(spec, row.p)
    elif row.potential is not None:  # a published expansion
        scaled = rescale_potential(TaylorSeries([mpf(c) for c in row.potential]), row.p)
    else:
        scaled = None
    s = scaled.s if scaled is not None else ()
    if row.g_mode in ROWS:  # the named row's g
        _, _, donor = row_model(ROWS[row.g_mode], N)
        return spec, scaled, double_scaling(row.p, N, s, g_override=donor.g)
    return spec, scaled, double_scaling(row.p, N, s, g_mode=row.g_mode)


def run_row(row_id: str, N: int = 16) -> RowResult:
    """One of the eight standard rows at matrix size N."""
    if row_id not in ROWS:
        raise ValueError(f"unknown row {row_id!r}; known: {ROW_IDS}")
    row = ROWS[row_id]
    ref = ba.reference_table(row.reference)
    spec, scaled, params = row_model(row, N)
    run = run_model(params, spec=spec, scaled=scaled)

    if row.calibration == "airy_fixed_map":
        cal = airy_fixed_map()
        # zero tables of this row descend; map the largest roots first
        reals = sorted(run.roots.real_roots(), reverse=True)
    else:
        reals = run.roots.real_roots()
        cal = fit_linear(reals, ref)
    est = estimate_zeros(cal, reals)
    table_row = TableRow(
        function_id=row_id, label=row.label, u_description=row.u_description,
        z3_estimated=est[2], z3_exact=mpf(str(ref.zeros[2])),
        on_critical_line=run.roots.on_critical_line,
        n_complex_pairs=run.roots.n_complex_pairs,
        A=cal.A, c=cal.c,
        estimated_zeros=tuple(est[:3]), reference_zeros=tuple(ref.zeros[:3]))
    return RowResult(row_id, run, cal, tuple(est), ref, table_row)


def build_table1(rows_by_id: dict, *, N: int, precision: int) -> ZeroReport:
    """Assemble the eight-row report in ``ROWS`` order; every row must be present."""
    missing = [r for r in ROW_IDS if r not in rows_by_id]
    if missing:
        raise MissingPipeline(f"missing rows: {missing}")
    return ZeroReport(rows=tuple(rows_by_id[r] for r in ROW_IDS),
                      N=N, precision=precision)
