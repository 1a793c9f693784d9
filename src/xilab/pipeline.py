"""End-to-end model runs, the eight standard report rows and their report.

``build_model`` turns a potential into model parameters; every model runs
from it. ``run_model`` chains the characteristic polynomial and its roots.
``ROWS`` catalogues the eight report rows as data; ``run_row`` runs any of
them along one path, and ``build_table1`` assembles the results of any
subset into a ``ZeroReport``.

Row-specific reference data
---------------------------
* riemann: the row's order-8 expansion uses the published coefficient list.
  The direct series expansion of the kernel (``taylor_u``) agrees through
  x^4 but differs at x^6 and x^8; the published couplings are what the
  row's polynomial, root and calibration tables correspond to.
* ramanujan: the row's published tables were generated with the riemann
  row's g, so the row names that row in ``RowSpec.g_from`` and borrows its g.
* gen_airy_133: the row's reference integrand in ``baker_akhiezer`` has
  s_5 = 9/2 (x^6 weight 3/4), where the row has s_5 = 3 (x^6/2).
* eta_gamma: the row is compared with the riemann row's zeros.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import mpmath as mp
from mpmath import mpf

from . import baker_akhiezer as ba
from .calibration import Calibration, airy_fixed_map, estimate_zeros, fit_linear
from .errors import XilabError
from .matrix_model import (CharPolynomial, ModelPotential, build_potential,
                           q_polynomial)
from .potentials import PotentialSpec, check_degree, taylor_u
from .precision import pretty, to_decimal
from .roots import RootSet, find_roots
from .scaling import ModelParams, ScaledPotential, cosh_couplings, double_scaling, rescale_potential

#: published order-8 expansion defining the riemann row (degrees 0..8)
RIEMANN_ROW_U = ("0.112728", "0", "9.3634", "0", "5.95896", "0",
                 "-2.09194", "0", "3.53296")


def expand_spec(spec: PotentialSpec, p: int):
    """U's Taylor coefficients through x^{p+1} and its normal form for the degree-p model.

    The one place that picks a kind's couplings: the explicit kind is its own
    normal form at its own p, the cosh family takes its closed form, and the
    gamma-eta family keeps its degree-p term as the coupling s_{p-1}.
    """
    check_degree(p)
    u = taylor_u(spec, p + 1)
    if spec.kind == "explicit":
        if p != spec.p:
            raise ValueError(f"the explicit potential is a degree-{spec.p} model, not degree {p}")
        s = tuple([mpf(v) for v in spec.s]) + (mpf(0),) * (p - 2 - len(spec.s))
        return u, ScaledPotential(p=p, s=s, a0=u[0], lam=mpf(1))
    if spec.kind == "cosh":
        return u, cosh_couplings(p)
    return u, rescale_potential(u, p, couplings_through=p if spec.kind == "eta_gamma" else None)


def build_model(potential: PotentialSpec | tuple, p: int, N: int, g=None) -> ModelParams:
    """Double-scaled parameters of a degree-p model, from its normalized couplings.

    potential: a ``PotentialSpec`` (its couplings from ``expand_spec``) or a
    published Taylor coefficient list (degrees 0..p+1).
    g: replaces the double-scaling g when given.
    """
    check_degree(p)
    if isinstance(potential, PotentialSpec):
        s = expand_spec(potential, p)[1].s
    else:  # a published expansion
        s = rescale_potential(tuple([mpf(c) for c in potential]), p).s
    return double_scaling(p, N, s, g_override=g)


@dataclass(frozen=True)
class RowSpec:
    """One catalogued report row, as data.

    potential: what ``build_model`` takes.
    reference: id of the reference zero table the roots are fitted onto.
    g_from: id of the row whose g this row uses, or None for its own
    double-scaling g.
    calibration: "fit_linear" anchors the two lowest real roots, ascending;
    "airy_fixed_map" maps the real roots, largest first, by the
    Hermite-edge map at the run's N.
    """

    id: str
    label: str
    u_description: str
    p: int
    potential: PotentialSpec | tuple
    reference: str
    g_from: str | None = None
    calibration: str = "fit_linear"

    def model(self, N: int, g=None) -> ModelParams:
        """The row's ``build_model`` result at matrix size N; ``g``, when
        given, replaces the row's g."""
        if g is None and self.g_from:
            g = ROWS[self.g_from].model(N).g
        return build_model(self.potential, self.p, N, g)


#: the report rows by id, in report order
ROWS = {row.id: row for row in (
    RowSpec("airy", "Ai(z)", "i x^3/3", 2, PotentialSpec(kind="explicit", p=2), "airy",
            calibration="airy_fixed_map"),
    RowSpec("riemann", "Riemann Xi(z)", "-log(Phi(x))", 7, RIEMANN_ROW_U, "riemann"),
    RowSpec("ramanujan", "Ramanujan Xi_L(z)", "-log(Phi_L(x))", 7,
            PotentialSpec(kind="ramanujan"), "ramanujan", g_from="riemann"),
    RowSpec("gen_airy", "Ai_(7,1)(z)", "x^8/8", 7,
            PotentialSpec(kind="explicit", p=7), "gen_airy"),
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

#: zeros a report row estimates (z1..z3); each needs one real root
REPORTED_ZEROS = 3


@dataclass(frozen=True)
class ModelRun:
    """Artifacts of one pipeline run."""

    params: ModelParams
    potential: ModelPotential
    q: CharPolynomial
    roots: RootSet


@dataclass(frozen=True)
class RowResult:
    row: RowSpec
    run: ModelRun
    calibration: Calibration
    estimated_zeros: tuple
    reference: tuple  # the published zeros, floats

    @property
    def exact_zeros(self) -> tuple:
        """The reported reference zeros, read from their decimal forms."""
        return tuple(mpf(str(z)) for z in self.reference[:REPORTED_ZEROS])


def run_model(params: ModelParams) -> ModelRun:
    """Characteristic polynomial and roots for one parameter set."""
    V = build_potential(params)
    q = q_polynomial(params, V, params.N)
    return ModelRun(params=params, potential=V, q=q, roots=find_roots(q))


def run_from_spec(potential: PotentialSpec, p: int, N: int, *, g=None) -> ModelRun:
    """Build and run a potential as a (p,1) model (see ``build_model``)."""
    return run_model(build_model(potential, p, N, g))


def run_row(row_id: str, N: int = 16) -> RowResult:
    """One of the eight standard rows at matrix size N, calibrated."""
    if row_id not in ROWS:
        raise ValueError(f"unknown row {row_id!r}; known: {ROW_IDS}")
    row = ROWS[row_id]
    ref = ba.reference_table(row.reference)
    run = run_model(row.model(N))
    n_real = len(run.roots.real_roots())
    if n_real < REPORTED_ZEROS:
        raise XilabError(
            f"row {row_id} at N={N} has {n_real} real roots; its calibration "
            f"needs {REPORTED_ZEROS}")

    if row.calibration == "airy_fixed_map":
        cal = airy_fixed_map(N)
        # zero tables of this row descend; map the largest roots first
        reals = sorted(run.roots.real_roots(), reverse=True)
    else:
        reals = run.roots.real_roots()
        cal = fit_linear(reals, ref)
    return RowResult(row, run, cal, tuple(estimate_zeros(cal, reals)), ref)


@dataclass(frozen=True)
class ZeroReport:
    """The report rows, rendered from their results and catalogue entries."""

    rows: tuple  # RowResult, in ``ROWS`` order
    N: int
    precision: int

    def as_dict(self) -> dict:
        return {"N": self.N, "precision": self.precision, "rows": [{
            "function": r.row.id,
            "label": r.row.label,
            "U": r.row.u_description,
            "z3_estimated": to_decimal(r.estimated_zeros[2]),
            "z3_exact": to_decimal(r.exact_zeros[2]),
            "on_critical_line": r.run.roots.on_critical_line,
            "n_complex_pairs": r.run.roots.n_complex_pairs,
            "A": to_decimal(r.calibration.A),
            "c": to_decimal(r.calibration.c),
            "estimated_zeros": [to_decimal(z) for z in r.estimated_zeros[:REPORTED_ZEROS]],
            "reference_zeros": [to_decimal(z) for z in r.exact_zeros],
        } for r in self.rows]}

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["function", "z3_estimated", "z3_exact", "on_critical_line",
                    "n_complex_pairs", "A", "c"])
        for r in self.rows:
            roots = r.run.roots
            w.writerow([r.row.id, mp.nstr(r.estimated_zeros[2], 8),
                        mp.nstr(r.exact_zeros[2], 8), "Y" if roots.on_critical_line else "N",
                        roots.n_complex_pairs, mp.nstr(r.calibration.A, 8),
                        mp.nstr(r.calibration.c, 8)])
        return buf.getvalue()

    def to_text(self) -> str:
        head = ["function", "U(x)", "z3 (N={})".format(self.N), "z3 exact",
                "on CL", "pairs", "A", "c"]
        body = [[r.row.label, r.row.u_description, pretty(r.estimated_zeros[2]),
                 pretty(r.exact_zeros[2]), "Y" if r.run.roots.on_critical_line else "N",
                 str(r.run.roots.n_complex_pairs), pretty(r.calibration.A),
                 pretty(r.calibration.c)]
                for r in self.rows]
        widths = [max([len(h), *(len(row[i]) for row in body)])
                  for i, h in enumerate(head)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(head, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def build_table1(rows_by_id: dict, *, N: int, precision: int) -> ZeroReport:
    """Assemble the report of the rows in ``rows_by_id`` (any subset), in ``ROWS`` order."""
    return ZeroReport(rows=tuple(rows_by_id[r] for r in ROW_IDS if r in rows_by_id),
                      N=N, precision=precision)
