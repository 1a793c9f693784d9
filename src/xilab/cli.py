"""Command-line front end.

One subcommand per pipeline stage so intermediate artifacts stay
inspectable:

    expand     Taylor-expand a potential and print normalized couplings
    solve      build Q_N, find and classify its roots
    psi        evaluate a Baker-Akhiezer function on a z-grid (CSV)
    zeros      locate Baker-Akhiezer zeros by quadrature scan
    calibrate  fit roots onto reference zeros for one report row
    table1     run all eight report rows
    master     quenched master-field least squares
    saddle     saddle-point eigenvalue solver

Exit codes: 0 ok, 2 config/spec error, 3 numerical failure. The working
precision is --precision, else the XI_LAB_PRECISION environment variable
(read here, by ``main``), else 60 digits.
Numbers in JSON are decimal strings at full working precision; tables round
to 6 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import mpmath as mp
import numpy as np
from mpmath import mpf

from . import baker_akhiezer as ba
from . import errors as err
from . import master_field as mf
from .kernels import BACKEND
from .matrix_model import build_potential
from .pipeline import (ROW_IDS, ROWS, build_table1, expand_spec, row_model,
                       run_from_spec, run_model, run_row)
from .potentials import KINDS, PotentialSpec
from .precision import pretty, set_working_dps, to_decimal, working_dps
from .scaling import double_scaling
# not called here; kept because perfbench/layers.py wraps these cli attributes
from .potentials import taylor_u  # noqa: F401
from .scaling import cosh_couplings, rescale_potential  # noqa: F401

NUMERICAL_ERRORS = (err.NonConvergence, err.NoConvergence, err.TailNotNegligible,
                    err.InsufficientZerosFound, err.SingularJacobian,
                    err.NonPositiveG, err.NonPositiveLeadingCoefficient)
CONFIG_ERRORS = (ValueError, KeyError, err.UnknownReference, err.MissingPipeline)

#: model degree when --p is not given
DEFAULT_P = 7
#: solve flags (argparse dests) whose values a --row takes from its catalogue entry
ROW_FIXED_FLAGS = ("kind", "p", "s", "degree", "g", "g_mode", "hermite")


def _model_p(args) -> int:
    return DEFAULT_P if args.p is None else args.p


def _spec_from_args(args) -> PotentialSpec:
    kw = {"kind": args.kind}
    if args.kind == "monomial":
        if not args.degree:
            raise ValueError("--degree is required for the monomial kind")
        kw["degree"] = args.degree
    if args.kind == "explicit":
        if not args.s:
            raise ValueError("--s is required for the explicit kind")
        kw["p"] = _model_p(args)
        kw["s"] = tuple(v.strip() for v in args.s.split(","))
    if getattr(args, "max_terms", None):
        kw["max_terms"] = args.max_terms
    return PotentialSpec(**kw)


def _meta() -> dict:
    return {"precision": working_dps(), "backend": BACKEND}


def _emit(payload: dict, path: str | None):
    text = json.dumps(payload, indent=2)
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_expand(args) -> int:
    spec = _spec_from_args(args)
    p = _model_p(args)
    order = p + 1
    u, scaled = expand_spec(spec, p)
    if args.json is not None:
        _emit({**_meta(),
               "a": [to_decimal(u[n]) for n in range(order + 1)],
               "scaled": json.loads(scaled.to_json())}, args.json)
        return 0
    print(f"# kind={spec.kind} p={p} precision={working_dps()}")
    print("expansion coefficients a_n:")
    afloor = mpf(10) ** (-(working_dps() // 2)) * max(abs(c) for c in u.coeffs)
    for n in range(order + 1):
        if abs(u[n]) > afloor:
            print(f"  a_{n:<2d} = {pretty(u[n])}")
    print(f"rescale factor = {pretty(scaled.lam)}")
    print("couplings:")
    floor = mpf(10) ** (-(working_dps() // 2)) * max(
        [abs(v) for v in scaled.s] or [mpf(1)])
    for k, sv in enumerate(scaled.s, start=1):
        if abs(sv) > floor:
            print(f"  s_{k} = {pretty(sv)}")
    if any(abs(v) > mpf(10) ** (-working_dps() // 2) for v in scaled.residuals.values()):
        print("residual (non-normal-form) coefficients:",
              {n: pretty(v) for n, v in scaled.residuals.items()})
    return 0


def _solve_run(args):
    N = args.N
    if args.row:
        given = [f"--{dest.replace('_', '-')}" for dest in ROW_FIXED_FLAGS
                 if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"--row {args.row} takes its potential and g from the row; "
                             f"drop {', '.join(given)}")
        return run_row(args.row, N=N).run
    if args.hermite:
        g = mpf(args.g) if args.g else mpf(1) / N
        params = double_scaling(2, N, (), g_mode="plain", g_override=g)
        return run_model(params)
    return run_from_spec(_spec_from_args(args), _model_p(args), N,
                         g_mode=args.g_mode or "corrected", g_override=args.g)


def cmd_solve(args) -> int:
    run = _solve_run(args)
    if args.json is not None:
        _emit({**_meta(),
               "params": {"p": run.params.p, "N": run.params.N,
                          "g": to_decimal(run.params.g),
                          "epsilon": to_decimal(run.params.epsilon),
                          "s": [to_decimal(v) for v in run.params.s]},
               "q": json.loads(run.q.to_json()),
               "roots": json.loads(run.roots.to_json())}, args.json)
    else:
        print(f"# p={run.params.p} N={run.params.N} g={pretty(run.params.g, 9)} "
              f"precision={working_dps()}")
        print("Q coefficients (highest degree first):")
        print("  " + ", ".join(pretty(c) for c in reversed(run.q.coeffs)))
        print("roots:")
        for r, flag in zip(run.roots.roots, run.roots.is_real):
            tag = "real" if flag else "complex"
            print(f"  {pretty(mp.re(r)):>14s} {pretty(mp.im(r)):>14s}i  [{tag}]")
        print(f"on critical line: {run.roots.on_critical_line} "
              f"({run.roots.n_complex_pairs} complex pairs)")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(run.roots.to_csv())
    return 0


def _ba_function(name: str) -> ba.BAFunction:
    if name in ba.QUADRATURE_INTEGRANDS:
        return ba.QUADRATURE_INTEGRANDS[name]()
    raise err.UnknownReference(
        f"no quadrature integrand named {name!r}; known: {sorted(ba.QUADRATURE_INTEGRANDS)}")


def cmd_psi(args) -> int:
    if not args.step > 0:
        raise ValueError(f"--step must be positive, got {args.step}")
    if args.zmax < args.zmin:
        raise ValueError(f"--zmax {args.zmax} is below --zmin {args.zmin}")
    f = _ba_function(args.function)
    zs = np.arange(args.zmin, args.zmax + args.step / 2, args.step)
    vals = f.psi_grid(zs)
    lines = [f"# function={args.function} precision={working_dps()} backend={BACKEND}",
             "z,re_psi,im_psi"]
    lines += [f"{z:.12g},{v.real:.15e},{v.imag:.15e}" for z, v in zip(zs, vals)]
    text = "\n".join(lines)
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_zeros(args) -> int:
    got = ba.quadrature_zeros(args.function, args.count)
    table = ba.reference_table(args.function)
    payload = {**_meta(), "function": args.function,
               "quadrature_zeros": [f"{z:.12f}" for z in got.zeros],
               "reference_zeros": list(table.zeros),
               "reference_provenance": table.provenance}
    _emit(payload, args.json)
    return 0


def cmd_calibrate(args) -> int:
    res = run_row(args.row, N=args.N)
    payload = {**_meta(), "row": args.row,
               "A": to_decimal(res.calibration.A),
               "c": to_decimal(res.calibration.c),
               "estimated_zeros": [to_decimal(z) for z in res.estimated_zeros[:args.count]],
               "reference_zeros": list(res.reference.zeros[:args.count]),
               "on_critical_line": res.table_row.on_critical_line,
               "n_complex_pairs": res.table_row.n_complex_pairs}
    _emit(payload, args.json)
    return 0


def cmd_table1(args) -> int:
    rows = [r.strip() for r in args.rows.split(",")] if args.rows else list(ROW_IDS)
    results = {}
    failures = {}
    for rid in rows:
        if rid not in ROW_IDS:
            raise ValueError(f"unknown row {rid!r}; known: {ROW_IDS}")
        try:
            results[rid] = run_row(rid, N=args.N).table_row
        except Exception as exc:  # partial table with failure markers
            failures[rid] = f"{type(exc).__name__}: {exc}"
    if set(rows) == set(ROW_IDS) and not failures:
        report = build_table1(results, N=args.N, precision=working_dps())
        if args.json is not None:
            _emit(json.loads(report.to_json()), args.json)
        else:
            print(report.to_text())
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(report.to_csv())
    else:
        for rid in rows:
            if rid in results:
                r = results[rid]
                print(f"{rid:>14s}: z3 = {pretty(r.z3_estimated)} "
                      f"(exact {pretty(r.z3_exact)})  on-CL {r.on_critical_line}  "
                      f"A = {pretty(r.A)}  c = {pretty(r.c)}")
            else:
                print(f"{rid:>14s}: FAILED  {failures[rid]}")
    return 3 if failures else 0


def _master_potential(args):
    if args.row:
        _, _, params = row_model(ROWS[args.row], args.N)
    else:
        params = double_scaling(args.p, args.N, tuple(args.s.split(",")) if args.s else ())
    return build_potential(params), float(params.g)


def cmd_master(args) -> int:
    potential, g = _master_potential(args)
    if args.g is not None:
        g = args.g
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    out = []
    for seed in seeds:
        cfg = mf.MasterConfig(N=args.N, g=g, potential=potential, seed=seed,
                              sigma=args.sigma, max_iters=args.max_iters,
                              restarts=args.restarts, tau=args.tau,
                              hermitian=not args.general)
        res = mf.optimize(cfg)
        out.append({"seed": seed, "cost": res.cost,
                    "obstruction": res.obstruction,
                    "iterations": res.iterations,
                    "trace": list(res.trace)})
    _emit({**_meta(), "N": args.N, "g": g, "results": out}, args.json)
    return 0


def cmd_saddle(args) -> int:
    potential, g = _master_potential(args)
    if args.g is not None:
        g = args.g
    res = mf.saddle_solve(potential, g, args.N, seed=args.seed,
                          max_iters=args.max_iters)
    _emit({**_meta(), "N": args.N, "g": g,
           "a": [float(x) for x in res.a], "b": [float(x) for x in res.b],
           "residual_norm": res.residual_norm, "iterations": res.iterations,
           "converged": res.converged}, args.json)
    return 0 if res.converged else 3


def _add_potential_args(sp):
    sp.add_argument("--kind", choices=KINDS, help="potential family")
    sp.add_argument("--p", type=int, default=None, help=f"model degree (default {DEFAULT_P})")
    sp.add_argument("--degree", type=int, default=None, help="monomial degree 2n")
    sp.add_argument("--s", default=None, help="comma-separated explicit couplings s_1..s_{p-2}")
    sp.add_argument("--max-terms", type=int, default=64, dest="max_terms")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xilab",
        description="(p,1) two-matrix-model laboratory: characteristic polynomials, "
                    "root classification, Baker-Akhiezer zeros, calibration reports, "
                    "master-field and saddle solvers.")
    ap.add_argument("--precision", type=int, default=None,
                    help="working precision in decimal digits (>= 15); "
                         "default from XI_LAB_PRECISION or 60")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expand", help="Taylor expansion and normalized couplings")
    _add_potential_args(sp)
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser(
        "solve", help="characteristic polynomial and roots",
        description="--csv writes the root list with columns: re, im, is_real.")
    _add_potential_args(sp)
    sp.add_argument("--row", choices=ROW_IDS,
                    help="run a catalogued report row, with its own potential and g")
    sp.add_argument("--hermite", action="store_true", default=None,
                    help="quadratic-model closed-form case")
    sp.add_argument("--N", type=int, default=16)
    sp.add_argument("--g", default=None, help="override the coupling constant g")
    sp.add_argument("--g-mode", choices=("corrected", "plain"), default=None,
                    dest="g_mode", help="default corrected")
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.add_argument("--csv", default=None, metavar="PATH", help="roots as CSV")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser(
        "psi", help="Baker-Akhiezer function on a z grid (CSV)",
        description="CSV columns: z, re_psi, im_psi. A leading '#' comment "
                    "line records the function, precision and backend.")
    sp.add_argument("--function", required=True,
                    help=f"one of {sorted(ba.QUADRATURE_INTEGRANDS)}")
    sp.add_argument("--zmin", type=float, default=0.0)
    sp.add_argument("--zmax", type=float, default=12.0)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--out", default="-", metavar="PATH")
    sp.set_defaults(func=cmd_psi)

    sp = sub.add_parser("zeros", help="Baker-Akhiezer zeros by quadrature scan")
    sp.add_argument("--function", required=True,
                    help=f"one of {sorted(ba.QUADRATURE_INTEGRANDS)}")
    sp.add_argument("--count", type=int, default=3)
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_zeros)

    sp = sub.add_parser("calibrate", help="fit one row's roots onto reference zeros")
    sp.add_argument("--row", choices=ROW_IDS, required=True)
    sp.add_argument("--N", type=int, default=16)
    sp.add_argument("--count", type=int, default=3)
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("table1", help="all eight report rows")
    sp.add_argument("--N", type=int, default=16)
    sp.add_argument("--rows", default=None, help="comma-separated subset of rows")
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.add_argument("--csv", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("master", help="quenched master-field least squares")
    sp.add_argument("--N", type=int, default=4)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--row", choices=ROW_IDS, default=None,
                    help="take the potential from a catalogued row")
    sp.add_argument("--s", default="", help="explicit couplings for the potential")
    sp.add_argument("--g", type=float, default=None)
    sp.add_argument("--sigma", type=float, default=0.0, help="noise scale")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--seeds", default=None, help="comma-separated seed list")
    sp.add_argument("--tau", type=float, default=None, help="obstruction threshold")
    sp.add_argument("--max-iters", type=int, default=200, dest="max_iters")
    sp.add_argument("--restarts", type=int, default=4)
    sp.add_argument("--general", action="store_true",
                    help="drop the Hermitian constraint on the unknowns")
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_master)

    sp = sub.add_parser("saddle", help="saddle-point eigenvalue solver")
    sp.add_argument("--N", type=int, default=4)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--row", choices=ROW_IDS, default=None)
    sp.add_argument("--s", default="", help="explicit couplings for the potential")
    sp.add_argument("--g", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-iters", type=int, default=250, dest="max_iters")
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_saddle)

    return ap


def _set_precision(dps: int | None) -> None:
    """Apply --precision, else XI_LAB_PRECISION; with neither, leave it as is."""
    if dps is None:
        env = os.environ.get("XI_LAB_PRECISION")
        if env is None:
            return
        try:
            dps = int(env)
        except ValueError:
            raise ValueError(f"XI_LAB_PRECISION must be an integer, got {env!r}") from None
    set_working_dps(dps)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _set_precision(args.precision)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
