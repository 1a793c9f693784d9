"""Command-line front end.

One subcommand per pipeline stage so intermediate artifacts stay
inspectable:

    expand  Taylor-expand a potential and print normalized couplings
    solve   build Q_N, find and classify its roots
    psi     evaluate a Baker-Akhiezer function on a z-grid (CSV)
    zeros   locate Baker-Akhiezer zeros by quadrature scan
    table1  run the report rows (all eight, or --rows) and render the report
    master  quenched master-field least squares
    saddle  saddle-point eigenvalue solver

Exit codes: 0 ok, 2 config/spec error (a ValueError), 3 numerical failure
(an errors.XilabError); any other exception is a bug and keeps its
traceback. A table1 row that fails prints its failure on stderr; the other
rows still render.

``main`` is the one place that decides the working precision: --precision,
else 60 digits, at least 15; no environment variable or other ambient state
enters. It runs the subcommand inside ``mp.workdps`` and leaves mpmath's
precision as it found it. The extended-precision commands (expand, solve,
table1) report that precision; the float64 ones (psi, zeros, master, saddle)
accept the flag but do not use it, and do not print it.
In JSON, extended-precision numbers are decimal strings at full working
precision, published reference zeros are decimal strings as published,
zeros' quadrature zeros are 12-decimal strings, and master and saddle print
float64 JSON numbers. Tables round to 6 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys

import mpmath as mp
import numpy as np
from mpmath import mpf

from . import baker_akhiezer as ba
from . import errors as err
from . import master_field as mf
from .matrix_model import build_potential
from .pipeline import (ROW_IDS, ROWS, build_model, build_table1, expand_spec,
                       run_from_spec, run_model, run_row)
from .potentials import KINDS, PotentialSpec
from .precision import DEFAULT_DPS, MIN_DPS, pretty, to_decimal
# not called here; kept because perfbench/layers.py wraps these cli attributes
from .potentials import taylor_u  # noqa: F401
from .scaling import cosh_couplings, double_scaling, rescale_potential  # noqa: F401

CONFIG_ERRORS = ValueError

#: psi rows summed and written at a time
PSI_ROWS = 4096


def _reject_ignored(args, dests, reason: str) -> None:
    """Config error naming each flag in ``dests`` (argparse dests) that was
    given although the chosen mode ignores it; ``reason`` says why."""
    given = [f"--{dest.replace('_', '-')}" for dest in dests
             if getattr(args, dest, None) is not None]
    if given:
        raise ValueError(f"{reason}; drop {', '.join(given)}")


def _number(text: str) -> str:
    """A number kept as text, to convert at the working precision (an argparse type)."""
    try:
        mpf(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    return text.strip()


def _couplings(text: str) -> tuple:
    """Comma-separated couplings, each as ``_number`` reads it."""
    return tuple(_number(v) for v in text.split(","))


def _seed(text: str) -> int:
    """A non-negative integer seed (an argparse type, so a bad one names its flag)."""
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _seeds(text: str) -> list:
    """Comma-separated seeds, each as ``_seed`` reads it."""
    return [_seed(v) for v in text.split(",")]


def _potential(args) -> tuple:
    """The --kind potential (master and saddle have no --kind: the explicit
    kind) and the model degree, --p or the command's default. --s is the
    explicit kind's couplings (without it, none), so another kind rejects it."""
    kind = getattr(args, "kind", "explicit")
    p = args.default_p if args.p is None else args.p
    if kind != "explicit":
        _reject_ignored(args, ("s",), f"the {kind} potential does not read this flag")
        return PotentialSpec(kind), p
    return PotentialSpec("explicit", p=p, s=args.s or ()), p


def _model_params(args):
    """The ModelParams of --row, which rejects the potential flags, or of
    ``_potential``; --g replaces its g."""
    if args.row:
        _reject_ignored(args, ("kind", "p", "s"),
                        f"--row {args.row} takes its potential from the row")
        return ROWS[args.row].model(args.N, args.g)
    return build_model(*_potential(args), args.N, args.g)


@contextlib.contextmanager
def _output(path: str | None):
    """The file at ``path`` open for writing, or stdout when ``path`` is None or "-"."""
    if path and path != "-":
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _write(text: str, path: str | None) -> None:
    with _output(path) as fh:
        fh.write(text)


def _emit(payload: dict, path: str | None) -> None:
    _write(json.dumps(payload, indent=2) + "\n", path)


def cmd_expand(args) -> int:
    if args.kind is None:
        raise ValueError("expand needs a potential: --kind")
    spec, p = _potential(args)
    order = p + 1
    u, scaled = expand_spec(spec, p)
    if args.json is not None:
        _emit({"precision": args.precision,
               "a": [to_decimal(u[n]) for n in range(order + 1)],
               "scaled": scaled.as_dict()}, args.json)
        return 0
    print(f"# kind={spec.kind} p={p} precision={args.precision}")
    # display floor: values below half the working digits of their scale are
    # rounding dust
    floor = mpf(10) ** -(args.precision // 2)
    print("expansion coefficients a_n:")
    afloor = floor * max(abs(c) for c in u)
    for n in range(order + 1):
        if abs(u[n]) > afloor:
            print(f"  a_{n:<2d} = {pretty(u[n])}")
    print(f"rescale factor = {pretty(scaled.lam)}")
    print("couplings:")
    sfloor = floor * max([abs(v) for v in scaled.s] or [mpf(1)])
    for k, sv in enumerate(scaled.s, start=1):
        if abs(sv) > sfloor:
            print(f"  s_{k} = {pretty(sv)}")
    return 0


def cmd_solve(args) -> int:
    if args.row:
        run = run_model(_model_params(args))
    elif args.kind is None:
        raise ValueError("solve needs a potential: --kind or --row")
    else:
        run = run_from_spec(*_potential(args), args.N, g=args.g)
    if args.json is not None:
        _emit({"precision": args.precision,
               "params": {"p": run.params.p, "N": run.params.N,
                          "g": to_decimal(run.params.g),
                          "epsilon": to_decimal(run.params.epsilon),
                          "s": [to_decimal(v) for v in run.params.s]},
               "q": run.q.as_dict(),
               "roots": run.roots.as_dict()}, args.json)
    else:
        print(f"# p={run.params.p} N={run.params.N} g={pretty(run.params.g, 9)} "
              f"precision={args.precision}")
        print("Q coefficients (highest degree first):")
        print("  " + ", ".join(pretty(c) for c in reversed(run.q.coeffs)))
        print("roots:")
        for r, flag in zip(run.roots.roots, run.roots.is_real):
            tag = "real" if flag else "complex"
            print(f"  {pretty(mp.re(r)):>14s} {pretty(mp.im(r)):>14s}i  [{tag}]")
        print(f"on critical line: {run.roots.on_critical_line} "
              f"({run.roots.n_complex_pairs} complex pairs)")
    if args.csv:
        _write(run.roots.to_csv(), args.csv)
    return 0


def cmd_psi(args) -> int:
    """The grid zmin + k * step for k = 0, 1, ... while below zmax + step/2,
    summed and written PSI_ROWS rows at a time, so memory stays flat however
    long the grid."""
    if not args.step > 0:
        raise ValueError(f"--step must be positive, got {args.step}")
    if args.zmax < args.zmin:
        raise ValueError(f"--zmax {args.zmax} is below --zmin {args.zmin}")
    make = ba.integrand(args.function)
    if not all(map(math.isfinite, (args.zmin, args.zmax, args.step))):
        raise ValueError("--zmin, --zmax and --step must be finite")
    n = math.ceil((args.zmax + args.step / 2 - args.zmin) / args.step)
    if n > np.iinfo(np.intp).max:
        raise ValueError(f"a grid of {n:.3g} rows is longer than an array can index")
    # the grid's largest |z| is at one of its ends: refuse an out-of-band grid
    # before the integrand is built or any row is written
    ba.in_band([args.zmin, args.zmin + (n - 1) * args.step])
    f = make()
    with _output(args.out) as fh:
        fh.write(f"# function={args.function}\nz,re_psi,im_psi\n")
        for lo in range(0, n, PSI_ROWS):
            zs = args.zmin + np.arange(lo, min(n, lo + PSI_ROWS)) * args.step
            fh.write("".join(f"{z:.12g},{v.real:.15e},{v.imag:.15e}\n"
                             for z, v in zip(zs, f.psi_grid(zs))))
    return 0


def cmd_zeros(args) -> int:
    ba.integrand(args.function)  # an unknown name fails as it does in psi
    table = ba.reference_table(args.function)
    got = ba.quadrature_zeros(args.function, args.count)
    _emit({"function": args.function,
           "quadrature_zeros": [f"{z:.12f}" for z in got],
           "reference_zeros": [str(z) for z in table],
           "reference_provenance": "published-table"}, args.json)
    return 0


def cmd_table1(args) -> int:
    rows = [r.strip() for r in args.rows.split(",")] if args.rows else ROW_IDS
    unknown = [r for r in rows if r not in ROWS]
    if unknown:
        raise ValueError(f"unknown rows {unknown}; known: {ROW_IDS}")
    repeated = sorted({r for r in rows if rows.count(r) > 1})
    if repeated:
        raise ValueError(f"rows {repeated} given more than once")
    results = {}
    failed = False
    for rid in rows:
        try:
            results[rid] = run_row(rid, N=args.N)
        except err.XilabError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            failed = True
    if results:
        report = build_table1(results, N=args.N, precision=args.precision)
        if args.json is not None:
            _emit(report.as_dict(), args.json)
        else:
            print(report.to_text())
        if args.csv:
            _write(report.to_csv(), args.csv)
    return 3 if failed else 0


def _float64_model(args) -> tuple:
    """The potential and float(g) of ``_model_params`` for master and saddle,
    which run in float64. A g or a V' coefficient that is finite at the
    working precision can round to inf, or g to 0, in float64: a config
    error naming its flag (--g, else the --s couplings g is computed from)."""
    params = _model_params(args)
    potential, g = build_potential(params), float(params.g)
    if not (math.isfinite(g) and g > 0):
        flag = "--g" if args.g is not None else "--s"
        raise ValueError(f"{flag} gives g = {mp.nstr(params.g, 8)} outside float64's range")
    if not all(math.isfinite(float(c)) for c in potential.v_shifted_prime_coeffs()):
        raise ValueError("--s gives potential coefficients outside float64's range")
    return potential, g


def cmd_master(args) -> int:
    potential, g = _float64_model(args)
    out = []
    for seed in args.seeds:
        cfg = mf.MasterConfig(N=args.N, g=g, potential=potential, seed=seed,
                              sigma=args.sigma, hermitian=not args.general)
        res = mf.optimize(cfg)
        out.append({"seed": seed, "cost": res.cost,
                    "obstruction": res.obstruction,
                    "iterations": res.iterations,
                    "stop": res.stop, "restarts": res.restarts,
                    "trace": list(res.trace)})
    _emit({"N": args.N, "g": g, "results": out}, args.json)
    return 0


def cmd_saddle(args) -> int:
    potential, g = _float64_model(args)
    res = mf.saddle_solve(potential, g, args.N, seed=args.seed)
    if not res.converged:
        print(f"numerical failure: no start reached a real solution "
              f"(best residual {res.residual_norm:.3e})", file=sys.stderr)
    _emit({"N": args.N, "g": g,
           "a": [float(x) for x in res.a], "b": [float(x) for x in res.b],
           "residual_norm": res.residual_norm, "iterations": res.iterations,
           "converged": res.converged,
           "solutions": [{"a": [float(x) for x in a], "b": [float(x) for x in b],
                          "residual_norm": r} for a, b, r in res.solutions],
           "n_complex": res.n_complex}, args.json)
    return 0 if res.converged else 3


def _add_model_args(sp, *, p: int, N: int | None = None) -> None:
    """--p (default p) and --s; given a default N, also a model run's --row,
    --N and --g. --p reads None when not given, so that --row can reject it."""
    sp.add_argument("--p", type=int, help=f"model degree (default {p})")
    sp.add_argument("--s", type=_couplings, help="comma-separated explicit couplings s_1..s_{p-2}")
    sp.set_defaults(default_p=p)
    if N is not None:
        sp.add_argument("--row", choices=ROW_IDS, help="a catalogued row's potential and g")
        sp.add_argument("--N", type=int, default=N)
        sp.add_argument("--g", type=_number, help="replaces the model's coupling constant g")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: in-process ``main`` calls share it."""
    ap = argparse.ArgumentParser(
        prog="xilab", allow_abbrev=False,
        description="(p,1) two-matrix-model laboratory: characteristic polynomials, "
                    "root classification, Baker-Akhiezer zeros, calibration reports, "
                    "master-field and saddle solvers.")
    ap.add_argument("--precision", type=int, default=DEFAULT_DPS,
                    help=f"working precision in decimal digits (>= {MIN_DPS}, "
                         f"default {DEFAULT_DPS})")
    sub = ap.add_subparsers(dest="command", required=True)
    # one spelling per flag: argparse would otherwise take a prefix of a flag
    # (--seed for --seeds) as that flag
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add("expand", help="Taylor expansion and normalized couplings")
    sp.add_argument("--kind", choices=KINDS, help="potential family")
    _add_model_args(sp, p=7)
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_expand)

    sp = add(
        "solve", help="characteristic polynomial and roots",
        description="--csv writes the root list with columns: re, im, is_real.")
    sp.add_argument("--kind", choices=KINDS, help="potential family")
    _add_model_args(sp, p=7, N=16)
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.add_argument("--csv", default=None, metavar="PATH", help="roots as CSV")
    sp.set_defaults(func=cmd_solve)

    sp = add(
        "psi", help="Baker-Akhiezer function on a z grid (CSV)",
        description="CSV columns: z, re_psi, im_psi. A leading '#' comment "
                    "line records the function.")
    sp.add_argument("--function", required=True,
                    help=f"one of {sorted(ba.QUADRATURE_INTEGRANDS)}")
    sp.add_argument("--zmin", type=float, default=0.0)
    sp.add_argument("--zmax", type=float, default=12.0)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--out", default="-", metavar="PATH")
    sp.set_defaults(func=cmd_psi)

    sp = add("zeros", help="Baker-Akhiezer zeros by quadrature scan")
    sp.add_argument("--function", required=True,
                    help=f"one of {sorted(ba.QUADRATURE_INTEGRANDS)}")
    sp.add_argument("--count", type=int, default=3)
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_zeros)

    sp = add(
        "table1", help="the report rows, fitted onto their reference zeros",
        description="A row that fails prints its failure on stderr; the rows "
                    "that ran still render, and the exit code is 3.")
    sp.add_argument("--N", type=int, default=16)
    sp.add_argument("--rows", default=None, help="comma-separated subset of rows")
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.add_argument("--csv", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_table1)

    sp = add("master", help="quenched master-field least squares")
    _add_model_args(sp, p=2, N=4)
    sp.add_argument("--sigma", type=float, default=0.0, help="noise scale")
    sp.add_argument("--seeds", type=_seeds, default="0",
                    help="comma-separated seed list (default 0)")
    sp.add_argument("--general", action="store_true",
                    help="drop the Hermitian constraint on the unknowns")
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_master)

    sp = add("saddle", help="saddle-point eigenvalue solver")
    _add_model_args(sp, p=3, N=4)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_saddle)

    return ap


def _glue_negative_s(argv: list) -> list:
    """argv with ``--s V`` joined into ``--s=V`` where V starts with '-' and a
    digit or '.': argparse reads a token like -1,0,3 as an unknown flag, not
    as --s's value (it takes only -N and -N.N for negative numbers)."""
    out = []
    for tok in argv:
        if out and out[-1] == "--s" and re.match(r"-[0-9.]", tok):
            out[-1] = f"--s={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _glue_negative_s(sys.argv[1:] if argv is None else argv))
    if args.precision < MIN_DPS:
        print(f"error: working precision must be >= {MIN_DPS} digits, "
              f"got {args.precision}", file=sys.stderr)
        return 2
    try:
        with mp.workdps(args.precision):
            return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except err.XilabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
