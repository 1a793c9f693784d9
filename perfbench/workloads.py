"""The three workloads: inputs drawn from the seed, CLI operations, checks.

Every operation is one call of ``xilab.cli.main(argv)`` with an explicit
``--precision`` (the flag sets the process-global working precision and never
restores it, and the quadrature tail cutoff reads that global). The program
receives only the generated argv.

Why each workload:

* ``table1`` -- the paper's headline report: all eight rows at N=16 and 60
  digits, in a seed-permuted row order. ``roots.find_roots`` takes ~97% of
  it. It mixes all-real rows with complex-pair rows (riemann, ramanujan,
  eta_gamma at p=19), so a root finder that misclassifies a near-real pair
  fails a check.
* ``high_n`` -- the README precision table at the degrees where one Aberth
  sweep costs most: the riemann row at N=48 / 100 digits (46 real roots and
  one pair) and a seeded explicit (7,1) model at N=32 / 80 digits. It uses
  the root finder differently from ``table1``, so a warm-start or stopping
  change that wins at N=48 but loses at N=16, or the reverse, shows.
* ``float64`` -- no extended-precision layer runs: quadrature zero scans
  plus bisection for four integrands, the dense eta_gamma_corrected psi grid
  (its z-by-node phase matrix is the memory peak), the master-field
  Gauss-Newton solver and the README saddle example. It isolates the Fourier
  kernel (scan vs bisection), memory that grows with the grid, and the
  Gauss-Newton solver.

``BENCHMARK.json`` gates ``table1`` and ``float64`` only. One ``high_n`` pass
is a single 22-35 s riemann solve plus the explicit set (2-vCPU shared
host), so a run within the time budget holds one pass and its ``wall_s``
cannot be a median; its spread over seeded runs exceeded the largest bound
the benchmark may set. Its layers (roots, matrix_model) are measured on
``table1``; ``python3 perfbench/run.py --workload high_n`` still runs it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import mpmath as mp
import numpy as np

# ---------------------------------------------------------------------------
# published values (the ones tests/test_acceptance.py asserts)

TABLE1_ROWS = ("airy", "riemann", "ramanujan", "gen_airy", "gen_airy_m130",
               "gen_airy_133", "bessel_k", "eta_gamma")

#: N=16, 60 digits: complex pairs, then A, c and calibrated z3 where published
TABLE1_PUBLISHED = {
    "airy": {"pairs": 0, "zeros": ("-2.17335", "-4.01259", "-5.56709")},
    "riemann": {"pairs": 1, "A": "2.20867", "c": "64.5702", "z3": "26.5505"},
    "ramanujan": {"pairs": 1, "A": "1.52532", "c": "42.3072", "z3": "17.6636"},
    "gen_airy": {"pairs": 0, "z3": "7.13834"},
    "gen_airy_m130": {"pairs": 0, "z3": "8.50607"},
    "gen_airy_133": {"pairs": 0, "z3": "10.5535"},
    "bessel_k": {"pairs": 0, "A": "0.193542", "c": "16.0687", "z3": "5.80583"},
    "eta_gamma": {"pairs": 1, "A": "2.7621", "c": "61.2001", "z3": "26.527"},
}
AIRY_TOL = "1e-4"
TABLE1_TOL = "1e-3"

#: published zero tables of the Baker-Akhiezer functions
REFERENCE_ZEROS = {
    "riemann": (14.1347, 21.022, 25.0109),
    "bessel_k": (2.96255, 4.53449, 5.87987),
    "gen_airy": (2.56503, 5.08746, 7.53357),
    "gen_airy_m130": (2.89881, 5.99627, 8.6996),
    "gen_airy_133": (4.17486, 7.69736, 10.9217),
}
QUADRATURE_TOL = 1e-3

#: real roots and complex pairs of the riemann row at N=48, 100 digits, as
#: the seed commit computes them
HIGH_N_RIEMANN_CLASSES = (46, 1)

PSI_GRID = (0.0, 26.0, 0.02)          # zmin, zmax, step
PSI_SAMPLE_EVERY = 100                # rows checked against a direct sum
PSI_SAMPLE_TOL = 1e-12                # relative to the integral of e^{-U}
DIP_DEPTH = 1e-2                      # magnitude_minima's dip rule


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of its standard output."""

    name: str
    argv: tuple
    check: Callable[[str], "Verdict"]


@dataclass
class Verdict:
    problems: list
    zero_rel_errs: list
    #: findings that do not fail the op, listed with it
    notes: list = field(default_factory=list)


#: (op name, failure reason) pairs that fail at the seed commit, documented
#: in ROADMAP.md; they count as failed ops but do not make a run incorrect
KNOWN_FAILURES = {
    ("saddle", "exit 3"),
    ("psi_eta_gamma_corrected", "no |psi| dip within 0.02 of 25.0109"),
}


# ---------------------------------------------------------------------------
# inputs from the seed


def table1_order(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [TABLE1_ROWS[i] for i in rng.permutation(len(TABLE1_ROWS))]


def explicit_couplings(seed: int, double_scaling, p: int = 7, N: int = 32) -> tuple:
    """s_k ~ U(-3, 3), redrawn while double_scaling rejects them."""
    rng = np.random.default_rng(seed)
    while True:
        s = tuple(str(round(float(x), 6)) for x in rng.uniform(-3, 3, p - 2))
        try:
            double_scaling(p, N, s)
        except Exception:  # outside the model's domain (g <= 0): redraw
            continue
        return s


def master_seeds(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    return tuple(int(v) for v in rng.choice(10_000, size=2, replace=False))


def make_ops(workload: str, seed: int, xilab) -> list:
    """The workload's operations for this seed; ``xilab.scaling`` validates
    the drawn explicit couplings."""
    if workload == "table1":
        order = ",".join(table1_order(seed))
        return [Op("table1", ("--precision", "60", "table1", "--rows", order,
                              "--N", "16", "--json"), check_table1)]
    if workload == "high_n":
        s = explicit_couplings(seed, xilab.scaling.double_scaling)
        return [
            Op("riemann_N48", ("--precision", "100", "solve", "--row", "riemann",
                               "--N", "48", "--json"),
               lambda out: check_solve(out, 100, 48, HIGH_N_RIEMANN_CLASSES,
                                       REFERENCE_ZEROS["riemann"], criterion9=True)),
            Op("explicit_N32", ("--precision", "80", "solve", "--kind", "explicit",
                                "--p", "7", "--s=" + ",".join(s), "--N", "32",
                                "--json"),
               lambda out: check_solve(out, 80, 32, None, None, criterion9=False)),
        ]
    if workload == "float64":
        ops = [Op(f"zeros_{fn}", ("--precision", "60", "zeros", "--function", fn,
                                  "--json"),
                  lambda out, fn=fn: check_zeros(out, fn))
               for fn in ("bessel_k", "gen_airy", "gen_airy_m130", "gen_airy_133")]
        zmin, zmax, step = PSI_GRID
        ops.append(Op("psi_eta_gamma_corrected",
                      ("--precision", "60", "psi", "--function", "eta_gamma_corrected",
                       "--zmin", str(zmin), "--zmax", str(zmax), "--step", str(step)),
                      check_psi))
        seeds = master_seeds(seed)
        ops.append(Op("master", ("--precision", "60", "master", "--N", "12", "--p", "3",
                                 "--s", "1.5", "--sigma", "0.1",
                                 "--seeds", ",".join(map(str, seeds)), "--json"),
                      lambda out: check_master(out, seeds)))
        ops.append(Op("saddle", ("--precision", "60", "saddle", "--N", "4", "--p", "3",
                                 "--s", "1.5", "--g", "1.0", "--json"),
                      check_saddle))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("table1", "high_n", "float64")


# ---------------------------------------------------------------------------
# checks


def _rel(got, want) -> float:
    want = mp.mpf(want)
    return float(abs(mp.mpf(got) - want) / abs(want))


def check_table1(out: str) -> Verdict:
    v = Verdict([], [])
    payload = json.loads(out)
    rows = {r["function"]: r for r in payload["rows"]}
    if payload["N"] != 16 or sorted(rows) != sorted(TABLE1_ROWS):
        v.problems.append(f"report covers {sorted(rows)} at N={payload['N']}")
        return v
    with mp.workdps(payload["precision"]):
        for rid, pub in TABLE1_PUBLISHED.items():
            row = rows[rid]
            if row["n_complex_pairs"] != pub["pairs"] or \
                    row["on_critical_line"] != (pub["pairs"] == 0):
                v.problems.append(f"{rid}: {row['n_complex_pairs']} complex pairs, "
                                  f"published {pub['pairs']}")
            pairs = [("A", row["A"], pub.get("A")), ("c", row["c"], pub.get("c"))]
            if "zeros" in pub:
                pairs += [(f"z{i + 1}", got, want) for i, (got, want)
                          in enumerate(zip(row["estimated_zeros"], pub["zeros"]))]
            else:
                pairs.append(("z3", row["z3_estimated"], pub["z3"]))
            tol = float(AIRY_TOL if rid == "airy" else TABLE1_TOL)
            for label, got, want in pairs:
                if want is None:
                    continue
                err = _rel(got, want)
                if label.startswith("z"):
                    v.zero_rel_errs.append(err)
                if not err < tol:
                    v.problems.append(f"{rid}: {label} = {mp.nstr(mp.mpf(got), 8)}, "
                                      f"published {want} (rel {err:.2e})")
    return v


def _expand(lead, roots) -> list:
    """Coefficients of lead * prod(b - r), lowest degree first."""
    cs = [mp.mpc(lead)]
    for r in roots:
        nxt = [mp.mpc(0)] * (len(cs) + 1)
        for d, c in enumerate(cs):
            nxt[d + 1] += c
            nxt[d] -= c * r
        cs = nxt
    return cs


def _poly_and_deriv(coeffs, z):
    p, dp = mp.mpc(0), mp.mpc(0)
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def check_solve(out: str, dps: int, N: int, classes, ref_zeros, *,
                criterion9: bool) -> Verdict:
    """Checks of a ``solve --json`` root set.

    Always, per root, against the coefficients at ``dps + 40`` digits (not
    the residuals the output reports):

    * backward error ``|Q(z)| / sum |q_n| |z|^n`` within the program's
      ``10^-(dps/2)`` target;
    * forward error ``|z - z*|``, with ``z*`` the root refined by Newton
      steps, within ``2N eps K``: the rounding error of evaluating Q by
      Horner at ``dps`` digits (``2N eps sum |q_n| |z|^n``) divided by
      ``|Q'(z*)|``, i.e. as accurate as ``dps`` digits allow;
    * ``z`` nearer ``z*`` than ``z*`` is to any other refined root, so no
      root is found twice and, with N roots, none is missed.

    Also conjugate symmetry, the seed commit's classification when
    ``classes`` is given, and the calibrated z3 against the published zero
    when ``ref_zeros`` is given.

    Criterion 9's reconstruction bound, ``10^-(dps - 15 - log10 spread)``
    times the largest coefficient, leaves out the condition ``K`` of the
    roots; the suite asserts it on the catalogued polynomials only. With
    ``criterion9`` it is a check; without, a breach is kept as a note.
    """
    v = Verdict([], [])
    payload = json.loads(out)
    if payload["precision"] != dps or payload["params"]["N"] != N:
        v.problems.append(f"ran at {payload['precision']} digits, "
                          f"N={payload['params']['N']}")
        return v
    roots = payload["roots"]["roots"]
    with mp.workdps(dps):
        eps = +mp.eps
        coeffs = [mp.mpf(c) for c in payload["q"]["coeffs"]]
        zs = [mp.mpc(r["re"], r["im"]) for r in roots]
        if len(zs) != N or len(coeffs) != N + 1:
            v.problems.append(f"{len(zs)} roots, {len(coeffs)} coefficients")
            return v
        big = max(abs(c) for c in coeffs)
        spread = big / max(abs(coeffs[-1]), mp.mpf(1))
        bound = mp.mpf(10) ** (-(dps - 15 - mp.log10(spread))) * big
        with mp.workdps(dps + 20):
            back = _expand(coeffs[-1], zs)
        err = max(abs(b.real - c) for b, c in zip(back, coeffs))
        if not err < bound:
            msg = f"reconstruction error {mp.nstr(err, 3)} above bound {mp.nstr(bound, 3)}"
            (v.problems if criterion9 else v.notes).append(msg)
        pts = {(z.real, z.imag) for z in zs}
        if not all((re, -im) in pts for re, im in pts):
            v.problems.append("root set is not conjugate-symmetric")
    with mp.workdps(dps + 40):
        target = mp.mpf(10) ** (-(dps // 2))
        refined, backward, forward, limit = [], [], [], []
        for z in zs:
            p, _ = _poly_and_deriv(coeffs, z)
            backward.append(abs(p) / sum(abs(c) * abs(z) ** n
                                         for n, c in enumerate(coeffs)))
            r = z
            for _ in range(2):
                p, dp = _poly_and_deriv(coeffs, r)
                if dp == 0:
                    break
                r -= p / dp
            refined.append(r)
            forward.append(abs(z - r))
            limit.append(2 * N * eps * sum(abs(c) * abs(r) ** n
                                           for n, c in enumerate(coeffs)) / abs(dp))
        if max(backward) > target:
            v.problems.append(f"backward error {mp.nstr(max(backward), 3)} above target")
        i = max(range(N), key=lambda i: forward[i] / limit[i])
        if not forward[i] <= limit[i]:
            v.problems.append(f"root {mp.nstr(zs[i], 8)} is {mp.nstr(forward[i], 3)} "
                              f"off, {dps} digits allow {mp.nstr(limit[i], 3)}")
        for i, r in enumerate(refined):
            gap = min(abs(r - q) for j, q in enumerate(refined) if j != i)
            if not forward[i] < gap / 2:
                v.problems.append(f"root {mp.nstr(zs[i], 8)} is not isolated: another "
                                  f"refined root lies {mp.nstr(gap, 3)} away")
                break
    n_real = sum(1 for r in roots if r["is_real"])
    got_classes = (n_real, (N - n_real) // 2)
    if classes is not None and got_classes != tuple(classes):
        v.problems.append(f"{got_classes[0]} real roots and {got_classes[1]} pairs, "
                          f"seed commit {classes[0]} and {classes[1]}")
    if ref_zeros is not None and n_real >= 3:
        with mp.workdps(dps):
            reals = sorted(mp.mpf(r["re"]) for r in roots if r["is_real"])
            z1, z2 = mp.mpf(ref_zeros[0]), mp.mpf(ref_zeros[1])
            A = (z2 - z1) / (reals[1] - reals[0])
            z3 = z1 + A * (reals[2] - reals[0])
            v.zero_rel_errs.append(_rel(z3, ref_zeros[2]))
    return v


def check_zeros(out: str, function: str) -> Verdict:
    v = Verdict([], [])
    payload = json.loads(out)
    got = [float(z) for z in payload["quadrature_zeros"]]
    want = REFERENCE_ZEROS[function]
    if payload["function"] != function or len(got) != len(want):
        v.problems.append(f"{len(got)} zeros for {payload['function']}")
        return v
    for g, w in zip(got, want):
        v.zero_rel_errs.append(abs(g - w) / abs(w))
        if not abs(g - w) < QUADRATURE_TOL:
            v.problems.append(f"zero {g:.6f} vs published {w} (> {QUADRATURE_TOL})")
    return v


def dips(zs, mags, step) -> list:
    """magnitude_minima's rule on a grid: a local minimum of |psi| at least
    1/DIP_DEPTH below the max over a +-1 window in z, scanning stopped once
    that window falls under the float64 noise floor 100 eps |psi(z_0)|."""
    noise = 100 * np.finfo(float).eps * mags[0]
    w = max(1, int(round(1.0 / step)))
    out = []
    for i in range(1, len(zs) - 1):
        if not (mags[i] < mags[i - 1] and mags[i] < mags[i + 1]):
            continue
        envelope = np.max(mags[max(0, i - w): i + w + 1])
        if envelope < noise:
            break
        if mags[i] < DIP_DEPTH * envelope:
            out.append(float(zs[i]))
    return out


def _u_eta_gamma_corrected(x):
    """U(x) = (x + ln 2)/2 + log(e^t + 1) with t = e^{-(x + ln 2)}."""
    t = np.exp(-(x + math.log(2.0)))
    return (x + math.log(2.0)) / 2 + t + np.log1p(np.exp(-t))


def psi_direct(z: float, h: float = 0.02) -> complex:
    """Trapezoid sum of e^{-U(x)} e^{izx} over a uniform grid.

    e^{-U} is below 1e-600 at x = -8 and 1e-69 at x = 320, and the
    integrand is analytic within pi/2 of the real axis, so for z <= 26 the
    sum is exact to float64 rounding.
    """
    x = np.arange(-8.0, 320.0, h)
    w = h * np.exp(-_u_eta_gamma_corrected(x))
    return complex(math.fsum(w * np.cos(z * x)), math.fsum(w * np.sin(z * x)))


def check_psi(out: str) -> Verdict:
    """Grid layout, sampled values against an independent trapezoid sum,
    and a dip at each of the first three zeta zeros."""
    v = Verdict([], [])
    data = np.array([[float(x) for x in ln.split(",")] for ln in out.splitlines()[2:]])
    zmin, zmax, step = PSI_GRID
    n = int(round((zmax - zmin) / step)) + 1
    if data.shape != (n, 3) or not np.allclose(data[:, 0], zmin + step * np.arange(n),
                                               rtol=0, atol=1e-9):
        v.problems.append(f"grid has shape {data.shape}, expected ({n}, 3)")
        return v
    psi = data[:, 1] + 1j * data[:, 2]
    scale = psi_direct(0.0).real
    for i in range(0, n, PSI_SAMPLE_EVERY):
        direct = psi_direct(data[i, 0])
        if not abs(direct - psi[i]) <= PSI_SAMPLE_TOL * scale:
            v.problems.append(f"psi({data[i, 0]:g}) = {psi[i]:.6e}, direct sum "
                              f"{direct:.6e}")
    found = dips(data[:, 0], np.abs(psi), step)
    for ref in REFERENCE_ZEROS["riemann"]:
        near = [z for z in found if abs(z - ref) <= step]
        if near:
            v.zero_rel_errs.append(min(abs(z - ref) for z in near) / ref)
        else:
            v.problems.append(f"no |psi| dip within {step:g} of {ref}")
    return v


def check_master(out: str, seeds) -> Verdict:
    """Per seed: finite cost equal to the last accepted cost of a
    non-increasing trace, and an obstruction flag that matches the default
    threshold 1e-10 (1 + initial cost)."""
    v = Verdict([], [])
    payload = json.loads(out)
    results = payload["results"]
    if [r["seed"] for r in results] != list(seeds) or payload["N"] != 12:
        v.problems.append(f"results for seeds {[r['seed'] for r in results]}")
        return v
    for r in results:
        tr = r["trace"]
        if not (math.isfinite(r["cost"]) and tr and r["cost"] == tr[-1]
                and all(b <= a for a, b in zip(tr, tr[1:]))):
            v.problems.append(f"seed {r['seed']}: cost {r['cost']} vs trace end "
                              f"{tr[-1] if tr else None}, or trace increases")
        if r["obstruction"] != (r["cost"] > 1e-10 * (1.0 + tr[0])):
            v.problems.append(f"seed {r['seed']}: obstruction flag {r['obstruction']} "
                              f"at cost {r['cost']:.3e}")
        if r["iterations"] < 1:
            v.problems.append(f"seed {r['seed']}: {r['iterations']} iterations")
    return v


def check_saddle(out: str) -> Verdict:
    v = Verdict([], [])
    payload = json.loads(out)
    if not (payload["converged"] and payload["residual_norm"] < 1e-10
            and len(payload["a"]) == len(payload["b"]) == payload["N"]):
        v.problems.append(f"residual {payload['residual_norm']:.3e}, "
                          f"converged {payload['converged']}")
    return v
