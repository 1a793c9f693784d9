#!/usr/bin/env python3
"""xilab benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, one process each
    python3 perfbench/run.py --workload table1 --seed 3 --seconds 5 --trace 0

One workload runs in this process: its operations are ``xilab.cli.main``
calls made one after another (one process, no worker threads), repeated in
passes that fit in ``--seconds`` (at least one). Every operation's
output is checked; an operation that raises, exits non-zero or fails its
check counts as failed, is listed with its reason, and the run goes on.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over ten
fresh processes, half before and half after the timed passes, of process
start to ``xilab.cli`` imported and inputs generated), ``wall_s`` (median
over passes of the ops' wall time), ``peak_rss_mb``, ``ok_frac`` and
``zero_rel_err_max``. Both times are put on a fixed host-speed scale by
``hostspeed.py``; the raw times are printed and kept too.
``--trace 1`` runs traced passes instead and reports the per-layer metrics
of ``layers.py``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
environment, the operations and the spans are written to ``.perfbench/``
under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS: the load comes from this
# one process, and the float64 solvers' iterates (summation order) and
# timings then do not depend on how a busy host schedules BLAS workers.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import mpmath
import numpy as np

# the benchmark's own modules sit next to this file
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed
import layers
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 10


def load_xilab():
    """Import xilab from this checkout's ``src``; never an installed copy."""
    if not (SRC / "xilab" / "cli.py").is_file():
        raise SystemExit(f"error: no xilab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from xilab import baker_akhiezer, cli, kernels, master_field, pipeline, scaling
    if Path(cli.__file__).resolve().parent != SRC / "xilab":
        raise SystemExit(f"error: imported xilab from {cli.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, pipeline=pipeline, ba=baker_akhiezer,
                                 mf=master_field, scaling=scaling, kernels=kernels)


def set_up(workload: str, seed: int):
    xilab = load_xilab()
    return xilab, workloads.make_ops(workload, seed, xilab)


def measure_setup(workload: str, seed: int, probes: int) -> list:
    """Process start to inputs generated, in each of ``probes`` fresh
    processes: ``{"raw_s", "timed_s"}``, the second on the host-speed scale."""
    out = []
    for _ in range(probes):
        refs = hostspeed.block()
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        raw = float(done.stdout.split()[-1]) - t0
        refs += hostspeed.block()
        out.append({"raw_s": raw, "timed_s": hostspeed.at_reference(raw, refs)})
    return out


def _blas_threads():
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_OPTIONAL_LOCKS="0")
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(xilab, seed: int) -> dict:
    rev = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernels_backend": xilab.kernels.BACKEND,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "git_dirty": None if rev is None or dirty is None else bool(dirty),
        "seed": seed,
    }


def run_op(main, op):
    """Call the CLI once; returns (start, end, exit code, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op; keep running
        rc = None
        error = f"raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=err)
    return t0, time.perf_counter(), rc, out.getvalue(), err.getvalue(), error


def judge(op, rc, stdout, error) -> workloads.Verdict:
    """Failure reasons, zero relative errors and notes for one finished op."""
    if error is not None:
        return workloads.Verdict([error], [])
    if rc != 0:
        return workloads.Verdict([f"exit {rc}"], [])
    try:
        return op.check(stdout)
    except Exception as exc:  # unparseable output fails the check
        return workloads.Verdict([f"output check raised {type(exc).__name__}: {exc}"], [])


class Runner:
    """Runs passes over a workload's ops and keeps the per-op and per-pass
    records. With ``speed`` (a sampling ``HostSpeed``) a pass's time is put
    on the reference scale; without, it is the ops' wall time."""

    def __init__(self, xilab, ops, tracer, speed=None):
        self.xilab, self.ops, self.tracer, self.speed = xilab, ops, tracer, speed
        self.records, self.pass_records = [], []

    def run_pass(self, label: str) -> float:
        wall, refs = 0.0, []
        for op in self.ops:
            # spans record only inside the op, never during its check
            self.tracer.active = True
            try:
                t0, t1, rc, stdout, stderr, error = run_op(self.xilab.cli.main, op)
            finally:
                self.tracer.active = False
            secs = t1 - t0
            wall += secs
            if self.speed is not None:
                refs += self.speed.within(t0, t1)
            v = judge(op, rc, stdout, error)
            self.records.append({"pass": label, "op": op.name, "argv": list(op.argv),
                                 "seconds": secs, "exit": rc, "failures": v.problems,
                                 "notes": v.notes, "stderr": stderr.strip()[-2000:],
                                 "zero_rel_errs": v.zero_rel_errs})
        timed = wall if self.speed is None else hostspeed.at_reference(wall - sum(refs), refs)
        self.pass_records.append({"pass": label, "wall_raw_s": wall, "ref_samples": len(refs),
                                  "ref_mean_s": statistics.fmean(refs) if refs else None,
                                  "timed_s": timed})
        return timed

    def passes(self, label: str, seconds: float) -> list:
        """Pass times: at least one pass, and another only while it is
        expected (at the median time a pass and its checks took) to end
        within ``seconds``."""
        times, took, start = [], [], time.perf_counter()
        while not times or (time.perf_counter() - start + statistics.median(took)
                            <= seconds):
            t = time.perf_counter()
            times.append(self.run_pass(label))
            took.append(time.perf_counter() - t)
        return times


def summarize(records):
    """(correct, attempted, failed): a run is correct when every failure is
    one of the documented seed-commit failures."""
    failed = [r for r in records if r["failures"]]
    correct = all((r["op"], reason) in workloads.KNOWN_FAILURES
                  for r in failed for reason in r["failures"])
    return correct, len(records), len(failed)


def end_to_end(records, walls, setups, attempted, failed) -> dict:
    errs = [e for r in records for e in r["zero_rel_errs"]]
    return {
        "setup_s": {"value": statistics.median(s["timed_s"] for s in setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "unit": "MB"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "zero_rel_err_max": {"value": max(errs) if errs else 0.0, "unit": "ratio"},
    }


def run_workload(args) -> int:
    xilab, ops = set_up(args.workload, args.seed)
    env = environment(xilab, args.seed)
    tracer = Tracer()
    speed = None if args.trace else hostspeed.HostSpeed()
    runner = Runner(xilab, ops, tracer, speed)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("# env " + json.dumps(env))

    setups = []
    if args.trace:
        with tracer.instrumented(layers.targets(xilab)):
            walls = runner.passes("traced", args.seconds)
        correct, attempted, failed = summarize(runner.records)
        metrics = layers.per_layer(tracer.spans, passes=len(walls),
                                   wall_s=statistics.median(walls),
                                   overhead_s=tracer.overhead_s)
    else:
        # set-up probes on both sides of the timed passes, so setup_s samples
        # the host over the same stretch of time as wall_s
        setups += measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
        with speed.sampling():
            walls = runner.passes("untraced", args.seconds)
        setups += measure_setup(args.workload, args.seed, SETUP_PROBES - len(setups))
        correct, attempted, failed = summarize(runner.records)
        metrics = end_to_end(runner.records, walls, setups, attempted, failed)

    for r in runner.records:
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        status += "".join(f"  (note: {n})" for n in r["notes"])
        print(f"op {r['pass']:>8s} {r['op']:<26s} {r['seconds']:8.3f} s  {status}")
    for p in runner.pass_records:
        ref = "" if p["ref_mean_s"] is None else (
            f"  reference {p['ref_mean_s'] * 1e3:.3f} ms x {p['ref_samples']}")
        print(f"pass {p['pass']:>8s} wall {p['wall_raw_s']:8.3f} s  timed "
              f"{p['timed_s']:8.3f} s{ref}")
    for probe in setups:
        print(f"setup probe raw {probe['raw_s']:.4f} s  timed {probe['timed_s']:.4f} s")
    for name, m in metrics.items():
        print(f"{name:<40s} {m['value']:.6g} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "workload": args.workload, "seconds": args.seconds,
                   "ops": runner.records, "passes": runner.pass_records,
                   "setup_probes": setups,
                   "metrics": metrics,
                   "spans": [s.to_dict() for s in tracer.spans]}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process)."""
    results = {}
    for wl in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", wl, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[wl] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"\n{'metric':<46s}" + "".join(f"{wl:>14s}" for wl in results))
    for name, m in results[workloads.WORKLOADS[0]]["metrics"].items():
        print(f"{name + ' (' + m['unit'] + ')':<46s}" + "".join(
            f"{res['metrics'][name]['value']:>14.6g}" for res in results.values()))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
