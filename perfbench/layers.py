"""Where the benchmark records spans in xilab, and the per-layer metrics.

Each function is wrapped at the attribute its caller resolves at call time:
``cli`` imports ``run_row`` into its own namespace, so the pipeline span
wraps ``cli.run_row``; ``pipeline`` calls ``find_roots`` through its own
global, so the roots span wraps ``pipeline.find_roots``; ``baker_akhiezer``
calls ``fourier_eval`` through its global, and so on. Span names are
``<module>.<function>``; the module part is the layer.

Extended-precision layers: potentials, scaling, matrix_model, roots,
calibration (and pipeline, which chains them). Float64 layers:
baker_akhiezer, kernels, master_field.

Which end-to-end metric a change in each layer should move:

* roots: ``wall_s`` on table1 and high_n (~99% of both at the seed
  commit); nothing on float64.
* matrix_model: ``wall_s`` on high_n by at most ~1%.
* potentials, scaling, calibration, pipeline, cli: each under 1% of
  ``wall_s`` on table1.
* kernels: ``wall_s`` and ``peak_rss_mb`` on float64; nothing elsewhere.
* baker_akhiezer: ``wall_s`` on float64.
* master_field: ``wall_s`` and ``ok_frac`` on float64.
"""

from __future__ import annotations

import mpmath as mp

from tracing import SpanSet, named, prefixed


def _log10(x) -> float:
    """log10 of an mpf; -999 stands for zero (or an undefined spread)."""
    return float(mp.log10(x)) if x > 0 else -999.0


def _observe_roots(args, kwargs, rs):
    return {"degree": len(rs.roots), "complex_pairs": rs.n_complex_pairs,
            "backward_err_log10": _log10(max(rs.residuals))}


def _observe_q(args, kwargs, q):
    lead = abs(q.coeffs[-1])
    spread = max(abs(c) for c in q.coeffs) / lead if lead else 0
    return {"degree": q.N, "coeff_spread_log10": _log10(spread)}


def _observe_fourier(args, kwargs, out):
    xs, _, zs = args[:3]
    return {"z": int(len(zs)), "nodes": int(len(xs))}


def _observe_setup(args, kwargs, f):
    return {"nodes": int(len(f.xs))}


def _observe_optimize(args, kwargs, res):
    return {"iterations": int(res.iterations)}


def _observe_saddle(args, kwargs, res):
    return {"iterations": int(res.iterations), "converged": int(bool(res.converged))}


def targets(xilab):
    """``(owner, attr, span name, observe)`` for every instrumented call.

    ``xilab`` is a namespace holding the imported modules ``cli``,
    ``pipeline``, ``baker_akhiezer`` (``ba``) and ``master_field`` (``mf``).
    """
    cli, pipeline, ba, mf = xilab.cli, xilab.pipeline, xilab.ba, xilab.mf
    out = [(cli, "main", "cli.main", None)]
    for owner in (cli, pipeline):
        for attr in ("double_scaling", "rescale_potential", "cosh_couplings"):
            out.append((owner, attr, f"scaling.{attr}", None))
        out.append((owner, "taylor_u", "potentials.taylor_u", None))
        out.append((owner, "build_potential", "matrix_model.build_potential", None))
    out += [
        (cli, "run_row", "pipeline.run_row", None),
        (cli, "run_model", "pipeline.run_model", None),
        (cli, "run_from_spec", "pipeline.run_from_spec", None),
        (pipeline, "q_polynomial", "matrix_model.q_polynomial", _observe_q),
        (pipeline, "find_roots", "roots.find_roots", _observe_roots),
        (pipeline, "fit_linear", "calibration.fit_linear", None),
        (pipeline, "estimate_zeros", "calibration.estimate_zeros", None),
        (pipeline, "airy_fixed_map", "calibration.airy_fixed_map", None),
        (cli, "build_table1", "calibration.build_table1", None),
        (ba.BAFunction, "from_callable", "baker_akhiezer.setup", _observe_setup),
        (ba.BAFunction, "psi_grid", "baker_akhiezer.psi_grid", None),
        (ba, "quadrature_zeros", "baker_akhiezer.quadrature_zeros", None),
        (ba, "psi_zeros", "baker_akhiezer.psi_zeros", None),
        (ba, "magnitude_minima", "baker_akhiezer.magnitude_minima", None),
        (ba, "fourier_eval", "kernels.fourier_eval", _observe_fourier),
        (mf, "master_residuals", "kernels.master_residuals", None),
        (mf, "optimize", "master_field.optimize", _observe_optimize),
        (mf, "saddle_solve", "master_field.saddle_solve", _observe_saddle),
    ]
    return out


#: name -> unit, in the order the metrics are reported
PER_LAYER_UNITS = {
    "roots.find_roots.s": "s",
    "roots.find_roots.calls": "count",
    "roots.degree_total": "count",
    "roots.roots_per_s": "1/s",
    "roots.share": "ratio",
    "roots.complex_pairs_total": "count",
    "roots.backward_err_log10_max": "log10",
    "matrix_model.build_potential.s": "s",
    "matrix_model.q_polynomial.s": "s",
    "matrix_model.q_polynomial.calls": "count",
    "matrix_model.coeff_spread_log10_max": "log10",
    "potentials.taylor_u.s": "s",
    "scaling.s": "s",
    "calibration.s": "s",
    "pipeline.run_row.self_s": "s",
    "cli.self_s": "s",
    "kernels.fourier_eval.scan_s": "s",
    "kernels.fourier_eval.scan_calls": "count",
    "kernels.fourier_eval.bisect_s": "s",
    "kernels.fourier_eval.bisect_calls": "count",
    "kernels.fourier_eval.terms": "count",
    "kernels.fourier_eval.mterms_per_s": "Mterm/s",
    "kernels.fourier_eval.bytes_computed": "B",
    "kernels.master_residuals.s": "s",
    "kernels.master_residuals.calls": "count",
    "baker_akhiezer.setup.s": "s",
    "baker_akhiezer.nodes_total": "count",
    "baker_akhiezer.psi_zeros.self_s": "s",
    "baker_akhiezer.psi_grid.s": "s",
    "master_field.optimize.s": "s",
    "master_field.optimize.self_s": "s",
    "master_field.optimize.iterations": "count",
    "master_field.saddle_solve.s": "s",
    "master_field.saddle_solve.iterations": "count",
    "master_field.saddle_solve.converged": "count",
    "trace.overhead_s": "s",
}


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def per_layer(spans, *, passes: int, wall_s: float, overhead_s: float) -> dict:
    """Per-layer metrics per pass; a layer that did not run reads 0.

    ``wall_s`` is the median traced pass; ``overhead_s`` the time the span
    wrappers spent outside their spans over all passes. It stands in for
    traced minus untraced wall time, which run-to-run noise on a shared
    machine would swamp.
    """
    ss = SpanSet(spans)
    n = max(passes, 1)
    roots = named("roots.find_roots")
    kernel = ss.select(named("kernels.fourier_eval"))
    scan = [s for s in kernel if s.attrs.get("z", 0) > 1]
    bisect = [s for s in kernel if s.attrs.get("z", 0) == 1]
    terms = sum(s.attrs["z"] * s.attrs["nodes"] for s in scan + bisect)
    kernel_s = sum(s.duration for s in scan + bisect)
    roots_s = ss.total(roots)
    m = {
        "roots.find_roots.s": roots_s / n,
        "roots.find_roots.calls": ss.count(roots) / n,
        "roots.degree_total": ss.attr_sum(roots, "degree") / n,
        "roots.roots_per_s": _ratio(ss.attr_sum(roots, "degree"), roots_s),
        "roots.share": _ratio(roots_s / n, wall_s),
        "roots.complex_pairs_total": ss.attr_sum(roots, "complex_pairs") / n,
        "roots.backward_err_log10_max": ss.attr_max(roots, "backward_err_log10"),
        "matrix_model.build_potential.s":
            ss.total(named("matrix_model.build_potential")) / n,
        "matrix_model.q_polynomial.s": ss.total(named("matrix_model.q_polynomial")) / n,
        "matrix_model.q_polynomial.calls":
            ss.count(named("matrix_model.q_polynomial")) / n,
        "matrix_model.coeff_spread_log10_max":
            ss.attr_max(named("matrix_model.q_polynomial"), "coeff_spread_log10"),
        "potentials.taylor_u.s": ss.total(named("potentials.taylor_u")) / n,
        "scaling.s": ss.total(prefixed("scaling.")) / n,
        "calibration.s": ss.total(prefixed("calibration.")) / n,
        "pipeline.run_row.self_s": ss.self_total(named("pipeline.run_row")) / n,
        "cli.self_s": ss.self_total(named("cli.main")) / n,
        "kernels.fourier_eval.scan_s": sum(s.duration for s in scan) / n,
        "kernels.fourier_eval.scan_calls": len(scan) / n,
        "kernels.fourier_eval.bisect_s": sum(s.duration for s in bisect) / n,
        "kernels.fourier_eval.bisect_calls": len(bisect) / n,
        "kernels.fourier_eval.terms": terms / n,
        "kernels.fourier_eval.mterms_per_s": _ratio(terms / 1e6, kernel_s),
        # 16 bytes (one complex128 phase) per z and node, computed, not measured
        "kernels.fourier_eval.bytes_computed": 16 * terms / n,
        "kernels.master_residuals.s": ss.total(named("kernels.master_residuals")) / n,
        "kernels.master_residuals.calls": ss.count(named("kernels.master_residuals")) / n,
        "baker_akhiezer.setup.s": ss.total(named("baker_akhiezer.setup")) / n,
        "baker_akhiezer.nodes_total":
            ss.attr_sum(named("baker_akhiezer.setup"), "nodes") / n,
        "baker_akhiezer.psi_zeros.self_s":
            ss.self_total(named("baker_akhiezer.psi_zeros")) / n,
        "baker_akhiezer.psi_grid.s": ss.total(named("baker_akhiezer.psi_grid")) / n,
        "master_field.optimize.s": ss.total(named("master_field.optimize")) / n,
        "master_field.optimize.self_s":
            ss.self_total(named("master_field.optimize")) / n,
        "master_field.optimize.iterations":
            ss.attr_sum(named("master_field.optimize"), "iterations") / n,
        "master_field.saddle_solve.s": ss.total(named("master_field.saddle_solve")) / n,
        "master_field.saddle_solve.iterations":
            ss.attr_sum(named("master_field.saddle_solve"), "iterations") / n,
        "master_field.saddle_solve.converged":
            ss.attr_sum(named("master_field.saddle_solve"), "converged") / n,
        "trace.overhead_s": overhead_s / n,
    }
    return {k: {"value": m[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
