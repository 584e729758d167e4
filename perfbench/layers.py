"""Per-layer metrics from the spans of the traced passes.

Counts are per pass; ``share`` is a layer's inclusive time over the
time inside the ``*_solve`` calls; ``self`` times exclude child spans.
A layer that the workload never calls reports 0.
"""

from __future__ import annotations

from . import micro

SOLVE_SPANS = ("dnnsdp.cadmm_solve", "dnnsdp.dext_solve")


def per_layer(tracer, traced: list, overhead: float, micro_values: dict,
              blas_threads: int) -> dict:
    tot = tracer.totals()
    n_pass = len(traced)
    solves = [s for p in traced for s in p.solves]
    iters = sum(s.iterations for s in solves)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    solve_time = sum(incl(name) for name in SOLVE_SPANS)

    def per_call(value, name, scale):
        c = calls(name)
        return value / c * scale if c else 0.0

    psd_flop = sum(tracer.count("linalg.project_psd", *s.spans) * micro.psd_flops(s.n)
                   for s in solves)
    gram_byte = sum(tracer.count("linalg.gram_solve", *s.spans) * micro.gram_bytes(s.m_E)
                    for s in solves)
    out = {
        "linalg.project_psd.calls": calls("linalg.project_psd") / n_pass,
        "linalg.project_psd.calls_per_iter": calls("linalg.project_psd") / iters,
        "linalg.project_psd.us_per_call": per_call(incl("linalg.project_psd"),
                                                   "linalg.project_psd", 1e6),
        "linalg.project_psd.share": incl("linalg.project_psd") / solve_time,
        "linalg.project_psd.gflop_computed": psd_flop / n_pass / 1e9,
        "linalg.gram_solve.calls": calls("linalg.gram_solve") / n_pass,
        "linalg.gram_solve.us_per_call": per_call(incl("linalg.gram_solve"),
                                                  "linalg.gram_solve", 1e6),
        "linalg.gram_solve.share": incl("linalg.gram_solve") / solve_time,
        "linalg.gram_solve.gb_computed": gram_byte / n_pass / 1e9,
        "linalg.gram_factor.s": incl("linalg.gram_factor") / n_pass,
        "linalg.lambda_max_gram.s": incl("linalg.lambda_max_gram") / n_pass,
        "problems.generate.s": incl("problems.generate") / n_pass,
        "linalg.apply.us_per_call": per_call(incl("linalg.apply"), "linalg.apply", 1e6),
        "linalg.adjoint.us_per_call": per_call(incl("linalg.adjoint"), "linalg.adjoint", 1e6),
        "cones.project_pattern_dual.us_per_call": per_call(
            incl("cones.project_pattern_dual"), "cones.project_pattern_dual", 1e6),
        "cones.project_pattern.us_per_call": per_call(
            incl("cones.project_pattern"), "cones.project_pattern", 1e6),
        "dnnsdp.residuals.self_ms_per_call": per_call(own("dnnsdp.residuals"),
                                                      "dnnsdp.residuals", 1e3),
        "dnnsdp.residuals.calls_per_iter": calls("dnnsdp.residuals") / iters,
        "dnnsdp.residuals.share": incl("dnnsdp.residuals") / solve_time,
        "dnnsdp.cadmm_step.self_ms_per_iter": per_call(own("dnnsdp.cadmm_step"),
                                                       "dnnsdp.cadmm_step", 1e3),
        "dnnsdp.dext_step.self_ms_per_iter": per_call(own("dnnsdp.dext_step"),
                                                      "dnnsdp.dext_step", 1e3),
        "dnnsdp.restarts": sum(s.restarts for s in solves) / n_pass,
        "dnnsdp.sigma_changes": sum(s.sigma_changes for s in solves) / n_pass,
        "engine.compute_delta.us_per_call": per_call(incl("engine.compute_delta"),
                                                     "engine.compute_delta", 1e6),
        "io.write_result.ms_per_call": per_call(incl("io.write_result"),
                                                "io.write_result", 1e3),
        "io.emit_performance_profile.ms": incl("io.emit_performance_profile") / n_pass * 1e3,
        "blas.threads": blas_threads,
        "trace.overhead_frac": overhead,
    }
    for block in ("yI", "Z", "yE", "S"):
        name = f"dnnsdp.update_{block}"
        out[f"{name}.self_us_per_call"] = per_call(own(name), name, 1e6)
    out.update(micro_values)
    return out
