"""Metric catalogue of the benchmark and the per-layer values of a trace.

``END_TO_END`` and ``PER_LAYER`` list (name, unit, better) exactly as
``BENCHMARK.json`` does; the self-test checks the two agree.  Per-layer
values are per operation: totals over the traced operations divided by
their number.  Every operation of a run has the same inputs, so counts
divide exactly and repeat between runs at a fixed seed.
"""

from __future__ import annotations

from tracer import TARGETS, extra_sum, function_stats, time_under, unattributed

END_TO_END = (
    ("op_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_SELF_S = ("solver.solve", "solver.newton_step", "geometry.commutation_residual",
           "geometry.gradient_norm_sq", "audits.audit_commutation", "audits.audit_lemma22",
           "audits.audit_lemma21", "audits.audit_basic_inequality")


def _per_layer_spec():
    spec = [
        ("solver.solve.calls", "count", "lower"),
        ("solver.solve.s", "s", "lower"),
        ("solver.stages", "count", "lower"),
        ("solver.newton_steps", "count", "lower"),
        ("solver.gmres_iters", "count", "lower"),
        ("solver.newton_step.s", "s", "lower"),
        ("solver.newton_step.errors", "count", "lower"),
        ("solver.matvec_hessian_s", "s", "lower"),
        ("solver.precond_s", "s", "lower"),
        ("solver.line_search.calls", "count", "lower"),
        ("solver.line_search.s", "s", "lower"),
        ("solver.line_search.errors", "count", "lower"),
        ("solver.linesearch_backtracks", "count", "lower"),
        ("solver.linesearch_accept_ratio", "ratio", "higher"),
        ("solver.errors", "count", "lower"),
    ]
    for module, _, fn, _ in TARGETS:
        if module != "solver":  # solver spans are summarised above
            spec.append((f"{module}.{fn}.calls", "count", "lower"))
            spec.append((f"{module}.{fn}.s", "s", "lower"))
    spec += [(f"{label}.self_s", "s", "lower") for label in _SELF_S]
    spec += [
        ("geometry.fft_bytes", "B", "lower"),
        ("symfunc.elementary_all.rows", "count", "lower"),
        ("symfunc.sample_acceptance", "ratio", "higher"),
        ("unattributed_frac", "ratio", "lower"),
        ("traced_ops", "count", "higher"),
        ("trace_overhead_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
    return tuple(spec)


PER_LAYER = _per_layer_spec()


def layer_values(rows: list[dict], ops: int, overhead_s: float, untraced_s: float) -> dict:
    """Per-operation value of every PER_LAYER metric from a span table."""
    stats = function_stats(rows)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0}
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        label, _, stat = name.rpartition(".")
        if stat in zero and label.count(".") == 1:
            values[name] = stats.get(label, zero)[stat] / ops
    trials = extra_sum(rows, "solver.line_search", "trials")
    requested = extra_sum(rows, "symfunc.sample_gamma_k", "requested")
    tested = extra_sum(rows, "symfunc.in_gamma_k", "rows", under="symfunc.sample_gamma_k")
    fft_nodes = (extra_sum(rows, "geometry.fft", "nodes")
                 + extra_sum(rows, "geometry.ifft", "nodes"))
    values.update({
        "solver.stages": extra_sum(rows, "solver.solve", "stages") / ops,
        "solver.newton_steps": stats.get("solver.newton_step", zero)["calls"] / ops,
        "solver.gmres_iters": extra_sum(rows, "solver.newton_step", "gmres_iters") / ops,
        "solver.matvec_hessian_s":
            time_under(rows, "geometry.complex_hessian", "solver.newton_step") / ops,
        "solver.precond_s":
            time_under(rows, "geometry.solve_laplacian", "solver.newton_step") / ops,
        "solver.linesearch_backtracks":
            extra_sum(rows, "solver.line_search", "backtracks") / ops,
        "solver.linesearch_accept_ratio":
            extra_sum(rows, "solver.line_search", "accepted") / trials if trials else 0.0,
        "solver.errors": extra_sum(rows, "solver.solve", "retries") / ops,
        # computed, not measured: 16 B per complex node of every transform
        "geometry.fft_bytes": 16.0 * fft_nodes / ops,
        "symfunc.elementary_all.rows": extra_sum(rows, "symfunc.elementary_all", "rows") / ops,
        "symfunc.sample_acceptance": requested / tested if tested else 0.0,
        "unattributed_frac": unattributed(rows),
        "traced_ops": ops,
        "trace_overhead_s": overhead_s,
        "trace_overhead_frac": overhead_s / untraced_s if untraced_s > 0 else 0.0,
    })
    return values
