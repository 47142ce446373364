"""Layer hooks of the traced run and the per-layer metrics computed from them.

Each hook replaces the name a caller looks up, so the span covers exactly
the calls that caller makes. Hooks are grouped; a missing name drops its
group's metrics and leaves the other layers traced.
"""

from __future__ import annotations

import importlib
import math
import warnings

from tracing import install, span_totals, spanned


def _module(name):
    return lambda: importlib.import_module(f"cheeger_lab.{name}")


def _member(module, attr):
    return lambda: getattr(importlib.import_module(f"cheeger_lab.{module}"), attr)


def install_layers(patcher, tracer):
    """Install every layer hook; return the groups that could not be traced."""
    t = tracer

    def on_build(graph, args, kwargs):
        t.count("edges", len(graph.edges))
        t.record_max("graph_bytes", graph.edges.nbytes)

    def adjacency(prop):
        fget = prop.fget

        def get(graph):
            # only the first access builds the CSR; later ones return the cache
            if getattr(graph, "_adj", None) is not None:
                return fget(graph)
            with t.span("proximity_graph.adjacency"):
                a = fget(graph)
            t.record_max("graph_bytes", graph.edges.nbytes + a.data.nbytes
                         + a.indices.nbytes + a.indptr.nbytes)
            return a
        return property(get, doc=prop.__doc__)

    def eigen(fn):
        def wrapper(*args, **kwargs):
            t.count("eigen_calls")
            with t.span("cut_solvers.eigen"), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    t.count("eigen_failures")
                    raise
                finally:
                    t.count("eigen_warnings",
                            sum(issubclass(w.category, UserWarning) for w in caught))
            if isinstance(out, tuple) and len(out) == 2:
                t.record_max("eigen_residual", float(out[1]))
            return out
        return wrapper

    def pipeline(fn):
        # the original objective, not the traced name, re-scores the cut
        objective = importlib.import_module("cheeger_lab.proximity_graph").objective

        def wrapper(graph, *args, **kwargs):
            with t.span("cut_solvers.pipeline"):
                result = fn(graph, *args, **kwargs)
            t.count("pipeline_calls")
            t.count("winner." + str(result.extras.get("winner")))
            with t.span("trace.oracle"):
                ok = math.isclose(objective(graph, result.subset),
                                  result.objective_value, rel_tol=1e-12)
            t.count("rescore_checked")
            t.count("rescore_failed", 0 if ok else 1)
            return result
        return wrapper

    def after_local_search(result, args, kwargs):
        start = args[1] if len(args) > 1 else kwargs["start"]
        t.count("ls_attempted")
        if result.objective_value < start.objective_value:
            t.count("ls_useful")
        if result is not start:
            t.count("ls_moves", result.extras.get("moves", 0))

    def trial(fn):
        def wrapper(cfg, n, trial_index, *args, **kwargs):
            prev, t.item = t.item, f"n{n}_t{trial_index}"
            try:
                with t.span("harness.trial"):
                    return fn(cfg, n, trial_index, *args, **kwargs)
            finally:
                t.item = prev
        return wrapper

    def smooth(fn):
        def wrapper(*args, **kwargs):
            lam = fn(*args, **kwargs)
            evaluator = lam.evaluator

            def timed_evaluator(points):
                t.count("smooth_points", len(points))
                with t.span("nonlocal_tv.smooth_eval"):
                    return evaluator(points)
            lam.evaluator = timed_evaluator
            return lam
        return wrapper

    def span(name, after=None):
        return spanned(t, name, after)

    hooks = [
        ("proximity_graph.build", _module("harness"), "build_graph",
         span("proximity_graph.build", on_build)),
        ("proximity_graph.build", _module("consistency"), "build_graph",
         span("proximity_graph.build", on_build)),
        ("proximity_graph.adjacency", _member("proximity_graph", "ProximityGraph"),
         "adjacency", adjacency),
        ("proximity_graph.score", _module("cut_solvers"), "cut_and_balance",
         span("proximity_graph.score")),
        ("proximity_graph.score", _module("cut_solvers"), "objective",
         span("proximity_graph.score")),
        ("proximity_graph.gtv", _module("consistency"), "gtv",
         span("proximity_graph.gtv")),
        ("cut_solvers.eigen", _module("cut_solvers"), "fiedler_vector", eigen),
        ("cut_solvers.arc_sweep", _module("cut_solvers"), "solve_arc_sweep",
         span("cut_solvers.arc_sweep")),
        ("cut_solvers.pipeline", _member("harness", "_SOLVERS"), "pipeline", pipeline),
        ("cut_solvers.spectral_sweep", _module("cut_solvers"), "solve_spectral_sweep",
         span("cut_solvers.spectral_sweep")),
        ("cut_solvers.local_search", _module("cut_solvers"), "refine_local_search",
         span("cut_solvers.local_search", after_local_search)),
        ("consistency.l1_error", _module("harness"), "cut_l1_error",
         span("consistency.l1_error")),
        ("consistency.transport", _module("consistency"), "transport_assign",
         span("consistency.transport")),
        ("consistency.fit_rate", _module("harness"), "fit_rate",
         span("consistency.fit_rate")),
        ("harness.trial", _module("harness"), "run_trial", trial),
        ("manifold.sample", _member("manifold", "Manifold"), "sample",
         span("manifold.sample")),
        ("quadrature.grid", _module("harness"), "build_grid", span("quadrature.grid")),
        ("quadrature.grid", _module("nonlocal_tv"), "grid_for_scale",
         span("quadrature.grid")),
        ("nonlocal_tv.tv_nonlocal", _module("nonlocal_tv"), "tv_nonlocal",
         span("nonlocal_tv.tv_nonlocal")),
        ("nonlocal_tv.smooth_eval", _module("nonlocal_tv"), "smooth", smooth),
    ]
    return install(patcher, hooks)


WINNERS = ("local_search", "spectral_sweep", "arc_sweep")

# metric -> (unit, hook group whose absence drops it)
UNITS = {
    "proximity_graph.build_s": ("s", "proximity_graph.build"),
    "proximity_graph.edges": ("count", "proximity_graph.build"),
    "proximity_graph.edges_per_s": ("1/s", "proximity_graph.build"),
    "proximity_graph.adjacency_s": ("s", "proximity_graph.adjacency"),
    "proximity_graph.score_s": ("s", "proximity_graph.score"),
    "proximity_graph.gtv_s": ("s", "proximity_graph.gtv"),
    "proximity_graph.graph_bytes": ("bytes", "proximity_graph.build"),
    "cut_solvers.eigen_s": ("s", "cut_solvers.eigen"),
    "cut_solvers.eigen_calls": ("count", "cut_solvers.eigen"),
    "cut_solvers.eigen_warnings": ("count", "cut_solvers.eigen"),
    "cut_solvers.eigen_failures": ("count", "cut_solvers.eigen"),
    "cut_solvers.eigen_residual_max": ("l2norm", "cut_solvers.eigen"),
    "cut_solvers.eigen_call_max_s": ("s", "cut_solvers.eigen"),
    "cut_solvers.arc_sweep_s": ("s", "cut_solvers.arc_sweep"),
    "cut_solvers.pipeline_s": ("s", "cut_solvers.pipeline"),
    "cut_solvers.spectral_sweep_s": ("s", "cut_solvers.spectral_sweep"),
    "cut_solvers.local_search_s": ("s", "cut_solvers.local_search"),
    "cut_solvers.local_search_moves": ("count", "cut_solvers.local_search"),
    "cut_solvers.local_search_useful_frac": ("ratio", "cut_solvers.local_search"),
    **{f"cut_solvers.winner_frac.{w}": ("ratio", "cut_solvers.pipeline")
       for w in WINNERS + ("other",)},
    "consistency.l1_error_s": ("s", "consistency.l1_error"),
    "consistency.transport_s": ("s", "consistency.transport"),
    "consistency.match_s": ("s", "consistency.l1_error"),
    "consistency.fit_rate_s": ("s", "consistency.fit_rate"),
    "harness.trial_s": ("s", "harness.trial"),
    "harness.trial_unattributed_s": ("s", "harness.trial"),
    "harness.overhead_s": ("s", None),
    "manifold.sample_s": ("s", "manifold.sample"),
    "quadrature.grid_s": ("s", "quadrature.grid"),
    "nonlocal_tv.tv_nonlocal_s": ("s", "nonlocal_tv.tv_nonlocal"),
    "nonlocal_tv.smooth_eval_s": ("s", "nonlocal_tv.smooth_eval"),
    "nonlocal_tv.smooth_points": ("count", "nonlocal_tv.smooth_eval"),
    "nonlocal_tv.check_s": ("s", None),
    "trace.spans": ("count", None),
    "trace.oracle_s": ("s", None),
    # filled in by run.py: traced wall_s minus untraced wall_s
    "trace.overhead_s": ("s", None),
}


def layer_metrics(tracer, dropped):
    """Per-layer metrics of one traced round, without the dropped groups.

    Times are summed over the round; a `_max` metric is the largest single
    value instead (run.py then takes the largest over the rounds, so one
    slow call is never hidden by a median). A `_s` metric is the layer's total
    span time, except where the layer calls other traced layers: there it
    is the self time, so no second counts twice.
    """
    totals = span_totals(tracer.spans)

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_time(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    c, mx = tracer.counters, tracer.maxima
    build_s = total("proximity_graph.build")
    calls = c["pipeline_calls"]
    winners = {w: c["winner." + w] for w in WINNERS}
    other = calls - sum(winners.values())
    values = {
        "proximity_graph.build_s": build_s,
        "proximity_graph.edges": int(c["edges"]),
        "proximity_graph.edges_per_s": c["edges"] / build_s if build_s > 0 else 0.0,
        "proximity_graph.adjacency_s": total("proximity_graph.adjacency"),
        "proximity_graph.score_s": total("proximity_graph.score"),
        "proximity_graph.gtv_s": total("proximity_graph.gtv"),
        "proximity_graph.graph_bytes": int(mx.get("graph_bytes", 0)),
        "cut_solvers.eigen_s": self_time("cut_solvers.eigen"),
        "cut_solvers.eigen_calls": int(c["eigen_calls"]),
        "cut_solvers.eigen_warnings": int(c["eigen_warnings"]),
        "cut_solvers.eigen_failures": int(c["eigen_failures"]),
        "cut_solvers.eigen_residual_max": mx.get("eigen_residual", 0.0),
        "cut_solvers.eigen_call_max_s": max((s[2] - s[1] for s in tracer.spans
                                             if s[0] == "cut_solvers.eigen"), default=0.0),
        "cut_solvers.arc_sweep_s": self_time("cut_solvers.arc_sweep"),
        "cut_solvers.pipeline_s": total("cut_solvers.pipeline"),
        "cut_solvers.spectral_sweep_s": self_time("cut_solvers.spectral_sweep"),
        "cut_solvers.local_search_s": self_time("cut_solvers.local_search"),
        "cut_solvers.local_search_moves": int(c["ls_moves"]),
        "cut_solvers.local_search_useful_frac":
            c["ls_useful"] / c["ls_attempted"] if c["ls_attempted"] else 0.0,
        **{f"cut_solvers.winner_frac.{w}": (k / calls if calls else 0.0)
           for w, k in winners.items()},
        "cut_solvers.winner_frac.other": other / calls if calls else 0.0,
        "consistency.l1_error_s": total("consistency.l1_error"),
        "consistency.transport_s": total("consistency.transport"),
        "consistency.match_s": self_time("consistency.l1_error"),
        "consistency.fit_rate_s": total("consistency.fit_rate"),
        "harness.trial_s": total("harness.trial"),
        "harness.trial_unattributed_s": self_time("harness.trial"),
        "harness.overhead_s": self_time("harness.run_experiment"),
        "manifold.sample_s": total("manifold.sample"),
        "quadrature.grid_s": total("quadrature.grid"),
        "nonlocal_tv.tv_nonlocal_s": total("nonlocal_tv.tv_nonlocal"),
        "nonlocal_tv.smooth_eval_s": total("nonlocal_tv.smooth_eval"),
        "nonlocal_tv.smooth_points": int(c["smooth_points"]),
        "nonlocal_tv.check_s": self_time("nonlocal_tv.check"),
        "trace.spans": len(tracer.spans),
        "trace.oracle_s": total("trace.oracle"),
    }
    return {k: v for k, v in values.items() if UNITS[k][1] not in dropped}
