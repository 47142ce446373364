"""The benchmark's workloads: seeded inputs, one round of fixed work, oracles.

A round is the workload's fixed work on the inputs its seed gives. Each
workload times its items (a trial, a GTV sample or a property check) and
checks its outputs against oracles that a better solver still passes:
ranges, completeness, brute-force sums and closed-form values, never a
pinned digest. The digest goes into the fingerprint, which `run.py`
compares between rounds of the same seed (the determinism probe).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import time

import numpy as np

from cheeger_lab import consistency, harness
from cheeger_lab.manifold import CircleArc, SphereCap, TorusStrip, get_manifold
from cheeger_lab.nonlocal_tv import (check_bias_inequality, check_smoothing_chain,
                                     indicator_function)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _digest(obj):
    blob = json.dumps(obj, sort_keys=True, default=float).encode()
    return hashlib.sha256(blob).hexdigest()


class Workload:
    """One round of a workload; `hooks` time its items from outside."""

    def __init__(self, seed, work_dir, toy=False):
        self.seed = int(seed)
        self.work_dir = work_dir
        self.toy = toy
        self.items = []          # seconds per item
        self.failed_items = []   # names of items that failed

    def hooks(self):
        """(group, owner getter, name, wrapper factory) timing the items."""
        return []

    def run(self, tracer=None):
        raise NotImplementedError

    def checks(self):
        """[(check name, passed, detail)] against the workload's oracles."""
        return []

    def fingerprint(self):
        return {}

    def quality_samples(self):
        """Per-trial solution quality: {"cheeger_ratio": [...], "l1_cut_error": [...]}."""
        return {}


class _Converge(Workload):
    """`run_experiment` on each config, one worker, items are trials."""

    def __init__(self, seed, work_dir, toy=False):
        super().__init__(seed, work_dir, toy)
        self.configs = [harness.validate_config(dict(raw, seed=self.seed,
                                                     out=str(work_dir / raw["manifold"])))
                        for raw in self.raw_configs()]

    def raw_configs(self):
        raise NotImplementedError

    def hooks(self):
        def timed(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.items.append(time.perf_counter() - t0)
            return wrapper
        return [("harness.run_trial", lambda: harness, "run_trial", timed)]

    def run(self, tracer=None):
        self.results = []
        for cfg in self.configs:
            with _span(tracer, "harness.run_experiment"):
                self.results.append(harness.run_experiment(cfg, workers=1))
        self.failed_items = [f"{cfg.manifold}:n{r['n']}_t{r['trial']}"
                             for cfg, res in zip(self.configs, self.results)
                             for r in res["records"] if r.get("failed")]

    def _good(self):
        return [r for res in self.results for r in res["records"] if not r.get("failed")]

    def checks(self):
        out = []
        for cfg, res in zip(self.configs, self.results):
            name = cfg.manifold
            records = res["records"]
            want = {(n, t) for n in cfg.n_list for t in range(cfg.trials)}
            got = {(r["n"], r["trial"]) for r in records}
            failed = [f"n{r['n']}_t{r['trial']}: {r.get('error')}"
                      for r in records if r.get("failed")]
            out.append((f"records_complete:{name}", got == want and not failed,
                        f"{len(got & want)}/{len(want)} records, failed: {failed[:3]}"))
            good = [r for r in records if not r.get("failed")]
            bad = [r["trial_seed"] for r in good
                   if not all(math.isfinite(r[k]) for k in
                              ("cheeger_ratio", "abs_error", "l1_cut_error",
                               "sup_displacement"))]
            out.append((f"records_finite:{name}", not bad, f"non-finite: {bad[:3]}"))
            l1 = [r["l1_cut_error"] for r in good]
            out_of_range = [x for x in l1 if not 0.0 <= x <= 0.5]
            out.append((f"l1_in_range:{name}", not out_of_range,
                        f"outside [0, 0.5]: {out_of_range[:3]}"))
            rates = res["rates"]
            slopes = {k: rates.get(k, {}).get("fitted_slope")
                      for k in ("abs_error", "l1_cut_error")}
            out.append((f"rates_fitted:{name}",
                        all(isinstance(s, float) and math.isfinite(s)
                            for s in slopes.values()), f"slopes {slopes}"))
        return out

    def fingerprint(self):
        fp = {f"digest:{cfg.manifold}": res["digest"]
              for cfg, res in zip(self.configs, self.results)}
        good = self._good()
        if good:
            fp["cheeger_ratio_mean"] = statistics.fmean(r["cheeger_ratio"] for r in good)
            fp["l1_cut_error_p50"] = statistics.median(r["l1_cut_error"] for r in good)
        return fp

    def quality_samples(self):
        good = self._good()
        return {"cheeger_ratio": [r["cheeger_ratio"] for r in good],
                "l1_cut_error": [r["l1_cut_error"] for r in good]}


class CircleConverge(_Converge):
    def raw_configs(self):
        if self.toy:
            return [{"manifold": "circle", "n_list": [100, 150, 200], "trials": 5}]
        return [{"manifold": "circle", "n_list": [500, 1000, 2000], "trials": 5}]


class SurfaceConverge(_Converge):
    def raw_configs(self):
        if self.toy:
            # the default rule exceeds the manifold's epsilon limit below n = 1025
            small = {"n_list": [150, 200, 250], "epsilons": [0.25, 0.24, 0.23],
                     "trials": 5}
            return [dict(small, manifold="flat_torus_2"), dict(small, manifold="sphere_2")]
        # one torus trial more than sphere trials per n: torus trials are
        # slower, so the item median falls inside the torus cluster, not in
        # the gap between the two clusters, where it would swing by 10 %
        n_list = [1100, 1500, 2000]
        return [{"manifold": "flat_torus_2", "n_list": n_list, "trials": 6},
                {"manifold": "sphere_2", "n_list": n_list, "trials": 5}]


class UstatGtv(Workload):
    """GTV concentration of the circle half-arc; items are GTV samples."""

    def __init__(self, seed, work_dir, toy=False):
        super().__init__(seed, work_dir, toy)
        self.manifold = get_manifold("circle")
        self.f = indicator_function(CircleArc(self.manifold, center=0.25))
        self.n_list = [100, 200, 400] if toy else [500, 2000, 8000]
        self.trials = 3 if toy else 8
        self.captured = []       # (points, u, epsilon, m, value) at the smallest n
        self.edges = 0
        self._last = None
        self._tracer = None

    def hooks(self):
        n_small = min(self.n_list)

        def timed(fn):
            def wrapper(graph, u):
                value = fn(graph, u)
                now = time.perf_counter()
                self.items.append(now - self._last)
                self._last = now
                if self._tracer is not None:
                    self._tracer.item = f"gtv{len(self.items)}"
                self.edges += len(graph.edges)
                if graph.n == n_small:
                    self.captured.append((graph.points, np.array(u, dtype=float),
                                          graph.epsilon, graph.m, value))
                return value
            return wrapper
        return [("consistency.gtv", lambda: consistency, "gtv", timed)]

    def run(self, tracer=None):
        self._tracer = tracer
        if tracer is not None:
            tracer.item = "gtv0"
        self._last = time.perf_counter()
        with _span(tracer, "consistency.ustat_concentration"):
            self.report = consistency.ustat_concentration(
                self.manifold, self.f, self.n_list,
                epsilon_rule=lambda n: 2.0 * n ** -0.5,
                trials=self.trials, seed=self.seed)

    def checks(self):
        entries = self.report.entries
        complete = ([e["n"] for e in entries] == self.n_list
                    and all(math.isfinite(e["mean"]) and math.isfinite(e["std"])
                            for e in entries))
        brute = [brute_force_gtv(points, u, eps, m) for points, u, eps, m, _ in self.captured]
        mismatched = [(c[-1], b) for c, b in zip(self.captured, brute)
                      if not math.isclose(c[-1], b, rel_tol=1e-12)]
        return [("report_complete", complete, f"entries for n = {[e['n'] for e in entries]}"),
                ("gtv_brute_force", len(self.captured) == self.trials and not mismatched,
                 f"{len(self.captured)} clouds at n = {min(self.n_list)}, "
                 f"mismatched (gtv, brute force): {mismatched[:3]}")]

    def fingerprint(self):
        return {"digest": _digest(self.report.entries), "edges": self.edges}


def brute_force_gtv(points, u, epsilon, m):
    """O(n^2) graph TV: every ordered pair within epsilon, no cell grid."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    w = np.einsum("ijk,ijk->ij", diff, diff) <= epsilon * epsilon
    np.fill_diagonal(w, False)
    total = float(np.sum(w * np.abs(u[:, None] - u[None, :])))
    return total / (n ** 2 * epsilon ** (m + 1))


class NonlocalCalculus(Workload):
    """Bias and smoothing-chain property checks; items are the checks.

    The seed picks the reference set on each manifold: a half-arc centre
    and a strip offset on lattice lines (so the circle's TV_h stays exactly
    2), and a uniformly random pole for the hemisphere.
    """

    # (kind, manifold, h values or (h, a), grid factor). The scales are the
    # ones that complete in a round (see README.md for the ones that do
    # not). Seven checks, an odd number, put the item median on one check,
    # the sphere bias check (about 0.5 s), which is at least twice as fast
    # as the next check and twice as slow as the one before, so noise does
    # not swap it with a neighbour.
    BENCH = [("bias", "circle", [0.02, 0.05, 0.1, 0.25], 8),
             ("bias", "flat_torus_2", [0.02, 0.05], 8),
             ("bias", "sphere_2", [0.04, 0.08], 4),
             ("chain", "circle", (0.02, 0.1), 8),
             ("chain", "flat_torus_2", (0.1, 0.2), 4),
             ("chain", "sphere_2", (0.1, 0.2), 4),
             ("chain", "sphere_2", (0.15, 0.25), 4)]
    TOY = [("bias", "circle", [0.1, 0.25], 8),
           ("bias", "flat_torus_2", [0.1], 8),
           ("bias", "sphere_2", [0.08], 4),
           ("chain", "circle", (0.1, 0.2), 8),
           ("chain", "flat_torus_2", (0.2, 0.25), 4),
           ("chain", "sphere_2", (0.2, 0.25), 4)]

    def __init__(self, seed, work_dir, toy=False):
        super().__init__(seed, work_dir, toy)
        rng = np.random.default_rng(self.seed)
        pole = rng.standard_normal(3)
        self.refs = {
            "circle": CircleArc(get_manifold("circle"), center=int(rng.integers(16)) / 16),
            "flat_torus_2": TorusStrip(get_manifold("flat_torus_2"),
                                       axis=int(rng.integers(2)),
                                       offset=int(rng.integers(8)) / 8),
            "sphere_2": SphereCap(get_manifold("sphere_2"), pole=pole / np.linalg.norm(pole)),
        }
        self.plan = self.TOY if toy else self.BENCH

    def run(self, tracer=None):
        self.reports = []
        for index, (kind, name, scales, factor) in enumerate(self.plan):
            ref = self.refs[name]
            if tracer is not None:
                tracer.item = f"check{index}"
            t0 = time.perf_counter()
            with _span(tracer, "nonlocal_tv.check"):
                if kind == "bias":
                    rep = check_bias_inequality(ref.manifold, ref, scales,
                                                grid_factor=factor)
                else:
                    rep = check_smoothing_chain(ref.manifold, ref, *scales,
                                                grid_factor=factor)
            self.items.append(time.perf_counter() - t0)
            self.reports.append((name, rep))
        self.failed_items = [f"{rep.name}:{name}" for name, rep in self.reports
                             if not rep.passed]

    def checks(self):
        tvh = [e["tv_h"] for name, rep in self.reports if name == "circle"
               for e in rep.entries if "tv_h" in e]
        off = [float(x) for x in tvh if abs(x - 2.0) > 1e-6]
        return [("circle_tv_h_is_2", bool(tvh) and not off,
                 f"{len(tvh)} values, off by more than 1e-6: {off[:3]}")]

    def fingerprint(self):
        return {"digest": _digest([(name, rep.as_dict()) for name, rep in self.reports])}


WORKLOADS = {"circle_converge": CircleConverge,
             "surface_converge": SurfaceConverge,
             "ustat_gtv": UstatGtv,
             "nonlocal_calculus": NonlocalCalculus}
