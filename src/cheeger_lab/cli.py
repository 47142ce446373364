"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .consistency import ustat_concentration
from .errors import CheegerLabError, ConfigError
from .manifold import PointCloud, get_manifold
from .nonlocal_tv import check_bias_inequality, indicator_function
from .proximity_graph import ProximityGraph, build_graph


def _parse_int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _parse_float_list(text):
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser():
    p = argparse.ArgumentParser(prog="cheeger-lab",
                                description="Graph Cheeger-cut laboratory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="sample a point cloud")
    s.add_argument("--manifold", required=True)
    s.add_argument("--n", type=int, required=True)

    s = sub.add_parser("build-graph", help="build an epsilon graph from a cloud")
    s.add_argument("--cloud", required=True)
    s.add_argument("--epsilon", type=float, required=True)

    s = sub.add_parser("solve", help="solve a balanced cut on a saved graph")
    s.add_argument("--graph", required=True)
    s.add_argument("--cloud", default=None)
    s.add_argument("--method", default="pipeline", choices=sorted(harness._SOLVERS))

    s = sub.add_parser("nonlocal-check", help="bias inequality on a reference set")
    s.add_argument("--manifold", required=True)
    s.add_argument("--h", default="0.02,0.05,0.1")

    s = sub.add_parser("converge", help="convergence sweep")
    s.add_argument("--manifold", required=True)
    s.add_argument("--n", required=True)
    s.add_argument("--epsilons", default=None)
    s.add_argument("--epsilon-c", type=float, default=2.0)
    s.add_argument("--trials", type=int, default=5)
    s.add_argument("--solver", default="pipeline")

    s = sub.add_parser("ustat", help="graph-TV concentration experiment")
    s.add_argument("--manifold", required=True)
    s.add_argument("--n", required=True)
    s.add_argument("--trials", type=int, default=50)

    s = sub.add_parser("plot", help="emit plot data from a summary")
    s.add_argument("--summary", required=True)
    s.add_argument("--kind", required=True, choices=list(harness.PLOT_KINDS))

    s = sub.add_parser("validate", help="validate and echo a config file")
    s.add_argument("--config", required=True)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except (CheegerLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args):
    cmd = args.command
    if cmd == "sample":
        mf = get_manifold(args.manifold)
        cloud = mf.sample(args.n, seed=args.seed)
        out = args.out or f"cloud_{args.manifold}_{args.n}.csv"
        cloud.save(out)
        print(out)
        return 0
    if cmd == "build-graph":
        cloud = PointCloud.load(args.cloud)
        g = build_graph(cloud, args.epsilon)
        out = args.out or "graph.csv"
        g.save(out, cloud_ref=args.cloud)
        print(f"{out} ({len(g.edges)} edges)")
        return 0
    if cmd == "solve":
        cloud = PointCloud.load(args.cloud) if args.cloud else None
        g = ProximityGraph.load(args.graph, cloud=cloud)
        res = harness._SOLVERS[args.method](g)
        print(json.dumps({"objective_value": res.objective_value,
                          "subset_size": int(len(res.subset)),
                          "gtv": res.gtv, "balance": res.balance,
                          "solver": res.solver, "certificate": res.certificate},
                         indent=2))
        return 0
    if cmd == "nonlocal-check":
        mf = get_manifold(args.manifold)
        ref = mf.default_minimizer()
        rep = check_bias_inequality(mf, ref, _parse_float_list(args.h))
        print(json.dumps(rep.as_dict(), indent=2, default=float))
        return 0 if rep.passed else 3
    if cmd == "converge":
        raw = {"manifold": args.manifold, "n_list": _parse_int_list(args.n),
               "trials": args.trials, "seed": args.seed,
               "out": args.out or "converge_out", "solver": args.solver,
               "epsilon_c": args.epsilon_c}
        if args.epsilons:
            raw["epsilons"] = _parse_float_list(args.epsilons)
        cfg = harness.validate_config(raw)
        result = harness.run_experiment(cfg, workers=args.workers)
        print(json.dumps({"digest": result["digest"],
                          "summary": result["summary_path"],
                          "rates": {k: v.get("fitted_slope")
                                    for k, v in result["rates"].items()
                                    if isinstance(v, dict) and "fitted_slope" in v}},
                         indent=2))
        return 0
    if cmd == "ustat":
        mf = get_manifold(args.manifold)
        ref = mf.default_minimizer()
        f = indicator_function(ref)
        rep = ustat_concentration(mf, f, _parse_int_list(args.n),
                                  epsilon_rule=lambda n: n ** -0.5,
                                  trials=args.trials, seed=args.seed)
        out = {"manifold": rep.manifold, "tv": rep.tv, "entries": rep.entries}
        text = json.dumps(out, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        print(text)
        return 0
    if cmd == "plot":
        meta = harness.emit_plot_data(args.summary, args.kind,
                                      args.out or "plots")
        print(json.dumps(meta, indent=2))
        return 0
    if cmd == "validate":
        cfg = harness.validate_config(args.config)
        print(json.dumps(cfg.resolved(), indent=2, sort_keys=True, default=str))
        return 0
    raise ValueError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
