"""Assemble a BENCH_<workload>.json from paired benchmark runs of a parent and a change.

    python tools/bench_pairs.py --workload circle_converge --seeds 4101 4102 \\
        --parent ../parent/.perfbench_out/results --change .perfbench_out/results \\
        --parent-label "abc1234 (what the parent does)" --change-label "what changed" \\
        --out BENCH_circle_converge.json

Each side's directory holds the result files that ``perfbench/run.py`` wrote
in that side's checkout (``.perfbench_out/results/``). For every seed it
takes the one ``--trace 0`` run of the workload on each side; the two runs of
a seed are a pair. Run the pairs in alternating order (the parent first on
every other seed), so that a drift of the machine falls on both sides.

The output holds, per end-to-end metric, each side's median and quartiles
over its runs (numpy's linear interpolation) and the number of pairs in which
the change read lower; each side's failed operations per run; how many input
sets gave the same fingerprint on both sides; the environment; and every run
in the order the runs were made.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

# the end-to-end metrics of perfbench/run.py, in its order, with their units
METRICS = {"setup_s": "s", "wall_s": "s", "item_s_p50": "s", "peak_rss_mb": "MB",
           "setup_raw_s": "s", "wall_raw_s": "s", "item_raw_s_p50": "s", "probe_s": "s"}
QUALITY = ("cheeger_ratio_mean", "l1_cut_error_p50")
SIDES = ("parent", "change")
METHOD = ("{pairs} parent/change pairs on seeds {seeds}, alternating which side runs "
          "first; each value is one run's end-to-end metric (a median over its "
          "rounds); quartiles are numpy linear-interpolation percentiles over the "
          "runs; change_lower_in_pairs counts the pairs where the change read lower")
_NAME = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace0-(?P<time>\d{8}T\d{6})-p\d+\.json")


def find_runs(directory, workload, seeds):
    """{seed: (time stamp, result)} of the workload's untraced runs in a
    results directory; a seed with no run or with more than one is an error."""
    found = {}
    for path in sorted(Path(directory).glob(f"{workload}-seed*-trace0-*.json")):
        m = _NAME.fullmatch(path.name)
        if m and m["workload"] == workload and int(m["seed"]) in seeds:
            found.setdefault(int(m["seed"]), []).append((m["time"], path))
    runs = {}
    for seed in seeds:
        paths = found.get(seed, [])
        if len(paths) != 1:
            raise ValueError(f"{directory}: {len(paths)} runs of {workload} at seed "
                             f"{seed}, need one: {[str(p) for _, p in paths]}")
        stamp, path = paths[0]
        runs[seed] = (stamp, json.loads(path.read_text()))
    return runs


def _quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _fingerprints(result):
    return {r["input_set"]: r["fingerprint"] for r in result["rounds"]
            if "error" not in r and not r["trace"]}


def assemble(workload, seeds, parent, change, labels):
    """The BENCH object of the pairs: ``parent`` and ``change`` map each seed
    to (time stamp, result) as ``find_runs`` gives them."""
    sides = {"parent": parent, "change": change}
    e2e = {side: {s: runs[s][1]["summary"]["e2e"] for s in seeds}
           for side, runs in sides.items()}
    out = {"workload": workload,
           "command": f"python3 perfbench/run.py --workload {workload} --seed SEED "
                      f"--seconds {change[seeds[0]][1]['env']['seconds']:g} --trace 0",
           "compared": dict(zip(SIDES, labels)),
           "method": METHOD.format(pairs=len(seeds), seeds=", ".join(map(str, seeds))),
           "pairs": len(seeds), "seeds": list(seeds)}
    for name, unit in METRICS.items():
        values = {side: [e2e[side][s][name] for s in seeds] for side in SIDES}
        out[name] = {"unit": unit,
                     **{side: _quartiles(values[side]) for side in SIDES},
                     "change_lower_in_pairs": sum(
                         c < p for p, c in zip(values["parent"], values["change"]))}
    compared = equal = 0
    for s in seeds:
        ours, theirs = _fingerprints(change[s][1]), _fingerprints(parent[s][1])
        for k in sorted(set(ours) & set(theirs)):
            compared += 1
            equal += ours[k] == theirs[k]
    out["same_fingerprints"] = {"input_sets_compared": compared, "equal": equal}
    out["failed"] = {side: [sides[side][s][1]["summary"]["failed"] for s in seeds]
                     for side in SIDES}
    if all(q in e2e["parent"][s] for s in seeds for q in QUALITY):
        out["quality_equal_in_pairs"] = sum(
            all(e2e["parent"][s][q] == e2e["change"][s][q] for q in QUALITY) for s in seeds)
    out["env"] = {k: v for k, v in change[seeds[0]][1]["env"].items()
                  if k not in ("git_commit", "seed")}
    runs = []
    for s in seeds:
        # the pair's two runs in the order they ran
        for stamp, side in sorted((sides[side][s][0], side) for side in SIDES):
            result = sides[side][s][1]
            runs.append({"seed": s, "side": side,
                         **{name: e2e[side][s][name] for name in METRICS},
                         "failed": result["summary"]["failed"],
                         **{q: e2e[side][s][q] for q in QUALITY if q in e2e[side][s]}})
    out["runs"] = runs
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--parent", required=True, help="the parent's results directory")
    ap.add_argument("--change", required=True, help="the change's results directory")
    ap.add_argument("--parent-label", help="what the parent is (default: its commit)")
    ap.add_argument("--change-label", help="what the change is (default: its commit)")
    ap.add_argument("--out", help="the file to write (default: standard output)")
    args = ap.parse_args(argv)
    seeds = list(dict.fromkeys(args.seeds))
    try:
        parent = find_runs(args.parent, args.workload, seeds)
        change = find_runs(args.change, args.workload, seeds)
    except ValueError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    labels = [label or runs[seeds[0]][1]["env"].get("git_commit")
              for label, runs in ((args.parent_label, parent), (args.change_label, change))]
    text = json.dumps(assemble(args.workload, seeds, parent, change, labels), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
