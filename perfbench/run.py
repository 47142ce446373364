"""cheeger-lab benchmark: run one workload for a time budget, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of the workload's fixed work, each in a fresh process
(`child.py`), until `--seconds` have passed and the minimum number of
rounds ran. Round k works on input set k, derived from the seed.

- `--trace 0`: at least three rounds, on input sets 0, 1, 2, ...; it
  reports the end-to-end metrics as medians over the rounds.
- `--trace 1`: rounds come in pairs on one input set, the first traced and
  the second not. It reports the per-layer metrics of the traced rounds
  and the tracing overhead; each pair is also the determinism probe.

It prints every metric by name and unit, then, as the last line, one JSON
object with the metrics that BENCHMARK.json lists. It exits 1 when any
output check fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import source_present
from layers import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("circle_converge", "surface_converge", "ustat_gtv", "nonlocal_calculus")
TIME_LIMIT_S = 170.0     # a run must end within 180 s
THREADS = "1"            # BLAS threads per round: one, for steady timings
QUALITY_SETS = 3         # quality metrics pool the trials of input sets 0..2
# Calibration: the speed probe's time on the machine the bounds were set on.
# Times are reported as measured seconds x PROBE_REF_S / (the run's median
# probe time), so a machine running 20 % slower for a minute does not read as
# a 20 % slower program. The measured seconds are printed as *_raw_s.
PROBE_REF_S = 0.17

# Printed for every workload. Only the first four are listed in
# BENCHMARK.json: failed_frac is 0 on correct code, and the quality metrics
# have no meaning on ustat_gtv and nonlocal_calculus, while a listed metric
# must exist on every workload.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "item_s_p50": "s", "peak_rss_mb": "MB",
             "failed_frac": "ratio", "cheeger_ratio_mean": "ratio",
             "l1_cut_error_p50": "vol_frac",
             "setup_raw_s": "s", "wall_raw_s": "s", "item_raw_s_p50": "s", "probe_s": "s"}
LISTED_E2E = ("setup_s", "wall_s", "item_s_p50", "peak_rss_mb")


def input_seed(seed, input_set):
    """Seed of input set k of a run: stable, distinct for each (seed, k)."""
    digest = hashlib.sha256(f"perfbench:{seed}:{input_set}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_child(workload, seed, trace, work_dir, timeout):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PYTHONHASHSEED="0")
    env.pop("CHEEGER_LAB_WORKERS", None)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--work-dir", str(work_dir)]
    try:
        # run() kills the child on timeout and waits for it to end
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"round timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        return {"error": f"round exited {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"round printed no result: {proc.stdout[-500:]}"}


def run_rounds(workload, seed, seconds, trace):
    min_rounds = 2 if trace else QUALITY_SETS
    rounds = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        longest = max((r["round_s"] for r in rounds), default=0.0)
        done = len(rounds) >= min_rounds and elapsed >= seconds
        if trace and len(rounds) % 2:
            done = False  # finish the pair
        if done or (rounds and elapsed + 1.2 * longest > TIME_LIMIT_S):
            break
        k = len(rounds)
        input_set = k // 2 if trace else k
        work_dir = OUT / "work" / f"{workload}-s{seed}-p{os.getpid()}-r{k}"
        t0 = time.perf_counter()
        r = run_child(workload, input_seed(seed, input_set), trace and k % 2 == 0,
                      work_dir, timeout=max(10.0, TIME_LIMIT_S - elapsed))
        r.update(round_s=time.perf_counter() - t0, input_set=input_set)
        rounds.append(r)
        if "error" in r:
            break
    return rounds


def determinism_check(rounds):
    """Rounds on one input set must give the same fingerprint."""
    first, diffs, pairs = {}, [], 0
    for i, r in enumerate(rounds):
        base = first.setdefault(r["input_set"], r)
        if base is r:
            continue
        pairs += 1
        fp, ref = r["fingerprint"], base["fingerprint"]
        diffs += [f"round {i} {k}: {fp[k]!r} != {ref[k]!r}"
                  for k in sorted(set(fp) & set(ref)) if fp[k] != ref[k]]
    if not pairs:
        return None
    return ["determinism", not diffs,
            f"{pairs} repeated rounds agree" if not diffs else "; ".join(diffs[:4])]


def tail(values):
    """(q, value) for the highest of p90 and p75 with ten samples beyond it."""
    for q in (90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def summarise(rounds):
    good = [r for r in rounds if "error" not in r]
    plain = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    checks = [c for r in good for c in r["checks"]]
    repeat = determinism_check(good)
    if repeat:
        checks.append(repeat)
    errors = [r["error"] for r in rounds if "error" in r]
    failed_items = [x for r in good for x in r["failed_items"]]
    attempted = sum(len(r["items"]) for r in good) + len(checks) + len(errors)
    failed = len(failed_items) + sum(not c[1] for c in checks) + len(errors)
    items = [x for r in plain for x in r["items"]]
    e2e = {"failed_frac": failed / max(attempted, 1)}
    if plain:
        probe = statistics.median(x for r in good for x in r["probe_s"])
        raw = {"setup_raw_s": statistics.median(r["setup_s"] for r in good),
               "wall_raw_s": statistics.median(r["wall_s"] for r in plain),
               "item_raw_s_p50": statistics.median(items)}
        scale = PROBE_REF_S / probe
        e2e.update(raw, probe_s=probe, setup_s=raw["setup_raw_s"] * scale,
                   wall_s=raw["wall_raw_s"] * scale, item_s_p50=raw["item_raw_s_p50"] * scale,
                   peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in plain))
        first = [r["quality"] for r in plain if r["input_set"] < QUALITY_SETS]
        ratios = [x for q in first for x in q.get("cheeger_ratio", [])]
        l1 = [x for q in first for x in q.get("l1_cut_error", [])]
        if ratios:
            e2e["cheeger_ratio_mean"] = statistics.fmean(ratios)
            e2e["l1_cut_error_p50"] = statistics.median(l1)
    layer = {}
    if traced:
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            layer[name] = max(values) if "_max" in name else statistics.median(values)
        if plain:
            layer["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                         - statistics.median(r["wall_s"] for r in plain))
    return {"rounds": len(rounds), "plain_rounds": len(plain),
            "traced_rounds": len(traced), "items": items, "e2e": e2e,
            "layers": layer, "checks": checks, "failed_items": failed_items,
            "errors": errors, "attempted": attempted, "failed": failed,
            "dropped": sorted({g for r in traced for g in r["dropped"]})}


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def print_report(workload, summary, env):
    s = summary
    print(f"workload {workload}, seed {env['seed']}: {s['rounds']} rounds "
          f"({s['plain_rounds']} untraced, {s['traced_rounds']} traced), "
          f"{len(s['items'])} timed items in untraced rounds")
    for name, unit in E2E_UNITS.items():
        value = s["e2e"].get(name)
        shown = "n/a (not measured on this workload or run)" if value is None \
            else f"{value!r} {unit}"
        print(f"  {name:<40} {shown}")
    if s["items"]:
        q = tail(s["items"])
        if q:
            print(f"  {'item_raw_s_p%d' % q[0]:<40} {q[1]!r} s")
        print(f"  {'item_raw_s_max':<40} {max(s['items'])!r} s "
              f"(of {len(s['items'])} items)")
    for name, value in s["layers"].items():
        print(f"  {name:<40} {value!r} {UNITS[name][0]}")
    for name, ok, detail in s["checks"]:
        if not ok:
            print(f"  CHECK FAILED {name}: {detail}")
    for name in s["failed_items"]:
        print(f"  ITEM FAILED {name}")
    for err in s["errors"]:
        print(f"  ROUND FAILED {err}")
    if s["dropped"]:
        print(f"  untraced layers (name missing): {s['dropped']}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not source_present():
        print(f"perfbench: no cheeger_lab source under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = summarise(rounds)
    good = [r for r in rounds if "error" not in r]
    env = dict(good[0]["env"] if good else {}, git_commit=git_commit(),
               seed=args.seed, seconds=args.seconds)
    print_report(args.workload, summary, env)

    out = OUT / "results" / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                             f"{time.strftime('%Y%m%dT%H%M%S')}-p{os.getpid()}")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out.with_suffix(".json"), "w") as fh:
        json.dump({"workload": args.workload, "env": env, "summary": summary,
                   "rounds": [{k: v for k, v in r.items() if k != "spans"}
                              for r in rounds]}, fh, indent=1)
    if args.trace:
        with open(out.with_suffix(".spans.json"), "w") as fh:
            json.dump([{"round": i, "input_set": r["input_set"], "spans": r["spans"]}
                       for i, r in enumerate(rounds) if r.get("spans")], fh)
    print(f"  results: {out.relative_to(ROOT)}.json")

    if args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k][0]}
                   for k, v in summary["layers"].items()}
    else:
        metrics = {k: {"value": summary["e2e"][k], "unit": E2E_UNITS[k]}
                   for k in LISTED_E2E if k in summary["e2e"]}
    if not metrics:
        print("perfbench: no round completed; no result", file=sys.stderr)
        return 1
    correct = summary["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
