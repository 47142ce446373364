"""Run one circle trial stage by stage and print each stage's time and peak memory.

    PYTHONPATH=src python tools/trial_profile.py --n 16000 --seed 1

The trial is ``harness.run_trial`` for trial 0 of a circle config with the
pipeline solver, master seed ``--seed`` and ε = n^(-1/4). As each stage of
``harness.STAGES`` ends it prints the stage's seconds and the process's peak
resident memory so far (``ru_maxrss``), so run it as a process of its own:
the peak then belongs to this one trial. The last line is one JSON object
holding the per-stage numbers and the trial's record as the run digest reads
it (``harness.UNDIGESTED`` left out, the timings among them).
"""

from __future__ import annotations

import argparse
import json
import resource

from cheeger_lab.harness import UNDIGESTED, ExperimentConfig, run_trial


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def config(n, seed):
    """The profiled trial's config: the circle, ε = n^(-1/4)."""
    return ExperimentConfig(manifold="circle", n_list=[n], trials=1, seed=seed,
                            out="", epsilon_c=1.0, epsilon_k=0.25)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    stages = []

    def on_stage(name, seconds):
        stages.append({"stage": name, "s": seconds, "peak_rss_mb": peak_rss_mb()})
        print(f"{name:>9}  {seconds:8.3f} s  {stages[-1]['peak_rss_mb']:9.1f} MB",
              flush=True)

    print(f"{'start':>9}  {'':>10}  {peak_rss_mb():9.1f} MB", flush=True)
    rec = run_trial(config(args.n, args.seed), args.n, 0, on_stage=on_stage)
    record = {k: v for k, v in rec.items() if k not in UNDIGESTED}
    print(json.dumps({"record": record, "stages": stages}))


if __name__ == "__main__":
    main()
