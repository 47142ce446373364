"""Run one round of a workload in a fresh process; print its result as JSON.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --work-dir DIR

A fresh process per round keeps the program's in-process caches from
carrying over between rounds, and makes set-up (imports and config
validation) measurable once per round.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def source_present():
    return (SRC / "cheeger_lab" / "__init__.py").is_file()


def use_checkout_source():
    """Import cheeger_lab from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cheeger_lab
    if Path(cheeger_lab.__file__).resolve().parent != SRC / "cheeger_lab":
        raise ImportError(f"cheeger_lab imported from {cheeger_lab.__file__}, "
                          f"not from {SRC}")


def run_round(workload, seed, trace, work_dir, toy=False, t0=None):
    """One round: set-up, the timed fixed work, then the oracle checks."""
    t0 = time.perf_counter() if t0 is None else t0
    use_checkout_source()
    import layers
    import workloads
    from tracing import Patcher, Tracer, install

    wl = workloads.WORKLOADS[workload](seed, Path(work_dir), toy=toy)
    setup_s = time.perf_counter() - t0
    tracer = Tracer() if trace else None
    dropped = []
    with Patcher() as patcher:
        if tracer is not None:
            dropped = layers.install_layers(patcher, tracer)
        # the item timers are installed last, so they wrap any layer hook
        missing = install(patcher, wl.hooks())
        if missing:
            raise RuntimeError(f"cannot time the items of {workload}: {missing}")
        probe_before = speed_probe()
        t = time.perf_counter()
        wl.run(tracer)
        wall_s = time.perf_counter() - t
        probe_s = [probe_before, speed_probe()]
    checks = wl.checks()
    result = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "setup_s": setup_s, "wall_s": wall_s, "probe_s": probe_s, "items": wl.items,
        "failed_items": wl.failed_items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": wl.fingerprint(), "quality": wl.quality_samples(),
        "dropped": dropped, "env": environment(),
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, dropped)
        result["spans"] = tracer.as_records()
        result["fingerprint"]["edges"] = int(tracer.counters["edges"])
        if "cut_solvers.pipeline" not in dropped and workload.endswith("_converge"):
            c = tracer.counters
            trials = len(wl.items)
            checks.append(("pipeline_rescores_to_objective",
                           c["rescore_checked"] == trials and c["rescore_failed"] == 0,
                           f"{int(c['rescore_checked'])}/{trials} re-scored, "
                           f"{int(c['rescore_failed'])} differ"))
    result["checks"] = [[name, bool(ok), detail] for name, ok, detail in checks]
    return result


def speed_probe():
    """Seconds for fixed work that uses no cheeger_lab code.

    A k-d tree pair query, sparse matrix-vector products, a sort and an
    interpreted loop: the kinds of work the workloads do. Timed just before
    and after each round's work, it measures how fast the machine runs at
    that moment, so run.py can tell machine slowdowns from program ones.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.spatial import cKDTree
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    n = 40000
    pts = rng.random((n, 2))
    pairs = cKDTree(pts).query_pairs(0.008, output_type="ndarray")
    a = sp.csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    a = a + a.T
    x = rng.standard_normal(n)
    for _ in range(100):
        x = a @ x
        x /= np.linalg.norm(x)
    np.cumsum(x[np.argsort(x)])
    total = 0
    for i in range(800_000):
        total += i % 7
    return time.perf_counter() - t0


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "machine": platform.machine()}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    args = p.parse_args(argv)
    if not source_present():
        print(f"perfbench: no cheeger_lab source under {SRC}", file=sys.stderr)
        return 2
    result = run_round(args.workload, args.seed, args.trace, args.work_dir, t0=T0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
