"""Print the numbers that a change which claims "same numbers" must leave alone.

    PYTHONPATH=src python tools/same_numbers.py > numbers.json

For master seeds 1-3 it runs every converge config of the benchmark's
``circle_converge`` and ``surface_converge`` workloads with one worker,
every continuum check of its ``nonlocal_calculus`` plan, and the GTV
concentration round of its ``ustat_gtv`` workload. The configs, the plan
and the round are read from ``perfbench/workloads.py``. It prints one JSON
object:

- ``converge``: per seed and manifold, the run digest and the sha256 of
  ``rates.json``;
- ``nonlocal_calculus``: per seed, each check's report (name, verdict and
  entries), floats written with every digit;
- ``ustat_gtv``: per seed, the report's entries (n, epsilon, mean, std and
  exceedance, every digit) and the number of edges of all its graphs.

Run it on two checkouts and compare the two objects.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _perfbench(name):
    """The module ``perfbench/<name>.py`` of this checkout."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    return _perfbench("workloads")


def _plain(value):
    """A numpy scalar as the Python number or bool it holds."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _run_with_item_hooks(work):
    """Run a workload with its item timers installed, as the benchmark runs
    it, so that its fingerprint counts what they count."""
    tracing = _perfbench("tracing")
    with tracing.Patcher() as patcher:
        missing = tracing.install(patcher, work.hooks())
        if missing:
            raise RuntimeError(f"cannot time the items of {type(work).__name__}: {missing}")
        work.run()


def same_numbers(seeds=SEEDS, toy=False):
    """The digests and reports of `seeds`; ``toy`` runs the workloads' toy sizes."""
    wl = _workloads()
    converge, calculus, ustat = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            runs = converge[str(seed)] = {}
            for cls in (wl.CircleConverge, wl.SurfaceConverge):
                work = cls(seed, Path(tmp) / f"{cls.__name__}_{seed}", toy=toy)
                work.run()
                for cfg, res in zip(work.configs, work.results):
                    rates = (Path(cfg.out) / "rates.json").read_bytes()
                    runs[cfg.manifold] = {"digest": res["digest"],
                                          "rates_sha256": hashlib.sha256(rates).hexdigest()}
            work = wl.NonlocalCalculus(seed, Path(tmp), toy=toy)
            work.run()
            calculus[str(seed)] = [dict(rep.as_dict(), manifold=name)
                                   for name, rep in work.reports]
            work = wl.UstatGtv(seed, Path(tmp), toy=toy)
            _run_with_item_hooks(work)
            ustat[str(seed)] = {"entries": work.report.entries,
                                "edges": work.fingerprint()["edges"]}
    # one round trip makes every numpy scalar a plain number
    return json.loads(json.dumps({"converge": converge, "nonlocal_calculus": calculus,
                                  "ustat_gtv": ustat}, default=_plain))


def main():
    print(json.dumps(same_numbers(), indent=1))


if __name__ == "__main__":
    main()
