import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from cheeger_lab.harness import STAGES, UNDIGESTED, run_trial

ROOT = Path(__file__).resolve().parent.parent
TRIAL_PROFILE = ROOT / "tools" / "trial_profile.py"
SAME_NUMBERS = ROOT / "tools" / "same_numbers.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trial_profile_runs_a_toy_trial_stage_by_stage():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(TRIAL_PROFILE), "--n", "200", "--seed", "3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    stages = out["stages"]
    assert [s["stage"] for s in stages] == list(STAGES)
    # one table line a stage, after the line of the memory at the start
    assert [line.split()[0] for line in lines[:-1]] == ["start"] + list(STAGES)
    peaks = [s["peak_rss_mb"] for s in stages]
    assert all(s["s"] >= 0 for s in stages) and peaks == sorted(peaks)
    # the harness's trial, here in-process: the same record
    script = _load(TRIAL_PROFILE)
    rec = run_trial(script.config(200, 3), 200, 0)
    assert rec["epsilon"] == 200 ** -0.25 and rec["method"] == "pipeline"
    assert out["record"] == json.loads(json.dumps(
        {k: v for k, v in rec.items() if k not in UNDIGESTED}))


def test_same_numbers_reports_every_converge_config_and_check_at_toy_size():
    script = _load(SAME_NUMBERS)
    out = script.same_numbers(seeds=(2,), toy=True)
    assert list(out) == ["converge", "nonlocal_calculus", "ustat_gtv"]
    runs = out["converge"]["2"]
    assert sorted(runs) == ["circle", "flat_torus_2", "sphere_2"]
    assert all(len(r["digest"]) == 64 and len(r["rates_sha256"]) == 64
               for r in runs.values())
    plan = script._workloads().NonlocalCalculus.TOY
    reports = out["nonlocal_calculus"]["2"]
    assert [(r["name"], r["manifold"]) for r in reports] == [
        ("bias_inequality" if kind == "bias" else "smoothing_chain", name)
        for kind, name, _, _ in plan]
    assert all(r["entries"] and isinstance(r["passed"], bool) for r in reports)
    # the GTV round: an entry per n, and the edges of all its graphs
    ustat = out["ustat_gtv"]["2"]
    work = script._workloads().UstatGtv(2, ROOT, toy=True)
    assert [e["n"] for e in ustat["entries"]] == work.n_list
    assert all(set(e) == {"n", "epsilon", "mean", "std", "exceedance"}
               for e in ustat["entries"])
    assert isinstance(ustat["edges"], int) and ustat["edges"] > 0
    # plain JSON, and the same numbers from a second run
    assert json.loads(json.dumps(out)) == out
    assert script.same_numbers(seeds=(2,), toy=True) == out
