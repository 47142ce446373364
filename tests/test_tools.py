import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from cheeger_lab.harness import STAGES, UNDIGESTED, run_trial

ROOT = Path(__file__).resolve().parent.parent
TRIAL_PROFILE = ROOT / "tools" / "trial_profile.py"


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
    spec = importlib.util.spec_from_file_location("trial_profile", TRIAL_PROFILE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rec = run_trial(script.config(200, 3), 200, 0)
    assert rec["epsilon"] == 200 ** -0.25 and rec["method"] == "pipeline"
    assert out["record"] == json.loads(json.dumps(
        {k: v for k, v in rec.items() if k not in UNDIGESTED}))
