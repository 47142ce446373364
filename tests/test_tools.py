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


def _fake_result(directory, seed, stamp, commit, wall_s, digest):
    """A results file as perfbench/run.py writes it, with what bench_pairs reads."""
    e2e = {"setup_s": 0.45, "wall_s": wall_s, "item_s_p50": wall_s / 20,
           "peak_rss_mb": 86.5, "setup_raw_s": 0.36, "wall_raw_s": wall_s * 0.8,
           "item_raw_s_p50": wall_s / 25, "probe_s": 0.13, "failed_frac": 0.0,
           "cheeger_ratio_mean": 3.25, "l1_cut_error_p50": 0.0125}
    result = {"workload": "circle_converge",
              "env": {"python": "3.11", "nproc": 2, "git_commit": commit,
                      "seed": seed, "seconds": 20.0},
              "summary": {"e2e": e2e, "failed": 0},
              "rounds": [{"input_set": k, "trace": False, "fingerprint": {"digest": digest}}
                         for k in range(3)]}
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"circle_converge-seed{seed}-trace0-{stamp}-p1.json"
    path.write_text(json.dumps(result))


def test_bench_pairs_assembles_a_pair_of_result_files(tmp_path):
    script = _load(ROOT / "tools" / "bench_pairs.py")
    parent, change = tmp_path / "parent", tmp_path / "change"
    # the change ran first; a traced run and another seed's run are not read
    _fake_result(parent, 7, "20260101T000200", "aaa", 0.12, "d1")
    _fake_result(change, 7, "20260101T000100", "bbb", 0.08, "d1")
    _fake_result(change, 8, "20260101T000300", "bbb", 0.08, "d1")
    (change / "circle_converge-seed7-trace1-20260101T000400-p1.json").write_text("{}")
    out_path = tmp_path / "BENCH.json"
    assert script.main(["--workload", "circle_converge", "--seeds", "7",
                        "--parent", str(parent), "--change", str(change),
                        "--change-label", "the change", "--out", str(out_path)]) == 0
    out = json.loads(out_path.read_text())
    assert list(out)[:6] == ["workload", "command", "compared", "method", "pairs", "seeds"]
    assert out["compared"] == {"parent": "aaa", "change": "the change"}
    assert (out["pairs"], out["seeds"]) == (1, [7])
    assert out["command"].endswith("--seconds 20 --trace 0")
    assert out["wall_s"] == {"unit": "s",
                             "parent": {"median": 0.12, "q1": 0.12, "q3": 0.12},
                             "change": {"median": 0.08, "q1": 0.08, "q3": 0.08},
                             "change_lower_in_pairs": 1}
    assert out["peak_rss_mb"]["change_lower_in_pairs"] == 0
    assert out["same_fingerprints"] == {"input_sets_compared": 3, "equal": 3}
    assert out["failed"] == {"parent": [0], "change": [0]}
    assert out["quality_equal_in_pairs"] == 1
    assert out["env"] == {"python": "3.11", "nproc": 2, "seconds": 20.0}
    assert [(r["seed"], r["side"], r["wall_s"]) for r in out["runs"]] == [
        (7, "change", 0.08), (7, "parent", 0.12)]
    # a seed without a run on one side is refused
    assert script.main(["--workload", "circle_converge", "--seeds", "8",
                        "--parent", str(parent), "--change", str(change)]) == 2
