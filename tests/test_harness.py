import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from cheeger_lab import cli, harness
from cheeger_lab.cut_solvers import LOBPCG_TOL
from cheeger_lab.errors import ConfigError, MissingColumns
from cheeger_lab.harness import (ExperimentConfig, config_hash, emit_plot_data,
                                 run_digest, run_experiment, run_trial,
                                 trial_seed, validate_config)
from cheeger_lab.manifold import get_manifold
from cheeger_lab.proximity_graph import build_graph


def small_config(out, **overrides):
    raw = {"manifold": "circle", "n_list": [100, 200], "trials": 2,
           "seed": 11, "out": str(out)}
    raw.update(overrides)
    return validate_config(raw)


def test_validate_config_defaults():
    cfg = small_config("x")
    assert cfg.epsilon_k == pytest.approx(0.5)  # 3/(2+4m), m=1
    assert cfg.schedule_meta["k_zeta"] == pytest.approx(1.0)
    assert cfg.epsilon(100) == pytest.approx(2.0 * 100 ** -0.5)
    assert cfg.bandwidth(100) == pytest.approx(cfg.epsilon(100) ** (1 / 3))
    resolved = cfg.resolved()
    assert resolved["epsilon_by_n"]["100"] == cfg.epsilon(100)


def test_validate_config_collects_errors():
    with pytest.raises(ConfigError) as exc:
        validate_config({"manifold": "moebius", "trials": 0,
                         "objective": "cheeger", "log_correction": True,
                         "grid_resolution": 400})
    msgs = " | ".join(exc.value.errors)
    for key in ("objective", "log_correction", "grid_resolution"):
        assert f"unknown config key {key!r}" in msgs
    assert "n_list required" in msgs
    assert "trials" in msgs
    assert "unknown manifold" in msgs
    assert "seed required" in msgs


def test_validate_config_rejects_edited_derived_keys():
    raw = {"manifold": "circle", "n_list": [100], "trials": 1, "seed": 0, "out": "x"}
    echoed = validate_config(raw).resolved()
    assert validate_config(echoed).resolved() == echoed
    for key, edited in (("epsilon_by_n", {"100": 0.5}),
                        ("schedule_meta", dict(echoed["schedule_meta"], k_eps=9))):
        with pytest.raises(ConfigError) as exc:
            validate_config(dict(echoed, **{key: edited}))
        assert len(exc.value.errors) == 1 and exc.value.errors[0].startswith(key)


def test_validate_config_epsilon_limit_names_offender():
    for n_list, offender in (
            ([8, 100], "n=8"),
            # a repeated n would run its trials twice and skip its second epsilon
            ([100, 100, 200, 400], "n_list repeats n: [100]")):
        with pytest.raises(ConfigError) as exc:
            validate_config({"manifold": "circle", "n_list": n_list, "trials": 1,
                             "seed": 0, "out": "x"})
        assert any(offender in e for e in exc.value.errors), exc.value.errors


@pytest.mark.parametrize("overrides,offender", [
    pytest.param({"epsilons": [0.0, 0.1]}, "epsilon(n=100) = 0.0", id="zero"),
    pytest.param({"epsilons": [float("nan"), 0.1]}, "epsilon(n=100) = nan", id="nan"),
    pytest.param({"epsilon_c": -1}, "epsilon(n=200) = -0.07", id="negative"),
    pytest.param({"epsilon_k": float("inf")}, "epsilon(n=100) = 0.0", id="underflow")])
def test_validate_config_rejects_nonpositive_epsilon(tmp_path, overrides, offender):
    with pytest.raises(ConfigError) as exc:
        small_config("x", **overrides)
    assert any(e.startswith(offender) and "positive finite" in e
               for e in exc.value.errors), exc.value.errors
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"manifold": "circle", "n_list": [100, 200], "trials": 1,
                               "seed": 0, "out": "x", **overrides}))
    assert cli.main(["validate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("key,value", [
    ("trials", "five"), ("seed", "s"), ("n_list", [100, "two hundred"]),
    ("epsilons", [0.1, "tiny"]), ("epsilon_c", [2.0]), ("epsilon_k", "half")])
def test_validate_config_rejects_non_numbers(tmp_path, key, value):
    with pytest.raises(ConfigError) as exc:
        small_config("x", **{key: value})
    assert f"{key} must be numeric, got {value!r}" in exc.value.errors
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"manifold": "circle", "n_list": [100, 200], "trials": 1,
                               "seed": 0, "out": "x", key: value}))
    assert cli.main(["validate", "--config", str(bad)]) == 2


def test_trial_seed_stable_and_distinct():
    assert trial_seed(1, 100, 0) == trial_seed(1, 100, 0)
    seeds = {trial_seed(1, n, t) for n in (100, 200) for t in range(5)}
    assert len(seeds) == 10


def test_kappa_only_where_transport_delta_is_measured(tmp_path):
    cfg = small_config(tmp_path / "c")
    rec = run_trial(cfg, 100, 0)
    assert rec["kappa"] == rec["epsilon"] ** (1 / 6) + rec["transport_delta"] / rec["epsilon"]
    cfg = small_config(tmp_path / "t", manifold="flat_torus_2", n_list=[150],
                       epsilons=[0.25])
    rec = run_trial(cfg, 150, 0)
    assert rec["transport_delta"] is None and rec["kappa"] is None


def test_record_stage_times_and_edge_count(tmp_path):
    cfg = small_config(tmp_path / "c")
    rec = run_trial(cfg, 100, 0)
    assert list(rec["stage_s"]) == ["sample", "graph", "solve", "reference", "l1"]
    assert all(v >= 0.0 for v in rec["stage_s"].values())
    mf = get_manifold("circle")
    g = build_graph(mf.sample(100, seed=rec["trial_seed"]), rec["epsilon"])
    assert rec["n_edges"] == len(g.edges)


def test_record_shows_how_the_solver_got_there(tmp_path):
    cfg = small_config(tmp_path / "c", n_list=[200])
    rec = run_trial(cfg, 200, 0)
    assert rec["winner"] in ("spectral_sweep", "arc_sweep", "local_search")
    assert rec["degraded"] is False
    assert 0.0 <= rec["eigen_residual"] <= LOBPCG_TOL
    cfg = small_config(tmp_path / "a", n_list=[200], solver="arc")
    rec = run_trial(cfg, 200, 0)
    assert rec["winner"] == "arc_sweep" and rec["eigen_residual"] is None
    res = run_experiment(cfg)
    rows = Path(res["summary_path"]).read_text().splitlines()
    header = rows[0].split(",")
    assert [r.split(",")[header.index("winner")] for r in rows[1:]] == \
        ["arc_sweep", "arc_sweep"]


def test_digest_ignores_stage_times(tmp_path):
    records = run_experiment(small_config(tmp_path / "run"))["records"]
    retimed = [dict(r, stage_s={k: v + 1.0 for k, v in r["stage_s"].items()})
               for r in records]
    assert run_digest(retimed) == run_digest(records)
    # the residual's last bits follow the BLAS threading, not the config
    shaken = [dict(r, eigen_residual=2.0 * r["eigen_residual"]) for r in records]
    assert run_digest(shaken) == run_digest(records)
    assert run_digest([dict(r, winner="other") for r in records]) != \
        run_digest(records)
    assert run_digest([dict(r, n_edges=r["n_edges"] + 1) for r in records]) != \
        run_digest(records)


def test_run_experiment_cardinality_and_rerun(tmp_path):
    cfg = small_config(tmp_path / "run")
    res = run_experiment(cfg)
    assert len(res["records"]) == 4
    summary = Path(res["summary_path"]).read_bytes()
    res2 = run_experiment(cfg)  # resume: reuses records
    assert res2["digest"] == res["digest"]
    assert Path(res2["summary_path"]).read_bytes() == summary
    rows = summary.decode().splitlines()
    assert rows[0].startswith("n,epsilon,trial_seed,cheeger_ratio")
    assert len(rows) == 5
    # a different config must not reuse, or overwrite, these records
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    with pytest.raises(ConfigError, match="record_n100_t0.json"):
        run_experiment(small_config(tmp_path / "run", epsilon_c=1.5))
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == before


def test_crash_resume_digest(tmp_path):
    cfg = small_config(tmp_path / "run")
    res = run_experiment(cfg)
    # simulate a crash that lost one record
    victim = tmp_path / "run" / "record_n200_t1.json"
    victim.unlink()
    res2 = run_experiment(cfg)
    assert res2["digest"] == res["digest"]


def test_resume_rejects_records_of_an_older_layout(tmp_path, monkeypatch):
    cfg = small_config(tmp_path / "run")
    run_experiment(cfg)
    # a record written before `winner` existed, under the config hash of the
    # time, which did not include the record layout
    d = cfg.resolved()
    d.pop("out")
    old_hash = hashlib.sha256(json.dumps(d, sort_keys=True, default=str)
                              .encode()).hexdigest()[:16]
    path = tmp_path / "run" / "record_n200_t1.json"
    rec = json.loads(path.read_text())
    for key in ("winner", "degraded", "eigen_residual"):
        del rec[key]
    path.write_text(json.dumps(dict(rec, config_hash=old_hash)))
    with pytest.raises(ConfigError, match="another config"):
        run_experiment(cfg)
    # a new layout is a new hash
    before = config_hash(cfg)
    monkeypatch.setattr(harness, "RECORD_SCHEMA", harness.RECORD_SCHEMA + 1)
    assert config_hash(cfg) != before


def test_worker_count_invariance(tmp_path):
    digests = []
    for w in (1, 4):
        cfg = small_config(tmp_path / f"w{w}")
        digests.append(run_experiment(cfg, workers=w)["digest"])
    assert digests[0] == digests[1]


def test_rates_json_written(tmp_path):
    cfg = validate_config({"manifold": "circle", "n_list": [100, 200, 400],
                           "trials": 5, "seed": 3, "out": str(tmp_path / "r")})
    res = run_experiment(cfg)
    rates = json.loads((tmp_path / "r" / "rates.json").read_text())
    assert "abs_error" in rates and "l1_cut_error" in rates
    assert rates["schedule"]["k_eps"] == pytest.approx(0.5)
    assert "fitted_slope" in rates["abs_error"]


def test_emit_plot_data(tmp_path):
    cfg = validate_config({"manifold": "circle", "n_list": [100, 200, 400],
                           "trials": 3, "seed": 5, "out": str(tmp_path / "p")})
    res = run_experiment(cfg)
    meta = emit_plot_data(res["summary_path"], "rate_loglog", tmp_path / "plots")
    assert len(meta["n"]) == 3
    assert "slope" in meta
    svg = Path(meta["svg"]).read_text()
    assert svg.startswith("<svg") and "slope" in svg
    tsv = Path(meta["tsv"]).read_text().splitlines()
    assert tsv[0] == "x\ty\tsigma" and len(tsv) == 4
    meta2 = emit_plot_data(res["summary_path"], "concentration", tmp_path / "plots")
    assert len(meta2["y"]) == 3
    meta3 = emit_plot_data(res["summary_path"], "cut_error", tmp_path / "plots")
    assert "monotone_decreasing" in meta3
    with pytest.raises(ValueError):
        emit_plot_data(res["summary_path"], "pie_chart", tmp_path / "plots")


def test_emit_plot_data_missing_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    # no data rows; then rows without the plotted column abs_error
    for text in ("a,b\n", "n,epsilon\n100,0.2\n"):
        bad.write_text(text)
        with pytest.raises(MissingColumns):
            emit_plot_data(bad, "rate_loglog", tmp_path / "plots")
        assert cli.main(["--out", str(tmp_path / "plots"), "plot", "--summary",
                         str(bad), "--kind", "rate_loglog"]) == 3
        assert "error: summary" in capsys.readouterr().err


def test_failed_trial_keeps_traceback_out_of_digest(tmp_path, monkeypatch):
    def broken_build(cloud, eps):
        raise RuntimeError("no graph today")

    monkeypatch.setattr(harness, "build_graph", broken_build)
    runs = [run_experiment(small_config(tmp_path / d), workers=1) for d in ("a", "b")]
    rec = runs[0]["records"][0]
    assert rec["failed"] and rec["error"] == "RuntimeError: no graph today"
    assert "broken_build" in rec["traceback"]
    assert rec["traceback"].rstrip().endswith("RuntimeError: no graph today")
    assert runs[0]["digest"] == runs[1]["digest"]
    moved = [dict(r, traceback=r["traceback"].replace("harness", "elsewhere"))
             for r in runs[0]["records"]]
    assert run_digest(moved) == runs[0]["digest"]


def test_failed_trials_are_isolated(tmp_path):
    cfg = small_config(tmp_path / "run")
    out = tmp_path / "run"
    out.mkdir()
    # pre-seed a failed record; the sweep must skip it and still aggregate
    (out / "record_n100_t0.json").write_text(
        json.dumps({"config_hash": config_hash(cfg), "n": 100, "trial": 0,
                    "failed": True, "error": "X: boom"}))
    res = run_experiment(cfg)
    assert len(res["records"]) == 4
    rows = Path(res["summary_path"]).read_text().splitlines()
    assert len(rows) == 4  # header + 3 good records
    assert res["rates"]["n_failed"] == {"100": 1, "200": 0}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method,n,certificate", [
    pytest.param("arc", 60, "FamilyOptimum", id="arc"),
    pytest.param("exact", 20, "GlobalOptimum", id="exact"),  # enumeration stops at 24
    pytest.param("pipeline", 60, "Heuristic", id="pipeline"),
    pytest.param("spectral", 60, "Heuristic", id="spectral")])
def test_cli_sample_build_solve_roundtrip(tmp_path, capsys, method, n, certificate):
    cloud = tmp_path / "cloud.csv"
    graph = tmp_path / "graph.csv"
    assert cli.main(["--seed", "4", "--out", str(cloud),
                     "sample", "--manifold", "circle", "--n", str(n)]) == 0
    assert cli.main(["--out", str(graph), "build-graph", "--cloud", str(cloud),
                     "--epsilon", "0.1"]) == 0
    assert cli.main(["solve", "--graph", str(graph), "--cloud", str(cloud),
                     "--method", method]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["certificate"] == certificate


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"manifold": "circle", "n_list": [4],
                               "trials": 1, "seed": 0, "out": "x"}))
    assert cli.main(["validate", "--config", str(bad)]) == 2
    assert cli.main(["solve", "--graph", str(tmp_path / "missing.csv")]) == 3
    # an edge index >= n in either column is an input error, not a crash
    graph = tmp_path / "bad.csv"
    graph.write_text("i,j\n0,1\n1,7\n")
    (tmp_path / "bad.csv.json").write_text('{"n": 4, "epsilon": 0.5, "m": 1}')
    assert cli.main(["solve", "--graph", str(graph)]) == 3
    # so is a self loop, which would leave L·1 != 0
    graph.write_text("i,j\n0,1\n1,1\n")
    assert cli.main(["solve", "--graph", str(graph)]) == 3


def test_cli_validate_echoes_defaults(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"manifold": "flat_torus_2", "n_list": [2000],
                                "trials": 1, "seed": 0, "out": "x"}))
    assert cli.main(["validate", "--config", str(good)]) == 0
    echoed = capsys.readouterr().out
    resolved = json.loads(echoed)
    assert resolved["epsilon_k"] == pytest.approx(0.3)  # 3/(2+4m), m=2
    # the echoed config validates again, to the same config
    good.write_text(echoed)
    assert cli.main(["validate", "--config", str(good)]) == 0
    assert capsys.readouterr().out == echoed


def test_cli_converge_and_plot(tmp_path, capsys):
    out = tmp_path / "conv"
    assert cli.main(["--seed", "2", "--out", str(out), "converge",
                     "--manifold", "circle", "--n", "100,200",
                     "--trials", "2"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert (out / "summary.csv").exists()
    assert cli.main(["--out", str(tmp_path / "plots"), "plot",
                     "--summary", str(out / "summary.csv"),
                     "--kind", "concentration"]) == 0


def test_cli_nonlocal_check(capsys):
    assert cli.main(["nonlocal-check", "--manifold", "circle",
                     "--h", "0.05,0.1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True


def test_cli_ustat(tmp_path, capsys):
    out = tmp_path / "ustat.json"
    assert cli.main(["--seed", "1", "--out", str(out), "ustat",
                     "--manifold", "circle", "--n", "100,200",
                     "--trials", "3"]) == 0
    rep = json.loads(out.read_text())
    assert [e["n"] for e in rep["entries"]] == [100, 200]


def test_workers_env_default(monkeypatch):
    from cheeger_lab.harness import default_workers
    monkeypatch.setenv("CHEEGER_LAB_WORKERS", "6")
    assert default_workers() == 6
    monkeypatch.delenv("CHEEGER_LAB_WORKERS")
    assert default_workers() == 1
