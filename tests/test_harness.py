import hashlib
import inspect
import json
import os
import subprocess
import sys
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


def test_validate_config_names_a_missing_manifold_and_an_unknown_solver():
    with pytest.raises(ConfigError) as exc:
        validate_config({"n_list": [100], "trials": 1, "seed": 0, "out": "x",
                         "solver": "annealing"})
    assert exc.value.errors == [
        "manifold required",
        f"unknown solver 'annealing'; expected one of {sorted(harness._SOLVERS)}"]


def test_validate_config_refuses_epsilons_that_do_not_align_with_n_list():
    with pytest.raises(ConfigError) as exc:
        small_config("x", epsilons=[0.2])
    assert exc.value.errors == ["epsilons must align with n_list"]


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


@pytest.mark.parametrize("manifold,n,solver,offender", [
    pytest.param("sphere_2", "1100,1500", "arc",
                 "solver 'arc' sweeps arcs of the circle only, not of the sphere_2",
                 id="arc_off_the_circle"),
    pytest.param("circle", "100,200,400", "exact",
                 "solver 'exact' enumerates cuts of n <= 24 only; offending n: [100, 200, 400]",
                 id="exact_above_its_limit")])
def test_validate_config_refuses_a_solver_that_fails_every_trial(tmp_path, capsys, manifold,
                                                                 n, solver, offender):
    # such a config used to fail every trial and exit 0 with no rates
    with pytest.raises(ConfigError) as exc:
        validate_config({"manifold": manifold, "n_list": [int(x) for x in n.split(",")],
                         "trials": 1, "seed": 0, "out": "x", "solver": solver})
    assert exc.value.errors == [offender]
    out = tmp_path / "sweep"
    assert cli.main(["--out", str(out), "converge", "--manifold", manifold, "--n", n,
                     "--solver", solver]) == 2
    assert f"config error: {offender}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("key,value", [
    ("n_list", [500.7, 1000]), ("trials", 2.5), ("seed", 3.9),
    ("trials", True), ("seed", True), ("n_list", [True, 1000]),
    # an integral float is refused too, as PointCloud.load refuses one
    ("n_list", [500.0, 1000]), ("seed", 3.0)])
def test_validate_config_rejects_non_integers(key, value):
    with pytest.raises(ConfigError) as exc:
        small_config("x", **{key: value})
    assert exc.value.errors == [f"{key} must be an integer, got {value!r}"]


@pytest.mark.parametrize("key,value", [
    ("epsilon_c", True), ("epsilon_k", True), ("epsilon_c", "2.0"),
    ("epsilons", ["0.1", "0.05"])])
def test_validate_config_refuses_bools_and_strings_as_reals(key, value):
    # float() takes JSON true as 1.0 and "0.1" as 0.1; neither is a number
    with pytest.raises(ConfigError) as exc:
        small_config("x", **{key: value})
    assert exc.value.errors == [f"{key} must be numeric, got {value!r}"]


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
    # the pipeline starts a circle cloud from the arc sweep, with no eigen
    # solve, and returns its certified cut
    cfg = small_config(tmp_path / "c", n_list=[200])
    rec = run_trial(cfg, 200, 0)
    assert rec["winner"] == "arc_sweep"
    assert rec["degraded"] is False and rec["eigen_residual"] is None
    cfg = small_config(tmp_path / "t", manifold="flat_torus_2", n_list=[150],
                       epsilons=[0.25])
    rec = run_trial(cfg, 150, 0)
    assert rec["winner"] in ("spectral_sweep", "local_search")
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
    # the residual's last bits follow the BLAS threading, not the config;
    # circle records carry none, so the torus's eigen solve supplies them
    records = run_experiment(small_config(
        tmp_path / "torus", manifold="flat_torus_2", n_list=[150],
        epsilons=[0.25]))["records"]
    assert all(r["eigen_residual"] > 0.0 for r in records)
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
    # and a sidecar without m, which used to end in a KeyError
    graph.write_text("i,j\n0,1\n1,2\n")
    (tmp_path / "bad.csv.json").write_text('{"n": 4, "epsilon": 0.5}')
    assert cli.main(["solve", "--graph", str(graph)]) == 3
    # a sphere cloud labelled a circle of 99 points: no graph, no arc certificate
    cloud = tmp_path / "cloud.csv"
    get_manifold("sphere_2").sample(60, seed=1).save(cloud)
    (tmp_path / "cloud.csv.json").write_text(
        '{"manifold": "circle", "n": 99, "seed": 1}')
    assert cli.main(["--out", str(tmp_path / "g.csv"), "build-graph",
                     "--cloud", str(cloud), "--epsilon", "0.2"]) == 3
    assert not (tmp_path / "g.csv").exists()


def test_import_leaves_integrate_and_optimize_unloaded():
    # no module imports either; a lazy import must stay out of startup too
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import cheeger_lab; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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


def test_cli_converge_takes_one_epsilon_per_n(tmp_path, capsys):
    out = tmp_path / "conv"
    argv = ["--out", str(out), "converge", "--manifold", "circle",
            "--n", "100,200", "--trials", "1", "--epsilons"]
    assert cli.main(argv + ["0.2,0.15"]) == 0
    capsys.readouterr()
    recs = [json.loads((out / f"record_n{n}_t0.json").read_text()) for n in (100, 200)]
    assert [r["epsilon"] for r in recs] == [0.2, 0.15]
    assert cli.main(argv + ["0.2"]) == 2
    assert "config error: epsilons must align with n_list" in capsys.readouterr().err


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


def test_cli_ustat_refuses_a_single_trial(tmp_path, capsys):
    # one trial has no std (ddof = 1); NaN would not be valid JSON
    out = tmp_path / "ustat.json"
    assert cli.main(["--out", str(out), "ustat", "--manifold", "circle",
                     "--n", "50,100", "--trials", "1"]) == 3
    assert "at least 2 trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0,200", "1"])
def test_cli_ustat_refuses_fewer_than_two_points(tmp_path, capsys, n):
    # epsilon = n^(-1/2) has no value at n = 0, and one point has no edge
    out = tmp_path / "ustat.json"
    assert cli.main(["--out", str(out), "ustat", "--manifold", "circle",
                     "--n", n, "--trials", "3"]) == 3
    assert "at least 2 points" in capsys.readouterr().err
    assert not out.exists()


def test_cli_ustat_refuses_an_empty_n_list(tmp_path, capsys):
    out = tmp_path / "ustat.json"
    assert cli.main(["--out", str(out), "ustat", "--manifold", "circle",
                     "--n", ",", "--trials", "3"]) == 3
    assert "at least one sample size" in capsys.readouterr().err
    assert not out.exists()


def test_cli_ustat_refuses_a_repeated_n(tmp_path, capsys):
    out = tmp_path / "ustat.json"
    assert cli.main(["--out", str(out), "ustat", "--manifold", "circle",
                     "--n", "100,100", "--trials", "2"]) == 2
    assert "n_list repeats n: [100]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["4,9", "9,200"])
def test_cli_ustat_refuses_an_epsilon_above_the_manifold_limit(tmp_path, capsys, n):
    # epsilon = n^(-1/2) exceeds the circle's 0.25 below n = 16, as in converge
    out = tmp_path / "ustat.json"
    assert cli.main(["--seed", "1", "--out", str(out), "ustat", "--manifold", "circle",
                     "--n", n, "--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert "config error: epsilon(n=9) = 0.3333 exceeds the manifold limit 0.25" in err
    assert ("epsilon(n=4) = 0.5" in err) == n.startswith("4")
    assert not out.exists()


def test_readme_cli_lines_parse():
    # every `cheeger-lab` line of the README's CLI block, continuations joined
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    assert lines
    parser = cli.build_parser()
    for line in lines:
        prog, *argv = line.split()
        assert prog == "cheeger-lab"
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the README line does not parse: {line}")


@pytest.mark.parametrize("h", ["0", "-0.1", "0.05,0"])
def test_cli_nonlocal_check_refuses_a_scale_that_is_not_positive(capsys, h):
    assert cli.main(["nonlocal-check", "--manifold", "circle", "--h", h]) == 3
    assert "scale=" in capsys.readouterr().err


@pytest.mark.parametrize("h", [",", ""])
def test_cli_nonlocal_check_refuses_an_empty_scale_list(capsys, h):
    # a report with no entries would print "passed": true
    assert cli.main(["nonlocal-check", "--manifold", "circle", "--h", h]) == 3
    captured = capsys.readouterr()
    assert "at least one scale" in captured.err and not captured.out


@pytest.mark.parametrize("workers", [0, -2, 1.5, True])
def test_run_experiment_refuses_a_worker_count_below_one(tmp_path, workers):
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="workers"):
        run_experiment(small_config(out), workers=workers)
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_refuses_a_worker_count_below_one(tmp_path, capsys, workers):
    out = tmp_path / "run"
    assert cli.main(["--workers", workers, "--out", str(out), "converge",
                     "--manifold", "circle", "--n", "100", "--trials", "2"]) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_worker_count_that_is_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--workers", "1.5", "converge",
                                       "--manifold", "circle", "--n", "100"])
    assert exc.value.code == 2


def test_workers_default_to_one():
    assert inspect.signature(harness.run_experiment).parameters["workers"].default == 1
    assert cli.build_parser().parse_args(["validate", "--config", "c.json"]).workers == 1
