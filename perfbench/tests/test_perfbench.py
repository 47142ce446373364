"""Tests of the benchmark itself: span arithmetic, name patching, smoke runs.

    python3 -m pytest perfbench/tests
"""

import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import Patcher, Tracer, install, self_times, span_totals  # noqa: E402


def test_self_time_subtracts_children_once():
    # name, start, end, parent
    spans = [("trial", 0.0, 10.0, -1), ("build", 1.0, 4.0, 0), ("adj", 2.0, 3.0, 1),
             ("solve", 5.0, 9.0, 0), ("eigen", 6.0, 7.0, 3),
             ("odd", 20.0, 30.0, -1), ("a", 21.0, 25.0, 5), ("b", 24.0, 26.0, 5)]
    st = self_times(spans)
    assert st[:5] == [3.0, 2.0, 1.0, 3.0, 1.0]
    # self times of a tree add up to the root's duration
    assert sum(st[:5]) == 10.0
    # overlapping children are merged, not subtracted twice
    assert st[5] == 10.0 - 5.0
    totals = span_totals(spans)
    assert totals["trial"] == (10.0, 3.0, 1)


def test_tracer_records_nesting_and_items():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    t.item = "n8_t0"
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    recs = t.as_records()
    assert [r["parent"] for r in recs] == [-1, 0, 0]
    assert {r["item"] for r in recs} == {"n8_t0"}
    assert span_totals(t.spans)["outer"] == (5.0, 3.0, 1)


def test_patcher_restores_module_class_and_registry_names():
    mod = types.ModuleType("fake")
    mod.f = lambda x: x + 1

    class Graph:
        @property
        def adjacency(self):
            return "csr"

    registry = {"pipeline": mod.f}
    originals = (mod.f, vars(Graph)["adjacency"], registry["pipeline"])
    calls = []

    def counting(fn):
        def wrapper(*a):
            calls.append(a)
            return fn(*a)
        return wrapper

    with pytest.raises(RuntimeError):
        with Patcher() as p:
            p.patch(mod, "f", counting)
            p.patch(registry, "pipeline", counting)
            p.patch(Graph, "adjacency", lambda prop: property(lambda g: "traced"))
            assert mod.f(1) == 2 and registry["pipeline"](2) == 3
            assert Graph().adjacency == "traced"
            raise RuntimeError("restore must still happen")
    assert (mod.f, vars(Graph)["adjacency"], registry["pipeline"]) == originals
    assert Graph().adjacency == "csr" and len(calls) == 2


def test_missing_name_drops_its_group_and_is_logged():
    mod = types.ModuleType("fake")
    mod.present = len
    log = io.StringIO()
    with Patcher() as p:
        dropped = install(p, [("gone", lambda: mod, "renamed", lambda fn: fn),
                              ("kept", lambda: mod, "present", lambda fn: "wrapped")],
                          log=log)
        assert dropped == ["gone"] and mod.present == "wrapped"
    assert mod.present is len
    assert "gone" in log.getvalue()
    tracer = Tracer()
    metrics = layers.layer_metrics(tracer, dropped=["cut_solvers.eigen"])
    assert "cut_solvers.eigen_s" not in metrics and "proximity_graph.build_s" in metrics


def test_every_layer_hook_finds_its_name_and_is_restored():
    child.use_checkout_source()
    from cheeger_lab import consistency, cut_solvers, harness
    from cheeger_lab.proximity_graph import ProximityGraph
    before = (harness.build_graph, harness._SOLVERS["pipeline"],
              cut_solvers.fiedler_vector, consistency.gtv,
              vars(ProximityGraph)["adjacency"])
    with Patcher() as p:
        assert layers.install_layers(p, Tracer()) == []
        assert harness.build_graph is not before[0]
    after = (harness.build_graph, harness._SOLVERS["pipeline"],
             cut_solvers.fiedler_vector, consistency.gtv,
             vars(ProximityGraph)["adjacency"])
    assert all(a is b for a, b in zip(after, before))


def test_benchmark_json_names_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.LISTED_E2E)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: u for k, (u, _) in layers.UNITS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_round_passes_its_checks_traced_and_untraced(workload, tmp_path):
    child.use_checkout_source()
    from cheeger_lab import harness
    run_trial = harness.run_trial
    plain = child.run_round(workload, 3, 0, tmp_path / "plain", toy=True)
    traced = child.run_round(workload, 3, 1, tmp_path / "traced", toy=True)
    assert harness.run_trial is run_trial
    for r in (plain, traced):
        assert [c for c in r["checks"] if not c[1]] == []
        assert r["failed_items"] == [] and r["items"]
    assert traced["dropped"] == []
    assert set(traced["layers"]) == set(layers.UNITS) - {"trace.overhead_s"}
    # the determinism probe: same seed, same outputs, traced or not
    common = set(plain["fingerprint"]) & set(traced["fingerprint"])
    assert common and all(plain["fingerprint"][k] == traced["fingerprint"][k]
                          for k in common)
    if workload.endswith("_converge"):
        assert set(plain["quality"]) == {"cheeger_ratio", "l1_cut_error"}
        assert any(c[0] == "pipeline_rescores_to_objective" for c in traced["checks"])


def test_determinism_probe_reports_a_mismatch():
    rounds = [{"input_set": 0, "fingerprint": {"digest": "a", "edges": 7}},
              {"input_set": 0, "fingerprint": {"digest": "a"}},
              {"input_set": 1, "fingerprint": {"digest": "b", "edges": 9}},
              {"input_set": 1, "fingerprint": {"digest": "b", "edges": 8}}]
    name, ok, detail = run.determinism_check(rounds)
    assert not ok and "round 3 edges: 8 != 9" in detail
    assert run.determinism_check(rounds[:1]) is None
    assert run.input_seed(1, 0) != run.input_seed(1, 1) != run.input_seed(2, 0)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ustat_gtv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
