import numpy as np
import pytest

from cheeger_lab.errors import SizeLimitExceeded, WrongManifold
from cheeger_lab.manifold import PointCloud, get_manifold
from cheeger_lab.proximity_graph import build_graph, objective
from cheeger_lab.cut_solvers import (refine_local_search, solve_arc_sweep,
                                     solve_exact, solve_pipeline,
                                     solve_spectral_sweep)


def grid_circle_cloud(n):
    mf = get_manifold("circle")
    return PointCloud(points=mf.to_ambient(np.arange(n) / n), seed=0, manifold=mf)


def planted_two_arcs(n_half, seed, gap=0.2):
    """Two tight antipodal arcs; the optimal cut separates them."""
    mf = get_manifold("circle")
    rng = np.random.default_rng(seed)
    t = np.concatenate([rng.random(n_half) * (0.5 - gap),
                        0.5 + rng.random(n_half) * (0.5 - gap)])
    return PointCloud(points=mf.to_ambient(t), seed=seed, manifold=mf)


def test_exact_three_points():
    g = build_graph(np.array([[0.0], [0.5], [1.0]]), 0.6, m=1)
    res = solve_exact(g)
    # both boundary cuts tie at 2/(9*0.36)/(1/3); of the canonical sides
    # [0] and [0, 1] the lexicographically smaller one wins
    assert res.objective_value == pytest.approx(2.0 / (9 * 0.36) / (1 / 3))
    assert res.certificate == "GlobalOptimum"
    assert res.subset.tolist() == [0]


def test_exact_limits_and_recompute_consistency():
    mf = get_manifold("circle")
    cloud = mf.sample(14, seed=3)
    g = build_graph(cloud, 0.25)
    res = solve_exact(g)
    assert res.objective_value == pytest.approx(objective(g, res.subset), abs=1e-12)
    big = build_graph(mf.sample(25, seed=0), 0.2)
    with pytest.raises(SizeLimitExceeded):
        solve_exact(big)


def test_arc_sweep_equals_exact_on_grid_24():
    cloud = grid_circle_cloud(24)
    mf = cloud.manifold
    eps = 2 * mf.radius * np.sin(np.pi * 3 / 24) * 1.0001  # 3-step chord
    g = build_graph(cloud, eps)
    ex = solve_exact(g)
    arc = solve_arc_sweep(g)
    assert arc.objective_value == pytest.approx(ex.objective_value, abs=1e-12)
    assert arc.certificate == "FamilyOptimum"


def test_arc_sweep_matches_exact_random_connected():
    mf = get_manifold("circle")
    hits = 0
    for seed in range(20):
        cloud = mf.sample(14, seed=seed)
        g = build_graph(cloud, 0.25)  # dense enough to be connected
        ex = solve_exact(g)
        arc = solve_arc_sweep(g)
        assert arc.objective_value >= ex.objective_value - 1e-12
        hits += abs(arc.objective_value - ex.objective_value) < 1e-9
    assert hits >= 18  # optimum is an arc in nearly all connected instances


def test_arc_sweep_requires_circle():
    mf = get_manifold("flat_torus_2")
    g = build_graph(mf.sample(30, seed=0), 0.3)
    with pytest.raises(WrongManifold):
        solve_arc_sweep(g)


def test_spectral_sweep_disconnected_returns_component():
    # two far clusters: zero-cut split found without an eigensolve
    pts = np.concatenate([np.zeros((5, 1)), np.ones((5, 1))]) + \
        np.arange(10)[:, None] * 1e-3
    g = build_graph(pts, 0.1, m=1)
    res = solve_spectral_sweep(g)
    assert res.objective_value == 0.0
    assert res.extras.get("disconnected")


def test_spectral_recovers_planted_clusters():
    cloud = planted_two_arcs(30, seed=4)
    g = build_graph(cloud, 0.12)
    res = solve_spectral_sweep(g, seed=0)
    t = cloud.manifold.to_intrinsic(cloud.points)
    side = set(np.flatnonzero(t < 0.5))
    got = set(res.subset.tolist())
    assert got in (side, set(range(60)) - side)


def test_pipeline_not_worse_than_components():
    mf = get_manifold("circle")
    for seed in range(10):
        cloud = mf.sample(60, seed=seed)
        g = build_graph(cloud, 0.15)
        pipe = solve_pipeline(g, seed=seed)
        spec = solve_spectral_sweep(g, seed=seed)
        arc = solve_arc_sweep(g)
        assert pipe.objective_value <= spec.objective_value + 1e-12
        assert pipe.objective_value <= arc.objective_value + 1e-12
        assert pipe.objective_value == pytest.approx(
            objective(g, pipe.subset), abs=1e-12)


def test_local_search_never_worsens_and_reaches_exact_on_planted():
    cloud = planted_two_arcs(9, seed=8)
    g = build_graph(cloud, 0.12)
    spec = solve_spectral_sweep(g, seed=1)
    ref = refine_local_search(g, spec)
    assert ref.objective_value <= spec.objective_value + 1e-12
    ex = solve_exact(g)
    assert ref.objective_value == pytest.approx(ex.objective_value, abs=1e-12)


def test_canonical_subset_contains_vertex_zero():
    mf = get_manifold("circle")
    cloud = mf.sample(40, seed=2)
    g = build_graph(cloud, 0.2)
    for res in (solve_arc_sweep(g), solve_spectral_sweep(g, seed=0),
                solve_pipeline(g, seed=0)):
        assert 0 in res.subset
        assert np.all(np.diff(res.subset) > 0)


def test_solver_determinism():
    mf = get_manifold("circle")
    cloud = mf.sample(300, seed=12)
    g = build_graph(cloud, 0.1)
    a = solve_pipeline(g, seed=7)
    b = solve_pipeline(g, seed=7)
    assert a.objective_value == b.objective_value
    assert np.array_equal(a.subset, b.subset)


def test_exact_needs_two_vertices():
    g = build_graph(np.zeros((1, 1)), 0.1, m=1)
    with pytest.raises(ValueError):
        solve_exact(g)
