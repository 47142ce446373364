import warnings

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from cheeger_lab import cut_solvers
from cheeger_lab.errors import (EigenNotConverged, SizeLimitExceeded,
                                WrongManifold)
from cheeger_lab.manifold import PointCloud, get_manifold
from cheeger_lab.proximity_graph import (ProximityGraph, build_graph,
                                        cheeger_ratio, cut_and_balance,
                                        objective)
from cheeger_lab.cut_solvers import (CERTIFICATES, LOBPCG_TOL, _best_sweep_k,
                                     canonical_subset, fiedler_vector,
                                     refine_local_search, result_from_subset,
                                     solve_arc_sweep, solve_exact,
                                     solve_pipeline, solve_spectral_sweep)


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


def _arc_sweep_reference(g):
    """The arc sweep as one recurrence step per arc length, with np.roll.

    Returns the canonical subset and the directional window sizes
    (lccw, rcw) in angular order.
    """
    n = g.n
    t = g.cloud.manifold.to_intrinsic(g.points)
    order = np.argsort(t, kind="stable")
    lccw = np.zeros(n, dtype=np.int64)
    rcw = np.zeros(n, dtype=np.int64)
    if len(g.edges):
        i, j = g.edges[:, 0], g.edges[:, 1]
        gap = np.mod(t[j] - t[i], 1.0)
        fwd = (gap < 0.5) | ((gap == 0.5) & (i < j))
        np.add.at(rcw, i[fwd], 1)
        np.add.at(lccw, j[fwd], 1)
        np.add.at(rcw, j[~fwd], 1)
        np.add.at(lccw, i[~fwd], 1)
    deg_s, lccw_s, rcw_s = (lccw + rcw)[order], lccw[order], rcw[order]
    cut = deg_s.astype(np.float64)
    start = np.empty(n - 1, dtype=np.int64)
    least = np.empty(n - 1)
    for k in range(1, n):
        s = int(np.argmin(cut))
        start[k - 1], least[k - 1] = s, cut[s]
        if k == n - 1:
            break
        lv, rv = np.roll(lccw_s, -k), np.roll(rcw_s, -k)
        into = np.minimum(lv, k) + np.maximum(0, k + rv + 1 - n)
        cut = cut + np.roll(deg_s, -k) - 2.0 * into
    k = int(np.argmin(cheeger_ratio(least, np.arange(1, n), n, g.rescale))) + 1
    subset = canonical_subset(n, order[(start[k - 1] + np.arange(k)) % n])
    return subset, lccw_s, rcw_s


def test_arc_sweep_matches_reference_recurrence():
    mf = get_manifold("circle")
    rng = np.random.default_rng(2024)
    kinds = {"no_edges": 0, "empty_middle": 0, "middle": 0, "lattice": 0}
    for case in range(160):
        n = int(rng.integers(2, 401))
        if case % 5 == 0:  # lattices: many arcs with exactly equal cuts
            cloud = grid_circle_cloud(n)
            kinds["lattice"] += 1
        else:
            cloud = mf.sample(n, seed=case)
        if case % 8 == 1:
            eps = 1e-9  # below every spacing: no edges, all lengths in the middle
        elif case % 8 == 2:
            eps = 1.2 * mf.radius  # dense: the windows of two vertices overlap
        else:
            eps = float(rng.uniform(0.5, 6.0)) * n ** -0.5
        g = build_graph(cloud, eps)
        if case % 8 == 3:
            # thinned edge set: the largest windows no longer sit in the
            # densest stretch, so the middle range's bounds are exercised
            keep = rng.random(len(g.edges)) < 0.5
            g = ProximityGraph(points=g.points, epsilon=eps, m=1,
                               edges=g.edges[keep], cloud=cloud)
        ref, lccw, rcw = _arc_sweep_reference(g)
        if not len(g.edges):
            kinds["no_edges"] += 1
        elif lccw.max() > n - 1 - rcw.max():
            kinds["empty_middle"] += 1
        else:
            kinds["middle"] += 1
        got = solve_arc_sweep(g)
        assert got.subset.tolist() == ref.tolist(), (case, n, eps)
    assert min(kinds.values()) >= 15, kinds


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


def test_spectral_sweep_component_of_vertex_zero():
    # three far clusters; vertex 0 lies in the middle one
    pts = np.array([10.0, 0.0, 0.01, 10.01, 20.0, 20.01, 10.02, 0.02, 20.02])
    g = build_graph(pts[:, None], 0.1, m=1)
    ncomp, labels = csgraph.connected_components(g.adjacency, directed=False)
    assert ncomp == 3
    res = solve_spectral_sweep(g)
    assert res.subset.tolist() == np.flatnonzero(labels == labels[0]).tolist()
    assert res.subset.tolist() == [0, 3, 6]
    assert res.objective_value == 0.0


def test_exact_rational_tie_goes_to_smaller_side():
    # cut 2 against 10 vertices and cut 10 against 6: both ratios are 22
    # times the same factor; the lexicographically smaller side wins
    cloud = get_manifold("circle").sample(11, seed=1014)
    g = build_graph(cloud, 0.24)
    res = solve_exact(g)
    assert res.subset.tolist() == [0, 1, 2, 3, 4, 6, 7, 8, 9, 10]
    assert res.objective_value == objective(g, [0, 1, 4, 7, 8, 9])


def test_spectral_recovers_planted_clusters():
    cloud = planted_two_arcs(30, seed=4)
    g = build_graph(cloud, 0.12)
    res = solve_spectral_sweep(g)
    t = cloud.manifold.to_intrinsic(cloud.points)
    side = set(np.flatnonzero(t < 0.5))
    got = set(res.subset.tolist())
    assert got in (side, set(range(60)) - side)


def test_pipeline_not_worse_than_components():
    mf = get_manifold("circle")
    for seed in range(10):
        cloud = mf.sample(60, seed=seed)
        g = build_graph(cloud, 0.15)
        pipe = solve_pipeline(g)
        spec = solve_spectral_sweep(g)
        arc = solve_arc_sweep(g)
        assert pipe.objective_value <= spec.objective_value + 1e-12
        assert pipe.objective_value <= arc.objective_value + 1e-12
        assert pipe.objective_value == pytest.approx(
            objective(g, pipe.subset), abs=1e-12)


def test_local_search_never_worsens_and_reaches_exact_on_planted():
    cloud = planted_two_arcs(9, seed=8)
    g = build_graph(cloud, 0.12)
    spec = solve_spectral_sweep(g)
    ref = refine_local_search(g, spec)
    assert ref.objective_value <= spec.objective_value + 1e-12
    ex = solve_exact(g)
    assert ref.objective_value == pytest.approx(ex.objective_value, abs=1e-12)


def test_canonical_subset_contains_vertex_zero():
    mf = get_manifold("circle")
    cloud = mf.sample(40, seed=2)
    g = build_graph(cloud, 0.2)
    for res in (solve_arc_sweep(g), solve_spectral_sweep(g),
                solve_pipeline(g)):
        assert 0 in res.subset
        assert np.all(np.diff(res.subset) > 0)


def test_solver_determinism():
    mf = get_manifold("circle")
    cloud = mf.sample(300, seed=12)
    g = build_graph(cloud, 0.1)
    a = solve_pipeline(g)
    b = solve_pipeline(g)
    assert a.objective_value == b.objective_value
    assert np.array_equal(a.subset, b.subset)


def test_exact_needs_two_vertices():
    g = build_graph(np.zeros((1, 1)), 0.1, m=1)
    with pytest.raises(ValueError):
        solve_exact(g)


def dense_sweep_subset(graph):
    """Canonical sweep subset of the Fiedler vector from a dense eigh."""
    lap = np.diag(graph.degrees.astype(float)) - graph.adjacency.toarray()
    order = np.argsort(np.linalg.eigh(lap)[1][:, 1], kind="stable")
    return canonical_subset(graph.n, order[:_best_sweep_k(graph, order)])


# above the dense cut-off of 128 vertices, so the block LOBPCG path runs
@pytest.mark.parametrize("name,eps", [("circle", 0.1), ("flat_torus_2", 0.25),
                                      ("sphere_2", 0.25)])
@pytest.mark.parametrize("n,seed", [(129, 1), (250, 2), (400, 3)])
def test_block_sweep_matches_the_dense_fiedler_sweep(name, eps, n, seed):
    g = build_graph(get_manifold(name).sample(n, seed=seed), eps)
    res = solve_spectral_sweep(g)
    assert res.extras["eigen_residual"] <= LOBPCG_TOL
    assert np.array_equal(res.subset, dense_sweep_subset(g))


@pytest.mark.parametrize("name", ["sphere_2", "flat_torus_2"])
def test_eigen_solve_converges_without_a_stall(name, monkeypatch):
    # a random one-vector start stalls at the iteration limit on the sphere
    # cloud (LOBPCG seed 1) and needs 475 iterations on the torus cloud (seed 0)
    histories = []
    real = spla.lobpcg

    def lobpcg(*args, **kwargs):
        vals, vecs, history = real(*args, retResidualNormsHistory=True, **kwargs)
        histories.append(history)
        return vals, vecs

    monkeypatch.setattr(spla, "lobpcg", lobpcg)
    n = 8000
    g = build_graph(get_manifold(name).sample(n, seed=1), 2 * n ** -0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, res = fiedler_vector(g)
    assert res <= LOBPCG_TOL
    # one residual row for the start, each iteration and the final Ritz step
    assert len(histories) == 1 and len(histories[0]) < 100


def test_spectral_sweep_on_a_graph_loaded_without_its_cloud(tmp_path):
    # the loaded points are all zero: the solve starts from the vertex index
    cloud = get_manifold("flat_torus_2").sample(200, seed=3)
    g = build_graph(cloud, 0.25)
    g.save(tmp_path / "graph.csv")
    bare = ProximityGraph.load(tmp_path / "graph.csv")
    assert not bare.points.any()
    res = solve_spectral_sweep(bare)
    assert res.extras["eigen_residual"] <= LOBPCG_TOL
    assert np.array_equal(res.subset, dense_sweep_subset(g))


@pytest.mark.parametrize("d", [2, 40])
def test_spectral_sweep_on_degenerate_coordinates(d):
    # collinear points in the plane (rank 1), and more coordinates than
    # lobpcg can hold next to the constant vector at n = 150
    rng = np.random.default_rng(4)
    t = np.sort(rng.random(150))
    pts = (np.outer(t, [1.0, -2.0]) + [3.0, 1.0] if d == 2
           else np.outer(t, rng.standard_normal(d)) + 0.01 * rng.random((150, d)))
    g = build_graph(pts, 0.15 if d == 2 else 0.3, m=1)
    assert csgraph.connected_components(g.adjacency)[0] == 1
    res = solve_spectral_sweep(g)
    assert res.extras["eigen_residual"] <= LOBPCG_TOL
    assert np.array_equal(res.subset, dense_sweep_subset(g))


def _failing_eigen_solve(graph):
    raise EigenNotConverged("forced failure")


@pytest.mark.parametrize("path", ["exact", "arc", "spectral", "disconnected",
                                  "local_search", "pipeline", "fallback"])
def test_every_result_path_scores_and_certifies_its_cut(path, monkeypatch):
    circle = get_manifold("circle").sample(60, seed=5)
    torus = get_manifold("flat_torus_2").sample(200, seed=3)
    # three far clusters of four points
    clusters = (np.repeat([0.0, 10.0, 20.0], 4) + np.arange(12) * 1e-3)[:, None]
    if path == "exact":
        g = build_graph(get_manifold("circle").sample(14, seed=3), 0.25)
        res = solve_exact(g)
    elif path == "arc":
        g = build_graph(circle, 0.15)
        res = solve_arc_sweep(g)
    elif path == "spectral":
        g = build_graph(torus, 0.25)
        res = solve_spectral_sweep(g)
        assert "eigen_residual" in res.extras
    elif path == "disconnected":
        g = build_graph(clusters, 0.1, m=1)
        res = solve_spectral_sweep(g)
        assert res.extras["disconnected"]
    elif path == "local_search":
        g = build_graph(circle, 0.15)
        res = refine_local_search(g, result_from_subset(g, [0], "fallback"))
        assert res.solver == "local_search" and res.extras["moves"] > 0
    elif path == "pipeline":
        g = build_graph(torus, 0.25)
        res = solve_pipeline(g)
        assert not res.extras["degraded"]
    else:
        # the eigen solve fails on a torus cloud: no arc candidate either
        monkeypatch.setattr(cut_solvers, "fiedler_vector", _failing_eigen_solve)
        g = build_graph(torus, 0.25)
        res = solve_pipeline(g)
        assert res.extras["degraded"]
        assert res.extras["winner"] in ("fallback", "local_search")
        assert res.extras["eigen_residual"] is None
    assert res.certificate == CERTIFICATES.get(res.solver, "Heuristic")
    assert (res.gtv, res.balance) == cut_and_balance(g, res.subset)
    assert res.objective_value == objective(g, res.subset)
