import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from cheeger_lab import cut_solvers, harness
from cheeger_lab.errors import (EigenNotConverged, SizeLimitExceeded,
                                WrongManifold)
from cheeger_lab.manifold import PointCloud, get_manifold
from cheeger_lab.proximity_graph import (ProximityGraph, build_graph,
                                        cheeger_ratio, cut_and_balance,
                                        objective)
from cheeger_lab.cut_solvers import (CERTIFICATES, LOBPCG_MAXITER, LOBPCG_TOL,
                                     LOCAL_SEARCH_PASSES,
                                     _best_sweep_k, _lex_min_id, _start_block,
                                     _sweep_subset,
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


def _arc_sweep_reference(g, longest=None):
    """The arc sweep as one recurrence step per arc length, with np.roll,
    over the lengths 1..longest (default n - 1).

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
    longest = n - 1 if longest is None else longest
    cut = deg_s.astype(np.float64)
    start = np.empty(longest, dtype=np.int64)
    least = np.empty(longest)
    for k in range(1, longest + 1):
        s = int(np.argmin(cut))
        start[k - 1], least[k - 1] = s, cut[s]
        if k == longest:
            break
        lv, rv = np.roll(lccw_s, -k), np.roll(rcw_s, -k)
        into = np.minimum(lv, k) + np.maximum(0, k + rv + 1 - n)
        cut = cut + np.roll(deg_s, -k) - 2.0 * into
    k = int(np.argmin(cheeger_ratio(least, np.arange(1, longest + 1), n,
                                    g.rescale))) + 1
    subset = canonical_subset(n, order[(start[k - 1] + np.arange(k)) % n])
    return subset, lccw_s, rcw_s


def _windows_are_contiguous(g, lccw, rcw):
    """Whether the vertex at each angular position s has as neighbours
    exactly those at s - lccw[s] .. s + rcw[s], s excluded (mod n)."""
    n = g.n
    order = np.argsort(g.cloud.manifold.to_intrinsic(g.points), kind="stable")
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    nbrs = [set() for _ in range(n)]
    for i, j in g.edges:
        nbrs[rank[i]].add(rank[j])
        nbrs[rank[j]].add(rank[i])
    return all(nbrs[s] == {(s + d) % n for d in range(-lccw[s], rcw[s] + 1) if d}
               for s in range(n))


def _best_arc(g):
    """The best arc by brute force: every arc (start s, length 1..n // 2) of
    the angular order, its cut read off the dense adjacency's 2-D prefix
    sums, under the tie rule (least float ratio, then the shortest arc,
    then the first start). Returns the canonical subset."""
    n, half = g.n, g.n // 2
    order = np.argsort(g.cloud.manifold.to_intrinsic(g.points), kind="stable")
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    adj = np.zeros((n, n), dtype=np.int64)
    adj[rank[g.edges[:, 0]], rank[g.edges[:, 1]]] = 1
    adj += adj.T
    cum = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.int64)
    cum[1:, 1:] = np.tile(adj, (2, 2)).cumsum(0).cumsum(1)
    deg = np.concatenate([[0], np.cumsum(np.tile(adj.sum(1), 2))])
    s = np.arange(n)[None, :]
    e = s + np.arange(1, half + 1)[:, None]
    inside = cum[e, e] - cum[s, e] - cum[e, s] + cum[s, s]
    cut = deg[e] - deg[s] - inside
    vals = cheeger_ratio(cut, e - s, n, g.rescale)
    k, s = np.unravel_index(np.argmin(vals), vals.shape)  # row-major: length, start
    return canonical_subset(n, order[(s + np.arange(k + 1)) % n])


def _counting_crossings(monkeypatch):
    """Record the lengths at which ``solve_arc_sweep`` scores arcs exactly."""
    calls = []
    real = cut_solvers._arc_counts

    def wrapped(g):
        *counts, crossing = real(g)
        return (*counts, lambda m: calls.append(m) or crossing(m))

    monkeypatch.setattr(cut_solvers, "_arc_counts", wrapped)
    return calls


def test_arc_sweep_matches_reference_recurrence(monkeypatch):
    mf = get_manifold("circle")
    rng = np.random.default_rng(2024)
    calls = _counting_crossings(monkeypatch)
    kinds = {"no_edges": 0, "all_short": 0, "long": 0, "short_scored": 0,
             "lattice": 0, "gaps": 0}
    for case in range(160):
        n = int(rng.integers(2, 401))
        if case % 5 == 0:  # lattices: many arcs with exactly equal cuts
            cloud = grid_circle_cloud(n)
            kinds["lattice"] += 1
        else:
            cloud = mf.sample(n, seed=case)
        if case % 8 == 1:
            eps = 1e-9  # below every spacing: no edges
        elif case % 8 == 2:
            eps = 1.2 * mf.radius  # dense: the windows of two vertices overlap
        else:
            eps = float(rng.uniform(0.5, 6.0)) * n ** -0.5
        g = build_graph(cloud, eps)
        if case % 8 == 3:
            # thinned edge set: gaps in the windows, and vertices of low
            # degree, so that short arcs are scored
            keep = rng.random(len(g.edges)) < 0.5
            g = ProximityGraph(points=g.points, epsilon=eps, m=1,
                               edges=g.edges[keep], cloud=cloud)
        calls.clear()
        got = solve_arc_sweep(g)
        longest = cut_solvers._arc_counts(g)[3]
        _, lccw, rcw = _arc_sweep_reference(g, longest=1)
        # with each window the nearest vertices in angular order the
        # recurrence's counts are cuts, and it gives the best arc; an edge
        # list with gaps gets the brute-force best arc, and no certificate
        if _windows_are_contiguous(g, lccw, rcw):
            ref = _arc_sweep_reference(g)[0]
            assert _arc_sweep_reference(g, longest=n // 2)[0].tolist() == ref.tolist()
            assert got.certificate == "FamilyOptimum", (case, n, eps)
        else:
            ref = _best_arc(g)
            kinds["gaps"] += 1
            assert got.certificate == "Heuristic", (case, n, eps)
        assert got.subset.tolist() == ref.tolist(), (case, n, eps)
        if not len(g.edges):
            kinds["no_edges"] += 1
        elif longest > n // 2:
            kinds["all_short"] += 1
        else:
            kinds["long"] += 1
            kinds["short_scored"] += bool(calls)
    assert min(kinds.values()) >= 15, kinds


def _arc_graph(kind, n, seed):
    """A circle graph of one of the property tests' kinds."""
    mf = get_manifold("circle")
    rng = np.random.default_rng(seed)
    cloud = grid_circle_cloud(n) if kind == "lattice" else mf.sample(n, seed=seed)
    if kind == "random":  # any edge list: each pair with one probability
        i, j = np.triu_indices(n, 1)
        keep = rng.random(len(i)) < rng.uniform(0.05, 1.0)
        return ProximityGraph(points=cloud.points, epsilon=0.1, m=1,
                              edges=np.stack([i[keep], j[keep]], axis=1),
                              cloud=cloud)
    eps = {"edgeless": 1e-9,
           "sparse": rng.uniform(0.5, 4.0) / n,
           # up to complete graphs, whose steps pass n / 2
           "dense": rng.uniform(1.0, 2.2) * mf.radius,
           # a chord of k lattice steps: exactly tied ratios
           "lattice": 2 * mf.radius * np.sin(np.pi * rng.integers(1, n // 2 + 1) / n) * 1.0001,
           "thinned": rng.uniform(1.0, 6.0) * n ** -0.5}[kind]
    g = build_graph(cloud, float(eps))
    if kind == "thinned":
        keep = rng.random(len(g.edges)) < rng.uniform(0.2, 0.9)
        g = ProximityGraph(points=g.points, epsilon=g.epsilon, m=1,
                           edges=g.edges[keep], cloud=cloud)
    return g


_ARC_KINDS = st.sampled_from(["edgeless", "sparse", "dense", "lattice",
                              "thinned", "random"])


@settings(max_examples=200, deadline=None)
@given(_ARC_KINDS, st.integers(min_value=2, max_value=60), st.integers(0, 10_000))
@example("dense", 60, 1)   # a complete graph: every length is short
@example("random", 41, 5)  # steps past n / 2
@example("lattice", 48, 2)
@example("edgeless", 2, 0)
def test_arc_sweep_is_the_best_arc_by_brute_force(kind, n, seed):
    # every arc (start, length <= n / 2) scored by `objective`, the tie rule
    # by the order of the loops: the least float, then the shortest, then the
    # first start
    g = _arc_graph(kind, n, seed)
    order = np.argsort(g.cloud.manifold.to_intrinsic(g.points), kind="stable")
    best = None
    for length in range(1, n // 2 + 1):
        for s in range(n):
            val = objective(g, order[(s + np.arange(length)) % n])
            if best is None or val < best[0]:
                best = (val, order[(s + np.arange(length)) % n])
    got = solve_arc_sweep(g)
    assert got.subset.tolist() == canonical_subset(n, best[1]).tolist()
    assert got.objective_value == best[0]


@settings(max_examples=60, deadline=None)
@given(_ARC_KINDS, st.integers(min_value=2, max_value=20), st.integers(0, 10_000))
@example("lattice", 20, 4)
@example("sparse", 16, 3)
def test_arc_sweep_equals_exact_where_an_arc_is_optimal(kind, n, seed):
    g = _arc_graph(kind, n, seed)
    ex, arc = solve_exact(g), solve_arc_sweep(g)
    order = np.argsort(g.cloud.manifold.to_intrinsic(g.points), kind="stable")
    inside = np.isin(order, ex.subset)
    # an arc's side changes at two boundaries of the angular order
    if np.count_nonzero(inside != np.roll(inside, 1)) == 2:
        assert arc.objective_value == ex.objective_value
    else:
        assert arc.objective_value >= ex.objective_value


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


def _members(idx, n):
    """The subset of id ``idx`` without vertex 0, as a sorted tuple."""
    return tuple(v for v in range(1, n) if (idx >> (v - 1)) & 1)


def test_lex_min_id_matches_brute_force_tuple_order():
    rng = np.random.default_rng(19)
    for trial in range(3000):
        n = int(rng.integers(2, 13))
        total = 1 << (n - 1)
        ids = set(rng.integers(0, total, size=int(rng.integers(1, 20))).tolist())
        if trial % 3 == 0:
            # a prefix chain: each id the one before with one higher bit added
            chain, top = 0, int(rng.integers(0, n))
            for v in sorted(rng.permutation(range(1, n))[:top].tolist()):
                chain |= 1 << (v - 1)
                ids.add(chain)
        ids = sorted(ids, key=lambda i: rng.random())
        want = min(ids, key=lambda i: _members(i, n))
        assert _lex_min_id(np.array(ids, dtype=np.int64)) == want


def _cycle_graph(n):
    """The n-cycle: equally spaced circle points joined to their neighbours."""
    t = np.arange(n) / n
    pts = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
    step = 2 * np.sin(np.pi / n)  # the chord to a neighbour
    return build_graph(pts, 1.5 * step, m=1)


@pytest.mark.parametrize("graph,subset", [
    # every proper cut of an edgeless graph scores 0: the shortest side wins
    pytest.param(build_graph(np.arange(12.0)[:, None], 0.5, m=1), [0], id="edgeless-12"),
    pytest.param(build_graph(np.arange(20.0)[:, None], 0.5, m=1), [0], id="edgeless-20"),
    # the ratio follows max(|A|, n - |A|): every 5-subset with vertex 0 ties
    pytest.param(build_graph(np.arange(10.0)[:, None] * 0.01, 1.0, m=1),
                 [0, 1, 2, 3, 4], id="complete-10"),
    # every half arc cuts 2 edges; the arc starting at vertex 0 wins
    pytest.param(_cycle_graph(12), [0, 1, 2, 3, 4, 5], id="cycle-12")])
def test_exact_tie_heavy_graphs(graph, subset):
    assert solve_exact(graph).subset.tolist() == subset


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


def greedy_oracle(graph, subset):
    """Local search by brute force: re-score every single-vertex flip with
    ``objective`` and take the first least one while it beats the current."""
    n = graph.n
    mask = np.zeros(n, dtype=bool)
    mask[subset] = True
    cur = objective(graph, mask)
    moves = 0
    while moves < LOCAL_SEARCH_PASSES * n:
        vals = []
        for v in range(n):
            mask[v] = not mask[v]
            vals.append(objective(graph, mask))
            mask[v] = not mask[v]
        v = int(np.argmin(vals))
        if not vals[v] < cur:
            break
        mask[v] = not mask[v]
        cur = vals[v]
        moves += 1
    return canonical_subset(n, mask), moves, cur


@pytest.mark.parametrize("name,eps", [("circle", 0.2), ("flat_torus_2", 0.25),
                                      ("sphere_2", 0.25)])
@pytest.mark.parametrize("n", [16, 40])
def test_local_search_matches_the_brute_force_greedy_oracle(name, eps, n):
    g = build_graph(get_manifold(name).sample(n, seed=n), eps)
    rng = np.random.default_rng(n)
    starts = [result_from_subset(g, [0], "fallback")]
    starts += [result_from_subset(g, np.flatnonzero(rng.random(n) < p), "random")
               for p in (0.2, 0.5, 0.8)]
    solvers = [solve_spectral_sweep, solve_pipeline]
    if name == "circle":
        solvers.append(solve_arc_sweep)
    if n <= 16:
        solvers.append(solve_exact)
    starts += [solve(g) for solve in solvers]
    moved = 0
    for start in starts:
        res = refine_local_search(g, start)
        subset, moves, val = greedy_oracle(g, start.subset)
        assert np.array_equal(res.subset, subset), start.solver
        assert res.objective_value == val
        if res is start:
            assert moves == 0
        else:
            # every accepted move lowers the ratio, so no re-check is needed
            assert res.objective_value < start.objective_value
            assert res.extras == {"moves": moves, "start": start.solver}
            moved += 1
    assert moved  # the trivial start [0] moves on every graph here


@pytest.mark.parametrize("name,eps", [("circle", 0.1), ("flat_torus_2", 0.25),
                                      ("sphere_2", 0.25)])
def test_local_search_without_a_csr_matches_the_csr_search(name, eps):
    # a fresh graph builds its CSR inside the search; the result must not
    # depend on whether the CSR was read before
    n = 120
    cloud = get_manifold(name).sample(n, seed=3)
    rng = np.random.default_rng(5)
    moved = 0
    for p in (0.1, 0.3, 0.5, 0.7):
        subset = np.flatnonzero(rng.random(n) < p)
        fresh, held = build_graph(cloud, eps), build_graph(cloud, eps)
        held.adjacency
        start = result_from_subset(fresh, subset, "random")
        got, want = refine_local_search(fresh, start), refine_local_search(held, start)
        assert np.array_equal(got.subset, want.subset)
        assert got.objective_value == want.objective_value
        assert got.extras == want.extras
        moved += got.extras.get("moves", 0) > 0
    assert moved == 4


def test_circle_pipeline_builds_no_csr():
    # the arc sweep reads the edge list, and its certified cut is refined no
    # further, so nothing builds the CSR
    n = 500
    g = build_graph(get_manifold("circle").sample(n, seed=2), 2 * n ** -0.5)
    res = solve_pipeline(g)
    assert res.extras["winner"] == "arc_sweep"
    assert g._adj is None


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


_SWEEP_SETTINGS = [("circle", 0.1), ("flat_torus_2", 0.25), ("sphere_2", 0.25),
                   ("sphere_2", 0.5)]


# LOBPCG runs at every n, down to 12 vertices (of the four settings only
# sphere_2 at 0.5 links a 12-point cloud of seed 4 into one component);
# sphere_2 at 0.5 links most pairs (max degree 337 of 399 at n = 400), where
# the absolute LOBPCG_TOL is the tightest against ||L||
@pytest.mark.parametrize(
    "n,seed,name,eps",
    [(n, seed, *s) for n, seed in [(129, 1), (250, 2), (400, 3), (40, 4), (128, 5)]
     for s in _SWEEP_SETTINGS] + [(12, 4, "sphere_2", 0.5)])
def test_block_sweep_matches_the_dense_fiedler_sweep(n, seed, name, eps):
    g = build_graph(get_manifold(name).sample(n, seed=seed), eps)
    res = solve_spectral_sweep(g)
    want = dense_sweep_subset(g)
    assert res.extras["eigen_residual"] <= LOBPCG_TOL
    assert res.objective_value == objective(g, want)
    assert np.array_equal(res.subset, want)


@pytest.mark.parametrize("name", ["sphere_2", "flat_torus_2"])
def test_eigen_solve_converges_without_a_stall(name, monkeypatch):
    # scipy's LOBPCG from a random one-vector start stalls at the iteration
    # limit on the sphere cloud (seed 1) and needs 475 iterations on the
    # torus cloud (seed 0)
    counts = []
    real = cut_solvers._lobpcg

    def lobpcg(W, X):
        v, res, its = real(W, X)
        counts.append(its)
        return v, res, its

    monkeypatch.setattr(cut_solvers, "_lobpcg", lobpcg)
    n = 8000
    g = build_graph(get_manifold(name).sample(n, seed=1), 2 * n ** -0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, res = fiedler_vector(g)
    assert res <= LOBPCG_TOL
    assert len(counts) == 1 and counts[0] < 100


# W and L = D - W are exactly symmetric, so their CSC views multiply bit for
# bit as the CSR matrices do; the solve takes the block product on W's view,
# and its answer is scipy's LOBPCG answer on the same start block
@pytest.mark.parametrize("name,n,eps,seed", [("circle", 300, 0.1, 7),
                                             ("flat_torus_2", 900, 0.2, 8),
                                             ("sphere_2", 1500, 0.2, 9)])
def test_column_view_solve_is_bit_equal_to_the_row_kernel(name, n, eps, seed):
    g = build_graph(get_manifold(name).sample(n, seed=seed), eps)
    L = sp.diags(g.degrees, dtype=float) - g.adjacency
    X = _start_block(g.points)
    for block in (np.ascontiguousarray(X), np.asfortranarray(X)):
        assert np.array_equal(g.adjacency.T @ block, g.adjacency @ block)
        assert np.array_equal(L.T @ block, L @ block)
    # the reference: scipy's block LOBPCG under the constant-vector
    # constraint, on a copy of the start block, which it overwrites
    Y = np.ones((n, 1)) / np.sqrt(n)
    with np.errstate(all="ignore"):
        vals, vecs = spla.lobpcg(L, X.copy(), Y=Y, tol=LOBPCG_TOL,
                                 maxiter=LOBPCG_MAXITER, largest=False)
    want = vecs[:, 0]
    v, res = fiedler_vector(g)
    assert res <= LOBPCG_TOL
    assert v @ (L @ v) == pytest.approx(vals[0], rel=1e-10, abs=0)
    assert abs(v @ want) >= 1 - 1e-12
    # the sweep fills a twin class it splits by index, so the twins that
    # straddle the best cut of the circle cloud take one side for either vector
    sweep = [_sweep_subset(g, u) for u in (v, want)]
    assert np.array_equal(*sweep)


def test_sweep_fills_a_split_twin_class_by_index():
    # on this circle cloud twins 13 and 135 straddle the best cut; swapping
    # their entries, or flipping v's sign, must not move the sweep's subset
    n = 300
    g = build_graph(get_manifold("circle").sample(n, seed=7), 0.1)
    v, _ = fiedler_vector(g)
    twin = np.unique((g.adjacency + sp.identity(n)).toarray(), axis=0,
                     return_inverse=True)[1].ravel()
    order = np.argsort(v, kind="stable")
    raw = canonical_subset(n, order[:_best_sweep_k(g, order)])
    split = [t for t in np.unique(twin)
             if 0 < np.isin(np.flatnonzero(twin == t), raw).sum() < (twin == t).sum()]
    assert len(split) == 1
    a, b = np.flatnonzero(twin == split[0])
    swapped = v.copy()
    swapped[[a, b]] = v[[b, a]]
    want = _sweep_subset(g, v)
    assert a in want and b not in want
    assert objective(g, want) == objective(g, raw)
    for u in (swapped, -v, -swapped):
        assert np.array_equal(_sweep_subset(g, u), want)


def lattice_torus_cloud(k):
    """The k x k lattice on the flat torus: its lambda_2 is four-fold."""
    mf = get_manifold("flat_torus_2")
    t = np.stack(np.meshgrid(np.arange(k), np.arange(k), indexing="ij"), -1)
    return PointCloud(points=mf.to_ambient(t.reshape(-1, 2) / k), seed=0, manifold=mf)


def antipodal_sphere_cloud(n_half, seed):
    mf = get_manifold("sphere_2")
    half = mf.sample(n_half, seed=seed).points
    return PointCloud(points=np.vstack([half, -half]), seed=seed, manifold=mf)


# exactly degenerate lambda_2: the lattice's coordinates are eigenvectors, so
# the start block has converged before the first iteration, down to the
# 64-vertex lattice; and a sphere cloud symmetric under x -> -x
@pytest.mark.parametrize("cloud,eps", [(lattice_torus_cloud(16), 2.5 / 16),
                                       (lattice_torus_cloud(20), 2.5 / 20),
                                       (lattice_torus_cloud(24), 2.5 / 24),
                                       (antipodal_sphere_cloud(300, 3), 0.2),
                                       (lattice_torus_cloud(8), 2.5 / 8)])
def test_eigen_solve_on_degenerate_clouds_returns_lambda_2(cloud, eps):
    g = build_graph(cloud, eps)
    L = sp.diags(g.degrees, dtype=float) - g.adjacency
    lam2 = np.linalg.eigvalsh(L.toarray())[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, res = fiedler_vector(g)
    assert res <= LOBPCG_TOL
    assert v @ (L @ v) == pytest.approx(lam2, rel=1e-9, abs=0)


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
    # collinear points in the plane (rank 1), and a start block of 40
    # columns at n = 150
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
        # the eigen solve fails on a torus cloud: the trivial cut is the start
        monkeypatch.setattr(cut_solvers, "fiedler_vector", _failing_eigen_solve)
        g = build_graph(torus, 0.25)
        res = solve_pipeline(g)
        assert res.extras["degraded"]
        assert res.extras["winner"] in ("fallback", "local_search")
        assert res.extras["eigen_residual"] is None
    assert res.certificate == CERTIFICATES.get(res.solver, "Heuristic")
    assert (res.gtv, res.balance) == cut_and_balance(g, res.subset)
    assert res.objective_value == objective(g, res.subset)


def test_circle_pipeline_starts_from_the_arc_sweep_alone(monkeypatch):
    # no eigen solve runs on a circle cloud, so its failure cannot degrade it
    monkeypatch.setattr(cut_solvers, "fiedler_vector", _failing_eigen_solve)
    g = build_graph(get_manifold("circle").sample(300, seed=6), 2 * 300 ** -0.5)
    res = solve_pipeline(g)
    want = refine_local_search(g, solve_arc_sweep(g))
    assert not res.extras["degraded"] and res.extras["eigen_residual"] is None
    assert res.extras["winner"] == want.solver
    assert np.array_equal(res.subset, want.subset)
    assert res.objective_value == want.objective_value


def _no_local_search(graph, start):
    raise AssertionError("local search ran")


def test_local_search_moves_no_vertex_from_a_certified_arc_cut():
    # why the pipeline refines no certified arc cut: criterion 1's circle
    # clouds, and small clouds of the converge configs' trial seeds
    mf = get_manifold("circle")
    rng = np.random.default_rng(1)
    sizes = [int(rng.integers(8, 21)) for _ in range(200)]
    graphs = [build_graph(mf.sample(sizes[i], seed=1000 + i), 0.24)
              for i in range(0, 200, 2)]
    for seed in range(1, 11):
        cfg = harness.validate_config({"manifold": "circle", "trials": 1,
                                       "n_list": [100, 150, 200, 400],
                                       "seed": seed, "out": "unused"})
        graphs += [build_graph(mf.sample(n, seed=harness.trial_seed(seed, n, 0)),
                               cfg.epsilon(n)) for n in cfg.n_list]
    assert len(graphs) == 140
    for g in graphs:
        arc = solve_arc_sweep(g)
        assert arc.certificate == "FamilyOptimum", g.n
        assert refine_local_search(g, arc) is arc, g.n


@pytest.mark.parametrize("thinned", [False, True])
def test_circle_pipeline_refines_only_an_uncertified_arc_cut(thinned, monkeypatch):
    n = 200
    cloud = get_manifold("circle").sample(n, seed=3)
    g = build_graph(cloud, 2 * n ** -0.5)
    if thinned:
        # half the edges dropped: gaps in the windows leave the best arc a
        # heuristic, which local search gets (and here cannot improve)
        keep = np.random.default_rng(3).random(len(g.edges)) < 0.5
        g = ProximityGraph(points=g.points, epsilon=g.epsilon, m=1,
                           edges=g.edges[keep], cloud=cloud)
        starts, refined = [], []

        def spy(graph, start):
            starts.append(start)
            refined.append(refine_local_search(graph, start))
            return refined[-1]

        monkeypatch.setattr(cut_solvers, "refine_local_search", spy)
    else:
        want = solve_arc_sweep(g)
        assert want.certificate == "FamilyOptimum"
        monkeypatch.setattr(cut_solvers, "refine_local_search", _no_local_search)
    res = solve_pipeline(g)
    if thinned:
        assert [(s.solver, s.certificate) for s in starts] == [("arc_sweep", "Heuristic")]
        assert np.array_equal(starts[0].subset, solve_arc_sweep(g).subset)
        want = refined[0]
    assert res.extras["winner"] == want.solver
    assert np.array_equal(res.subset, want.subset)
    assert res.objective_value == want.objective_value
    assert (res.solver, res.certificate) == ("pipeline", "Heuristic")


def test_spectral_start_never_beats_the_arc_start_on_the_circle():
    # why the circle pipeline runs no spectral sweep: refined from the
    # Fiedler sweep, the cut never scores below the refined exact arc cut
    mf = get_manifold("circle")
    for seed in range(20):
        n = 300 + 10 * seed
        g = build_graph(mf.sample(n, seed=seed), 2 * n ** -0.5)
        arc = refine_local_search(g, solve_arc_sweep(g))
        spec = refine_local_search(g, solve_spectral_sweep(g))
        assert not spec.objective_value < arc.objective_value, (n, seed)


def test_an_eigen_solve_that_stops_early_names_its_residual(monkeypatch, tmp_path):
    monkeypatch.setattr(cut_solvers, "LOBPCG_MAXITER", 1)
    n = 2000
    g = build_graph(get_manifold("flat_torus_2").sample(n, seed=1), 2 * n ** -0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenNotConverged) as caught:
            fiedler_vector(g)
        res = solve_pipeline(g)
    assert "after 1 of at most 1 iterations" in str(caught.value)
    residual = float(re.search(r"residual (\S+)$", str(caught.value)).group(1))
    assert residual > 1e-5 * g.degrees.max()
    assert res.extras["degraded"] and res.extras["eigen_residual"] is None
    # a spectral trial's record carries the residual in its error
    cfg = harness.validate_config({"manifold": "flat_torus_2", "n_list": [n],
                                   "trials": 1, "seed": 1, "solver": "spectral",
                                   "out": str(tmp_path)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = harness.run_experiment(cfg, workers=1)["records"][0]
    assert rec["failed"]
    assert re.fullmatch(r"EigenNotConverged: .* residual \S+", rec["error"])
