import ast
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheeger_lab import cli, proximity_graph
from cheeger_lab.cut_solvers import (_best_sweep_k, refine_local_search,
                                     result_from_subset, solve_arc_sweep,
                                     solve_exact)
from cheeger_lab.manifold import get_manifold
from cheeger_lab.proximity_graph import (ProximityGraph, _key_sorted,
                                         build_graph, cheeger_ratio,
                                         cut_and_balance, cut_size, gtv,
                                         objective)


def brute_edges(points, eps):
    """Quadratic-time oracle: full pairwise distance matrix."""
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff * diff).sum(-1))
    i, j = np.where(np.triu(d <= eps, k=1))
    return np.stack([i, j], axis=1)


def int64_key_sorted(edges, n):
    """The edge rows in lexicographic order, from a sort of the int64 key i*n + j."""
    edges = np.asarray(edges)
    return edges[np.argsort(edges[:, 0].astype(np.int64) * n + edges[:, 1])]


def coo_adjacency(g):
    """The symmetric CSR through scipy's COO build, both directions of each edge."""
    i, j = g.edges[:, 0], g.edges[:, 1]
    return sp.csr_matrix((np.ones(2 * len(g.edges)),
                          (np.concatenate([i, j]), np.concatenate([j, i]))),
                         shape=(g.n, g.n))


def assert_same_csr(got, want):
    assert got.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


def brute_gtv(points, eps, m, u):
    diff = points[:, None, :] - points[None, :, :]
    d2 = (diff * diff).sum(-1)
    w = (d2 <= eps * eps) & ~np.eye(len(points), dtype=bool)
    n = len(points)
    return np.abs(u[:, None] - u[None, :])[w].sum() / (n ** 2 * eps ** (m + 1))


@pytest.mark.parametrize("name,eps", [("circle", 0.07), ("flat_torus_2", 0.15),
                                      ("sphere_2", 0.12)])
def test_edges_match_brute_force(name, eps):
    mf = get_manifold(name)
    cloud = mf.sample(300, seed=5)
    g = build_graph(cloud, eps)
    oracle = brute_edges(cloud.points, eps)
    # the tree's order: as a set, each pair once, i < j on every row
    assert (g.edges[:, 0] < g.edges[:, 1]).all()
    assert np.array_equal(int64_key_sorted(g.edges, g.n), oracle)


def test_gtv_matches_brute_force():
    mf = get_manifold("circle")
    rng = np.random.default_rng(3)
    for seed in range(5):
        cloud = mf.sample(150, seed=seed)
        g = build_graph(cloud, 0.09)
        u = rng.standard_normal(150)
        assert abs(gtv(g, u) - brute_gtv(cloud.points, 0.09, 1, u)) < 1e-12


@pytest.mark.parametrize("name,eps", [("circle", 0.05), ("flat_torus_2", 0.15),
                                      ("sphere_2", 0.12)])
def test_gtv_is_the_exactly_rounded_sum_of_its_terms(name, eps):
    # gtv sums only the nonzero terms; the exact sum of every edge term, zeros
    # included and in edge order, is the same float, bit for bit
    g = build_graph(get_manifold(name).sample(400, seed=7), eps)
    rng = np.random.default_rng(8)
    us = [rng.standard_normal(g.n) * 1e3 + rng.random(g.n) for _ in range(3)]
    # indicators: all but the cut terms are zero
    us += [(g.points[:, 0] > t).astype(float) for t in (-0.5, 0.0, 0.3)]
    us += [(rng.random(g.n) < 0.02).astype(float)]
    # integer values with many ties, and a constant
    us += [rng.integers(-3, 4, g.n).astype(float), np.full(g.n, 2.5)]
    # NaN and inf propagate: inf - inf is NaN, inf - x is inf
    special = {}
    for bad in ([np.nan], [np.inf], [np.inf, np.inf], [np.inf, -np.inf],
                [np.nan, np.inf]):
        u = rng.integers(0, 2, g.n).astype(float)
        u[rng.choice(g.n, size=len(bad), replace=False)] = bad
        special[str(bad)] = u
    for u in us + list(special.values()):
        terms = np.abs(u[g.edges[:, 0]] - u[g.edges[:, 1]])
        want = 2.0 * g.rescale * math.fsum(terms.tolist())
        assert np.float64(gtv(g, u)).tobytes() == np.float64(want).tobytes()
    assert math.isnan(gtv(g, special["[nan]"]))
    assert gtv(g, special["[inf]"]) == math.inf


def test_gtv_refuses_a_vertex_function_that_is_not_1d():
    # a (n, 2) array passes the length check; its columns must not be summed
    g = build_graph(get_manifold("circle").sample(50, seed=1), 0.2)
    u = np.zeros((g.n, 2))
    with pytest.raises(ValueError, match="must be 1-D"):
        gtv(g, u)
    with pytest.raises(ValueError, match="must be 1-D"):
        gtv(g, 1.0)


# uint8 up to n = 15, uint16 up to 255, uint32 up to 65 535, then uint64
@pytest.mark.parametrize("n,eps", [(2, 1.0), (16, 0.5), (255, 0.1), (256, 0.1),
                                   (4000, 0.03), (70_000, 2e-6)])
def test_edge_key_in_the_narrowest_type_keeps_the_int64_order(n, eps):
    # `adjacency` sorts the directed keys r*n + c, `save` the keys i*n + j
    g = build_graph(get_manifold("circle").sample(n, seed=n).points, eps, m=1)
    assert len(g.edges)
    assert_same_csr(g.adjacency, coo_adjacency(g))
    got = _key_sorted(g.edges, n)
    assert got.dtype == np.int64
    assert np.array_equal(got, int64_key_sorted(g.edges, n))
    if n > 65_535:  # keys above 2^32 occur, so a 32-bit key would wrap
        assert got[-1, 0] * n + got[-1, 1] >= 2 ** 32


def test_collinear_oracle():
    pts = np.array([[0.0], [0.5], [1.0]])
    g = build_graph(pts, 0.6, m=1)
    assert np.array_equal(int64_key_sorted(g.edges, 3), [[0, 1], [1, 2]])
    # one edge crosses {0}: GTV = 2*1/(9 * 0.6^2)
    val, bal = cut_and_balance(g, [0])
    assert abs(val - 2.0 / (9 * 0.36)) < 1e-15
    assert bal == pytest.approx(1 / 3)


def test_indicator_gtv_equals_cut_formula():
    mf = get_manifold("circle")
    cloud = mf.sample(200, seed=7)
    g = build_graph(cloud, 0.08)
    mask = mf.to_intrinsic(cloud.points) < 0.5
    val, _ = cut_and_balance(g, mask)
    assert abs(val - gtv(g, mask.astype(float))) < 1e-14
    assert cut_size(g, mask) == cut_size(g, ~mask)


def test_discrete_coarea_three_levels():
    mf = get_manifold("circle")
    cloud = mf.sample(120, seed=11)
    g = build_graph(cloud, 0.1)
    rng = np.random.default_rng(0)
    u = rng.integers(0, 3, size=120).astype(float)
    lhs = gtv(g, u)
    rhs = gtv(g, (u >= 1).astype(float)) + gtv(g, (u >= 2).astype(float))
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.01, max_value=0.5))
def test_gtv_seminorm_properties(n, seed, eps):
    mf = get_manifold("circle")
    cloud = mf.sample(n, seed=seed)
    g = build_graph(cloud, eps)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    base = gtv(g, u)
    assert base >= 0
    assert gtv(g, u + 3.7) == pytest.approx(base)            # constants vanish
    assert gtv(g, -2.0 * u) == pytest.approx(2.0 * base)     # abs homogeneity
    assert gtv(g, u + v) <= base + gtv(g, v) + 1e-10         # triangle


def test_objective_variants_and_degenerate():
    pts = np.array([[0.0], [0.3], [0.6], [0.9]])
    g = build_graph(pts, 0.35, m=1)
    full = np.arange(4)
    assert objective(g, full) == np.inf
    assert objective(g, []) == np.inf


def test_objective_of_complement_is_bit_equal():
    # the balance min(k/n, 1 - k/n) scores [0] and [1, 2] differently in the
    # last bit; min(k, n - k)/n is the same number for k and n - k
    path = build_graph(np.array([[0.0], [0.5], [1.0]]), 0.6, m=1)
    assert objective(path, [0]) == objective(path, [1, 2])
    rng = np.random.default_rng(5)
    for name, n, eps in (("circle", 97, 0.1), ("flat_torus_2", 83, 0.3),
                         ("sphere_2", 71, 0.3)):
        g = build_graph(get_manifold(name).sample(n, seed=11), eps)
        for k in range(1, n):
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=k, replace=False)] = True
            assert objective(g, mask) == objective(g, ~mask), (name, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10_000), st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=1e-6, max_value=1e6))
def test_equal_rational_ratios_are_bit_equal(n, seed, rescale):
    # cut_a / m_a == cut_b / m_b as rationals, with m = min(|A|, n - |A|)
    rng = np.random.default_rng(seed)
    half = n // 2
    q = int(rng.integers(1, half + 1))
    a, b = (int(x) for x in rng.integers(1, half // q + 1, size=2))
    p = int(rng.integers(0, 50 * n))
    size_a = q * a if rng.random() < 0.5 else n - q * a  # either side
    size_b = q * b if rng.random() < 0.5 else n - q * b
    assert p * a * (q * b) == p * b * (q * a)
    ra = cheeger_ratio(p * a, size_a, n, rescale)
    rb = cheeger_ratio(p * b, size_b, n, rescale)
    assert ra == rb
    vec = cheeger_ratio(np.array([p * a, p * b]), np.array([size_a, size_b]), n, rescale)
    assert vec[0] == vec[1] == ra


def test_empty_and_zero_epsilon():
    pts = np.random.default_rng(0).random((10, 2))
    g = build_graph(pts, 1e-9, m=2)
    assert len(g.edges) == 0
    assert gtv(g, np.ones(10)) == 0.0
    assert objective(g, [0, 3]) == 0.0
    for eps in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            build_graph(pts, eps, m=2)


@pytest.mark.parametrize("eps", [True, np.True_])
def test_build_graph_refuses_a_bool_epsilon(eps):
    # True would build with epsilon 1.0
    with pytest.raises(ValueError, match=f"epsilon must be a positive finite "
                                         f"number, got {re.escape(repr(eps))}"):
        build_graph(np.zeros((5, 2)), eps, m=2)


@pytest.mark.parametrize("m", [1.7, 0, -1, True, "1", 2.0])
def test_build_graph_refuses_an_m_that_is_not_a_positive_integer(m):
    # 1.7 would build with m = 1, and 0 and -1 would build at all
    cloud = get_manifold("circle").sample(20, seed=1)
    for source in (cloud, cloud.points):
        with pytest.raises(ValueError, match=f"m must be a positive integer, "
                                             f"got {re.escape(repr(m))}"):
            build_graph(source, 0.3, m=m)


def test_adjacency_and_degrees_consistent():
    mf = get_manifold("flat_torus_2")
    cloud = mf.sample(100, seed=2)
    g = build_graph(cloud, 0.2)
    A = g.adjacency
    assert (A != A.T).nnz == 0
    assert A.diagonal().sum() == 0
    assert g.degrees.sum() == 2 * len(g.edges)


@pytest.mark.parametrize("name,eps", [("circle", 0.05), ("flat_torus_2", 0.15),
                                      ("sphere_2", 0.12), ("empty", 1e-9)])
def test_adjacency_equals_the_symmetric_coo_build(name, eps):
    if name == "empty":
        g = build_graph(np.random.default_rng(0).random((10, 2)), eps, m=2)
    else:
        g = build_graph(get_manifold(name).sample(300, seed=5), eps)
    assert_same_csr(g.adjacency, coo_adjacency(g))


def _reordered(g, seed):
    """The same graph with its edge rows in another order."""
    perm = np.random.default_rng(seed).permutation(len(g.edges))
    return ProximityGraph(points=g.points, epsilon=g.epsilon, m=g.m,
                          edges=g.edges[perm], cloud=g.cloud)


def _same_cut(a, b):
    return (np.array_equal(a.subset, b.subset)
            and np.float64(a.objective_value).tobytes()
            == np.float64(b.objective_value).tobytes()
            and a.solver == b.solver and a.extras == b.extras)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["circle", "flat_torus_2", "sphere_2"]),
       st.integers(min_value=3, max_value=150), st.floats(min_value=0.1, max_value=0.8),
       st.integers(min_value=0, max_value=2 ** 31))
@example("circle", 10, 0.5, 1)  # small enough for solve_exact
@example("sphere_2", 12, 0.8, 2)
def test_no_result_depends_on_the_order_of_the_edge_rows(name, n, eps, seed):
    g = build_graph(get_manifold(name).sample(n, seed=seed % 10_000), eps)
    h = _reordered(g, seed)
    ref = coo_adjacency(g)
    assert_same_csr(g.adjacency, ref)
    assert_same_csr(h.adjacency, ref)
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < rng.random()
    u = rng.standard_normal(n)
    for f in (u, mask.astype(float)):
        assert np.float64(gtv(g, f)).tobytes() == np.float64(gtv(h, f)).tobytes()
    assert cut_size(g, mask) == cut_size(h, mask)
    assert cut_and_balance(g, mask) == cut_and_balance(h, mask)
    assert np.float64(objective(g, mask)).tobytes() == np.float64(objective(h, mask)).tobytes()
    order = rng.permutation(n)
    assert _best_sweep_k(g, order) == _best_sweep_k(h, order)
    # local search off the edge list (fresh graphs) and off the CSR (read above)
    start = result_from_subset(g, np.flatnonzero(mask) if mask.any() else [0], "random")
    held = refine_local_search(g, start)
    assert _same_cut(refine_local_search(h, start), held)
    assert _same_cut(refine_local_search(_reordered(g, seed + 1), start), held)
    assert _same_cut(refine_local_search(build_graph(g.cloud, eps), start), held)
    if name == "circle":
        assert _same_cut(solve_arc_sweep(h), solve_arc_sweep(g))
    if n <= 12:
        assert _same_cut(solve_exact(h), solve_exact(g))


def test_graph_save_load_roundtrip(tmp_path):
    mf = get_manifold("circle")
    cloud = mf.sample(40, seed=1)
    g = build_graph(cloud, 0.1)
    path = tmp_path / "graph.csv"
    g.save(path, cloud_ref="cloud.csv")
    back = ProximityGraph.load(path, cloud=cloud)
    # the file holds the key-sorted pairs, i < j on every row
    assert (back.edges[:, 0] < back.edges[:, 1]).all()
    assert np.array_equal(back.edges, int64_key_sorted(g.edges, g.n))
    assert back.epsilon == g.epsilon
    assert back.m == g.m


def test_save_writes_the_key_sorted_pairs_as_crlf_rows(tmp_path):
    path = tmp_path / "graph.csv"
    g = ProximityGraph(points=np.zeros((4, 1)), epsilon=0.5, m=1,
                       edges=np.array([[2, 3], [0, 2], [1, 3], [0, 1]]))
    g.save(path)
    assert path.read_bytes() == b"i,j\r\n0,1\r\n0,2\r\n1,3\r\n2,3\r\n"
    g = build_graph(get_manifold("sphere_2").sample(200, seed=4), 0.3)
    g.save(path)
    rows = int64_key_sorted(g.edges, g.n)
    assert path.read_bytes() == ("i,j\r\n" + "".join(
        f"{i},{j}\r\n" for i, j in rows.tolist())).encode()
    assert np.array_equal(ProximityGraph.load(path).edges, rows)


def test_load_puts_edges_in_adjacency_order(tmp_path):
    path = tmp_path / "graph.csv"
    (tmp_path / "graph.csv.json").write_text('{"n": 4, "epsilon": 0.5, "m": 1}')
    # the second file repeats the row 0,2 and holds its reversed twin 2,0
    for rows in ("3,1\n0,2\n2,3\n0,1\n", "3,1\n0,2\n2,3\n0,2\n2,0\n0,1\n"):
        path.write_text("i,j\n" + rows)
        g = ProximityGraph.load(path)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
        assert g.adjacency.toarray().tolist() == [[0, 1, 1, 0], [1, 0, 0, 1],
                                                 [1, 0, 0, 1], [0, 1, 1, 0]]


def test_load_refuses_rows_that_are_not_pairs(tmp_path):
    # read as pairs, the six numbers made the edges (0, 1) and (2, 3)
    path = tmp_path / "graph.csv"
    path.write_text("i,j,k\n0,1,2\n3,0,1\n")
    (tmp_path / "graph.csv.json").write_text('{"n": 4, "epsilon": 0.5, "m": 1}')
    with pytest.raises(ValueError, match="rows of 3 values, not pairs i,j"):
        ProximityGraph.load(path)
    assert cli.main(["solve", "--graph", str(path)]) == 3


@pytest.mark.parametrize("rows", ["", "\n\n"], ids=["no_rows", "blank_rows"])
def test_an_edgeless_graph_file_loads_without_a_warning(tmp_path, rows):
    path = tmp_path / "graph.csv"
    build_graph(np.arange(3.0)[:, None], 0.5, m=1).save(path)
    assert path.read_text() == "i,j\n"
    path.write_text("i,j\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = ProximityGraph.load(path)
    assert g.edges.shape == (0, 2) and g.n == 3
    assert gtv(g, np.arange(3.0)) == 0.0 and cut_size(g, [0]) == 0


@pytest.mark.parametrize("rows", ["1,7", "7,1", "-1,2", "0,4"])
def test_load_rejects_edge_index_out_of_range(tmp_path, rows):
    path = tmp_path / "graph.csv"
    path.write_text(f"i,j\n0,1\n{rows}\n")
    (tmp_path / "graph.csv.json").write_text('{"n": 4, "epsilon": 0.5, "m": 1}')
    with pytest.raises(ValueError, match="outside 0..3"):
        ProximityGraph.load(path)


def test_load_rejects_a_self_loop(tmp_path):
    # kept, the loop counts once in degrees[2] but twice in adjacency[2, 2]
    path = tmp_path / "graph.csv"
    path.write_text("i,j\n0,1\n2,2\n1,2\n")
    (tmp_path / "graph.csv.json").write_text('{"n": 4, "epsilon": 0.5, "m": 1}')
    with pytest.raises(ValueError, match="self loop at vertex 2"):
        ProximityGraph.load(path)


def _saved_graph(tmp_path, **meta):
    """A saved 30-point circle graph whose sidecar takes `meta` over."""
    cloud = get_manifold("circle").sample(30, seed=2)
    path = tmp_path / "graph.csv"
    build_graph(cloud, 0.2).save(path)
    side = tmp_path / "graph.csv.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), **meta}))
    return path, cloud


@pytest.mark.parametrize("eps", [0, -0.1, float("inf"), float("nan"), "0.2", None,
                                 True])
def test_load_rejects_a_sidecar_epsilon_that_is_not_positive_finite(tmp_path, eps):
    path, _ = _saved_graph(tmp_path, epsilon=eps)
    with pytest.raises(ValueError, match=f"epsilon must be a positive finite "
                                         f"number, got {re.escape(repr(eps))}"):
        ProximityGraph.load(path)
    # an input error, not a ZeroDivisionError out of the rescaling
    assert cli.main(["solve", "--graph", str(path), "--method", "spectral"]) == 3


@pytest.mark.parametrize("m", [0, -1, 1.5, "1", None, True])
def test_load_rejects_a_sidecar_m_that_is_not_a_positive_integer(tmp_path, m):
    path, _ = _saved_graph(tmp_path, m=m)
    with pytest.raises(ValueError, match=f"m must be a positive integer, "
                                         f"got {re.escape(repr(m))}"):
        ProximityGraph.load(path)


@pytest.mark.parametrize("meta,message", [
    ({"epsilon": 0.5, "m": 1}, "the sidecar has no 'n'"),
    ({"n": 4, "m": 1}, "the sidecar has no 'epsilon'"),
    ({"n": 4, "epsilon": 0.5}, "the sidecar has no 'm'"),
    ({"n": 4.5, "epsilon": 0.5, "m": 1}, "n must be a positive integer, got 4.5"),
    ({"n": "4", "epsilon": 0.5, "m": 1}, "n must be a positive integer, got '4'"),
    ({"n": True, "epsilon": 0.5, "m": 1}, "n must be a positive integer, got True"),
    ({"n": 0, "epsilon": 0.5, "m": 1}, "n must be a positive integer, got 0"),
    ([4, 0.5, 1], "the sidecar is not a JSON object"),
])
def test_load_checks_the_sidecar_keys_before_it_reads_them(tmp_path, meta, message):
    path = tmp_path / "graph.csv"
    path.write_text("i,j\n0,1\n")
    (tmp_path / "graph.csv.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=re.escape(message)):
        ProximityGraph.load(path)


def test_load_rejects_a_cloud_of_another_size(tmp_path):
    path, cloud = _saved_graph(tmp_path, n=50)
    with pytest.raises(ValueError, match="the cloud has 30 points, the graph n = 50"):
        ProximityGraph.load(path, cloud=cloud)
    cloud.save(tmp_path / "cloud.csv")
    assert cli.main(["solve", "--graph", str(path),
                     "--cloud", str(tmp_path / "cloud.csv")]) == 3


def test_load_refuses_a_cloud_of_another_dimension(tmp_path):
    # a circle graph (m = 1) loaded with a sphere cloud of the same size
    path = tmp_path / "graph.csv"
    build_graph(get_manifold("circle").sample(50, seed=1), 0.2).save(path)
    sphere = get_manifold("sphere_2").sample(50, seed=1)
    with pytest.raises(ValueError, match="m = 1, but the cloud's manifold "
                                         "sphere_2 has m = 2"):
        ProximityGraph.load(path, cloud=sphere)
    sphere.save(tmp_path / "cloud.csv")
    assert cli.main(["solve", "--graph", str(path),
                     "--cloud", str(tmp_path / "cloud.csv")]) == 3


def test_build_graph_refuses_an_m_other_than_the_cloud_s():
    # m = 2 rescaled a circle graph by 1/(n^2 eps^3) instead of 1/(n^2 eps^2)
    cloud = get_manifold("circle").sample(50, seed=1)
    with pytest.raises(ValueError, match="m = 2, but the cloud's manifold "
                                         "circle has m = 1"):
        build_graph(cloud, 0.3, m=2)
    assert build_graph(cloud, 0.3, m=1).rescale == build_graph(cloud, 0.3).rescale


# every epsilon and m that build_graph or load refused before they shared a
# check, but m = None, which build_graph reads as the cloud's m
BAD_EPSILON = [0, 0.0, -0.1, float("inf"), float("nan"), "0.2", None, True, np.True_]
BAD_M = [0, -1, 1.5, 1.7, "1", True, 2.0]


@pytest.mark.parametrize("key,value", [("epsilon", v) for v in BAD_EPSILON]
                         + [("m", v) for v in BAD_M])
def test_build_graph_and_load_refuse_the_same_epsilon_and_m(tmp_path, monkeypatch,
                                                            key, value):
    cloud = get_manifold("circle").sample(30, seed=2)
    params = {"epsilon": 0.2, "m": 1, key: value}
    with pytest.raises(ValueError) as built:
        build_graph(cloud, params["epsilon"], m=params["m"])
    path = tmp_path / "graph.csv"
    build_graph(cloud, 0.2).save(path)
    # the sidecar as read, with values such as np.True_ that JSON cannot hold
    monkeypatch.setattr(proximity_graph, "read_sidecar",
                        lambda path, keys: dict(params, n=30))
    with pytest.raises(ValueError) as loaded:
        ProximityGraph.load(path, cloud=cloud)
    assert str(loaded.value) == f"{path}: {built.value}"


def test_raw_points_require_dimension():
    with pytest.raises(ValueError, match="m required"):
        build_graph(np.zeros((5, 2)), 0.1)


class _SparseBuildSites(ast.NodeVisitor):
    """(module, function) of each call that builds a sparse matrix: a call
    into scipy.sparse outside its csgraph and linalg submodules, or a
    format conversion such as ``.tocsr()``."""

    CONVERSIONS = {"tocsr", "tocsc", "tocoo", "tolil", "todok", "tobsr",
                   "todia", "asformat"}
    OTHER = ("scipy.sparse.csgraph", "scipy.sparse.linalg")

    def __init__(self, module):
        self.module, self.scope, self.sites, self.names = module, [], [], {}

    def visit_Import(self, node):
        for a in node.names:
            self.names[a.asname or a.name.split(".")[0]] = (
                a.name if a.asname else a.name.split(".")[0])

    def visit_ImportFrom(self, node):
        for a in node.names:
            self.names[a.asname or a.name] = f"{node.module}.{a.name}"

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def _dotted(self, node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in self.names:
            return ""
        return ".".join([self.names[node.id]] + parts[::-1])

    def visit_Call(self, node):
        name = self._dotted(node.func)
        if ((name.startswith("scipy.sparse.") and not name.startswith(self.OTHER))
                or getattr(node.func, "attr", None) in self.CONVERSIONS):
            self.sites.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def test_sparse_matrices_are_built_in_two_places():
    # one CSR builder for the graph, and the Laplacian built from it
    sites = []
    for path in sorted(Path(proximity_graph.__file__).parent.glob("*.py")):
        visitor = _SparseBuildSites(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    assert sorted(sites) == [("cut_solvers", "fiedler_vector"),
                             ("proximity_graph", "ProximityGraph.adjacency")]
