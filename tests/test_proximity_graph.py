import json
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree
from hypothesis import given, settings
from hypothesis import strategies as st

from cheeger_lab import cli
from cheeger_lab.manifold import get_manifold
from cheeger_lab.proximity_graph import (ProximityGraph, _edges_kdtree,
                                         build_graph, cheeger_ratio,
                                         cut_and_balance, cut_size, gtv,
                                         objective)


def brute_edges(points, eps):
    """Quadratic-time oracle: full pairwise distance matrix."""
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff * diff).sum(-1))
    i, j = np.where(np.triu(d <= eps, k=1))
    return np.stack([i, j], axis=1)


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
    assert np.array_equal(g.edges, oracle)


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


def _int64_key_edges(points, eps):
    """The canonical edge order from an int64 key i*n + j."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(eps, output_type="ndarray")
    key = np.sort(pairs[:, 0].astype(np.int64) * n + pairs[:, 1])
    return np.stack(np.divmod(key, n), axis=1)


# uint8 up to n = 15, uint16 up to 255, uint32 up to 65 535, then uint64
@pytest.mark.parametrize("n,eps", [(2, 1.0), (16, 0.5), (255, 0.1), (256, 0.1),
                                   (4000, 0.03), (70_000, 2e-6)])
def test_edge_key_in_the_narrowest_type_keeps_the_int64_order(n, eps):
    points = get_manifold("circle").sample(n, seed=n).points
    got = _edges_kdtree(points, eps)
    want = _int64_key_edges(points, eps)
    assert got.dtype == np.int64
    assert len(got) and np.array_equal(got, want)
    if n > 65_535:  # keys above 2^32 occur, so a 32-bit key would wrap
        assert got[-1, 0] * n + got[-1, 1] >= 2 ** 32


def test_collinear_oracle():
    pts = np.array([[0.0], [0.5], [1.0]])
    g = build_graph(pts, 0.6, m=1)
    assert np.array_equal(g.edges, [[0, 1], [1, 2]])
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
    i, j = g.edges[:, 0], g.edges[:, 1]
    ref = sp.csr_matrix((np.ones(2 * len(g.edges)),
                         (np.concatenate([i, j]), np.concatenate([j, i]))),
                        shape=(g.n, g.n))
    A = g.adjacency
    assert A.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(A, attr), getattr(ref, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_graph_save_load_roundtrip(tmp_path):
    mf = get_manifold("circle")
    cloud = mf.sample(40, seed=1)
    g = build_graph(cloud, 0.1)
    path = tmp_path / "graph.csv"
    g.save(path, cloud_ref="cloud.csv")
    back = ProximityGraph.load(path, cloud=cloud)
    assert np.array_equal(back.edges, g.edges)
    assert back.epsilon == g.epsilon
    assert back.m == g.m


def test_load_puts_edges_in_adjacency_order(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("i,j\n3,1\n0,2\n2,3\n0,1\n")
    (tmp_path / "graph.csv.json").write_text('{"n": 4, "epsilon": 0.5, "m": 1}')
    g = ProximityGraph.load(path)
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
    assert g.adjacency.toarray().tolist() == [[0, 1, 1, 0], [1, 0, 0, 1],
                                             [1, 0, 0, 1], [0, 1, 1, 0]]


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


def test_raw_points_require_dimension():
    with pytest.raises(ValueError, match="m required"):
        build_graph(np.zeros((5, 2)), 0.1)
