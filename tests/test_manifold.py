import ast
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from cheeger_lab import cli, manifold
from cheeger_lab.manifold import (Circle, CircleArc, FlatTorus2, PointCloud,
                                  Sphere2, SphereCap, TorusStrip,
                                  _best_half_window, _cap_gains,
                                  _golden_poles, _wrap, _wrap_dist,
                                  get_manifold)
from cheeger_lab.quadrature import build_grid

ALL = ["circle", "flat_torus_2", "sphere_2"]


@pytest.mark.parametrize("name", ALL)
def test_sampler_on_manifold_and_deterministic(name):
    mf = get_manifold(name)
    a = mf.sample(200, seed=42)
    b = mf.sample(200, seed=42)
    assert np.array_equal(a.points, b.points)
    assert mf.on_manifold_residual(a.points).max() < 1e-12
    c = mf.sample(200, seed=43)
    assert not np.array_equal(a.points, c.points)


@pytest.mark.parametrize("name", ALL)
def test_geodesic_distance_metric_properties(name):
    mf = get_manifold(name)
    pts = mf.sample(50, seed=0).points
    x, y = pts[:25], pts[25:]
    d = mf.geodesic_distance(x, y)
    assert np.all(d >= 0)
    assert np.allclose(mf.geodesic_distance(y, x), d)
    # arccos loses half the precision near 1, hence the looser tolerance
    assert np.allclose(mf.geodesic_distance(x, x), 0, atol=1e-7)
    # geodesic dominates the ambient chord
    chord = np.linalg.norm(x - y, axis=-1)
    assert np.all(d >= chord - 1e-12)
    # to_intrinsic works row by row, so coordinates taken once serve any pairing
    coords = mf.to_intrinsic(pts)
    rows = np.array([3, 0, 3, 49])
    assert np.array_equal(coords[rows], mf.to_intrinsic(pts[rows]))
    assert np.array_equal(mf.intrinsic_distance(coords[:25], coords[25:]), d)


@pytest.mark.parametrize("name", ALL)
def test_intrinsic_roundtrip(name):
    mf = get_manifold(name)
    pts = mf.sample(100, seed=1).points
    back = mf.to_ambient(mf.to_intrinsic(pts))
    assert np.allclose(back, pts, atol=1e-12)


@pytest.mark.parametrize("name", ALL)
def test_tree_metric_contract(name):
    """`smooth`, `transport_assign` and `_ball_site` search k-d trees by it."""
    mf = get_manifold(name)
    pts = mf.sample(300, seed=5).points
    x, y = pts[:100], pts[100:]
    (tx, box), ty = mf.tree_coords(x), mf.tree_coords(y)[0]
    # the tree's distance of every pair, turned into the geodesic one
    pairs = cKDTree(tx, boxsize=box).sparse_distance_matrix(
        cKDTree(ty, boxsize=box), 2.0, output_type="ndarray")
    assert len(pairs) == len(x) * len(y)
    geo = mf.geodesic_distance(x[pairs["i"]], y[pairs["j"]])
    assert np.abs(mf.tree_geodesic(pairs["v"]) - geo).max() <= 1e-12
    # a ball of radius tree_radius(r) holds the geodesic r-ball, in tree
    # coordinates exactly; in ambient ones exactly on the sphere, while the
    # chord of the flat embeddings only bounds it
    tree_t = cKDTree(np.concatenate([tx, ty]), boxsize=box)
    tree_a = cKDTree(pts)
    loose = 0
    for k, r in enumerate(np.random.default_rng(5).uniform(0.01, 0.24, 20)):
        inside = set(np.flatnonzero(mf.geodesic_distance(pts[k], pts) <= r))
        reach = mf.tree_radius(r)
        assert set(tree_t.query_ball_point(tree_t.data[k], reach)) == inside
        ambient = set(tree_a.query_ball_point(pts[k], reach))
        assert ambient >= inside
        loose += len(ambient - inside)
    assert (loose == 0) == (name == "sphere_2")


def test_circle_geodesic_values():
    mf = Circle()
    p = mf.to_ambient(np.array([0.0, 0.25, 0.6]))
    q = mf.to_ambient(np.array([0.5, 0.25, 0.9]))
    d = mf.geodesic_distance(p, q)
    assert np.allclose(d, [0.5, 0.0, 0.3])


def test_torus_geodesic_wraps():
    mf = FlatTorus2()
    p = mf.to_ambient(np.array([[0.05, 0.95]]))
    q = mf.to_ambient(np.array([[0.95, 0.05]]))
    assert np.isclose(mf.geodesic_distance(p, q)[0], np.hypot(0.1, 0.1))


def test_sphere_ball_perimeter_is_volume_derivative():
    # P(r) = dV/dr for geodesic balls; finite-difference oracle
    mf = Sphere2()
    for r in (0.05, 0.1, 0.2):
        dr = 1e-6
        fd = (mf.ball_volume(r + dr) - mf.ball_volume(r - dr)) / (2 * dr)
        assert np.isclose(mf.ball_perimeter(r), fd, rtol=1e-6)


@pytest.mark.parametrize("name", ALL)
def test_ball_radius_volume_inverse(name):
    mf = get_manifold(name)
    for v in (0.01, 0.2, 0.5, 0.77):
        if name == "flat_torus_2" and v > np.pi / 4:
            continue
        r = mf.ball_radius_for_volume(v)
        assert np.isclose(mf.ball_volume(r), v, atol=1e-12)


def test_pointcloud_save_load_roundtrip(tmp_path):
    mf = get_manifold("sphere_2")
    cloud = mf.sample(17, seed=9)
    path = tmp_path / "cloud.csv"
    cloud.save(path)
    back = PointCloud.load(path)
    assert back.seed == 9
    assert back.manifold.name == "sphere_2"
    assert np.allclose(back.points, cloud.points, atol=0, rtol=0)


@pytest.mark.parametrize("meta,message", [
    ({"manifold": "circle", "n": 3}, "the sidecar has no 'seed'"),
    ({"n": 3, "seed": 1}, "the sidecar has no 'manifold'"),
    ({"manifold": "circle", "n": 3, "seed": None}, "seed must be an integer, got None"),
    ({"manifold": "circle", "n": 3, "seed": True}, "seed must be an integer, got True"),
    ({"manifold": 3, "n": 3, "seed": 1}, "manifold must be a name, got 3"),
    ("circle", "the sidecar is not a JSON object"),
])
def test_pointcloud_load_checks_the_sidecar_keys(tmp_path, meta, message):
    path = tmp_path / "cloud.csv"
    path.write_text("i,x0,x1\n0,0.1,0.0\n1,0.0,0.1\n2,-0.1,0.0\n")
    (tmp_path / "cloud.csv.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=re.escape(message)):
        PointCloud.load(path)


def _relabelled_cloud(tmp_path, sample, **meta):
    """A saved cloud of `sample` = (manifold, n) whose sidecar says `meta`."""
    name, n = sample
    path = tmp_path / "cloud.csv"
    get_manifold(name).sample(n, seed=5).save(path)
    sidecar = tmp_path / "cloud.csv.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **meta}))
    return path


def _lift_first_point(path, factor):
    rows = path.read_text().splitlines()
    i, *xs = rows[1].split(",")
    rows[1] = ",".join([i] + [repr(float(x) * factor) for x in xs])
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("sample,meta,lift,message", [
    # a sphere cloud labelled a circle used to get a circle-family certificate
    (("sphere_2", 60), {"manifold": "circle", "n": 99}, 1.0,
     "3 coordinates a point, the circle has 2"),
    (("flat_torus_2", 40), {"manifold": "sphere_2"}, 1.0,
     "4 coordinates a point, the sphere_2 has 3"),
    (("circle", 60), {"n": 99}, 1.0, "60 points, the sidecar n = 99"),
    (("sphere_2", 60), {"n": 59}, 1.0, "60 points, the sidecar n = 59"),
    (("circle", 60), {"n": 60.0}, 1.0, "n must be a positive integer, got 60.0"),
    (("circle", 60), {}, 1.0 + 1e-6, "off the circle"),
    (("flat_torus_2", 40), {}, 1.0 + 1e-6, "off the flat_torus_2"),
    (("sphere_2", 60), {}, 1.0 - 1e-6, "off the sphere_2"),
], ids=["sphere_as_circle", "torus_as_sphere", "n_too_large", "n_too_small",
        "n_not_integer", "off_circle", "off_torus", "off_sphere"])
def test_pointcloud_load_checks_the_points_against_the_sidecar(tmp_path, sample,
                                                               meta, lift, message):
    path = _relabelled_cloud(tmp_path, sample, **meta)
    if lift != 1.0:
        _lift_first_point(path, lift)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        PointCloud.load(path)


@pytest.mark.parametrize("n,message", [
    (60, "0 points, the sidecar n = 60"),
    (0, "n must be a positive integer, got 0"),
    (-1, "n must be a positive integer, got -1")])
def test_pointcloud_load_of_a_header_only_file(tmp_path, capsys, n, message):
    # with no row below the header loadtxt warned, and the column count took
    # the blame ("0 coordinates a point")
    path = _relabelled_cloud(tmp_path, ("circle", 60), n=n)
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        PointCloud.load(path)
    assert cli.main(["--out", str(tmp_path / "graph.csv"), "build-graph",
                     "--cloud", str(path), "--epsilon", "0.1"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ALL)
def test_pointcloud_load_keeps_points_within_the_tolerance(tmp_path, name):
    # a point 1e-12 off its manifold is rounding, not another manifold's point
    path = _relabelled_cloud(tmp_path, (name, 30))
    _lift_first_point(path, 1.0 + 1e-11)
    assert PointCloud.load(path).n == 30


def test_reference_set_volumes_by_quadrature():
    from cheeger_lab.quadrature import build_grid
    c = get_manifold("circle")
    arc = CircleArc(c, center=0.3)
    g = build_grid(c, 2000)
    assert abs(g.integrate(arc.indicator(g.nodes)) - 0.5) < 1e-3
    t = get_manifold("flat_torus_2")
    strip = TorusStrip(t, axis=0, offset=0.2)
    gt = build_grid(t, 100)
    assert abs(gt.integrate(strip.indicator(gt.nodes)) - 0.5) < 1e-2
    s = get_manifold("sphere_2")
    cap = SphereCap(s, pole=[0, 1, 1])
    gs = build_grid(s, 5000)
    assert abs(gs.integrate(cap.indicator(gs.nodes)) - 0.5) < 1e-2
    assert arc.volume == strip.volume == cap.volume == 0.5


def test_sphere_cap_perimeter_closed_form():
    s = get_manifold("sphere_2")
    # hemisphere boundary is a great circle of length 2 pi r
    cap = SphereCap(s, pole=[0, 0, 1])
    assert np.isclose(cap.perimeter, 2 * np.pi * s.radius)
    # the closed form 2 sqrt(pi v (1 - v)) at v = 1/2, to the last bit
    assert cap.perimeter == 2.0 * np.sqrt(np.pi * 0.5 * (1.0 - 0.5))


def _named_methods(cls):
    """The methods ``name(...)`` that a class docstring asks for."""
    return set(re.findall(r"``(\w+)\(", cls.__doc__))


@pytest.mark.parametrize("name", ALL)
def test_manifold_defines_every_method_its_interface_names(name):
    mf = get_manifold(name)
    required = _named_methods(manifold.Manifold)
    assert {"_sample", "intrinsic_distance", "to_intrinsic", "to_ambient",
            "on_manifold_residual", "ball_volume", "ball_perimeter",
            "ball_radius_for_volume", "tree_coords", "frame", "walk",
            "match_family", "minimizer"} <= required
    for method in required:
        assert callable(getattr(mf, method, None)), (name, method)
    ref = mf.default_minimizer()
    assert isinstance(ref, manifold.ReferenceSet)
    assert "indicator" in _named_methods(manifold.ReferenceSet)
    for method in _named_methods(manifold.ReferenceSet):
        assert callable(getattr(ref, method, None)), (name, method)


def test_continuum_cheeger_constants():
    assert get_manifold("circle").cheeger_constant == 4.0
    assert get_manifold("flat_torus_2").cheeger_constant == 4.0
    assert np.isclose(get_manifold("sphere_2").cheeger_constant,
                      2 * np.sqrt(np.pi))


def test_isoperimetric_profile_shapes():
    ref = get_manifold("flat_torus_2")
    # small volumes favor disks, large ones strips
    assert np.isclose(ref.isoperimetric_profile(0.01), 2 * np.sqrt(np.pi * 0.01))
    assert ref.isoperimetric_profile(0.5) == 2.0
    refs = get_manifold("sphere_2")
    v = np.linspace(0.05, 0.95, 19)
    prof = refs.isoperimetric_profile(v)
    assert np.allclose(prof, refs.isoperimetric_profile(1 - v))


def test_unknown_manifold_raises():
    with pytest.raises(ValueError, match="unknown manifold"):
        get_manifold("klein_bottle")


def test_sample_rejects_bad_n():
    with pytest.raises(ValueError):
        get_manifold("circle").sample(0, seed=1)


def test_torus_match_family_ties_go_to_the_lower_axis():
    # on a 16 x 16 lattice every gain is +-1/256, so every window sum is exact
    torus = get_manifold("flat_torus_2")
    g = build_grid(torus, 16)
    u, v = g.intrinsic[:, 0], g.intrinsic[:, 1]

    def gain_of(f):
        return g.weights * (np.abs(f - 1.0) - np.abs(f))

    def match(f):
        return torus.match_family(g.nodes, gain_of(f))

    # symmetric under u <-> v: both axes reach the same least sum
    square = ((u < 0.5) & (v < 0.5)).astype(float)
    assert (_best_half_window(u, gain_of(square))[0]
            == _best_half_window(v, gain_of(square))[0])
    assert match(square)[0] == 0
    # an asymmetric function and its transpose match the two axes
    strip = ((u < 0.5) | ((u < 0.625) & (v < 0.125))).astype(float)
    flipped = ((v < 0.5) | ((v < 0.625) & (u < 0.125))).astype(float)
    axis, start = match(strip)
    assert axis == 0 and match(flipped) == (1, start)


@pytest.mark.parametrize("resolution", [2500, 4000, 5000])
def test_sphere_cap_scores_in_blocks_equal_the_one_product(resolution, monkeypatch):
    # the trial grid (4000: 7748 nodes) and its neighbours; gains of the
    # cap indicator, of noisy ones, and random
    sphere = get_manifold("sphere_2")
    g = build_grid(sphere, resolution)
    u = sphere.to_intrinsic(g.nodes)
    poles = _golden_poles(256)
    rng = np.random.default_rng(resolution)
    cap = (u @ np.array([0.3, -0.5, 0.8]) >= 0.0).astype(float)
    fs = [cap, np.clip(cap + 0.3 * rng.standard_normal(len(u)), 0.0, 1.0),
          rng.random(len(u)), rng.standard_normal(len(u))]
    for f in fs:
        gain = g.weights * (np.abs(f - 1.0) - np.abs(f))
        one = gain @ (u @ poles.T >= 0.0)
        assert one.tobytes() == _cap_gains(u, gain, poles).tobytes()
        got = sphere.match_family(g.nodes, gain)
        with monkeypatch.context() as m:
            m.setattr(manifold, "_cap_gains", lambda u, gain, poles: gain @ (u @ poles.T >= 0.0))
            assert got.tobytes() == sphere.match_family(g.nodes, gain).tobytes()


def test_sphere_cap_match_keeps_its_temporaries_small():
    # one product over all 256 poles peaked at 18 MB: a 7748 x 256 float array
    sphere = get_manifold("sphere_2")
    g = build_grid(sphere, 4000)
    f = np.random.default_rng(3).random(len(g.nodes))
    gain = g.weights * (np.abs(f - 1.0) - np.abs(f))
    tracemalloc.start()
    try:
        sphere.match_family(g.nodes, gain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.nodes) == 7748 and peak < 4e6


def _same_bits(a, b):
    """Bitwise equal doubles, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(
        (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))


def test_wrap_is_bitwise_the_float_modulo():
    rng = np.random.default_rng(22)
    n = 200_000
    edge = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-17, -1e-17, 5e-324,
                     -5e-324, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0),
                     2.0 ** 52 + 0.5, -(2.0 ** 52) - 0.5, 2.0 ** 53, 1e300,
                     -1e300, np.inf, -np.inf, np.nan])
    samples = [edge, rng.random(n), rng.random(n) - 0.5,
               rng.standard_normal(n) * 1e-15, rng.standard_normal(n) * 1e6,
               rng.standard_normal(n) * 1e17,
               np.arctan2(rng.standard_normal(n), rng.standard_normal(n)) / (2 * np.pi)]
    with np.errstate(invalid="ignore"):
        for x in samples:
            assert _same_bits(_wrap(x), np.mod(x, 1.0))
            y = rng.permutation(x)
            d = np.abs(np.mod(x - y, 1.0))
            assert _same_bits(_wrap_dist(x, y), np.minimum(d, 1.0 - d))
        for v in edge:
            assert _same_bits(_wrap(v), np.mod(v, 1.0))
    # the cases where the two could part: a tiny negative rounds up to 1.0,
    # a signed zero lands on +0.0
    assert _wrap(-1e-17) == 1.0 and _same_bits(_wrap(-0.0), 0.0)


class _FloatModuloSites(ast.NodeVisitor):
    """(module, function) of each use of np.mod, np.remainder or np.fmod."""

    NAMES = {"mod", "remainder", "fmod"}

    def __init__(self, module):
        self.module, self.scope, self.sites = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if (node.attr in self.NAMES and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            self.sites.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def test_periodic_wraps_go_through_wrap():
    # one home for the periodic wrap: `_wrap` subtracts the floor, which is
    # bit-equal to the float modulo and does no division
    sites = []
    for path in sorted(Path(manifold.__file__).parent.glob("*.py")):
        visitor = _FloatModuloSites(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    assert sites == []


class _IsinstanceSites(ast.NodeVisitor):
    """(module, function) of each isinstance against one of ``classes``."""

    def __init__(self, module, classes):
        self.module, self.classes, self.scope, self.sites = module, classes, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2):
            names = {getattr(n, "id", getattr(n, "attr", None))
                     for n in ast.walk(node.args[1])}
            if names & self.classes:
                self.sites.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def test_manifold_isinstance_sites_guard_only_circle_algorithms_and_grids():
    # every other manifold-kind decision is a method of the manifold classes
    classes = {name for name, obj in vars(manifold).items()
               if isinstance(obj, type)
               and issubclass(obj, (manifold.Manifold, manifold.ReferenceSet))}
    sites = []
    for path in sorted(Path(manifold.__file__).parent.glob("*.py")):
        visitor = _IsinstanceSites(path.stem, classes)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    assert sorted(sites) == [
        ("consistency", "_ball_site"),
        ("consistency", "circle_transport_delta"),
        ("cut_solvers", "solve_arc_sweep"),
        ("cut_solvers", "solve_pipeline"),
        ("harness", "run_trial"),
        ("proximity_graph", "build_graph"),
        ("quadrature", "build_grid"),
        ("quadrature", "grid_for_scale"),
    ]
