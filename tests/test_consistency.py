import weakref

import numpy as np
import pytest
from scipy.spatial import cKDTree

from cheeger_lab import consistency
from cheeger_lab.consistency import (N_BOOT, TransportSurrogate,
                                     circle_transport_delta, cut_l1_error,
                                     fit_rate, fix_mass, interpolate,
                                     loglog_fit, match_minimizer,
                                     perturbed_strip_excess,
                                     schedule_exponents, stability_exponent,
                                     transport_assign, ustat_concentration)
from cheeger_lab.errors import (BandwidthTooSmall, ConfigError,
                                InfeasibleMass, InsufficientData)
from cheeger_lab.manifold import (CircleArc, PointCloud, SphereCap,
                                  TorusStrip, _wrap_dist, get_manifold)
from cheeger_lab.nonlocal_tv import (ContinuumFunction, constant_function,
                                     indicator_function)
from cheeger_lab.proximity_graph import build_graph
from cheeger_lab.quadrature import build_grid
from cheeger_lab.cut_solvers import CutResult, solve_exact

CIRCLE = get_manifold("circle")
TORUS = get_manifold("flat_torus_2")
SPHERE = get_manifold("sphere_2")


def uniform_circle_cloud(n):
    return PointCloud(points=CIRCLE.to_ambient(np.arange(n) / n), seed=0,
                      manifold=CIRCLE)


def test_schedule_exponents():
    s1 = schedule_exponents(1)
    assert s1 == {"k_delta": 2 / 3, "k_theta": 1 / 6, "k_eps": 0.5, "k_zeta": 1.0}
    assert schedule_exponents(2)["k_eps"] == pytest.approx(0.3)


def test_transport_grid_cloud_covering_radius():
    cloud = uniform_circle_cloud(50)
    # evaluation nodes that include the exact midpoints between samples
    nodes = CIRCLE.to_ambient((np.arange(500)) / 500)
    sur = transport_assign(cloud, nodes)
    assert sur.sup_displacement == pytest.approx(1 / 100, abs=1e-12)


def test_transport_single_point_and_ties():
    cloud = PointCloud(points=CIRCLE.to_ambient(np.array([0.0])), seed=0,
                       manifold=CIRCLE)
    nodes = CIRCLE.to_ambient(np.linspace(0, 1, 97, endpoint=False))
    sur = transport_assign(cloud, nodes)
    assert np.all(sur.assignment == 0)
    # equidistant node between two samples resolves to the smaller index
    cloud2 = uniform_circle_cloud(4)
    mid = CIRCLE.to_ambient(np.array([0.125]))
    sur2 = transport_assign(cloud2, mid)
    assert sur2.assignment[0] == 0


@pytest.mark.parametrize("mf", [CIRCLE, TORUS, SPHERE], ids=lambda m: m.name)
def test_transport_equidistant_node_goes_to_smaller_index(mf):
    # the node is exactly halfway between samples a and b; in every storage
    # order the smaller of their two indices wins
    if mf is SPHERE:
        a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        node = mf.to_ambient(np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
        far = np.array([0.0, 0.0, -1.0])
    elif mf is TORUS:
        a, b, node, far = (np.array([0.25, 0.5]), np.array([0.75, 0.5]),
                           mf.to_ambient(np.array([0.0, 0.5])), np.array([0.5, 0.0]))
    else:
        a, b, node, far = 0.25, 0.75, mf.to_ambient(np.array([0.0])), 0.5
    for order in ([a, b, far], [b, far, a], [far, b, a]):
        cloud = PointCloud(points=mf.to_ambient(np.array(order)), seed=0, manifold=mf)
        sur = transport_assign(cloud, np.atleast_2d(node))
        d = mf.geodesic_distance(np.atleast_2d(node), cloud.points)
        tied = np.flatnonzero(np.abs(d - d.min()) <= 1e-12)
        assert len(tied) == 2
        assert sur.assignment[0] == tied.min()


@pytest.mark.parametrize("mf", [CIRCLE, TORUS], ids=lambda m: m.name)
def test_transport_sample_whose_coordinate_wraps_to_one(mf):
    # np.mod(-1e-17, 1.0) == 1.0, outside the periodic box of the tree
    t = (np.array([-1e-17, 0.5]) if mf is CIRCLE
         else np.array([[-1e-17, 0.5], [0.5, 0.5]]))
    cloud = PointCloud(points=mf.to_ambient(t), seed=0, manifold=mf)
    assert (mf.to_intrinsic(cloud.points) == 1.0).any()
    node = mf.to_ambient(t[0] + 0.01)
    assert transport_assign(cloud, np.atleast_2d(node)).assignment[0] == 0


def _transport_assign_loop(cloud, pts):
    """The per-node reference: chord-nearest sample, then every sample in the
    chord ball of that geodesic radius, ties within 1e-12 to the smallest index."""
    mf, samples = cloud.manifold, cloud.points
    tree = cKDTree(samples)
    _, idx0 = tree.query(pts)
    best = mf.geodesic_distance(pts, samples[idx0])
    assignment = idx0.copy()
    for k, cand in enumerate(tree.query_ball_point(pts, np.maximum(best, 1e-15))):
        if len(cand) <= 1:
            continue
        cand = np.asarray(cand, dtype=int)
        d = np.atleast_1d(mf.geodesic_distance(pts[k][None, :], samples[cand]))
        w = int(cand[d <= d.min() + 1e-12].min())
        if d.min() < best[k] - 1e-15 or (abs(d.min() - best[k]) <= 1e-12
                                         and w < assignment[k]):
            assignment[k], best[k] = w, d.min()
    return assignment, float(best.max())


@pytest.mark.parametrize("mf,res", [(CIRCLE, 800), (TORUS, 48), (SPHERE, 1000)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_transport_matches_per_node_reference(mf, res):
    grid = build_grid(mf, res)
    for seed in range(3):
        cloud = mf.sample(300, seed=seed)
        sur = transport_assign(cloud, grid)
        assignment, sup = _transport_assign_loop(cloud, grid.nodes)
        assert np.array_equal(sur.assignment, assignment)
        assert sur.sup_displacement == sup


def test_transport_random_cloud_spacing_bound():
    hits = 0
    for seed in range(40):
        cloud = CIRCLE.sample(1000, seed=seed)
        nodes = build_grid(CIRCLE, 2000)
        sur = transport_assign(cloud, nodes)
        hits += sur.sup_displacement <= 3 * np.log(1000) / 1000
    assert hits >= 36  # spacing order statistics: holds for most seeds


@pytest.mark.parametrize("cloud_mf,grid_mf,resolution", [
    pytest.param(CIRCLE, TORUS, 40, id="circle-cloud-torus-grid"),
    pytest.param(CIRCLE, SPHERE, 400, id="circle-cloud-sphere-grid"),
    pytest.param(TORUS, CIRCLE, 40, id="torus-cloud-circle-grid")])
def test_grid_of_another_manifold_is_refused(cloud_mf, grid_mf, resolution):
    cloud = cloud_mf.sample(300, seed=1)
    grid = build_grid(grid_mf, resolution)
    names = f"{grid_mf.name} is not the cloud's manifold {cloud_mf.name}"
    with pytest.raises(ValueError, match=names):
        transport_assign(cloud, grid)
    cut = CutResult(subset=np.arange(150), objective_value=1.0, gtv=1.0,
                    balance=0.5, solver="exact", certificate="Heuristic")
    with pytest.raises(ValueError, match=names):
        cut_l1_error(cut, cloud, grid)


def _rotation_search_delta(t, steps=20_000):
    """Worst displacement of the rotated monotone matching t_(k) -> arc
    [(k-1)/n + c, k/n + c], minimised over a dense grid of c."""
    t = np.sort(t)
    n = len(t)
    c = np.arange(steps)[:, None] / steps
    lo = (np.arange(n) / n)[None, :] + c
    # sup over the arc of the wraparound distance to t: 1/2 if the arc holds
    # the antipode of t, else the farther endpoint
    antipode_in = np.mod(t + 0.5 - lo, 1.0) <= 1.0 / n
    ends = np.maximum(_wrap_dist(t, lo), _wrap_dist(t, lo + 1.0 / n))
    cost = np.where(antipode_in, 0.5, ends).max(axis=1)
    return float(cost.min()), 1.0 / steps


def test_circle_transport_delta_matches_rotation_search():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(1, 51))
        cloud = CIRCLE.sample(n, seed=100 + trial)
        delta = circle_transport_delta(cloud)
        searched, step = _rotation_search_delta(CIRCLE.to_intrinsic(cloud.points))
        assert delta - 1e-12 <= searched <= delta + step
        t = np.sort(CIRCLE.to_intrinsic(cloud.points))
        gaps = np.diff(np.append(t, t[0] + 1.0))
        assert delta >= gaps.max() / 2.0 - 1e-12  # covering radius
    # the equispaced cloud is matched with displacement 1/(2n)
    assert circle_transport_delta(uniform_circle_cloud(40)) == pytest.approx(1 / 80)
    with pytest.raises(ValueError):
        circle_transport_delta(TORUS.sample(10, seed=0))


def test_interpolate_constant_range_monotone():
    cloud = CIRCLE.sample(600, seed=2)
    grid = build_grid(CIRCLE, 400)
    sur = transport_assign(cloud, grid)
    a = 0.06
    const = interpolate(np.full(600, 0.4), sur, a)
    assert np.allclose(const(grid.nodes), 0.4, atol=1e-12)
    rng = np.random.default_rng(0)
    u = rng.random(600)
    v = u + rng.random(600) * 0.5
    iu, iv = interpolate(u, sur, a)(grid.nodes), interpolate(v, sur, a)(grid.nodes)
    assert np.all(iu <= iv + 1e-12)
    assert iu.min() >= 0 and iu.max() <= 1 + 1e-12
    with pytest.raises(BandwidthTooSmall):
        interpolate(u, sur, sur.sup_displacement)


def test_interpolate_indicator_l1_bound():
    cloud = CIRCLE.sample(1500, seed=4)
    grid = build_grid(CIRCLE, 800)
    sur = transport_assign(cloud, grid)
    a = 0.05
    arc = CircleArc(CIRCLE, center=0.25)
    u = arc.indicator(cloud.points)
    lam = interpolate(u, sur, a)
    l1 = grid.integrate(np.abs(lam(grid.nodes) - arc.indicator(grid.nodes)))
    assert l1 <= 2 * a + 2 * sur.sup_displacement


def test_fraenkel_family_member_is_zero():
    grid = build_grid(CIRCLE, 800)
    f = indicator_function(CircleArc(CIRCLE, center=0.37))
    assert match_minimizer(f(grid.nodes), grid)[0] <= 2 * grid.spacing


def test_fraenkel_two_arcs_is_half():
    grid = build_grid(CIRCLE, 800)
    f = ContinuumFunction(
        evaluator=lambda p: ((CIRCLE.to_intrinsic(p) % 0.5) < 0.25).astype(float))
    assert match_minimizer(f(grid.nodes), grid)[0] == pytest.approx(0.5, abs=1e-2)


@pytest.mark.parametrize("name,N", [("circle", 40), ("circle", 41),
                                    ("flat_torus_2", 12), ("flat_torus_2", 13)])
def test_fraenkel_min_property(name, N):
    mf = get_manifold(name)
    grid = build_grid(mf, N)
    # brute-force scan with step 1/(8N), below the least gap 1/(2N) between
    # the parameters where the member's node set changes, and off those
    # parameters, which are multiples of 1/(2N)
    offsets = (np.arange(8 * N) + 1.0 / 3.0) / (8 * N)
    params = (list(offsets) if name == "circle"
              else [(axis, o) for axis in (0, 1) for o in offsets])

    def explicit(fvals, p):
        return grid.integrate(np.abs(fvals - mf.minimizer(p).indicator(grid.nodes)))

    rng = np.random.default_rng(N)
    for fvals in (rng.integers(0, 2, grid.size).astype(float),
                  rng.uniform(-0.5, 1.5, grid.size)):
        alpha, param = match_minimizer(fvals, grid)
        assert alpha == pytest.approx(min(explicit(fvals, p) for p in params), abs=1e-12)
        assert alpha == pytest.approx(explicit(fvals, param), abs=1e-12)


def test_fraenkel_torus_and_sphere():
    gt = build_grid(TORUS, 64)
    f = indicator_function(TorusStrip(TORUS, axis=1, offset=0.61))
    a, (axis, off) = match_minimizer(f(gt.nodes), gt)
    assert a <= 2 * gt.spacing and axis == 1
    gs = build_grid(SPHERE, 2500)
    pole = np.array([1.0, 2.0, -0.5])
    f = indicator_function(SphereCap(SPHERE, pole=pole))
    a, p = match_minimizer(f(gs.nodes), gs)
    assert a <= 0.01
    assert np.dot(p, pole / np.linalg.norm(pole)) > 0.999


def test_fix_mass_noop_and_infeasible():
    grid = build_grid(CIRCLE, 800)
    arc = CircleArc(CIRCLE, center=0.25)
    adj = fix_mass(arc.indicator, 0.5, 0.5, grid)
    assert adj.symmetric_difference == 0.0
    with pytest.raises(InfeasibleMass):
        fix_mass(arc.indicator, 0.5, 1.2, grid)


def test_fix_mass_circle_extends_arc():
    grid = build_grid(CIRCLE, 800)
    arc = CircleArc(CIRCLE, center=0.25)
    adj = fix_mass(arc.indicator, 0.5, 0.6, grid)
    assert adj.volume == pytest.approx(0.6, abs=1e-9)
    assert adj.symmetric_difference <= 0.1 + 1e-9
    # the result is still a single arc: quadrature volume 0.6, two boundaries
    vals = adj.indicator(grid.nodes)
    assert grid.integrate(vals) == pytest.approx(0.6, abs=2 * grid.spacing)
    flips = np.sum(vals != np.roll(vals, 1))
    assert flips == 2


def test_fix_mass_torus_perimeter_increment():
    grid = build_grid(TORUS, 64)
    strip = TorusStrip(TORUS, axis=0, offset=0.0)
    adj = fix_mass(strip.indicator, 0.5, 0.51, grid)
    assert adj.volume == pytest.approx(0.51, abs=1e-9)
    assert adj.perimeter_increment <= 2 * np.sqrt(np.pi * 0.02) + 1e-6
    vals = adj.indicator(grid.nodes)
    assert grid.integrate(vals) == pytest.approx(0.51, abs=3 * grid.spacing)


def test_fix_mass_sphere_removal():
    grid = build_grid(SPHERE, 3000)
    cap = SphereCap(SPHERE, pole=[0, 0, 1])
    adj = fix_mass(cap.indicator, 0.5, 0.44, grid)
    assert adj.volume == pytest.approx(0.44, abs=1e-9)
    vals = adj.indicator(grid.nodes)
    assert grid.integrate(vals) == pytest.approx(0.44, abs=0.02)


@pytest.mark.parametrize("mf,resolution,member,target", [
    pytest.param(CIRCLE, 800, CircleArc(CIRCLE, center=0.25), 0.6, id="circle-add"),
    pytest.param(CIRCLE, 800, CircleArc(CIRCLE, center=0.25), 0.37, id="circle-remove"),
    pytest.param(TORUS, 64, TorusStrip(TORUS, axis=1, offset=0.25), 0.51, id="torus-add"),
    pytest.param(TORUS, 64, TorusStrip(TORUS, axis=0, offset=0.0), 0.45, id="torus-remove"),
    pytest.param(SPHERE, 3000, SphereCap(SPHERE, pole=[0, 1, 1]), 0.58, id="sphere-add"),
    pytest.param(SPHERE, 3000, SphereCap(SPHERE, pole=[0, 0, 1]), 0.44, id="sphere-remove")])
def test_fix_mass_radius_is_closed_form(mf, resolution, member, target):
    adj = fix_mass(member.indicator, 0.5, target, build_grid(mf, resolution))
    assert adj.radius == mf.ball_radius_for_volume(abs(target - 0.5))
    assert adj.volume == target


def test_fix_mass_torus_disk_above_quarter_pi_is_infeasible():
    # a geodesic disk of the unit torus has radius <= 1/2, so area <= pi/4
    def strip(points):  # the strip of width 0.1 along axis 0
        return (TORUS.to_intrinsic(points)[..., 0] < 0.1).astype(float)

    grid = build_grid(TORUS, 64)
    with pytest.raises(InfeasibleMass, match="too large for flat torus"):
        fix_mass(strip, 0.1, 0.1 + np.pi / 4 + 1e-3, grid)


def test_ustat_constant_function_is_zero():
    rep = ustat_concentration(CIRCLE, constant_function(0.7), [50, 100],
                              epsilon_rule=0.1, trials=5, seed=0)
    for e in rep.entries:
        assert e["mean"] == 0.0 and e["std"] == 0.0


def test_ustat_requires_known_tv():
    f = ContinuumFunction(evaluator=lambda p: np.zeros(len(p)))
    with pytest.raises(ValueError):
        ustat_concentration(CIRCLE, f, [50], 0.1, trials=2, seed=0)


@pytest.mark.parametrize("trials", [0, 1])
def test_ustat_requires_two_trials(trials):
    f = indicator_function(CIRCLE.default_minimizer())
    with pytest.raises(InsufficientData, match="at least 2 trials"):
        ustat_concentration(CIRCLE, f, [50], 0.1, trials=trials, seed=0)


def test_ustat_refuses_an_empty_n_list():
    # a report with no entries would read as a concentration result
    f = indicator_function(CIRCLE.default_minimizer())
    with pytest.raises(InsufficientData, match="at least one sample size"):
        ustat_concentration(CIRCLE, f, [], 0.1, trials=3, seed=0)


def test_ustat_holds_one_graph_at_a_time(monkeypatch):
    # a trial's graph is freed before the next one is built
    built = []

    def build(cloud, eps):
        assert all(ref() is None for ref in built)
        g = build_graph(cloud, eps)
        built.append(weakref.ref(g))
        return g

    monkeypatch.setattr(consistency, "build_graph", build)
    f = indicator_function(CIRCLE.default_minimizer())
    ustat_concentration(CIRCLE, f, [50, 100], 0.1, trials=3, seed=0)
    assert len(built) == 6


def test_ustat_refuses_a_repeated_n():
    # the repeated n would be sampled twice and reported as two entries
    f = indicator_function(CIRCLE.default_minimizer())
    with pytest.raises(ConfigError, match=r"n_list repeats n: \[50\]"):
        ustat_concentration(CIRCLE, f, [50, 100, 50], 0.1, trials=3, seed=0)


def test_ustat_refuses_an_epsilon_above_the_manifold_limit(monkeypatch):
    # converge refuses it too; each offending n is named, and no cloud is sampled
    def sample(n, seed):
        raise AssertionError("sampled before the epsilon check")

    monkeypatch.setattr(CIRCLE, "sample", sample)
    f = indicator_function(CIRCLE.default_minimizer())
    with pytest.raises(ConfigError) as info:
        ustat_concentration(CIRCLE, f, [4, 9, 100], lambda n: n ** -0.5,
                            trials=2, seed=1)
    assert info.value.errors == [
        "epsilon(n=4) = 0.5 exceeds the manifold limit 0.25",
        "epsilon(n=9) = 0.3333 exceeds the manifold limit 0.25"]
    with pytest.raises(ConfigError, match=r"epsilon\(n=50\) = 0.0 is not a positive"):
        ustat_concentration(CIRCLE, f, [50], 0.0, trials=2, seed=1)


def test_cut_l1_error_on_planted_instance():
    rng = np.random.default_rng(6)
    t = np.concatenate([rng.random(9) * 0.3, 0.5 + rng.random(9) * 0.3])
    cloud = PointCloud(points=CIRCLE.to_ambient(t), seed=6, manifold=CIRCLE)
    g = build_graph(cloud, 0.12)
    res = solve_exact(g)
    err = cut_l1_error(res, cloud, build_grid(CIRCLE, 800))
    assert err.l1_error < 0.25
    assert err.discrete_error == 0.0  # clusters split exactly


def test_cut_l1_complement_invariance():
    cloud = CIRCLE.sample(200, seed=9)
    g = build_graph(cloud, 0.08)
    from cheeger_lab.cut_solvers import solve_pipeline, CutResult
    res = solve_pipeline(g)
    grid = build_grid(CIRCLE, 800)
    e1 = cut_l1_error(res, cloud, grid)
    comp = CutResult(subset=np.setdiff1d(np.arange(200), res.subset),
                     objective_value=res.objective_value, gtv=res.gtv,
                     balance=res.balance, solver=res.solver,
                     certificate=res.certificate)
    e2 = cut_l1_error(comp, cloud, grid)
    assert e1.l1_error == pytest.approx(e2.l1_error, abs=1e-9)


def test_fit_rate_exact_power_law_and_errors():
    ns = [500, 1000, 2000, 4000]
    rr = fit_rate({n: [n ** -0.5] * 6 for n in ns})
    assert rr.fitted_slope == pytest.approx(-0.5, abs=1e-12)
    assert rr.slope_ci[0] == pytest.approx(-0.5, abs=1e-12)
    rr = fit_rate({n: [0.37] * 6 for n in ns})
    assert abs(rr.fitted_slope) < 1e-12
    with pytest.raises(InsufficientData):
        fit_rate({500: [1] * 6, 1000: [1] * 6})
    with pytest.raises(InsufficientData):
        fit_rate({n: [1.0] * 3 for n in ns})


def test_fit_rate_bootstrap_deterministic():
    rng = np.random.default_rng(1)
    rec = {n: (n ** -0.4 * (1 + 0.2 * rng.standard_normal(8))).tolist()
           for n in (500, 1000, 2000, 4000)}
    a = fit_rate(rec, seed=5)
    b = fit_rate(rec, seed=5)
    assert a.slope_ci == b.slope_ci


def test_fit_rate_bootstrap_draws_match_a_per_draw_loop():
    # one call draws every index in (draw, n, k) order; the reference draws
    # them one (draw, n) row at a time. n = 2000 lost a trial, as a failed
    # trial would leave it
    rng = np.random.default_rng(2)
    ns = (500, 1000, 2000, 4000)
    rec = {n: n ** -0.4 * (1 + 0.3 * rng.standard_normal(7 if n == 2000 else 8))
           for n in ns}
    ref = np.random.default_rng(11)
    idx = {n: np.empty((N_BOOT, len(rec[n])), dtype=np.int64) for n in ns}
    for b in range(N_BOOT):
        for n in ns:
            idx[n][b] = ref.integers(0, len(rec[n]), size=len(rec[n]))
    boot_meds = np.stack([np.median(rec[n][idx[n]], axis=1) for n in ns])
    boot = loglog_fit(ns, boot_meds)[0]
    want = (float(np.percentile(boot, 5)), float(np.percentile(boot, 95)))
    rr = fit_rate(rec, seed=11)
    assert rr.slope_ci == want
    assert rr.fitted_slope == loglog_fit(ns, [np.median(rec[n]) for n in ns])[0]


def test_stability_exponent():
    slope, excess = stability_exponent((0.02, 0.05, 0.1))
    assert slope >= 1.7
    t = np.array([0.02, 0.05, 0.1])
    assert np.all(excess > 0)
    # quadratic lower bound with a positive fitted constant
    c = (excess / t ** 2).min()
    assert c > 0
    assert np.allclose(excess, perturbed_strip_excess(t))
