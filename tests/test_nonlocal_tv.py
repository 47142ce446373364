import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from cheeger_lab import nonlocal_tv
from cheeger_lab.errors import (DegenerateFunction, ResolutionTooCoarse,
                                UnsupportedDimension)
from cheeger_lab.manifold import (CircleArc, SphereCap, TorusStrip, _wrap_dist,
                                  get_manifold)
from cheeger_lab.nonlocal_tv import (CheckReport, ContinuumFunction, bump,
                                     cheeger_functional_form,
                                     check_bias_inequality, check_monotonicity,
                                     check_smoothing_chain, constant_function,
                                     gradient_norm_fd, indicator_function,
                                     smooth, surface_tension, tv_local_smooth,
                                     tv_nonlocal)
from cheeger_lab.quadrature import build_grid, grid_for_scale

CIRCLE = get_manifold("circle")
TORUS = get_manifold("flat_torus_2")
SPHERE = get_manifold("sphere_2")


def mc_surface_tension(m, n=200_000, seed=0):
    """Rejection-sampled Monte Carlo for the kernel constant, with its s.e."""
    rng = np.random.default_rng(seed)
    vol = {1: 2.0, 2: np.pi, 3: 4 * np.pi / 3}[m]
    x = rng.uniform(-1, 1, size=(n, m))
    inside = (x * x).sum(1) <= 1.0
    vals = np.abs(x[inside, 0])
    est = vals.mean() * vol
    se = vals.std(ddof=1) / np.sqrt(inside.sum()) * vol
    return est, se


def test_surface_tension_closed_forms():
    assert surface_tension(1) == 1.0
    assert surface_tension(2) == pytest.approx(4 / 3, abs=1e-15)
    assert surface_tension(3) == pytest.approx(np.pi / 2, abs=1e-15)
    with pytest.raises(UnsupportedDimension):
        surface_tension(4)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_surface_tension_monte_carlo(m):
    est, se = mc_surface_tension(m)
    assert abs(est - surface_tension(m)) < 3 * se + 1e-12


def test_circle_half_arc_tvh_exact():
    f = indicator_function(CircleArc(CIRCLE, center=0.25))
    for h in (0.02, 0.1, 0.25):
        g = grid_for_scale(CIRCLE, h, 8)
        assert tv_nonlocal(f, h, g) == pytest.approx(2.0, abs=1e-9)


def test_circle_tvh_matches_monte_carlo():
    # independent oracle: TV_h = h^{-2} E|f(x)-f(y)| 1_{d<=h} over uniform pairs
    def arc(points):  # the arc of length 0.3 centred at t = 0.1
        return (_wrap_dist(CIRCLE.to_intrinsic(points), 0.1) <= 0.15).astype(float)

    f = ContinuumFunction(evaluator=arc)
    h = 0.08
    rng = np.random.default_rng(1)
    n = 400_000
    x, y = rng.random(n), rng.random(n)
    d = np.abs(np.mod(x - y, 1.0))
    d = np.minimum(d, 1 - d)
    fx = arc(CIRCLE.to_ambient(x))
    fy = arc(CIRCLE.to_ambient(y))
    vals = np.abs(fx - fy) * (d <= h) / h ** 2
    mc, se = vals.mean(), vals.std(ddof=1) / np.sqrt(n)
    g = grid_for_scale(CIRCLE, h, 8)
    assert abs(tv_nonlocal(f, h, g) - mc) < 3 * se


def test_torus_strip_tvh():
    f = indicator_function(TorusStrip(TORUS, axis=0, offset=0.0))
    sigma = surface_tension(2)
    for h in (0.02, 0.05):
        g = grid_for_scale(TORUS, h, 8)
        ratio = tv_nonlocal(f, h, g) / (sigma * 2.0)
        assert 0.98 <= ratio <= 1.02


def test_sphere_hemisphere_tvh_bound():
    cap = SphereCap(SPHERE, pole=[0, 0, 1])
    f = indicator_function(cap)
    sigma = surface_tension(2)
    for h in (0.04, 0.08):
        g = grid_for_scale(SPHERE, h, 4)
        ratio = tv_nonlocal(f, h, g) / (sigma * cap.perimeter)
        assert ratio <= 1 + 10 * h * h
        assert ratio > 0.9


def test_sphere_pair_path_agrees_with_zonal():
    cap = SphereCap(SPHERE, pole=[0, 0, 1])
    zonal = indicator_function(cap)
    generic = ContinuumFunction(evaluator=cap.indicator)
    h = 0.1
    g = grid_for_scale(SPHERE, h, 4)
    tz = tv_nonlocal(zonal, h, g)
    tp = tv_nonlocal(generic, h, g)
    assert abs(tp - tz) / tz < 0.05


def test_tvh_resolution_guard_and_scale_limit():
    f = indicator_function(CircleArc(CIRCLE, center=0.25))
    coarse = build_grid(CIRCLE, 30)
    with pytest.raises(ResolutionTooCoarse):
        tv_nonlocal(f, 0.05, coarse)
    fine = build_grid(CIRCLE, 400)
    with pytest.raises(ValueError, match="admissible"):
        tv_nonlocal(f, 0.3, fine)


@pytest.mark.parametrize("name", ["circle", "flat_torus_2", "sphere_2"])
@pytest.mark.parametrize("scale", [np.nan, 0.0, -0.05, -np.inf, np.inf])
def test_scales_must_be_positive_and_finite(name, scale):
    mf = get_manifold(name)
    g = grid_for_scale(mf, 0.1, 4)
    f = indicator_function(mf.default_minimizer())
    with pytest.raises(ValueError, match=rf"^h={scale} must be positive and finite"):
        tv_nonlocal(f, scale, g)
    with pytest.raises(ValueError, match=rf"^bandwidth a={scale} must be positive and finite"):
        smooth(f, scale, g)


def test_tvh_layer_cake_three_levels():
    # |a-b| = sum over thresholds of indicator differences, so TV_h is additive
    def three_level(p):
        t = CIRCLE.to_intrinsic(p)
        return np.where(t < 0.3, 0.0, np.where(t < 0.7, 1.0, 2.0))

    f = ContinuumFunction(evaluator=three_level)
    f1 = ContinuumFunction(evaluator=lambda p: (three_level(p) >= 1).astype(float))
    f2 = ContinuumFunction(evaluator=lambda p: (three_level(p) >= 2).astype(float))
    h = 0.05
    g = grid_for_scale(CIRCLE, h, 8)
    assert tv_nonlocal(f, h, g) == pytest.approx(
        tv_nonlocal(f1, h, g) + tv_nonlocal(f2, h, g), abs=1e-12)


def test_tv_local_smooth_sin():
    f = ContinuumFunction(
        evaluator=lambda p: np.sin(2 * np.pi * CIRCLE.to_intrinsic(p)))
    g = build_grid(CIRCLE, 800)
    assert tv_local_smooth(f, g) == pytest.approx(4.0, abs=1e-4)


def test_tv_local_smooth_torus_and_sphere():
    ft = ContinuumFunction(
        evaluator=lambda p: np.sin(2 * np.pi * TORUS.to_intrinsic(p)[..., 0]))
    gt = build_grid(TORUS, 120)
    assert tv_local_smooth(ft, gt) == pytest.approx(4.0, abs=1e-3)
    # zonal height function z on the unit-area sphere: TV = integral |grad z|
    fs = ContinuumFunction(
        evaluator=lambda p: SPHERE.to_intrinsic(p)[..., 2])
    gs = build_grid(SPHERE, 4000)
    # |grad z| = sin(theta)/r; integral = (pi/4)/r... computed via quadrature oracle
    gsz = SPHERE.to_intrinsic(gs.nodes)[..., 2]
    oracle = float(np.dot(gs.weights, np.sqrt(1 - gsz ** 2) / SPHERE.radius))
    assert tv_local_smooth(fs, gs) == pytest.approx(oracle, rel=1e-2)


def test_smooth_preserves_constants_and_range():
    g = build_grid(CIRCLE, 400)
    a = 0.05
    out = smooth(constant_function(0.37), a, g)
    assert np.allclose(out(g.nodes), 0.37, atol=1e-13)
    arc = CircleArc(CIRCLE, center=0.25)
    lam = smooth(indicator_function(arc), a, g)
    vals = lam(g.nodes)
    assert vals.min() >= -1e-12 and vals.max() <= 1 + 1e-12
    # support geometry: 1 at the midpoint, 0 at the antipode, mixed near edges
    mid = CIRCLE.to_ambient(np.array([0.25]))
    anti = CIRCLE.to_ambient(np.array([0.75]))
    near = CIRCLE.to_ambient(np.array([0.5 + 0.01]))
    assert lam(mid)[0] == pytest.approx(1.0, abs=1e-12)
    assert lam(anti)[0] == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < lam(near)[0] < 1.0


def test_smooth_l1_distance_bound():
    g = build_grid(CIRCLE, 800)
    a = 0.05
    arc = CircleArc(CIRCLE, center=0.25)
    f = indicator_function(arc)
    lam = smooth(f, a, g)
    l1 = g.integrate(np.abs(lam(g.nodes) - f(g.nodes)))
    assert l1 <= 2 * a


def test_smooth_resolution_guard():
    g = build_grid(CIRCLE, 40)
    with pytest.raises(ResolutionTooCoarse):
        smooth(constant_function(1.0), 0.05, g)


@pytest.mark.parametrize("mf", [CIRCLE, TORUS, SPHERE], ids=lambda mf: mf.name)
def test_smooth_of_an_empty_point_set_is_empty(mf):
    lam = smooth(constant_function(1.0), 0.1, grid_for_scale(mf, 0.1))
    out = lam(np.empty((0, mf.d)))
    assert out.shape == (0,) and out.dtype == float


def test_bias_inequality_reports():
    rep = check_bias_inequality(CIRCLE, CircleArc(CIRCLE, center=0.0),
                                [0.05, 0.1])
    assert isinstance(rep, CheckReport) and rep.passed
    for e in rep.entries:
        assert e["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_bias_inequality_refuses_an_empty_scale_list():
    with pytest.raises(ValueError, match="at least one scale"):
        check_bias_inequality(CIRCLE, CircleArc(CIRCLE, center=0.0), [])


def test_monotonicity_check_and_degenerate():
    f = indicator_function(CircleArc(CIRCLE, center=0.25))
    rep = check_monotonicity(f, 0.02, [0.05, 0.1, 0.2], CIRCLE)
    assert rep.passed
    for e in rep.entries:
        assert e["ratio"] == pytest.approx(1.0, abs=1e-9)  # exact on the circle
    zero = constant_function(0.5)
    rep = check_monotonicity(zero, 0.02, [0.05], CIRCLE)
    assert rep.entries[0].get("degenerate")
    with pytest.raises(ValueError):
        check_monotonicity(f, 0.1, [0.05], CIRCLE)


def test_monotonicity_refuses_an_empty_scale_list():
    # with no scale a the report would hold no entry and read as passed
    f = indicator_function(CircleArc(CIRCLE, center=0.25))
    for func in (f, constant_function(0.5)):
        with pytest.raises(ValueError, match="at least one scale"):
            check_monotonicity(func, 0.02, [], CIRCLE)


def test_smoothing_chain_circle():
    rep = check_smoothing_chain(CIRCLE, CircleArc(CIRCLE, center=0.25),
                                h=0.01, a=0.05)
    assert rep.passed
    chain = rep.entries[0]
    assert 1.9 <= chain["sigma_tv_smooth"] <= 2.1


def test_cheeger_functional_form():
    g = build_grid(CIRCLE, 1000)
    arc = indicator_function(CircleArc(CIRCLE, center=0.25))
    assert cheeger_functional_form(arc, g) == pytest.approx(4.0, abs=1e-6)
    # smooth competitor is no better than the constant's bound
    f = ContinuumFunction(
        evaluator=lambda p: 0.5 * (1 + np.sin(2 * np.pi * CIRCLE.to_intrinsic(p))),
        tv_exact=2.0)
    val = cheeger_functional_form(f, g)
    assert val >= 4.0 - 1e-9
    # defined outside [0, 1] too: 2 f has twice the TV and the L1 distance
    doubled = ContinuumFunction(evaluator=lambda p: 2.0 * arc(p), tv_exact=4.0)
    assert cheeger_functional_form(doubled, g) == pytest.approx(4.0, abs=1e-6)
    for c in (0.3, 2.0):
        with pytest.raises(DegenerateFunction):
            cheeger_functional_form(constant_function(c), g)


def test_functional_form_denominator_is_the_least_l1_distance():
    # with TV = 1 the form is 1 / denominator; the denominator is the L1
    # distance to the weighted median, never above that to any node value
    def t(p):
        return CIRCLE.to_intrinsic(p)

    def uv(p):
        return TORUS.to_intrinsic(p)

    def z(p):
        return SPHERE.to_intrinsic(p)[..., 2]

    gc, gt, gs = build_grid(CIRCLE, 400), build_grid(TORUS, 40), build_grid(SPHERE, 1500)
    cases = [
        (gc, CircleArc(CIRCLE, center=0.37).indicator),
        (gc, lambda p: 0.5 * (1 + np.sin(2 * np.pi * t(p)))),
        (gc, lambda p: t(p) ** 3),
        (gt, TorusStrip(TORUS, axis=1, offset=0.3).indicator),
        (gt, lambda p: uv(p)[..., 0] * uv(p)[..., 1]),
        (gt, lambda p: 0.25 * (2 + np.sin(2 * np.pi * uv(p)[..., 0])
                               + np.cos(2 * np.pi * uv(p)[..., 1]))),
        (gs, SphereCap(SPHERE, pole=[1.0, 2.0, -0.5]).indicator),
        (gs, lambda p: 0.5 * (1 + z(p))),
        (gs, lambda p: z(p) ** 2)]
    for grid, ev in cases:
        f = ContinuumFunction(evaluator=ev, tv_exact=1.0)
        denom = 1.0 / cheeger_functional_form(f, grid)
        vals = f(grid.nodes)
        least = min(grid.integrate(np.abs(vals - c)) for c in np.unique(vals))
        # 1 / (1 / d) may round d by an ulp either way
        assert least * (1 - 1e-12) <= denom <= least * (1 + 1e-12)


def test_gradient_bound_of_smoothed_indicator():
    g = build_grid(CIRCLE, 800)
    a = 0.05
    lam = smooth(indicator_function(CircleArc(CIRCLE, center=0.25)), a, g)
    assert gradient_norm_fd(lam, g).max() <= 10.0 / a


def _tvh_sphere_zonal_dense(f, h, mf, n_bands=2400):
    """All band pairs, no banding: the reference for the zonal TV_h path."""
    axis = np.asarray(f.zonal_axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    ref = np.zeros(3)
    ref[np.argmin(np.abs(axis))] = 1.0
    e1 = np.cross(axis, ref)
    e1 /= np.linalg.norm(e1)
    z_edges = np.linspace(-1.0, 1.0, n_bands + 1)
    zc = 0.5 * (z_edges[:-1] + z_edges[1:])
    w = 1.0 / n_bands
    sin_t = np.sqrt(np.maximum(1.0 - zc * zc, 0.0))
    pts = mf.radius * (np.outer(zc, axis) + np.outer(sin_t, e1))
    fv = f(pts)
    cos_alpha = np.cos(h / mf.radius)
    A = np.outer(zc, zc)
    B = np.outer(sin_t, sin_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        cphi = np.where(B > 0, (cos_alpha - A) / np.where(B > 0, B, 1.0),
                        np.where(cos_alpha - A <= 0, -1.0, 1.0))
    phi_star = np.arccos(np.clip(cphi, -1.0, 1.0))
    diff = np.abs(fv[:, None] - fv[None, :])
    total = (w * w) * float(np.sum(phi_star / np.pi * diff))
    return total / h ** 3


@pytest.mark.parametrize("h", [0.01, 0.04, 0.1, 0.25])
def test_sphere_zonal_tvh_matches_dense_band_sum(h):
    pole = np.random.default_rng(7).standard_normal(3)
    funcs = [indicator_function(SphereCap(SPHERE, pole=[0, 0, 1])),
             indicator_function(SphereCap(SPHERE, pole=pole)),
             ContinuumFunction(evaluator=lambda p: 0.5 * (1 + SPHERE.to_intrinsic(p)[..., 2]),
                               zonal_axis=np.array([0.0, 0.0, 1.0]))]
    g = grid_for_scale(SPHERE, h, 4)
    for f in funcs:
        dense = _tvh_sphere_zonal_dense(f, h, SPHERE)
        assert dense > 0
        assert tv_nonlocal(f, h, g) == pytest.approx(dense, rel=1e-12, abs=0)


def _zonal_traced(f, h):
    """_tvh_sphere_zonal(f, h) and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        value = nonlocal_tv._tvh_sphere_zonal(f, h, SPHERE)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("h", [0.04, 0.25])
def test_sphere_zonal_tvh_band_runs_match_the_dense_band_sum(monkeypatch, h):
    f = indicator_function(SphereCap(SPHERE, pole=[0.3, -0.2, 0.9]))
    dense = _tvh_sphere_zonal_dense(f, h, SPHERE)
    monkeypatch.setattr(nonlocal_tv, "_BLOCK_PAIRS", 1)
    per_band, per_band_peak = _zonal_traced(f, h)  # one band per run
    monkeypatch.setattr(nonlocal_tv, "_BLOCK_PAIRS", 1e15)
    one_run, one_run_peak = _zonal_traced(f, h)
    assert per_band == pytest.approx(dense, rel=1e-12, abs=0)
    assert one_run == pytest.approx(dense, rel=1e-12, abs=0)
    assert abs(per_band - one_run) <= 4 * np.spacing(one_run)
    # a run holds one band's pairs, not all of them
    assert per_band_peak < one_run_peak / 10


def test_pair_sums_stay_within_a_cache_budget():
    # with all pairs in one block these peak at 219 and 51 MB
    cap = indicator_function(SphereCap(SPHERE, pole=[0.3, -0.2, 0.9]))
    assert _zonal_traced(cap, 0.25)[1] < 16 * 2 ** 20
    g = grid_for_scale(SPHERE, 0.1, 4)
    lam = smooth(cap, 0.2, g)
    tracemalloc.start()
    try:
        lam(g.nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _lag_weight(n, h, lag):
    """Unfolded W(l) = int hat_l(z) 1_{|z|<=h} dz for a signed circle lag."""
    s = 1.0 / n
    return nonlocal_tv._hat_cdf(h, lag * s, s) - nonlocal_tv._hat_cdf(-h, lag * s, s)


def _torus_offset_weights(n, h):
    """Unfolded W(p,q) = int hat_p(zu) hat_q(zv) 1_{|z|<=h} dz on the whole
    offset lattice, one composite Simpson rule (512 subintervals) in zu per
    signed offset; offsets of zero weight are dropped."""
    s = 1.0 / n
    pmax = int(np.floor(h / s)) + 1
    offs = np.array([(p, q) for p in range(-pmax, pmax + 1)
                     for q in range(-pmax, pmax + 1) if (p, q) != (0, 0)])
    msim = 512
    out = np.zeros(len(offs))
    for i, (p, q) in enumerate(offs):
        zu = np.linspace((p - 1) * s, (p + 1) * s, msim + 1)
        hat_u = np.maximum(0.0, 1.0 - np.abs(zu - p * s) / s)
        c = np.sqrt(np.maximum(h * h - zu * zu, 0.0))
        inner = nonlocal_tv._hat_cdf(c, q * s, s) - nonlocal_tv._hat_cdf(-c, q * s, s)
        wts = np.ones(msim + 1)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        out[i] = (2.0 * s / msim) / 3.0 * np.dot(wts, hat_u * inner)
    keep = out > 0.0
    return offs[keep], out[keep]


@pytest.mark.parametrize("name", ["circle", "flat_torus_2"])
@pytest.mark.parametrize("h", [0.02, 0.05, 0.1, 0.25])
def test_lattice_folded_offsets_match_full_roll_sum(name, h):
    mf = get_manifold(name)
    rng = np.random.default_rng(3)
    ref = (CircleArc(mf, center=0.3) if name == "circle"
           else TorusStrip(mf, axis=1, offset=0.3))
    axes = tuple(range(mf.m))
    # the grid factors of the bias checks and of the torus chain checks
    for factor in (8, 4):
        g = grid_for_scale(mf, h, factor)
        n = g.lattice_shape[0]
        lattices = [rng.standard_normal(g.lattice_shape),
                    indicator_function(ref)(g.nodes).reshape(g.lattice_shape)]
        if name == "circle":
            # every lag l != 0 with its own weight, both signs rolled
            lmax = int(np.floor(h * n)) + 1
            offs = np.array([[l] for l in range(-lmax, lmax + 1) if l != 0])
            wts = np.array([_lag_weight(n, h, l) for (l,) in offs])
        else:
            offs, wts = _torus_offset_weights(n, h)
        folded, folded_wts = nonlocal_tv._lattice_offsets(n, h, mf.m)
        assert len(folded) < len(offs)
        # every offset with a weight is rolled itself or through its mirror
        covered = {tuple(o) for o in np.concatenate([folded, -folded]).tolist()}
        assert covered >= {tuple(o) for o, w in zip(offs.tolist(), wts) if w > 0}
        for v in lattices:
            full = sum((1.0 / n) ** mf.m * np.abs(v - np.roll(v, -o, axis=axes)).sum() * w
                       for o, w in zip(offs, wts)) / h ** (mf.m + 1)
            assert full > 0
            assert nonlocal_tv._tvh_lattice(v, h) == pytest.approx(full, rel=1e-12, abs=0)
            # the tiled windows read exactly the rolled lattices: equal bit for bit
            cell = math.prod([1.0 / n] * mf.m)
            rolled = 0.0
            for o, w in zip(folded, folded_wts):
                rolled += cell * np.abs(v - np.roll(v, -o, axis=axes)).sum() * w
            assert nonlocal_tv._tvh_lattice(v, h) == rolled / h ** (mf.m + 1)


_ANALYTIC_GRADIENTS = {
    # f and |grad f| of the intrinsic coordinates: arc lengths on the circle
    # and the torus, unit directions on the sphere of radius r
    "circle": (lambda t: np.sin(2 * np.pi * t),
               lambda t: 2 * np.pi * np.abs(np.cos(2 * np.pi * t))),
    "flat_torus_2": (lambda uv: np.sin(2 * np.pi * uv[:, 0]) + np.cos(2 * np.pi * uv[:, 1]),
                     lambda uv: 2 * np.pi * np.hypot(np.cos(2 * np.pi * uv[:, 0]),
                                                     np.sin(2 * np.pi * uv[:, 1]))),
    "sphere_2": (lambda u: u[:, 2],
                 lambda u: np.sqrt(1.0 - u[:, 2] ** 2) / SPHERE.radius),
}


@pytest.mark.parametrize("name", ["circle", "flat_torus_2", "sphere_2"])
def test_gradient_norm_fd_matches_analytic_gradient(name):
    mf = get_manifold(name)
    f, grad = _ANALYTIC_GRADIENTS[name]
    g = grid_for_scale(mf, 0.1, 4)
    step = g.spacing / 8.0
    fd = gradient_norm_fd(ContinuumFunction(evaluator=lambda p: f(mf.to_intrinsic(p))), g)
    exact = grad(mf.to_intrinsic(g.nodes))
    # central differences err by at most |f'''| step^2 / 6 per component;
    # |f'''| <= (2 pi)^3 here (1/r^3 < (2 pi)^3 on the sphere), and two
    # components add at most a factor sqrt(2)
    assert np.max(np.abs(fd - exact)) <= (2 * np.pi) ** 3 * step ** 2 / 4
    assert np.max(exact) > 1.0


@pytest.mark.parametrize("name", ["circle", "flat_torus_2", "sphere_2"])
def test_smooth_blocks_change_nothing(monkeypatch, name):
    mf = get_manifold(name)
    f = indicator_function(mf.default_minimizer())
    a = 0.1
    g = grid_for_scale(mf, a, 4)
    pts = np.concatenate([mf.sample(1001, seed=3).points, g.nodes])
    monkeypatch.setattr(nonlocal_tv, "_BLOCK_PAIRS", 1e15)
    whole = smooth(f, a, g)(pts)
    trees = []

    def counting_tree(data, **kwargs):
        trees.append(len(data))
        return cKDTree(data, **kwargs)

    # about 50 points a block; 1001 + g.size is no multiple of 49 or 50
    monkeypatch.setattr(nonlocal_tv, "_BLOCK_PAIRS", 50 * g.size * mf.ball_volume(a))
    monkeypatch.setattr(nonlocal_tv, "cKDTree", counting_tree)
    blocked = smooth(f, a, g)(pts)
    # the node tree, the tree that orders the points, then one per block
    assert trees[1] == len(pts)
    block = trees[2]
    assert block in (49, 50) and len(trees) == 3 + len(pts) // block
    assert 0 < trees[-1] < block
    assert np.allclose(blocked, whole, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", ["circle", "flat_torus_2", "sphere_2"])
def test_smooth_blocks_are_compact_in_any_point_order(monkeypatch, name):
    mf = get_manifold(name)
    f = indicator_function(mf.default_minimizer())
    a = 0.1
    g = grid_for_scale(mf, a, 4)
    pts = np.concatenate([mf.sample(1001, seed=3).points, g.nodes])
    perm = np.random.default_rng(4).permutation(len(pts))
    in_order = smooth(f, a, g)(pts)
    trees = []

    def recording_tree(data, **kwargs):
        trees.append(np.array(data))
        return cKDTree(data, **kwargs)

    monkeypatch.setattr(nonlocal_tv, "_BLOCK_PAIRS", 50 * g.size * mf.ball_volume(a))
    monkeypatch.setattr(nonlocal_tv, "cKDTree", recording_tree)
    shuffled = np.empty(len(pts))
    shuffled[perm] = smooth(f, a, g)(pts[perm])
    assert np.allclose(shuffled, in_order, rtol=1e-13, atol=0)
    # after the node tree and the ordering tree, each block spans a small
    # part of the manifold: its coordinate extent is far below the cloud's
    blocks = trees[2:]
    assert len(blocks) > 20
    extent = np.mean([np.ptp(b, axis=0).sum() for b in blocks])
    assert extent < 0.25 * np.ptp(trees[1], axis=0).sum()


def _oracle_points(mf, g):
    """Samples, grid nodes, seam points and nodes pushed a fraction of a cell."""
    step = g.spacing / 8.0
    x = g.intrinsic[::7]
    pushed = [mf.walk(x, e, s) for e in mf.frame(x) for s in (step, -step)]
    if mf.name == "sphere_2":
        # the poles, where the grid's latitude bands close up, and the equator
        seam = mf.to_ambient(np.array([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]]))
    else:
        # intrinsic -1e-17 wraps to 1.0, outside the periodic unit box
        edge = [-1e-17, 0.0, 1.0 - 1e-17, 0.5]
        seam = mf.to_ambient(np.array(edge if mf.m == 1 else
                                      [[u, v] for u in edge for v in edge]))
    return np.concatenate([mf.sample(200, seed=8).points, g.nodes[::5], seam, *pushed])


@pytest.mark.parametrize("name", ["circle", "flat_torus_2", "sphere_2"])
def test_smooth_matches_a_dense_geodesic_sum(name):
    # brute force: every (point, node) pair through intrinsic_distance
    mf = get_manifold(name)
    a = 0.1
    g = grid_for_scale(mf, a, 4)
    f = ContinuumFunction(evaluator=lambda p: 2.0 + np.cos(20.0 * p[:, 0]) * p[:, 1])
    pts = _oracle_points(mf, g)
    y = mf.to_intrinsic(g.nodes)[None, ...]
    dense = []
    for chunk in np.array_split(mf.to_intrinsic(pts), len(pts) // 64):
        wphi = g.weights * bump(mf.intrinsic_distance(chunk[:, None, ...], y) / a)
        dense.append(wphi @ f(g.nodes) / wphi.sum(axis=1))
    dense = np.concatenate(dense)
    assert np.allclose(smooth(f, a, g)(pts), dense, rtol=1e-12, atol=0)


def test_smooth_empty_support_guard_fires_in_any_block(monkeypatch):
    # 40 nodes 0.025 apart: the midpoints are 0.0125 from every node, beyond
    # a = 0.01; the stated spacing is a lie, so only the evaluator can tell
    g = dataclasses.replace(build_grid(CIRCLE, 40), spacing=0.0)
    monkeypatch.setattr(nonlocal_tv, "_BLOCK_PAIRS", 1.0)
    lam = smooth(constant_function(1.0), 0.01, g)
    pts = np.concatenate([g.nodes[:7], CIRCLE.to_ambient(np.array([0.05]))])
    with pytest.raises(ResolutionTooCoarse, match="empty kernel support"):
        lam(pts)
    assert np.array_equal(lam(g.nodes[:7]), np.ones(7))


@pytest.mark.parametrize("name,h,a", [("circle", 0.02, 0.1),
                                      ("flat_torus_2", 0.1, 0.2),
                                      ("sphere_2", 0.1, 0.2)])
def test_smoothing_chain_takes_one_gradient(monkeypatch, name, h, a):
    mf = get_manifold(name)
    ref = mf.default_minimizer()
    calls = []

    def counting_gradient(f, grid):
        calls.append(grid)
        return gradient_norm_fd(f, grid)

    monkeypatch.setattr(nonlocal_tv, "gradient_norm_fd", counting_gradient)
    rep = check_smoothing_chain(mf, ref, h, a, grid_factor=4)
    assert len(calls) == 1
    g = grid_for_scale(mf, h, 4)
    lam = smooth(indicator_function(ref), a, g)
    grad = gradient_norm_fd(lam, g)
    assert rep.entries[0]["sigma_tv_smooth"] == surface_tension(mf.m) * float(
        np.dot(g.weights, grad))
    assert rep.entries[2]["grad_max"] == float(grad.max())
