"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(written through to the real stdout so it survives pytest capture). Criteria
are asserted at their stated tolerances; a FAIL line plus a failing assert
means the property genuinely does not hold at the tested scale.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cheeger_lab.consistency import (cut_l1_error, fit_rate, fix_mass,
                                     stability_exponent, ustat_concentration)
from cheeger_lab.cut_solvers import solve_exact, solve_pipeline
from cheeger_lab.harness import run_experiment, validate_config
from cheeger_lab.manifold import CircleArc, SphereCap, TorusStrip, get_manifold
from cheeger_lab.nonlocal_tv import (ContinuumFunction,
                                     cheeger_functional_form,
                                     check_monotonicity, constant_function,
                                     gradient_norm_fd, indicator_function,
                                     smooth, surface_tension, tv_nonlocal)
from cheeger_lab.proximity_graph import build_graph, cut_and_balance, gtv
from cheeger_lab.quadrature import build_grid, grid_for_scale

T0 = time.perf_counter()
# run digests do not depend on the worker count (criterion 12); the cap
# keeps a small machine from holding eight n = 16000 trials in memory at once
WORKERS = min(8, os.cpu_count() or 1)
ROOT = Path(__file__).resolve().parent

CIRCLE = get_manifold("circle")
TORUS = get_manifold("flat_torus_2")
SPHERE = get_manifold("sphere_2")


def report(criterion, passed, detail=""):
    line = f"[acceptance] criterion {criterion:>2}: " \
           f"{'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    try:
        import conftest
        conftest.RESULTS.append(line)
    except ImportError:
        pass


def brute_edges(points, eps):
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


def medians_by_n(records, key):
    by = {}
    for r in records:
        if not r.get("failed"):
            by.setdefault(r["n"], []).append(r[key])
    ns = sorted(by)
    return ns, [float(np.median(by[n])) for n in ns], by


# ---------------------------------------------------------------------------
# 1. pipeline solver agrees with exhaustive enumeration on small instances
# ---------------------------------------------------------------------------

def test_criterion_01_pipeline_matches_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    total, agree, never_smaller = 200, 0, True
    for i in range(total):
        name = "circle" if i % 2 == 0 else "flat_torus_2"
        mf = get_manifold(name)
        n = int(rng.integers(8, 21))
        eps = 0.24 if name == "circle" else 0.45
        cloud = mf.sample(n, seed=1000 + i)
        g = build_graph(cloud, eps)
        ex = solve_exact(g)
        pl = solve_pipeline(g)
        never_smaller &= pl.objective_value >= ex.objective_value - 1e-9
        agree += abs(pl.objective_value - ex.objective_value) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = agree >= 0.95 * total and never_smaller and elapsed < 30.0
    report(1, ok, f"agreement {agree}/{total}, never smaller: "
                  f"{never_smaller}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. graph functionals vs quadratic-time brute force
# ---------------------------------------------------------------------------

def test_criterion_02_brute_force_oracles():
    rng = np.random.default_rng(2)
    names = ["circle", "flat_torus_2", "sphere_2"]
    edges_ok = gtv_ok = cut_ok = 0
    for i in range(50):
        mf = get_manifold(names[i % 3])
        n = int(50 * (2000 / 50) ** rng.random())
        eps = min(0.25, 10.0 / n) if mf.m == 1 else min(0.25, 1.6 * n ** -0.45)
        cloud = mf.sample(n, seed=2000 + i)
        g = build_graph(cloud, eps)
        # the tree's order: compare the pairs sorted by the key i*n + j
        e = g.edges
        edges_ok += (bool((e[:, 0] < e[:, 1]).all())
                     and np.array_equal(e[np.argsort(e[:, 0] * n + e[:, 1])],
                                        brute_edges(cloud.points, eps)))
        u = rng.standard_normal(n)
        gtv_ok += abs(gtv(g, u) - brute_gtv(cloud.points, eps, mf.m, u)) <= 1e-12
        k = int(rng.integers(1, n))
        subset = rng.choice(n, size=k, replace=False)
        ind = np.zeros(n)
        ind[subset] = 1.0
        val, bal = cut_and_balance(g, subset)
        cut_ok += (abs(val - brute_gtv(cloud.points, eps, mf.m, ind)) <= 1e-12
                   and abs(bal - min(k, n - k) / n) <= 1e-15)
    ok = edges_ok == 50 and gtv_ok == 50 and cut_ok == 50
    report(2, ok, f"edges {edges_ok}/50, gtv {gtv_ok}/50, cut {cut_ok}/50")
    assert ok


# ---------------------------------------------------------------------------
# 3. kernel surface-tension constant: closed form and 1e7-sample Monte Carlo
# ---------------------------------------------------------------------------

def _mc_sigma(m, total=10_000_000, seed=0, chunk=1_000_000):
    rng = np.random.default_rng(seed)
    s = s2 = 0.0
    for _ in range(total // chunk):
        x = rng.uniform(-1.0, 1.0, size=(chunk, m))
        y = np.abs(x[:, 0]) * ((x * x).sum(1) <= 1.0)
        s += y.sum()
        s2 += (y * y).sum()
    mean, var = s / total, s2 / total - (s / total) ** 2
    cube = 2.0 ** m
    return mean * cube, np.sqrt(var / total) * cube


def test_criterion_03_surface_tension():
    exact = {1: 1.0, 2: 4.0 / 3.0, 3: np.pi / 2.0}
    closed = all(abs(surface_tension(m) - exact[m]) <= 1e-12 for m in exact)
    mc_ok, details = True, []
    for m in (1, 2, 3):
        est, se = _mc_sigma(m, seed=30 + m)
        mc_ok &= abs(est - exact[m]) <= 3.0 * se
        details.append(f"m={m}: {est:.5f}±{se:.5f}")
    ok = closed and mc_ok
    report(3, ok, f"closed-form 1e-12: {closed}; MC " + ", ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 4. continuum constants by dense search over the isoperimetric ratio
# ---------------------------------------------------------------------------

def test_criterion_04_continuum_references():
    v = np.linspace(0.0, 1.0, 2_000_001)[1:-1]  # includes v = 1/2
    ok, details = True, []
    params = {"circle": (0.1, 0.6), "flat_torus_2": ((0, 0.2), (1, 0.7)),
              "sphere_2": (np.array([0, 0, 1.0]), np.array([1.0, -2, 0.5]))}
    for name in ("circle", "flat_torus_2", "sphere_2"):
        mf = get_manifold(name)
        g = mf.isoperimetric_profile(v) / np.minimum(v, 1.0 - v)
        found = float(g.min())
        rel = abs(found - mf.cheeger_constant) / mf.cheeger_constant
        per_ok = all(
            abs(mf.minimizer(p).perimeter
                - float(mf.isoperimetric_profile(0.5))) <= 1e-12
            for p in params[name])
        ok &= rel <= 1e-6 and per_ok
        details.append(f"{name}: {found:.6f} (rel {rel:.1e}, family {per_ok})")
    report(4, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 5. non-local TV battery and the functional Cheeger lower bound
# ---------------------------------------------------------------------------

def test_criterion_05_nonlocal_calculus():
    t0 = time.perf_counter()
    notes = []
    # circle half-arc: exact value 2 at grid spacing h/8
    f = indicator_function(CircleArc(CIRCLE, center=0.25))
    circ_ok = all(abs(tv_nonlocal(f, h, grid_for_scale(CIRCLE, h, 8)) - 2.0)
                  <= 1e-6 for h in (0.02, 0.1, 0.25))
    notes.append(f"circle exact: {circ_ok}")
    # torus strip ratio in [0.98, 1.02]
    ft = indicator_function(TorusStrip(TORUS, axis=0, offset=0.0))
    sig2 = surface_tension(2)
    torus_ok = True
    for h in (0.02, 0.05):
        r = tv_nonlocal(ft, h, grid_for_scale(TORUS, h, 8)) / (sig2 * 2.0)
        torus_ok &= 0.98 <= r <= 1.02
    notes.append(f"torus ratio: {torus_ok}")
    # sphere hemisphere: ratio <= 1 + 10 h^2
    cap = SphereCap(SPHERE, pole=[0, 0, 1])
    fs = indicator_function(cap)
    sphere_ok = True
    for h in (0.02, 0.04, 0.08):
        r = tv_nonlocal(fs, h, grid_for_scale(SPHERE, h, 4)) / (sig2 * cap.perimeter)
        sphere_ok &= r <= 1.0 + 10.0 * h * h
    notes.append(f"sphere bound: {sphere_ok}")
    # scale comparison TV_a / TV_h <= 10 on the admissible (h, a) grid
    mono_ok = True
    for func, mf, a_list in ((f, CIRCLE, [0.05, 0.1, 0.2]),
                             (ft, TORUS, [0.05, 0.1, 0.2]),
                             (fs, SPHERE, [0.05, 0.1])):
        factor = 4 if mf is SPHERE else 8
        rep = check_monotonicity(func, 0.02, a_list, mf, grid_factor=factor)
        mono_ok &= rep.passed
    notes.append(f"TV_a/TV_h <= 10: {mono_ok}")
    # functional Cheeger form >= C_M - 0.02 for every tested f in [0, 1]
    func_ok = True
    gc = build_grid(CIRCLE, 1000)
    gt = build_grid(TORUS, 96)
    gs = build_grid(SPHERE, 4000)
    circle_fs = [indicator_function(CircleArc(CIRCLE, center=c)) for c in (0.0, 0.37)]
    circle_fs.append(smooth(circle_fs[0], 0.05, gc))
    circle_fs.append(ContinuumFunction(
        evaluator=lambda p: 0.5 * (1 + np.sin(2 * np.pi * CIRCLE.to_intrinsic(p))),
        tv_exact=2.0, bound=1.0))
    torus_fs = [indicator_function(TorusStrip(TORUS, axis=ax, offset=off))
                for ax, off in ((0, 0.0), (1, 0.3))]
    torus_fs.append(smooth(torus_fs[0], 0.05, gt))
    torus_fs.append(ContinuumFunction(
        evaluator=lambda p: 0.5 * (1 + np.sin(2 * np.pi * TORUS.to_intrinsic(p)[..., 0])),
        tv_exact=2.0, bound=1.0))
    sphere_fs = [indicator_function(SphereCap(SPHERE, pole=pp))
                 for pp in ([0, 0, 1], [1.0, 1.0, 0.0])]
    sphere_fs.append(smooth(sphere_fs[0], 0.05,
                            grid_for_scale(SPHERE, 0.05, 4)))
    sphere_fs.append(ContinuumFunction(
        evaluator=lambda p: 0.5 * (1 + SPHERE.to_intrinsic(p)[..., 2]),
        bound=1.0))
    for mf, grid, funcs in ((CIRCLE, gc, circle_fs), (TORUS, gt, torus_fs),
                            (SPHERE, gs, sphere_fs)):
        cm = mf.cheeger_constant
        for func in funcs:
            func_ok &= cheeger_functional_form(func, grid) >= cm - 0.02
    notes.append(f"functional >= C_M - 0.02: {func_ok}")
    elapsed = time.perf_counter() - t0
    ok = (circ_ok and torus_ok and sphere_ok and mono_ok and func_ok
          and elapsed < 300.0)
    report(5, ok, "; ".join(notes) + f"; {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 6. smoothing operator: constants, range, L1 closeness, gradient bound
# ---------------------------------------------------------------------------

def test_criterion_06_smoothing_operator():
    ok, details = True, []
    for mf in (CIRCLE, TORUS, SPHERE):
        ref = mf.default_minimizer()
        f = indicator_function(ref)
        for a in (0.02, 0.05):
            grid = grid_for_scale(mf, a, 4)
            const = smooth(constant_function(0.37), a, grid)(grid.nodes)
            const_ok = bool(np.allclose(const, 0.37, atol=1e-12))
            lam = smooth(f, a, grid)
            vals = lam(grid.nodes)
            range_ok = vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
            tvh = tv_nonlocal(f, a, grid)
            l1 = float(np.dot(grid.weights, np.abs(vals - f(grid.nodes))))
            l1_ok = l1 <= 10.0 * a * tvh
            grad_ok = float(gradient_norm_fd(lam, grid).max()) <= 10.0 / a
            good = const_ok and range_ok and l1_ok and grad_ok
            ok &= good
            if not good:
                details.append(f"{mf.name} a={a}: const={const_ok} "
                               f"range={range_ok} l1={l1_ok} grad={grad_ok}")
    report(6, ok, "all manifolds, a in {0.02, 0.05}" if ok else "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 7/8. convergence sweeps
# ---------------------------------------------------------------------------

def _sweep(tmp_path_factory, name, **schedule):
    out = tmp_path_factory.mktemp(name)
    cfg = validate_config({
        "manifold": "circle", "n_list": [500, 1000, 2000, 4000, 8000, 16000],
        "trials": 10, "seed": 3, "out": str(out), **schedule})
    t0 = time.perf_counter()
    res = run_experiment(cfg, workers=WORKERS)
    res["elapsed"] = time.perf_counter() - t0
    return res


@pytest.fixture(scope="module")
def circle_sweep(tmp_path_factory):
    return _sweep(tmp_path_factory, "circle_sweep")  # eps = 2 n^{-1/2}


@pytest.fixture(scope="module")
def circle_hypothesis_sweep(tmp_path_factory):
    # eps = n^{-1/4}: delta_n / eps -> 0, see criterion 7
    return _sweep(tmp_path_factory, "circle_hypothesis_sweep",
                  epsilon_c=1.0, epsilon_k=0.25)


def test_criterion_07_constant_convergence(circle_hypothesis_sweep):
    """C_n -> sigma_1 C_M = 4 on the circle, where the theorem applies.

    The rate for the discrete Cheeger constant assumes that the
    infinity-transport distance delta_n between the sample and the volume
    measure is small against eps. On the circle delta_n is of order n^{-1/2}
    (exact value: ``circle_transport_delta``). Under the default schedule
    eps = 2 n^{-1/2} the ratio delta_n / eps stays near 0.3 at every n (median
    0.34, 0.35, 0.31, 0.33, 0.34, 0.29 over this n_list), and the medians of
    |C_n - 4| do not fall (0.73 ... 0.67). The exact arc sweep gives the same
    medians and bounds the discrete minimum from above, so no solver can do
    better there: the error is the sample minimum of the boundary cut count,
    whose relative spread ~ (n eps)^{-1/2} decays only like n^{-1/4}.

    This sweep uses eps = n^{-1/4}: k = 1/4 balances the O(eps) bias term of
    the general bound against delta_n / eps ~ n^{-1/2} / eps. The constant
    c = 1 is a choice (the paper fixes none); c = 2 exceeds the circle's
    eps0 = 0.25 at n = 500. The test asserts that the sweep is in the
    hypothesis (median delta_n / eps strictly decreasing in n) before it
    asserts the convergence thresholds.

    Left open: the paper's text beyond the abstract is not in the repo, and
    other readings of the bound give other exponents. The smoothing-chain
    bound a + h / a^2 with a = eps^{1/3} (``check_smoothing_chain``) would
    give k = 3/8, and the circle's O(eps^2) chord bias would give k = 1/6.
    """
    res = circle_hypothesis_sweep
    _, ratio, _ = medians_by_n(
        [{**r, "ratio": r["transport_delta"] / r["epsilon"]}
         for r in res["records"] if not r.get("failed")], "ratio")
    in_hypothesis = all(b < a for a, b in zip(ratio, ratio[1:]))
    ns, med, by = medians_by_n(res["records"], "abs_error")
    steps = sum(b <= a + 1e-12 for a, b in zip(med, med[1:]))
    final_rel = med[-1] / 4.0
    rr = fit_rate({n: by[n] for n in ns}, m=1, seed=0)
    time_ok = res["elapsed"] < 1200.0
    ok = (in_hypothesis and steps >= 4 and final_rel <= 0.10
          and rr.fitted_slope < -0.05 and rr.slope_ci[1] < 0.0 and time_ok)
    report(7, ok,
           f"eps = n^-1/4, delta/eps medians {['%.3f' % x for x in ratio]} "
           f"(strictly decreasing: {in_hypothesis}), "
           f"medians {['%.3f' % x for x in med]}, non-increasing {steps}/5, "
           f"final rel {final_rel:.3f} (need <=0.10), slope {rr.fitted_slope:.3f} "
           f"CI [{rr.slope_ci[0]:.3f}, {rr.slope_ci[1]:.3f}], "
           f"{res['elapsed']:.0f}s")
    assert ok


def test_criterion_08_cut_convergence(circle_sweep, tmp_path):
    ns, med, _ = medians_by_n(circle_sweep["records"], "l1_cut_error")
    steps = sum(b <= a + 1e-12 for a, b in zip(med, med[1:]))
    circle_ok = steps >= 4 and med[-1] <= 0.1
    cfg = validate_config({"manifold": "flat_torus_2", "n_list": [2000, 8000],
                           "trials": 30, "seed": 8, "out": str(tmp_path / "t")})
    tres = run_experiment(cfg, workers=WORKERS)
    _, tmed, _ = medians_by_n(tres["records"], "l1_cut_error")
    torus_ok = tmed[1] < tmed[0]
    ok = circle_ok and torus_ok
    report(8, ok, f"circle medians {['%.4f' % x for x in med]} "
                  f"({steps}/5 non-increasing, final {med[-1]:.4f}); "
                  f"torus {tmed[0]:.4f} -> {tmed[1]:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 9. concentration of the graph TV of a fixed function
# ---------------------------------------------------------------------------

def test_criterion_09_ustat_concentration():
    f = indicator_function(CircleArc(CIRCLE, center=0.25))
    rep = ustat_concentration(CIRCLE, f, [500, 2000, 8000],
                              epsilon_rule=lambda n: 2.0 * n ** -0.5,
                              trials=50, seed=42)
    stds = rep.stds()
    mono = stds[0] > stds[1] > stds[2]
    exc = [e["exceedance"][0.5] for e in rep.entries if e["n"] >= 2000]
    exc_ok = all(x <= 0.05 for x in exc)
    ok = mono and exc_ok
    report(9, ok, f"stds {['%.4f' % s for s in stds]} monotone: {mono}; "
                  f"exceedance@0.5 {exc} <= 5%: {exc_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 10. quadratic stability of strip perturbations
# ---------------------------------------------------------------------------

def test_criterion_10_stability_exponent():
    slope, excess = stability_exponent((0.02, 0.05, 0.1))
    ok = slope >= 1.7 and bool(np.all(excess > 0))
    report(10, ok, f"log-log slope {slope:.3f} (need >= 1.7)")
    assert ok


# ---------------------------------------------------------------------------
# 11. mass fixing on randomized cases
# ---------------------------------------------------------------------------

def test_criterion_11_fix_mass():
    rng = np.random.default_rng(11)
    ok, details = True, []
    grids = {"circle": build_grid(CIRCLE, 800),
             "flat_torus_2": build_grid(TORUS, 64),
             "sphere_2": build_grid(SPHERE, 3000)}
    for name, grid in grids.items():
        mf = get_manifold(name)
        good = 0
        for _ in range(50):
            if name == "circle":
                member = mf.minimizer(float(rng.random()))
            elif name == "flat_torus_2":
                member = mf.minimizer((int(rng.integers(2)), float(rng.random())))
            else:
                member = mf.minimizer(rng.standard_normal(3))
            shift = float(rng.uniform(-0.15, 0.15))
            adj = fix_mass(member.indicator, 0.5, 0.5 + shift, grid)
            good += (abs(adj.volume - (0.5 + shift)) <= 1e-6
                     and adj.symmetric_difference <= abs(shift) + 1e-6)
        ok &= good == 50
        details.append(f"{name} {good}/50")
    report(11, ok, ", ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 12. engineering: determinism, resume, runtime budgets
# ---------------------------------------------------------------------------

def test_criterion_12_engineering(tmp_path):
    raw = {"manifold": "circle", "n_list": [200, 400], "trials": 3, "seed": 12}
    digests = {}
    for w in (1, 4, 16):
        cfg = validate_config({**raw, "out": str(tmp_path / f"w{w}")})
        digests[w] = run_experiment(cfg, workers=w)["digest"]
    workers_ok = len(set(digests.values())) == 1
    victim = sorted((tmp_path / "w1").glob("record_*.json"))[0]
    victim.unlink()
    cfg = validate_config({**raw, "out": str(tmp_path / "w1")})
    resume_ok = run_experiment(cfg, workers=1)["digest"] == digests[1]
    t0 = time.perf_counter()
    unit = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT), "--ignore", str(ROOT / "test_acceptance.py")],
        capture_output=True, text=True)
    unit_elapsed = time.perf_counter() - t0
    unit_ok = unit.returncode == 0 and unit_elapsed < 180.0
    total = time.perf_counter() - T0
    budget_ok = total < 45 * 60
    ok = workers_ok and resume_ok and unit_ok and budget_ok
    report(12, ok, f"digest workers {{1,4,16}} equal: {workers_ok}; "
                   f"crash-resume: {resume_ok}; unit suite "
                   f"{unit_elapsed:.0f}s (<180s, rc={unit.returncode}); "
                   f"acceptance elapsed {total:.0f}s (<2700s)")
    assert ok
