"""Discrete-to-continuum bridges.

* nearest-sample transport surrogate (exact geodesic nearest, reported
  sup-displacement = covering radius over the evaluation nodes); a vertex
  function u pulls back to the nodes as ``u[assignment]``;
* the exact infinity-transport distance of a circle cloud to the volume
  measure;
* interpolation of vertex functions to the manifold (kernel-smoothed
  pullback along the transport);
* Fraenkel asymmetry against the closed-form minimizer families: the
  asymmetry and the nearest member's parameter, from ``match_minimizer``;
* mass fixing by attaching or removing a geodesic ball;
* U-statistic concentration experiments for the graph TV of a fixed function;
* L1 error of a discrete cut against the minimizer family;
* log-log rate fitting with a seeded bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import (BandwidthTooSmall, ConfigError, InfeasibleMass,
                     InsufficientData)
from .manifold import Circle, PointCloud, _wrap
from .nonlocal_tv import CHECK_C, ContinuumFunction, smooth, surface_tension
from .proximity_graph import build_graph, gtv
from .quadrature import QuadratureGrid


def schedule_exponents(m):
    """Parameter-schedule exponents as functions of the intrinsic dimension.

    ``k_delta`` is the decay the schedule asks of the infinity-transport
    distance, delta_n <~ n^{-k_delta}. For m = 1 it cannot be met: on the
    circle delta_n is of order n^{-1/2} (a Kuiper-type statistic, see
    ``circle_transport_delta``), not n^{-2/3}. So the default circle schedule
    eps = 2 n^{-k_eps} = 2 n^{-1/2} keeps delta_n / eps near 0.3 at every n,
    outside the theorem's delta_n << eps hypothesis.
    """
    return {"k_delta": 2.0 / (1 + 2 * m),
            "k_theta": 1.0 / (2 * (1 + 2 * m)),
            "k_eps": 3.0 / (2 + 4 * m),
            "k_zeta": 3.0 / (1 + 2 * m)}


def epsilon_errors(manifold, n_list, epsilons):
    """One message per epsilon(n) that is not a positive finite number, or
    that exceeds the manifold's ``epsilon0``."""
    errors = []
    for n, eps in zip(n_list, epsilons):
        if not (math.isfinite(eps) and eps > 0.0):
            errors.append(f"epsilon(n={n}) = {eps!r} is not a positive finite number")
        elif eps > manifold.epsilon0:
            errors.append(f"epsilon(n={n}) = {eps:.4g} exceeds the manifold "
                          f"limit {manifold.epsilon0}")
    return errors


# ---------------------------------------------------------------------------
# Transport surrogate
# ---------------------------------------------------------------------------

@dataclass
class TransportSurrogate:
    cloud: PointCloud
    assignment: np.ndarray       # (N,) index of the nearest sample point
    sup_displacement: float      # covering radius over the nodes
    grid: QuadratureGrid = None  # retained when nodes came from a grid


_TIE = 1e-12  # geodesic distances this close to the nearest one are ties


def transport_assign(cloud: PointCloud, nodes) -> TransportSurrogate:
    """Exact geodesic-nearest sample assignment (ties to smallest index)."""
    grid = nodes if isinstance(nodes, QuadratureGrid) else None
    pts = grid.nodes if grid is not None else np.atleast_2d(np.asarray(nodes, float))
    mf = cloud.manifold
    if grid is not None and grid.manifold.name != mf.name:
        raise ValueError(f"the grid's manifold {grid.manifold.name} is not "
                         f"the cloud's manifold {mf.name}")
    samples = cloud.points
    coords, box = mf.tree_coords(samples)
    tree = cKDTree(coords, boxsize=box)
    x = mf.tree_coords(pts)[0]
    d, idx = tree.query(x, k=2)
    assignment = idx[:, 0].copy()
    # the second nearest sample may tie; then take the smallest index among
    # every sample within _TIE of the geodesic minimum (a chord gap is at most
    # the geodesic gap, so the doubled radius holds them all)
    for r in np.flatnonzero(d[:, 1] <= d[:, 0] + 2 * _TIE):
        cand = np.asarray(tree.query_ball_point(x[r], d[r, 0] + 2 * _TIE))
        g = mf.geodesic_distance(pts[r][None, :], samples[cand])
        assignment[r] = cand[g <= g.min() + _TIE].min()
    sup = float(mf.geodesic_distance(pts, samples[assignment]).max())
    return TransportSurrogate(cloud=cloud, assignment=assignment,
                              sup_displacement=sup, grid=grid)


def circle_transport_delta(cloud: PointCloud) -> float:
    """Exact infinity-transport distance between a circle cloud's empirical
    measure and the volume measure, in normalized arclength.

    The cyclic monotone matching sends the k-th smallest angle t_(k) to the
    arc [(k-1)/n + c, k/n + c]. With D_k = t_(k) - k/n its worst displacement
    is max(max_k D_k + 1/n - c, c - min_k D_k), least at the midpoint c, so
    delta = (max_k D_k - min_k D_k + 1/n) / 2. Sorting costs O(n log n).
    Every point of the circle is moved to a sample, so delta is at least the
    covering radius.
    """
    if not isinstance(cloud.manifold, Circle):
        raise ValueError("circle_transport_delta requires a Circle cloud")
    t = np.sort(cloud.manifold.to_intrinsic(cloud.points))
    n = len(t)
    d = t - np.arange(1, n + 1) / n
    return float((d.max() - d.min() + 1.0 / n) / 2.0)


# ---------------------------------------------------------------------------
# Interpolation operator
# ---------------------------------------------------------------------------

def interpolate(u, surrogate: TransportSurrogate, a) -> ContinuumFunction:
    """Pullback of a vertex function along the transport, smoothed by Lambda_a."""
    if a < 2.0 * surrogate.sup_displacement:
        raise BandwidthTooSmall(
            f"bandwidth {a:.4g} below twice the covering radius "
            f"{surrogate.sup_displacement:.4g}")
    if surrogate.grid is None:
        raise ValueError("interpolation requires a quadrature-grid surrogate")
    u = np.asarray(u, dtype=float)
    cloud = surrogate.cloud

    def pullback_eval(points):
        sub = transport_assign(cloud, np.atleast_2d(points))
        return u[sub.assignment]

    return smooth(ContinuumFunction(evaluator=pullback_eval), a, surrogate.grid)


# ---------------------------------------------------------------------------
# Fraenkel asymmetry
# ---------------------------------------------------------------------------

def match_minimizer(fvals, grid: QuadratureGrid):
    """(alpha, best parameter of the grid manifold's minimizer family) for a
    function given by its values on the grid nodes: alpha is the L1 distance
    to the nearest member.

    |f - 1_E| = |f| + 1_E (|f - 1| - |f|), so the family member E that is
    nearest to f is the one with the least sum of ``gain`` over its nodes.
    """
    mf = grid.manifold
    gain = grid.weights * (np.abs(fvals - 1.0) - np.abs(fvals))
    param = mf.match_family(grid.nodes, gain)
    member = mf.minimizer(param).indicator(grid.nodes)
    return grid.integrate(np.abs(fvals - member)), param


# ---------------------------------------------------------------------------
# Mass fixing
# ---------------------------------------------------------------------------

@dataclass
class AdjustedSet:
    indicator: ContinuumFunction
    volume: float                    # exact bookkept volume
    symmetric_difference: float      # volume moved, equals |correction|
    perimeter_increment: float       # analytic bound C r^{m-1} for the ball
    radius: float
    center: np.ndarray = None


def fix_mass(indicator, volume, target_mass, grid: QuadratureGrid) -> AdjustedSet:
    """Adjust a set's volume to ``target_mass`` by a disjoint/contained ball.

    ``indicator`` is a callable on ambient points of the grid's manifold;
    ``volume`` its known volume. The ball radius is the manifold's closed-form
    ``ball_radius_for_volume``, so the output volume bookkeeping is exact and
    the moved volume equals the correction.
    """
    if not 0.0 < target_mass < 1.0:
        raise InfeasibleMass(f"target mass {target_mass} outside (0, 1)")
    manifold = grid.manifold
    dv = target_mass - volume
    if abs(dv) < 1e-12:
        f = ContinuumFunction(evaluator=lambda p: np.asarray(indicator(p), float))
        return AdjustedSet(indicator=f, volume=volume, symmetric_difference=0.0,
                           perimeter_increment=0.0, radius=0.0)
    try:
        r = manifold.ball_radius_for_volume(abs(dv))
    except ValueError as exc:  # no geodesic ball has that volume
        raise InfeasibleMass(f"correction {abs(dv):.6g}: {exc}") from exc
    adding = dv > 0
    center = _ball_site(indicator, grid, r, exterior=adding)
    if center is None:
        raise InfeasibleMass("no room for the correction ball")

    def evaluator(points):
        base = np.asarray(indicator(points), dtype=float)
        inball = (manifold.geodesic_distance(points, center[None, :]) <= r)
        return np.where(inball, 1.0 if adding else 0.0, base)

    f = ContinuumFunction(evaluator=evaluator)
    perim = manifold.ball_perimeter(r)
    return AdjustedSet(indicator=f, volume=volume + dv,
                       symmetric_difference=abs(dv),
                       perimeter_increment=float(perim), radius=float(r),
                       center=center)


def _ball_site(ind, grid, r, exterior):
    """Node whose r-ball avoids (exterior) or lies in (interior) the set."""
    manifold = grid.manifold
    fvals = np.asarray(ind(grid.nodes), dtype=float) > 0.5
    want = ~fvals if exterior else fvals
    cand = np.flatnonzero(want)
    if not len(cand):
        return None
    if isinstance(manifold, Circle):
        return _ball_site_circle(fvals, grid, r, exterior)
    # prefer deep candidates: sort by distance to the nearest opposite node
    opp = grid.nodes[~want]
    if not len(opp):
        return grid.nodes[cand[0]]
    opp_tree = cKDTree(opp)
    dist, _ = opp_tree.query(grid.nodes[cand])
    order = cand[np.argsort(-dist, kind="stable")]
    node_tree = cKDTree(grid.nodes)
    reach = manifold.tree_radius(r) * 1.0000001
    for i in order[:64]:
        near = node_tree.query_ball_point(grid.nodes[i], reach)
        near = np.asarray(near, dtype=int)
        dg = manifold.geodesic_distance(grid.nodes[i][None, :], grid.nodes[near])
        inside = near[np.atleast_1d(dg) <= r]
        if np.all(want[inside]):
            return grid.nodes[i]
    return None


def _ball_site_circle(fvals, grid, r, exterior):
    """Place the arc flush against a set boundary so perimeter is preserved."""
    manifold = grid.manifold
    t = manifold.to_intrinsic(grid.nodes)
    order = np.argsort(t, kind="stable")
    t, vals = t[order], fvals[order]
    n = len(t)
    trans = np.flatnonzero(vals != np.roll(vals, 1))
    if not len(trans):
        # set is empty or full on the grid; any center works for the valid case
        return manifold.to_ambient(np.array(0.25)) if exterior != bool(vals[0]) else None
    edges = []
    for k in trans:
        prev = (k - 1) % n
        edges.append((_wrap(t[prev] + _wrap(t[k] - t[prev]) / 2.0), bool(vals[k])))
    # run length after each edge, up to the next transition
    for i, (pos, starts_inside) in enumerate(edges):
        nxt = edges[(i + 1) % len(edges)][0]
        run = _wrap(nxt - pos)
        if run == 0.0:
            run = 1.0
        if starts_inside != exterior and run >= 2.0 * r - 1e-12:
            return manifold.to_ambient(np.array(_wrap(pos + r)))
    return None


# ---------------------------------------------------------------------------
# U-statistic concentration
# ---------------------------------------------------------------------------

ZETA_GRID = (0.0, 0.25, 0.5, 1.0)  # exceedance levels above the bias bound


@dataclass
class UStatReport:
    manifold: str
    tv: float
    entries: list = field(default_factory=list)

    def stds(self):
        return [e["std"] for e in self.entries]


def ustat_concentration(manifold, f: ContinuumFunction, n_list, epsilon_rule,
                        trials, seed) -> UStatReport:
    """Mean/std/exceedance of GTV of a fixed function over random clouds.

    Each n's epsilon must be a positive finite number no larger than the
    manifold's ``epsilon0``, as in a converge config (``ConfigError``)."""
    if f.tv_exact is None:
        raise ValueError("requires a function with known total variation")
    if trials < 2:
        raise InsufficientData(f"the std of the GTV needs at least 2 trials, got {trials}")
    if not len(n_list):
        raise InsufficientData("need at least one sample size n")
    small = [n for n in n_list if n < 2]
    if small:
        raise InsufficientData(f"a graph needs at least 2 points, got n={small[0]}")
    # a repeated n would be sampled twice and reported as two entries
    values, counts = np.unique(n_list, return_counts=True)
    repeated = values[counts > 1].tolist()
    if repeated:
        raise ConfigError(f"n_list repeats n: {repeated}")
    # every epsilon is checked before a cloud is sampled, as `converge` does
    epsilons = [float(epsilon_rule(n)) if callable(epsilon_rule) else float(epsilon_rule)
                for n in n_list]
    errors = epsilon_errors(manifold, n_list, epsilons)
    if errors:
        raise ConfigError(errors)
    sigma = surface_tension(manifold.m)
    tv = f.tv_exact
    rep = UStatReport(manifold=manifold.name, tv=tv)
    rng = np.random.default_rng(seed)
    for n, eps in zip(n_list, epsilons):
        vals = np.empty(trials)
        for t in range(trials):
            cloud = manifold.sample(n, seed=int(rng.integers(2 ** 62)))
            # the graph goes before the next is built: one held at a time
            vals[t] = gtv(build_graph(cloud, eps), f(cloud.points))
        # the bias inequality's (1 + C eps^2) sigma TV
        bound0 = sigma * tv * (1.0 + CHECK_C * eps * eps)
        exceed = {float(z): float(np.mean(vals > bound0 + z)) for z in ZETA_GRID}
        rep.entries.append({"n": int(n), "epsilon": eps,
                            "mean": float(vals.mean()),
                            "std": float(vals.std(ddof=1)),
                            "exceedance": exceed})
    return rep


# ---------------------------------------------------------------------------
# Cut L1 error
# ---------------------------------------------------------------------------

class CutError(NamedTuple):
    l1_error: float
    discrete_error: float
    sup_displacement: float


def cut_l1_error(cut, cloud: PointCloud, grid: QuadratureGrid) -> CutError:
    """L1 distance of the transported cut indicator to the minimizer family
    of the cloud's manifold, on a grid of that manifold."""
    u = np.zeros(cloud.n)
    u[np.asarray(cut.subset, dtype=int)] = 1.0
    sur = transport_assign(cloud, grid)
    # match directly on the node values; the family covers complements
    alpha, param = match_minimizer(u[sur.assignment], grid)
    disc = float(np.mean(u != grid.manifold.minimizer(param).indicator(cloud.points)))
    disc = min(disc, 1.0 - disc)
    return CutError(l1_error=float(alpha), discrete_error=disc,
                    sup_displacement=sur.sup_displacement)


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    schedule: dict
    fitted_slope: float
    slope_ci: tuple
    per_n_median: dict
    n_values: list

    def as_dict(self):
        return {"schedule": self.schedule, "fitted_slope": self.fitted_slope,
                "slope_ci": list(self.slope_ci),
                "per_n_median": {str(k): v for k, v in self.per_n_median.items()},
                "n_values": [int(n) for n in self.n_values]}


def loglog_fit(x, y):
    """Least-squares (slope, intercept) of log y against log x.

    ``y`` is (len(x),) or (len(x), k), one fit per column; it is floored at
    1e-300 before the log.
    """
    lx = np.log(np.asarray(x, dtype=float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(np.maximum(y, 1e-300)), rcond=None)
    return coef


N_BOOT = 1000     # bootstrap resamples of the slope CI
MIN_TRIALS = 5    # errors per n that a rate fit needs


def fit_rate(records, m=1, seed=0) -> RateReport:
    """OLS slope of log median error vs log n, with a seeded bootstrap CI.

    ``records``: mapping n -> list of nonnegative errors.
    """
    records = {int(n): np.asarray(v, dtype=float) for n, v in dict(records).items()}
    ns = sorted(records)
    if len(ns) < 3:
        raise InsufficientData("need at least 3 distinct n values")
    if any(len(records[n]) < MIN_TRIALS for n in ns):
        raise InsufficientData(f"need at least {MIN_TRIALS} trials per n")
    meds = [float(np.median(records[n])) for n in ns]
    slope = loglog_fit(ns, meds)[0]
    # every resample index in one call, in (draw, n, k) order: row b holds
    # draw b's indices for each n in turn, each below that n's trial count.
    # Bounded draws do not buffer between calls, so this is the stream of one
    # call per (draw, n); then every bootstrap median and slope at once
    rng = np.random.default_rng(seed)
    sizes = [len(records[n]) for n in ns]
    idx = rng.integers(0, np.repeat(sizes, sizes), size=(N_BOOT, sum(sizes)))
    cols = np.split(idx, np.cumsum(sizes)[:-1], axis=1)
    boot_meds = np.stack([np.median(records[n][c], axis=1)
                          for n, c in zip(ns, cols)])
    boot = loglog_fit(ns, boot_meds)[0]
    ci = (float(np.percentile(boot, 5)), float(np.percentile(boot, 95)))
    return RateReport(schedule=schedule_exponents(m), fitted_slope=float(slope),
                      slope_ci=ci, per_n_median=dict(zip(ns, meds)), n_values=ns)


# ---------------------------------------------------------------------------
# Stability-exponent construction (perturbed strips)
# ---------------------------------------------------------------------------

BUMP_WIDTH = 0.45  # tent width; two opposite tents fit in the unit period


def perturbed_strip_excess(t):
    """Perimeter excess of a strip whose boundary is a volume-preserving
    piecewise-linear double tent of L1 size t.

    Two opposite tents of width ``BUMP_WIDTH`` and slope s carry L1 mass
    s * BUMP_WIDTH^2 / 2, so s = 2 t / BUMP_WIDTH^2, and the boundary-length
    excess is the integral of sqrt(1 + g'^2) - 1 over the tent supports.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("need t >= 0")
    s = 2.0 * t / BUMP_WIDTH ** 2
    return 2.0 * BUMP_WIDTH * (np.sqrt(1.0 + s * s) - 1.0)


def stability_exponent(t_list=(0.02, 0.05, 0.1)):
    """Fitted log-log slope of the perimeter excess vs perturbation size."""
    ex = perturbed_strip_excess(t_list)
    return float(loglog_fit(t_list, ex)[0]), ex
