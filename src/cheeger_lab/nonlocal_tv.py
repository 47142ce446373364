"""Continuum functionals: TV, non-local TV_h, smoothing, and property checks.

Non-local TV uses the indicator kernel over geodesic balls,

    TV_h(f) = (1/h^{m+1}) int int_{d_M(x,y) <= h} |f(x) - f(y)|,

and is evaluated by quadrature. On the circle and the flat torus the double
integral is computed with exact cell-pair kernels (hat-interpolation of the
shift profile), which reproduces indicator values such as the half-arc's
TV_h = 2 to near machine precision. On the sphere a generic weighted pair
sum is used; functions invariant under rotation about an axis take a much
more accurate latitude-band path. The smoothing Lambda_a divides by the
kernel's quadrature mass at each point, so its bump needs no normalising
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy.spatial import cKDTree

from .errors import (DegenerateFunction, ResolutionTooCoarse,
                     UnsupportedDimension)
from .quadrature import QuadratureGrid, grid_for_scale

_SIGMA = {1: 1.0, 2: 4.0 / 3.0, 3: np.pi / 2.0}

# the constant C of the bias, monotonicity and smoothing-chain inequalities
CHECK_C = 10.0
# latitude bands of the zonal TV_h reduction on the sphere
ZONAL_BANDS = 2400
# Kernel pairs per block of the pair sums of `smooth` and zonal TV_h: a cache
# budget. One array of a block takes 512 kB, so each elementwise step runs in
# a core's L2 cache (2 MB on the Xeon measured: the sphere smoothing-chain
# check at (0.1, 0.2) took 0.35-0.44 s with 16 k-128 k pairs a block against
# 0.75 s with 1 M), and memory stays bounded whatever the number of pairs.
_BLOCK_PAIRS = 65_536


def surface_tension(m) -> float:
    """sigma_eta = integral of |z_1| over the unit ball in R^m."""
    try:
        return _SIGMA[m]
    except KeyError:
        raise UnsupportedDimension(f"surface tension implemented for m in 1..3, got {m}")


@dataclass
class ContinuumFunction:
    """A function on the manifold, given by an ambient-coordinate evaluator."""
    evaluator: callable                  # (k, d) ambient -> (k,) values
    bound: float = None                  # known sup-norm bound, if any
    tv_exact: float = None               # closed-form TV, if known
    zonal_axis: np.ndarray = None        # sphere: f depends on x . axis only

    def __call__(self, points):
        return np.asarray(self.evaluator(np.asarray(points, dtype=float)))


def indicator_function(ref) -> ContinuumFunction:
    """ContinuumFunction wrapping a reference set's indicator."""
    return ContinuumFunction(evaluator=ref.indicator, bound=1.0,
                             tv_exact=ref.perimeter, zonal_axis=ref.zonal_axis)


def constant_function(c) -> ContinuumFunction:
    return ContinuumFunction(evaluator=lambda p: np.full(len(np.atleast_2d(p)), float(c)),
                             bound=abs(c), tv_exact=0.0)


# ---------------------------------------------------------------------------
# Smoothing kernel
# ---------------------------------------------------------------------------

@dataclass
class SmoothingKernel:
    """Compactly supported bump profile phi on [0,1) with bandwidth a."""
    a: float

    def profile(self, t):
        """Unnormalized bump exp(-1/(1-t^2)) for t < 1, else 0."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ts = t[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ts * ts))
        return out


# ---------------------------------------------------------------------------
# Non-local TV
# ---------------------------------------------------------------------------

def tv_nonlocal(f: ContinuumFunction, h, grid: QuadratureGrid) -> float:
    """TV_h(f) by quadrature over geodesically h-close pairs."""
    mf = grid.manifold
    if not 0.0 < h < np.inf:
        raise ValueError(f"h={h} must be positive and finite")
    if h > mf.h_max:
        raise ValueError(f"h={h} exceeds the admissible scale {mf.h_max}")
    if grid.spacing > h / 4.0 + 1e-12:
        raise ResolutionTooCoarse(
            f"grid spacing {grid.spacing:.4g} coarser than h/4 = {h / 4:.4g}")
    if grid.lattice_shape:
        return _tvh_lattice(f(grid.nodes).reshape(grid.lattice_shape), h)
    if f.zonal_axis is not None:
        return _tvh_sphere_zonal(f, h, mf)
    return _tvh_sphere_pairs(f(grid.nodes), h, grid)


def _hat_cdf(x, center, s):
    """Integral of the unit-peak hat at `center` (half-width s) up to x."""
    u = np.clip((np.asarray(x, dtype=float) - center) / s, -1.0, 1.0)
    return s * np.where(u <= 0.0, 0.5 * (u + 1.0) ** 2, 1.0 - 0.5 * (1.0 - u) ** 2)


@lru_cache(maxsize=64)
def _circle_lag_pairs(n, h):
    """Lags l >= 1, as (k, 1) offsets, with the folded weights 2 W(l).

    W(l) = int hat_l(z) 1_{|z|<=h} dz times cell length; lags l and -l give
    the same roll sum, so one roll serves both. Zero weights are dropped.
    """
    s = 1.0 / n
    lmax = int(np.floor(h / s)) + 1
    ls = np.arange(1, lmax + 1)
    w = _hat_cdf(h, ls * s, s) - _hat_cdf(-h, ls * s, s)
    keep = w != 0.0
    return ls[keep, None], 2.0 * w[keep]


@lru_cache(maxsize=32)
def _torus_offset_weights(n, h):
    """W(p,q) = int hat_p(zu) hat_q(zv) 1_{|z|<=h} dz on the offset lattice."""
    s = 1.0 / n
    pmax = int(np.floor(h / s)) + 1
    offs = [(p, q) for p in range(-pmax, pmax + 1)
            for q in range(-pmax, pmax + 1)
            if (p, q) != (0, 0) and (p * p + q * q) * s * s <= (h + s) ** 2 * 2]
    offs = np.array(offs)
    msim = 512
    out = np.zeros(len(offs))
    for i, (p, q) in enumerate(offs):
        zu = np.linspace((p - 1) * s, (p + 1) * s, msim + 1)
        hat_u = np.maximum(0.0, 1.0 - np.abs(zu - p * s) / s)
        c = np.sqrt(np.maximum(h * h - zu * zu, 0.0))
        inner = _hat_cdf(c, q * s, s) - _hat_cdf(-c, q * s, s)
        g = hat_u * inner
        # composite Simpson
        wts = np.ones(msim + 1)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        out[i] = (2.0 * s / msim) / 3.0 * np.dot(wts, g)
    keep = out > 0.0
    return offs[keep], out[keep]


@lru_cache(maxsize=32)
def _torus_offset_pairs(n, h):
    """Offsets with (p, q) and (-p, -q) folded into one, their weights summed.

    Both give the same sum of |v - roll(v)| over the lattice, so one roll
    serves the pair; an offset whose mirror has no weight stays alone.
    """
    offs, wts = _torus_offset_weights(n, h)
    index = {(int(p), int(q)): i for i, (p, q) in enumerate(offs)}
    keep, folded = [], []
    for i, (p, q) in enumerate(offs):
        j = index.get((-int(p), -int(q)))
        if j is None:
            keep.append(i)
            folded.append(wts[i])
        elif i < j:
            keep.append(i)
            folded.append(wts[i] + wts[j])
    return offs[keep], np.array(folded)


def _tvh_lattice(values, h):
    """TV_h on the periodic n^m lattice: a weighted sum of roll differences."""
    n, m = values.shape[0], values.ndim
    offs, wts = (_circle_lag_pairs if m == 1 else _torus_offset_pairs)(n, h)
    # (1/n)^m as a product of m factors; (1/n) ** 2 can round differently
    cell = math.prod([1.0 / n] * m)
    # the lattice tiled twice per axis: the window at o % n of length n is
    # np.roll(values, -o), read without a copy
    padded = np.tile(values, (2,) * m)
    diff = np.empty_like(values)
    total = 0.0
    for off, w in zip(offs, wts):
        np.subtract(values, padded[tuple(slice(o % n, o % n + n) for o in off)], out=diff)
        sraw = np.abs(diff, out=diff).sum()
        total += cell * sraw * w
    return total / h ** (m + 1)


def _tvh_sphere_pairs(values, h, grid):
    tree = cKDTree(grid.nodes)
    pairs = tree.query_pairs(grid.manifold.tree_radius(h), output_type="ndarray")
    if not len(pairs):
        return 0.0
    i, j = pairs[:, 0], pairs[:, 1]
    terms = grid.weights[i] * grid.weights[j] * np.abs(values[i] - values[j])
    return 2.0 * float(terms.sum()) / h ** 3


def _tvh_sphere_zonal(f: ContinuumFunction, h, mf):
    """Axisymmetric band reduction: exact in azimuth, midpoint in latitude."""
    axis = np.asarray(f.zonal_axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    e1 = mf.frame(axis[None])[0][0]  # a unit tangent at the pole
    z_edges = np.linspace(-1.0, 1.0, ZONAL_BANDS + 1)
    zc = 0.5 * (z_edges[:-1] + z_edges[1:])
    w = 1.0 / ZONAL_BANDS
    sin_t = np.sqrt(np.maximum(1.0 - zc * zc, 0.0))
    pts = mf.radius * (np.outer(zc, axis) + np.outer(sin_t, e1))
    fv = f(pts)
    alpha = h / mf.radius
    cos_alpha = np.cos(alpha)
    # Bands more than alpha apart in colatitude have cphi >= 1, a zero term:
    # pair each band only with the bands within alpha plus two mean band
    # widths, a slack far above the rounding of cphi near 1.
    neg_theta = -np.arccos(zc)  # increasing with the band index
    reach = alpha + 2.0 * np.pi / ZONAL_BANDS
    lo = np.searchsorted(neg_theta, neg_theta - reach, side="left")
    hi = np.searchsorted(neg_theta, neg_theta + reach, side="right")
    ends = np.cumsum(hi - lo)  # ends[b]: pairs of bands 0..b
    run_sums = []
    start = 0
    while start < ZONAL_BANDS:
        # a run of consecutive bands holding about _BLOCK_PAIRS pairs
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + _BLOCK_PAIRS, side="right")))
        counts = hi[start:stop] - lo[start:stop]
        i = np.repeat(np.arange(start, stop), counts)
        j = np.arange(counts.sum()) + np.repeat(lo[start:stop] - (np.cumsum(counts) - counts),
                                                counts)
        A = zc[i] * zc[j]
        B = sin_t[i] * sin_t[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            cphi = np.where(B > 0, (cos_alpha - A) / np.where(B > 0, B, 1.0),
                            np.where(cos_alpha - A <= 0, -1.0, 1.0))
        phi_star = np.arccos(np.clip(cphi, -1.0, 1.0))
        diff = np.abs(fv[i] - fv[j])
        run_sums.append(float(np.sum(phi_star / np.pi * diff)))
        start = stop
    # fsum adds the run sums exactly: where the runs end moves the total
    # only through each run's own rounding
    return (w * w) * math.fsum(run_sums) / h ** 3


# ---------------------------------------------------------------------------
# Local TV for smooth functions
# ---------------------------------------------------------------------------

def tv_local_smooth(f: ContinuumFunction, grid: QuadratureGrid) -> float:
    """TV(f) = integral of |grad f| by quadrature (smooth f)."""
    return float(np.dot(grid.weights, gradient_norm_fd(f, grid)))


def gradient_norm_fd(f: ContinuumFunction, grid: QuadratureGrid):
    """|grad f| at grid nodes by central differences of step spacing / 8
    along the manifold's tangent frame (``frame`` and ``walk``)."""
    mf = grid.manifold
    step = grid.spacing / 8.0
    x = grid.intrinsic
    comps = ((f(mf.walk(x, e, step)) - f(mf.walk(x, e, -step))) / (2.0 * step)
             for e in mf.frame(x))
    return reduce(np.hypot, comps, 0.0)


# ---------------------------------------------------------------------------
# Smoothing operator
# ---------------------------------------------------------------------------

def smooth(f: ContinuumFunction, kernel: SmoothingKernel,
           grid: QuadratureGrid) -> ContinuumFunction:
    """Normalized geodesic kernel average Lambda_a f, by shared quadrature."""
    a = kernel.a
    mf = grid.manifold
    if not 0.0 < a < np.inf:
        raise ValueError(f"bandwidth a={a} must be positive and finite")
    if a > mf.h_max:
        raise ValueError(f"bandwidth a={a} exceeds the admissible scale")
    if grid.spacing > a / 4.0 + 1e-12:
        raise ResolutionTooCoarse(
            f"grid spacing {grid.spacing:.4g} coarser than a/4 = {a / 4:.4g}")
    node_vals = f(grid.nodes)
    node_coords, box = mf.tree_coords(grid.nodes)
    node_tree = cKDTree(node_coords, boxsize=box)
    reach = mf.tree_radius(a)
    weights = grid.weights
    # evaluation points per block, so a block holds about _BLOCK_PAIRS pairs
    block = max(1, int(_BLOCK_PAIRS / (grid.size * mf.ball_volume(a))))

    def evaluator(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        coords = mf.tree_coords(pts)[0]
        # the leaf order of a tree on the points: consecutive points are
        # close, so a block's kernel balls share their nodes
        order = cKDTree(coords, boxsize=box).indices
        out = np.empty(len(pts))
        for start in range(0, len(pts), block):
            stop = min(start + block, len(pts))
            idx = order[start:stop]
            qt = cKDTree(coords[idx], boxsize=box)
            pairs = qt.sparse_distance_matrix(node_tree, reach, output_type="ndarray")
            rows, cols = pairs["i"], pairs["j"]
            dgeo = mf.tree_geodesic(pairs["v"])
            phi = kernel.profile(dgeo / a)
            wphi = weights[cols] * phi
            num = np.bincount(rows, weights=wphi * node_vals[cols], minlength=stop - start)
            den = np.bincount(rows, weights=wphi, minlength=stop - start)
            if np.any(den == 0):
                raise ResolutionTooCoarse("empty kernel support at an evaluation point")
            out[idx] = num / den
        return out

    return ContinuumFunction(evaluator=evaluator, bound=f.bound,
                             zonal_axis=f.zonal_axis)


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    name: str
    entries: list = field(default_factory=list)  # per-parameter dicts
    passed: bool = True

    def add(self, **kw):
        self.entries.append(kw)
        if kw.get("ok") is False:
            self.passed = False

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "entries": self.entries}


def check_bias_inequality(manifold, ref, h_list,
                          grid_factor=8) -> CheckReport:
    """TV_h(1_E) <= (1 + C h^2) sigma * TV(1_E) on a reference set."""
    if not len(h_list):
        # a report with no entries would read as passed
        raise ValueError("bias inequality check needs at least one scale h")
    rep = CheckReport(name="bias_inequality")
    sigma = surface_tension(manifold.m)
    f = indicator_function(ref)
    tv = ref.perimeter
    for h in sorted(h_list):
        grid = grid_for_scale(manifold, h, grid_factor)
        tvh = tv_nonlocal(f, h, grid)
        ratio = tvh / (sigma * tv)
        ok = ratio <= 1.0 + CHECK_C * h * h
        rep.add(h=h, tv_h=tvh, ratio=ratio, fitted_c=(ratio - 1.0) / (h * h), ok=ok)
    return rep


def check_monotonicity(f: ContinuumFunction, h, a_list, manifold,
                       grid_factor=8) -> CheckReport:
    """TV_a(f) <= C TV_h(f) for h <= a (subadditivity consequence)."""
    if not len(a_list):
        # a report with no entries would read as passed
        raise ValueError("monotonicity check needs at least one scale a")
    if any(a < h for a in a_list):
        raise ValueError("monotonicity check requires h <= every a")
    rep = CheckReport(name="monotonicity")
    # each scale gets its own exact grid; values are scale-comparable
    tvh = tv_nonlocal(f, h, grid_for_scale(manifold, h, grid_factor))
    if tvh < 1e-14:
        rep.add(h=h, degenerate=True, ok=True)
        return rep
    for a in sorted(a_list):
        tva = tv_nonlocal(f, a, grid_for_scale(manifold, a, grid_factor))
        ratio = tva / tvh
        rep.add(h=h, a=a, ratio=ratio, ok=ratio <= CHECK_C)
    return rep


def check_smoothing_chain(manifold, ref, h, a,
                          grid_factor=8) -> CheckReport:
    """sigma TV(Lambda_a f) vs TV_h(f), and the L1 closeness of Lambda_a f.

    Statement-level check: the shrunk scale h(1 - C2 a) of the convolution
    monotonicity bound is evaluated at h itself since C2 is non-constructive.
    """
    if h > a:
        raise ValueError("requires h <= a")
    C = CHECK_C
    rep = CheckReport(name="smoothing_chain")
    sigma = surface_tension(manifold.m)
    f = indicator_function(ref)
    grid = grid_for_scale(manifold, min(h, a), grid_factor)
    tvh = tv_nonlocal(f, h, grid)
    lam = smooth(f, SmoothingKernel(a=a), grid)
    grad = gradient_norm_fd(lam, grid)
    tv_sm = float(np.dot(grid.weights, grad))
    sup = f.bound  # 1, the bound of an indicator
    lhs = sigma * tv_sm
    bound = (1.0 + C * (h * h + a)) * tvh + C * (h / (a * a) + a) * sup
    l1 = float(np.dot(grid.weights, np.abs(lam(grid.nodes) - f(grid.nodes))))
    l1_ok = l1 <= C * a * tvh if tvh > 1e-14 else l1 <= 1e-12
    grad_max = float(grad.max())
    rep.add(h=h, a=a, sigma_tv_smooth=lhs, tv_h=tvh, bound=bound,
            ok=lhs <= bound, chain_ratio=lhs / tvh if tvh > 0 else np.nan)
    rep.add(h=h, a=a, l1_diff=l1, l1_over_a_tvh=l1 / (a * tvh) if tvh > 0 else 0.0,
            ok=l1_ok)
    rep.add(h=h, a=a, grad_max=grad_max, grad_bound=C / a * sup,
            ok=grad_max <= C / a * max(sup, 1e-300))
    return rep


def cheeger_functional_form(f: ContinuumFunction, grid: QuadratureGrid) -> float:
    """TV(f) / ||f - median(f)||_L1, the functional Cheeger representation.

    The median is the weighted median of the grid's node values, where the
    quadrature L1 distance to a constant is least.
    """
    vals = f(grid.nodes)
    if np.any(vals < -1e-9) or np.any(vals > 1.0 + 1e-9):
        raise ValueError("functional form requires f in [0, 1]")
    if vals.max() - vals.min() < 1e-12:
        raise DegenerateFunction("function is essentially constant")
    order = np.argsort(vals, kind="stable")
    cw = np.cumsum(grid.weights[order])
    med = vals[order[np.searchsorted(cw, 0.5 * cw[-1])]]
    denom = float(np.dot(grid.weights, np.abs(vals - med)))
    if denom < 1e-12:
        raise DegenerateFunction("function is essentially constant")
    if f.tv_exact is not None:
        tv = f.tv_exact
    else:
        tv = tv_local_smooth(f, grid)
    return tv / denom
