"""Reference manifolds with exact samplers, geodesics, and Cheeger ground truth.

All three manifolds are normalized so the total Riemannian volume is 1:

* ``Circle``    -- circle of circumference 1 embedded in R^2 (radius 1/2pi).
* ``FlatTorus2``-- flat unit-area torus embedded in R^4 as a product of two
  circles of circumference 1.
* ``Sphere2``   -- round sphere of area 1 embedded in R^3 (radius 1/sqrt(4pi)).

Intrinsic coordinates are normalized arclength t in [0,1) for the circle,
(u, v) in [0,1)^2 for the torus, and the ambient unit direction for the
sphere.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi
# farthest a loaded cloud's point may lie from its manifold; sampled points
# lie within a few ulps, and `save` writes them with every digit
ON_MANIFOLD_TOL = 1e-9


def _wrap(x):
    """Map to [0, 1), bit for bit as ``np.mod(x, 1.0)`` with no division.

    For |x| < 1 and for a fractional part f = x - floor(x) the subtraction
    is exact; otherwise both round f + 1 once, so a tiny negative x maps to
    1.0 in both. ±0 maps to +0.0, inf and NaN to NaN.
    """
    return x - np.floor(x)


def _wrap_dist(a, b):
    """Wraparound distance between points of the unit circle [0,1)."""
    d = np.abs(_wrap(a - b))
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (n, d) ambient coordinates
    seed: int
    manifold: "Manifold"

    @property
    def n(self):
        return self.points.shape[0]

    def save(self, path):
        path = Path(path)
        d = self.points.shape[1]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i"] + [f"x{k}" for k in range(d)])
            for i, row in enumerate(self.points):
                w.writerow([i] + [repr(float(v)) for v in row])
        sidecar = {"manifold": self.manifold.name, "n": self.n, "seed": int(self.seed)}
        with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
            json.dump(sidecar, fh, indent=2)

    @staticmethod
    def load(path):
        path = Path(path)
        meta = read_sidecar(path, ("seed", "manifold", "n"))
        if not is_int(meta["seed"]):
            raise ValueError(f"{path}: seed must be an integer, got {meta['seed']!r}")
        if not isinstance(meta["manifold"], str):
            raise ValueError(f"{path}: manifold must be a name, "
                             f"got {meta['manifold']!r}")
        if not (is_int(meta["n"]) and meta["n"] > 0):
            raise ValueError(f"{path}: n must be a positive integer, got {meta['n']!r}")
        mf = get_manifold(meta["manifold"])
        rows = path.read_text().partition("\n")[2]  # below the header
        # loadtxt warns on no rows; a file of none is short of the sidecar's n
        pts = (np.loadtxt(io.StringIO(rows), delimiter=",", ndmin=2)[:, 1:]
               if rows.strip() else np.empty((0, mf.d)))
        # the solvers and certificates trust the label, so the points must fit it
        if pts.shape[1] != mf.d:
            raise ValueError(f"{path}: {pts.shape[1]} coordinates a point, "
                             f"the {mf.name} has {mf.d}")
        if len(pts) != meta["n"]:
            raise ValueError(f"{path}: {len(pts)} points, the sidecar n = {meta['n']}")
        off = float(mf.on_manifold_residual(pts).max(initial=0.0))
        if off > ON_MANIFOLD_TOL:
            raise ValueError(f"{path}: a point lies {off:.3g} off the {mf.name}")
        return PointCloud(points=pts, seed=meta["seed"], manifold=mf)


def read_sidecar(path, keys):
    """The JSON object saved next to `path`, checked to hold every key."""
    with open(path.with_suffix(path.suffix + ".json")) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: the sidecar is not a JSON object")
    for key in keys:
        if key not in meta:
            raise ValueError(f"{path}: the sidecar has no {key!r}")
    return meta


def is_int(v):
    """True for an integer, False for a bool (JSON `true` loads as one)."""
    return isinstance(v, int) and not isinstance(v, bool)


class Manifold:
    """Base interface; concrete kinds below.

    Each kind provides ``_sample(rng, n)``, the ambient points of n uniform
    samples; ``to_intrinsic(points)`` and ``to_ambient(intrinsic)``;
    ``intrinsic_distance(a, b)``, the geodesic distance of points given in
    intrinsic coordinates; ``on_manifold_residual(points)``, each point's
    distance from the manifold; and the geodesic balls' ``ball_volume(r)``,
    ``ball_perimeter(r)`` and ``ball_radius_for_volume(vol)``.
    Each kind also holds its continuum Cheeger facts: ``cheeger_constant``
    C_M, the half-volume minimizer family ``minimizer(param)`` with a
    ``default_minimizer()``, and the isoperimetric profile
    ``isoperimetric_profile(v)``, the least perimeter of a set of volume v.
    And its k-d tree metric: ``tree_coords(points)`` is (coords, boxsize) of a
    tree whose distance d is monotone in the geodesic one,
    ``tree_geodesic(d)``, and a ball of radius ``tree_radius(r)`` holds every
    point within geodesic distance r, in ambient and in tree coordinates.
    And its steps: ``frame(x)``, m orthonormal tangent fields at intrinsic x;
    ``walk(x, e, step)``, the ambient point a step along one; and
    ``match_family(points, gain)``, the minimizer of least ``gain`` sum.
    """

    name: str
    m: int  # intrinsic dimension
    d: int  # ambient dimension
    # conservative admissible length-scale for graph/nonlocal constructions
    epsilon0: float = 0.25
    h_max: float = 0.25

    def sample(self, n, seed) -> PointCloud:
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(seed)
        pts = self._sample(rng, n)
        return PointCloud(points=pts, seed=int(seed), manifold=self)

    def geodesic_distance(self, x, y):
        return self.intrinsic_distance(self.to_intrinsic(x), self.to_intrinsic(y))

    def __repr__(self):
        return f"<{type(self).__name__} m={self.m} d={self.d}>"


def _best_half_window(coord, gain):
    """(least sum, offset) of ``gain`` over the window {wrap(coord - o) < 1/2}.

    The node set changes only where o or o + 1/2 crosses a coordinate, so one
    offset per gap between these breakpoints is exact. Gaps <= 1e-9 are rounding
    (t_k - 1/2 vs t_{k+N/2} on an even lattice) and are skipped."""
    order = np.argsort(coord, kind="stable")
    t = coord[order]
    b = np.sort(_wrap(np.concatenate([t, t - 0.5])))
    gaps = np.diff(np.append(b, b[0] + 1.0))
    mid = _wrap(b + 0.5 * gaps)[gaps > 1e-9]
    # the window [o, o + 1/2) on the doubled coordinates [0, 2)
    tt = np.concatenate([t, t + 1.0])
    csum = np.concatenate([[0.0], np.cumsum(np.tile(gain[order], 2))])
    scores = csum[np.searchsorted(tt, mid + 0.5)] - csum[np.searchsorted(tt, mid)]
    k = int(np.argmin(scores))
    return float(scores[k]), float(mid[k])


class FlatTorus(Manifold):
    """The flat unit-period m-torus: the circle (m = 1) and the 2-torus.

    Its k-d tree lives in the periodic unit box of the intrinsic
    coordinates, where the tree's distance is the geodesic distance; in the
    ambient embedding the chord is shorter, so r holds an r-ball there too.
    """

    cheeger_constant = 4.0

    def __init__(self):
        self.radius = 1.0 / TWO_PI  # per-factor circle radius; unit volume

    def _sample(self, rng, n):
        t = rng.random((n, self.m))
        return self.to_ambient(t[:, 0] if self.m == 1 else t)

    def intrinsic_distance(self, a, b):
        d = _wrap_dist(a, b)
        return d if self.m == 1 else np.sqrt(np.sum(d * d, axis=-1))

    def to_ambient(self, t):
        """One (cos, sin) pair, times the radius, per coordinate of t; the
        circle's t is a scalar per point."""
        t = np.asarray(t, dtype=float)
        ang = TWO_PI * (t[..., None] if self.m == 1 else t)
        pairs = np.stack([self.radius * np.cos(ang), self.radius * np.sin(ang)], axis=-1)
        return pairs.reshape(*pairs.shape[:-2], self.d)

    def to_intrinsic(self, points):
        points = np.asarray(points, dtype=float)
        t = _wrap(np.arctan2(points[..., 1::2], points[..., 0::2]) / TWO_PI)
        return t[..., 0] if self.m == 1 else t

    def on_manifold_residual(self, points):
        points = np.asarray(points, dtype=float)
        pairs = points.reshape(*points.shape[:-1], self.m, 2)
        return np.abs(np.linalg.norm(pairs, axis=-1) - self.radius).max(axis=-1)

    def tree_coords(self, points):
        t = self.to_intrinsic(points).reshape(len(points), self.m)
        t[t == 1.0] = 0.0  # _wrap(-1e-17) == 1.0 lies outside the periodic box
        return t, 1.0

    def tree_radius(self, r):
        return r

    def tree_geodesic(self, d):
        return d

    def frame(self, x):
        """The coordinate axes, the same unit tangents at every point."""
        return np.eye(self.m)

    def walk(self, x, e, step):
        """Ambient point reached from intrinsic x by `step` along the unit e."""
        return self.to_ambient(x + step * e)

    def match_family(self, points, gain):
        """Parameter of the minimizer whose nodes have the least sum of
        ``gain``: the best half-window on each axis, ties to the lower axis."""
        coord = self.to_intrinsic(points).reshape(len(points), self.m)
        best = [_best_half_window(coord[:, k], gain) for k in range(self.m)]
        axis = min(range(self.m), key=lambda k: best[k][0])
        return self.window_param(axis, best[axis][1])


class Circle(FlatTorus):
    name = "circle"
    m = 1
    d = 2

    def ball_volume(self, r):
        return min(2.0 * r, 1.0)

    def ball_perimeter(self, r):
        return 0.0 if 2.0 * r >= 1.0 else 2.0

    def ball_radius_for_volume(self, vol):
        if not 0.0 < vol < 1.0:
            raise ValueError("ball volume must be in (0,1)")
        return vol / 2.0

    def minimizer(self, param):
        return CircleArc(self, center=param)

    def default_minimizer(self):
        return self.minimizer(0.25)

    def window_param(self, axis, start):
        """The arc centred at c is the window starting at c - 1/4."""
        return float(_wrap(start + 0.25))

    def isoperimetric_profile(self, v):
        v = np.asarray(v, dtype=float)
        return np.where((v > 0) & (v < 1), 2.0, 0.0)


class FlatTorus2(FlatTorus):
    name = "flat_torus_2"
    m = 2
    d = 4

    def ball_volume(self, r):
        if r > 0.5:
            raise ValueError("flat torus ball volume only valid for r <= 0.5")
        return np.pi * r * r

    def ball_perimeter(self, r):
        return TWO_PI * r

    def ball_radius_for_volume(self, vol):
        r = np.sqrt(vol / np.pi)
        if r > 0.5:
            raise ValueError("requested ball volume too large for flat torus")
        return r

    def minimizer(self, param):
        axis, offset = param
        return TorusStrip(self, axis=axis, offset=offset)

    def default_minimizer(self):
        return self.minimizer((0, 0.0))

    def window_param(self, axis, start):
        return (axis, start)

    def isoperimetric_profile(self, v):
        v = np.asarray(v, dtype=float)
        w = np.minimum(v, 1.0 - v)
        # small volumes favor geodesic disks, large ones strips
        return np.minimum(2.0 * np.sqrt(np.pi * w), 2.0)


class Sphere2(Manifold):
    name = "sphere_2"
    m = 2
    d = 3
    cheeger_constant = 2.0 * np.sqrt(np.pi)

    def __init__(self):
        self.radius = 1.0 / np.sqrt(4.0 * np.pi)

    def _sample(self, rng, n):
        g = rng.standard_normal((n, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return self.radius * g

    def to_ambient(self, unit_dirs):
        return self.radius * np.asarray(unit_dirs, dtype=float)

    def to_intrinsic(self, points):
        points = np.asarray(points, dtype=float)
        return points / np.linalg.norm(points, axis=-1, keepdims=True)

    def intrinsic_distance(self, a, b):
        dot = np.clip(np.sum(a * b, axis=-1), -1.0, 1.0)
        return self.radius * np.arccos(dot)

    def on_manifold_residual(self, points):
        return np.abs(np.linalg.norm(points, axis=-1) - self.radius)

    def ball_volume(self, r):
        """Area of a geodesic ball (spherical cap); total area is 1."""
        return 0.5 * (1.0 - np.cos(r / self.radius))

    def ball_perimeter(self, r):
        return TWO_PI * self.radius * np.sin(r / self.radius)

    def ball_radius_for_volume(self, vol):
        if not 0.0 < vol < 1.0:
            raise ValueError("ball volume must be in (0,1)")
        return self.radius * np.arccos(1.0 - 2.0 * vol)

    def minimizer(self, param):
        return SphereCap(self, pole=param)

    def default_minimizer(self):
        return self.minimizer(np.array([0.0, 0.0, 1.0]))

    def isoperimetric_profile(self, v):
        v = np.asarray(v, dtype=float)
        return 2.0 * np.sqrt(np.pi * v * (1.0 - v))

    def tree_coords(self, points):
        """Ambient coordinates: the tree's distance is the chord."""
        return points, None

    def tree_radius(self, r):
        """Ambient length of the chord of a geodesic distance r (capped at pi R)."""
        return 2.0 * self.radius * np.sin(min(r / self.radius, np.pi) / 2.0)

    def tree_geodesic(self, d):
        """Geodesic distance of ambient chords of length d; inverts `tree_radius`."""
        return 2.0 * self.radius * np.arcsin(np.minimum(d / (2.0 * self.radius), 1.0))

    def frame(self, u):
        """Two orthonormal tangent vectors at each unit direction."""
        u = np.asarray(u, dtype=float)
        ref = np.zeros_like(u)
        # pick the most orthogonal coordinate axis per point
        ref[np.arange(len(u)), np.argmin(np.abs(u), axis=-1)] = 1.0
        e1 = np.cross(u, ref)
        e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
        return e1, np.cross(u, e1)

    def walk(self, u, e, step):
        """Ambient point reached by walking `step` along a unit tangent."""
        theta = step / self.radius
        return self.to_ambient(np.cos(theta) * u + np.sin(theta) * e)

    def match_family(self, points, gain):
        """Pole of the half-volume cap {u . pole >= 0} with the least sum of
        ``gain``: a coarse pole grid, then tangent descent."""
        u = self.to_intrinsic(points)
        golden = np.pi * (3.0 - np.sqrt(5.0))
        k = np.arange(256)
        z = 1.0 - 2.0 * (k + 0.5) / 256
        rad = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        poles = np.stack([rad * np.cos(golden * k), rad * np.sin(golden * k), z], axis=1)
        vals = gain @ (u @ poles.T >= 0.0)
        best_i = int(np.argmin(vals))
        best_v, best_p = vals[best_i], poles[best_i]
        step = 0.2
        for _ in range(3):
            e1, e2 = self.frame(best_p[None, :])
            for _ in range(40):
                improved = False
                for d in (e1[0], -e1[0], e2[0], -e2[0]):
                    cand = best_p + step * d
                    cand = cand / np.linalg.norm(cand)
                    v = gain @ (u @ cand >= 0.0)
                    if v < best_v:
                        best_v, best_p = v, cand
                        improved = True
                if not improved:
                    break
            step /= 4.0
        return best_p


_REGISTRY = {
    "circle": Circle,
    "flat_torus_2": FlatTorus2,
    "sphere_2": Sphere2,
}


def get_manifold(name) -> Manifold:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown manifold {name!r}; expected one of {sorted(_REGISTRY)}")


# ---------------------------------------------------------------------------
# Reference Cheeger data
# ---------------------------------------------------------------------------

class ReferenceSet:
    """A half-volume minimizer with closed-form perimeter; each kind provides
    ``indicator(points)``, 1.0 on the set and 0.0 off it."""

    manifold: Manifold
    volume = 0.5
    perimeter: float
    zonal_axis = None  # an axis the set is invariant under rotation about


class CircleArc(ReferenceSet):
    perimeter = 2.0

    def __init__(self, manifold, center):
        self.manifold = manifold
        self.center = float(_wrap(center))

    def indicator(self, points):
        t = self.manifold.to_intrinsic(points)
        return (_wrap_dist(t, self.center) <= 0.25).astype(float)


class TorusStrip(ReferenceSet):
    perimeter = 2.0

    def __init__(self, manifold, axis, offset):
        assert axis in (0, 1)
        self.manifold = manifold
        self.axis = int(axis)
        self.offset = float(_wrap(offset))

    def indicator(self, points):
        uv = self.manifold.to_intrinsic(points)
        return (_wrap(uv[..., self.axis] - self.offset) < 0.5).astype(float)


class SphereCap(ReferenceSet):
    # the boundary great circle 2 pi R of the unit-area sphere, R = 1/sqrt(4 pi)
    perimeter = np.sqrt(np.pi)

    def __init__(self, manifold, pole):
        self.manifold = manifold
        pole = np.asarray(pole, dtype=float)
        self.pole = self.zonal_axis = pole / np.linalg.norm(pole)

    def indicator(self, points):
        u = self.manifold.to_intrinsic(points)
        return (u @ self.pole >= 0.0).astype(float)
