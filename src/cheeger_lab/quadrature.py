"""Deterministic quadrature grids over the reference manifolds.

Grids are uniform in intrinsic coordinates: N cells on the circle, N x N on
the flat torus, and equal-area staggered latitude bands on the sphere.
Nodes sit at cell centers and weights sum to 1 exactly (up to float
round-off), so integrating the constant 1 returns 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import Manifold, Sphere2


@dataclass
class QuadratureGrid:
    manifold: Manifold
    nodes: np.ndarray        # (N, d) ambient coordinates
    weights: np.ndarray      # (N,) volume weights, sum 1
    spacing: float           # max node separation scale (geodesic units)
    intrinsic: np.ndarray    # intrinsic coordinates of the nodes
    # lattice structure, when the grid is a uniform product grid
    lattice_shape: tuple = ()

    @property
    def size(self):
        return self.nodes.shape[0]

    def integrate(self, values):
        return float(np.dot(self.weights, values))


def lattice_grid(manifold: Manifold, n: int) -> QuadratureGrid:
    """Cell centres of the periodic n^m lattice on the circle or flat torus."""
    m = manifold.m
    t = (np.arange(n) + 0.5) / n
    axes = np.meshgrid(*[t] * m, indexing="ij")
    coords = np.stack([a.ravel() for a in axes], axis=1)
    intrinsic = coords[:, 0] if m == 1 else coords  # the circle's t stays 1-D
    w = np.full(n ** m, 1.0 / n ** m)
    return QuadratureGrid(manifold, manifold.to_ambient(intrinsic), w,
                          spacing=1.0 / n, intrinsic=intrinsic,
                          lattice_shape=(n,) * m)


def sphere_grid(manifold: Sphere2, n_target: int) -> QuadratureGrid:
    """Equal-area staggered bands, round(sqrt(n_target * pi / 4)) of them.

    ``n_target`` sets the band count, not the node count: a band at height z
    holds about pi * n_bands * sqrt(1 - z^2) nodes, so the grid has about
    pi^3 / 16 ~ 1.94 times n_target nodes (2500 -> 4778, 4000 -> 7748,
    10 000 -> 19 550).
    """
    n_bands = max(4, int(round(np.sqrt(n_target * np.pi / 4.0))))
    z_edges = np.linspace(-1.0, 1.0, n_bands + 1)
    zc = 0.5 * (z_edges[:-1] + z_edges[1:])
    band_w = 1.0 / n_bands  # equal-height z-bands have equal area
    dirs = []
    wts = []
    for k in range(n_bands):
        s = np.sqrt(max(1.0 - zc[k] * zc[k], 0.0))
        m_k = max(1, int(round(2.0 * np.pi * s / (2.0 / n_bands))))
        phi = (np.arange(m_k) + 0.5 * (k % 2) + 0.25) * (2.0 * np.pi / m_k)
        x = s * np.cos(phi)
        y = s * np.sin(phi)
        z = np.full(m_k, zc[k])
        dirs.append(np.stack([x, y, z], axis=1))
        wts.append(np.full(m_k, band_w / m_k))
    dirs = np.concatenate(dirs)
    wts = np.concatenate(wts)
    nodes = manifold.to_ambient(dirs)
    # geodesic band height as the spacing scale
    spacing = np.pi * manifold.radius / n_bands
    return QuadratureGrid(manifold, nodes, wts, spacing=spacing, intrinsic=dirs)


def build_grid(manifold, resolution) -> QuadratureGrid:
    """Build the natural grid for the manifold.

    ``resolution`` is the 1D subdivision count for circle/torus and the
    ``n_target`` of ``sphere_grid`` for the sphere, whose grid has about
    1.94 times that many nodes.
    """
    if isinstance(manifold, Sphere2):
        return sphere_grid(manifold, resolution)
    return lattice_grid(manifold, resolution)


def grid_for_scale(manifold, scale, factor=4):
    """Grid fine enough that spacing <= scale/factor."""
    if not 0.0 < scale < np.inf:
        raise ValueError(f"scale={scale} must be positive and finite")
    if isinstance(manifold, Sphere2):
        # spacing ~ pi*r/n_bands and n_bands ~ sqrt(N*pi)/2
        n_bands = int(np.ceil(np.pi * manifold.radius * factor / scale))
        n_target = int(np.ceil(4.0 * n_bands * n_bands / np.pi))
        return build_grid(manifold, n_target)
    n = int(np.ceil(factor / scale))
    n += n % 2  # even subdivision keeps reference-set edges on cell lines
    return build_grid(manifold, n)
