"""Epsilon-proximity graphs and the rescaled graph functionals.

Edges connect points at ambient Euclidean distance <= epsilon (indicator
kernel), excluding self loops: the pairs that a k-d tree's range search
keeps, dx*dx + dy*dy + ... <= epsilon*epsilon. On a circle cloud they are
found from the angular order, each vertex's forward window (``_edges_circle``),
and the graph keeps the windows (``ProximityGraph.windows``) when they hold
exactly its edges; elsewhere by the tree (``_edges_kdtree``). The graph total
variation of a vertex function u is

    GTV(u) = (1 / (n^2 eps^{m+1})) * sum_{i,j} w_ij |u_i - u_j|,

with w_ij in {0,1}; for a set indicator this equals 2*Cut/(n^2 eps^{m+1}).
The only cut objective is the Cheeger ratio GTV(1_A) / (min(|A|, n - |A|) / n),
computed by ``cheeger_ratio``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .manifold import Circle, is_int, read_sidecar

# Elements per block of every pass over the edge list, of the candidate arcs
# of the arc sweep and of the kernel-pair sums of Lambda_a and zonal TV_h: a
# cache budget. One array of 8-byte elements of a block takes 512 kB, so each
# elementwise step runs in a core's L2 cache (2 MB on the Xeon measured: the
# sphere smoothing-chain check at (0.1, 0.2) took 0.35-0.44 s with 16 k-128 k
# pairs a block against 0.75 s with 1 M), and the memory a pass takes beyond
# the graph's own arrays is bounded, whatever the number of edges or pairs.
BLOCK = 65_536
# The margin of the circle's windows: relative in the chord, and absolute in
# turns of the angular gaps (arctan2 and the sums round them by ~1e-15)
_TOL = 1e-12


@dataclass
class ProximityGraph:
    points: np.ndarray           # (n, d)
    epsilon: float
    m: int                       # intrinsic dimension used in the rescaling
    edges: np.ndarray            # (E, 2) int array, i < j, each pair once, any row order
    cloud: object = None         # optional PointCloud provenance
    # (order, count) of a circle cloud's build: the angular order, and each
    # position's forward window, the edges to the next count[p] positions;
    # None on every other graph (``_edges_circle``)
    windows: tuple = field(default=None, repr=False)
    _adj: sp.csr_matrix = field(default=None, repr=False)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def rescale(self):
        """1 / (n^2 eps^{m+1})."""
        return _rescale(self.n, self.epsilon, self.m)

    @property
    def adjacency(self) -> sp.csr_matrix:
        if self._adj is None:
            # one sort of the 2E directed keys r*n + c is the canonical CSR
            # order, whatever the order of the edge rows
            n, e = self.n, len(self.edges)
            key = np.empty(2 * e, dtype=np.min_scalar_type(n * n))
            lo = 0
            for block in _edge_blocks(self):
                hi = lo + len(block)
                _edge_keys(block[:, 0], block[:, 1], n, out=key[lo:hi])
                _edge_keys(block[:, 1], block[:, 0], n, out=key[e + lo:e + hi])
                lo = hi
            key.sort()
            # scipy's own index type for this shape and 2E entries
            idx = np.int32 if max(2 * e, n) < 2 ** 31 else np.int64
            # row r holds the keys r*n .. r*n + n - 1
            indptr = np.searchsorted(key, np.arange(n + 1, dtype=key.dtype) * n)
            indices = np.empty(2 * e, dtype=idx)
            # the quotient (the row) overwrites the key; the remainder is the column
            np.divmod(key, n, out=(key, indices))
            self._adj = sp.csr_matrix((np.ones(2 * e), indices, indptr.astype(idx)),
                                      shape=(n, n))
        return self._adj

    @property
    def degrees(self):
        return np.diff(self.adjacency.indptr)

    def save(self, path, cloud_ref=None):
        path = Path(path)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j"])
            w.writerows(_key_sorted(self.edges, self.n).tolist())
        meta = {"n": int(self.n), "epsilon": float(self.epsilon),
                "m": int(self.m), "cloud_ref": cloud_ref}
        with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
            json.dump(meta, fh, indent=2)

    @staticmethod
    def load(path, cloud=None):
        path = Path(path)
        meta = read_sidecar(path, ("n", "epsilon", "m"))
        n, eps, m = meta["n"], meta["epsilon"], meta["m"]
        # the checks of build_graph, plus those of the cloud and the edge list
        _check_parameters(eps, m, n, cloud, where=f"{path}: ")
        if cloud is not None and cloud.points.shape[0] != n:
            raise ValueError(f"{path}: the cloud has {cloud.points.shape[0]} "
                             f"points, the graph n = {n}")
        rows = path.read_text().partition("\n")[2]  # below the header
        # loadtxt warns on no rows, which `save` writes for a graph without edges
        raw = (np.loadtxt(io.StringIO(rows), delimiter=",", dtype=int, ndmin=2)
               if rows.strip() else np.empty((0, 2), dtype=int))
        if raw.shape[1] != 2:
            raise ValueError(f"{path}: rows of {raw.shape[1]} values, not pairs i,j")
        pairs = np.sort(raw, axis=1)
        # `adjacency` builds its CSR without checking the indices
        if len(pairs) and (pairs[:, 0].min() < 0 or pairs[:, 1].max() >= n):
            raise ValueError(f"{path}: edge index outside 0..{n - 1}")
        # i < j and each pair once, as `adjacency`, `gtv` and the cut counts
        # take each row for one undirected edge
        edges = _key_sorted(pairs, n)
        # a loop would count once in the degree but twice in the adjacency
        loops = edges[edges[:, 0] == edges[:, 1], 0]
        if len(loops):
            raise ValueError(f"{path}: self loop at vertex {int(loops[0])}")
        points = cloud.points if cloud is not None else np.zeros((n, 1))
        return ProximityGraph(points=points, epsilon=eps, m=m, edges=edges,
                              cloud=cloud)


def build_graph(points_or_cloud, epsilon, m=None) -> ProximityGraph:
    """Build the epsilon-graph: the pairs of a k-d tree range search.

    A cloud on a ``Circle`` gets them from its angular order
    (``_edges_circle``), with no tree, position-major: each vertex's
    forward window in angular order, vertex by vertex around the circle.
    Raw point arrays and clouds on other manifolds get the tree's pairs in
    the tree's order. Either way each pair is one row, i < j, and the edge
    set is the same, ties included; no reader depends on the row order.
    A circle graph keeps its windows when they give the edges exactly.
    """
    cloud = None
    if hasattr(points_or_cloud, "points") and hasattr(points_or_cloud, "manifold"):
        cloud = points_or_cloud
        points = cloud.points
        if m is None:
            m = cloud.manifold.m
    else:
        points = np.asarray(points_or_cloud, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if m is None:
            raise ValueError("m required when building from a raw point array")
    _check_parameters(epsilon, m, points.shape[0], cloud)
    windows = None
    if cloud is not None and isinstance(cloud.manifold, Circle):
        edges, windows = _edges_circle(points, float(epsilon), cloud.manifold)
    else:
        edges = _edges_kdtree(points, epsilon)
    return ProximityGraph(points=points, epsilon=float(epsilon), m=int(m),
                          edges=edges, cloud=cloud, windows=windows)


def _check_parameters(epsilon, m, n, cloud=None, where=""):
    """Refuse an n that is not a positive integer, an epsilon that is not a
    positive finite number (a bool included), an m that is not a positive
    integer, an m other than the dimension of the cloud's manifold, and an
    epsilon whose rescaling 1 / (n^2 eps^{m+1}) is not a finite float;
    ``where`` starts each message."""
    if not (is_int(n) and n > 0):
        raise ValueError(f"{where}n must be a positive integer, got {n!r}")
    if not (isinstance(epsilon, numbers.Real) and not isinstance(epsilon, bool)
            and math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"{where}epsilon must be a positive finite number, "
                         f"got {epsilon!r}")
    if not (is_int(m) and m > 0):
        raise ValueError(f"{where}m must be a positive integer, got {m!r}")
    if cloud is not None and m != cloud.manifold.m:
        raise ValueError(f"{where}m = {m}, but the cloud's manifold "
                         f"{cloud.manifold.name} has m = {cloud.manifold.m}")
    try:
        finite = math.isfinite(_rescale(int(n), float(epsilon), int(m)))
    except (ZeroDivisionError, OverflowError):  # eps^{m+1} under- or overflows
        finite = False
    if not finite:
        raise ValueError(f"{where}epsilon = {epsilon!r} puts the rescaling "
                         f"1/(n^2 eps^(m+1)) outside the floats at n = {n}, m = {m}")


def _rescale(n, epsilon, m):
    return 1.0 / (n ** 2 * epsilon ** (m + 1))


def _edges_kdtree(points, eps):
    """The tree's pairs, i < j, in the tree's order.

    ``query_pairs`` returns a view of scipy's pair vector, whose capacity can
    reach twice its length, so the pairs are copied into an exact-size array.
    """
    n = points.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    pairs = cKDTree(points).query_pairs(eps, output_type="ndarray")
    return np.array(pairs, dtype=np.int64)


def _edges_circle(points, eps, circle):
    """The pairs of ``_edges_kdtree`` on a cloud of ``circle``, i < j,
    position-major: each vertex's forward window, in angular order, vertex
    by vertex around the circle (a one-dimensional sort-and-sweep), and the
    windows (order, count) or None.

    Two points at radii within delta of R, a forward angular gap of g turns
    apart, lie between 2 (R - delta) sin(pi g) and
    2 delta + 2 (R + delta) sin(pi g) apart. So each vertex's forward lags
    (its successors in angular order) split into the lags 1..lo whose pairs
    surely pass the tree's test dx*dx + dy*dy <= eps*eps, the lags up to hi
    on which the test is run, and the rest, which surely fail it. The
    margins are taken in the chord, where sin(pi g) is flat near g = 1/2,
    and in the gap, for the rounding of arctan2 and of the sums (``_TOL``).
    Where the candidate window reaches half a turn (pi eps near or above 1)
    every pair is a candidate: the lags up to (n - 1) // 2, and n / 2 from
    the first half of an even n, give each pair once. Beyond the O(n)
    windows, the temporaries are chunks of about ``BLOCK`` lags.

    The windows are returned when the passing lags of every position are
    its first count[p], so that they hold exactly the edges, and every
    window is shorter than half a turn, so that each edge runs forward in
    angle from its window's position (the arc sweep's direction).
    """
    n = len(points)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64), None
    t = circle.to_intrinsic(points)
    order = np.argsort(t, kind="stable")
    t = t[order]
    # gaps of lags that wrap past angle 0 need no modulo
    t2 = np.concatenate([t, t + 1.0])
    first = np.arange(1, n + 1)

    def window(g):
        """Per position, the forward lags of gap <= g turns."""
        return np.searchsorted(t2, t + g, side="right") - first

    r = circle.radius
    # a NaN residual makes every pair a candidate and none sure
    delta = float(circle.on_manifold_residual(points).max()) + _TOL * r
    s_out = eps * (1.0 + _TOL) / (2.0 * (r - delta)) if delta < r else math.inf
    s_in = (eps * (1.0 - _TOL) - 2.0 * delta) / (2.0 * (r + delta)) * (1.0 - _TOL)
    g_out = math.asin(s_out) / math.pi + _TOL if s_out < 1.0 else math.inf
    # a window short of half a turn holds no pair that the other end's holds
    if g_out < 0.5 - _TOL:
        hi = window(g_out)
    else:
        hi = np.full(n, (n - 1) // 2)
        hi[:n // 2] += 1 - n % 2
    if s_in >= 1.0:
        lo = hi
    elif s_in > 0.0:
        lo = np.clip(window(math.asin(s_in) / math.pi - _TOL), 0, hi)
    else:
        lo = np.zeros(n, dtype=hi.dtype)

    order2 = np.concatenate([order, order])
    x, y = points[:, 0], points[:, 1]
    eps2 = eps * eps

    def within(i, j):
        """The tree's test, in its order of operations."""
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        return dx * dx + dy * dy <= eps2

    # the passing lags of the band lo < lag <= hi, per position, and whether
    # they are a prefix of it: no lag passes whose predecessor failed
    count = lo.astype(np.int64)
    prefix = g_out < 0.5 - _TOL
    for p0, p1, c, q in _lag_chunks(lo, hi):
        p = np.repeat(np.arange(p0, p1), c)
        ok = within(order[p], order2[q])
        count[p0:p1] += np.bincount(p[ok] - p0, minlength=p1 - p0)
        prefix = prefix and not (ok[1:] & ~ok[:-1] & (p[1:] == p[:-1])).any()
    edges = np.empty((int(count.sum()), 2), dtype=np.int64)
    row = 0
    for p0, p1, c, q in _lag_chunks(np.zeros_like(hi), hi):
        i, j = np.repeat(order[p0:p1], c), order2[q]
        if (hi[p0:p1] > lo[p0:p1]).any():
            # lags 1..lo of each position are kept; those past them are tested
            keep = np.arange(len(q)) < np.repeat(np.cumsum(c) - c + lo[p0:p1], c)
            band = np.flatnonzero(~keep)
            keep[band] = within(i[band], j[band])
            i, j = i[keep], j[keep]
        rows = edges[row:row + len(i)]
        np.minimum(i, j, out=rows[:, 0])
        np.maximum(i, j, out=rows[:, 1])
        row += len(i)
    return edges, ((order, count) if prefix else None)


def _lag_chunks(lo, hi):
    """The lags lo[p] < lag <= hi[p] of every position p, position-major,
    in chunks of consecutive positions p0..p1 - 1 that hold about ``BLOCK``
    lags (at most ``BLOCK`` plus one position's): yields (p0, p1, the
    positions' lag counts, the positions p + lag)."""
    count = hi - lo
    cum = np.concatenate(([0], np.cumsum(count)))
    # the position that holds each BLOCK-th lag starts a chunk
    starts = np.searchsorted(cum, np.arange(0, cum[-1], BLOCK), side="right") - 1
    bounds = np.unique(np.concatenate(([0], starts, [len(lo)])))
    for p0, p1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        c = count[p0:p1]
        if cum[p1] == cum[p0]:
            continue
        # lag lo[p] + 1 of position p sits at p's first slot of the chunk
        step = np.arange(p0, p1) + lo[p0:p1] + 1 - (cum[p0:p1] - cum[p0])
        yield p0, p1, c, np.arange(cum[p1] - cum[p0]) + np.repeat(step, c)


def _edge_blocks(graph):
    """Consecutive row blocks of ``graph.edges``, ``BLOCK`` rows each but the
    last; none for a graph without edges. Every pass over the edges but
    ``save`` and exact enumeration reads them through this, so no pass makes
    an array of length E beyond its result."""
    edges = graph.edges
    for lo in range(0, len(edges), BLOCK):
        yield edges[lo:lo + BLOCK]


def _edge_keys(rows, cols, n, out=None):
    """Keys r*n + c in the narrowest unsigned type that holds n^2 (uint32
    below n = 2^16); sorted, they give the lexicographic order of (r, c)."""
    dtype = np.min_scalar_type(n * n)
    key = np.multiply(rows.astype(dtype), n, out=out)
    key += cols.astype(dtype)
    return key


def _key_sorted(edges, n):
    """The distinct edge rows in lexicographic order, from one np.unique of their keys."""
    key = np.unique(_edge_keys(edges[:, 0], edges[:, 1], n))
    out = np.empty((len(key), 2), dtype=np.int64)
    np.divmod(key, n, out=(out[:, 0], out[:, 1]))
    return out


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------

def gtv(graph: ProximityGraph, u) -> float:
    """Graph total variation seminorm of a 1-D vertex function.

    The exactly rounded ``math.fsum`` of the nonzero edge terms |u_i - u_j|,
    chained block by block into one sum: an exact sum does not depend on the
    order of its terms, and dropping exact zeros does not change it, so the
    value is that of the sum over every edge (NaN and inf terms are nonzero
    and propagate).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"vertex function must be 1-D, got shape {u.shape}")
    if u.shape[0] != graph.n:
        raise ValueError("vertex function length mismatch")

    def terms():
        for block in _edge_blocks(graph):
            diff = u[block[:, 0]] - u[block[:, 1]]
            # for an indicator only the cut edges remain
            yield memoryview(np.abs(diff[diff != 0]))

    # factor 2 for the ordered sum
    return 2.0 * graph.rescale * math.fsum(itertools.chain.from_iterable(terms()))


def cut_size(graph: ProximityGraph, subset) -> int:
    """Raw Cut(E_n): number of edges with exactly one endpoint in subset."""
    mask = _as_mask(graph.n, subset)
    return sum(int(np.count_nonzero(mask[b[:, 0]] ^ mask[b[:, 1]]))
               for b in _edge_blocks(graph))


def cheeger_ratio(cut, size, n, rescale):
    """2 * rescale * Cut / balance, elementwise; +inf where a side is empty.

    Evaluated as (2 * rescale * n) * (Cut / min(|A|, n - |A|)): the quotient of
    two integers is correctly rounded, so equal rationals give equal floats.
    """
    side = np.minimum(size, n - size)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (2.0 * rescale * n) * (cut / side)
    return np.where(side > 0, val, np.inf)[()]


def cut_and_balance(graph: ProximityGraph, subset):
    """(GTV of the subset indicator, min(|A|, n - |A|) / n)."""
    mask = _as_mask(graph.n, subset)
    g = 2.0 * graph.rescale * cut_size(graph, mask)
    size = int(mask.sum())
    return g, min(size, graph.n - size) / graph.n


def objective(graph: ProximityGraph, subset) -> float:
    """Cheeger ratio of a vertex subset; +inf for the empty and the full set."""
    mask = _as_mask(graph.n, subset)
    return float(cheeger_ratio(cut_size(graph, mask), int(mask.sum()), graph.n,
                               graph.rescale))


def _as_mask(n, subset):
    subset = np.asarray(subset)
    if subset.dtype == bool:
        if subset.shape[0] != n:
            raise ValueError("mask length mismatch")
        return subset.copy()
    mask = np.zeros(n, dtype=bool)
    if subset.size:
        mask[subset.astype(int)] = True
    return mask
