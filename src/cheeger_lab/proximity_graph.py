"""Epsilon-proximity graphs and the rescaled graph functionals.

Edges connect points at ambient Euclidean distance <= epsilon (indicator
kernel), excluding self loops. The graph total variation of a vertex
function u is

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

from .manifold import is_int, read_sidecar

# Elements per block of every pass over the edge list, of the arc lengths of
# the arc sweep and of the kernel-pair sums of Lambda_a and zonal TV_h: a cache
# budget. One array of 8-byte elements of a block takes 512 kB, so each
# elementwise step runs in a core's L2 cache (2 MB on the Xeon measured: the
# sphere smoothing-chain check at (0.1, 0.2) took 0.35-0.44 s with 16 k-128 k
# pairs a block against 0.75 s with 1 M), and the memory a pass takes beyond
# the graph's own arrays is bounded, whatever the number of edges or pairs.
BLOCK = 65_536


@dataclass
class ProximityGraph:
    points: np.ndarray           # (n, d)
    epsilon: float
    m: int                       # intrinsic dimension used in the rescaling
    edges: np.ndarray            # (E, 2) int array, i < j, each pair once, any row order
    cloud: object = None         # optional PointCloud provenance
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
    """Build the epsilon-graph with a k-d tree range search."""
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
    edges = _edges_kdtree(points, epsilon)
    return ProximityGraph(points=points, epsilon=float(epsilon), m=int(m),
                          edges=edges, cloud=cloud)


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
