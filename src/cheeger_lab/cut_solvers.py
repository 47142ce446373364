"""Exact and approximate minimizers of the graph Cheeger ratio.

The discrete Cheeger problem is NP-hard, so we provide:

* ``solve_exact``         -- full enumeration for n <= 24;
* ``solve_arc_sweep``     -- exact over contiguous arcs of a circle cloud;
* ``solve_spectral_sweep``-- Fiedler-vector threshold sweep;
* ``refine_local_search`` -- greedy single-vertex moves;
* ``solve_pipeline``      -- spectral (+ arc) sweep followed by local search;
  this upper-bounds the true minimum.

Every solver scores a cut with ``proximity_graph.cheeger_ratio``, so a set
and its complement score the same float, and returns it through
``result_from_subset``, which takes the certificate from ``CERTIFICATES``. Subsets are stored canonically as the
side containing vertex 0, sorted. Among subsets with equal float value, ties
go to the lexicographically smallest canonical subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EigenNotConverged, SizeLimitExceeded, WrongManifold
from .manifold import Circle
from .proximity_graph import (ProximityGraph, _as_mask, cheeger_ratio,
                              cut_and_balance, objective)

EXACT_LIMIT = 24
LOBPCG_TOL = 1e-8
LOBPCG_MAXITER = 10_000
LOCAL_SEARCH_PASSES = 10
ARC_BLOCK = 1 << 16  # int64 elements per block of the arc sweep's window scan

# what a solver's cut is guaranteed to be; every solver not named is a heuristic
CERTIFICATES = {"exact": "GlobalOptimum", "arc_sweep": "FamilyOptimum"}


@dataclass
class CutResult:
    subset: np.ndarray          # canonical side (contains vertex 0), sorted
    objective_value: float
    gtv: float
    balance: float
    solver: str
    certificate: str            # GlobalOptimum | FamilyOptimum | Heuristic
    extras: dict = field(default_factory=dict)


def canonical_subset(n, subset):
    mask = _as_mask(n, subset)
    if not mask[0]:
        mask = ~mask
    return np.flatnonzero(mask)


def result_from_subset(graph, subset, solver, extras=None) -> CutResult:
    subset = canonical_subset(graph.n, subset)
    g, bal = cut_and_balance(graph, subset)
    val = objective(graph, subset)
    return CutResult(subset=subset, objective_value=val, gtv=g, balance=bal,
                     solver=solver,
                     certificate=CERTIFICATES.get(solver, "Heuristic"),
                     extras=extras or {})


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def solve_exact(graph: ProximityGraph) -> CutResult:
    """Global optimum by enumerating all proper bipartitions up to complement."""
    n = graph.n
    if n > EXACT_LIMIT:
        raise SizeLimitExceeded(f"exact solver limited to n <= {EXACT_LIMIT}, got {n}")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    edges = graph.edges
    scale = graph.rescale
    # ids enumerate subsets of {1..n-1}; vertex 0 is always inside
    total = 1 << (n - 1)
    best_val = np.inf
    best_ids = None
    chunk = 1 << 20
    for lo in range(0, total, chunk):
        ids = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        # bit v of the mask is vertex v's membership; vertex 0 is always in
        masks = (ids << 1) | 1
        bits = [(masks >> v) & 1 for v in range(n)]
        size = sum(bits)
        cut = np.zeros(len(ids), dtype=np.int64)
        for i, j in edges:
            cut += bits[i] ^ bits[j]
        vals = cheeger_ratio(cut, size, n, scale)
        cmin = vals.min()
        if cmin < best_val:
            best_val = cmin
            best_ids = ids[vals == cmin]
        elif cmin == best_val and best_ids is not None:
            best_ids = np.concatenate([best_ids, ids[vals == cmin]])
    best_id = _lex_min_id(best_ids, n)
    subset = _id_to_subset(best_id, n)
    return result_from_subset(graph, subset, solver="exact")


def _id_to_subset(idx, n):
    members = [0] + [v for v in range(1, n) if (int(idx) >> (v - 1)) & 1]
    return np.array(members, dtype=int)


def _lex_min_id(ids, n):
    """Id whose subset (containing vertex 0) is lexicographically smallest.

    Tuple order: a subset that stops is smaller than one that continues
    with any larger vertex, and containing vertex v beats containing w > v.
    """
    ids = np.asarray(ids, dtype=np.int64)
    cand = ids
    for v in range(1, n):
        if len(cand) == 1:
            break
        has = ((cand >> (v - 1)) & 1).astype(bool)
        if has.all():
            continue
        # candidates without v: do any of them end here (no members >= v)?
        rest = cand[~has] >> (v - 1)
        ends = rest == 0
        if ends.any():
            return int(cand[~has][np.flatnonzero(ends)[0]])
        if has.any():
            cand = cand[has]
    return int(cand[0])


# ---------------------------------------------------------------------------
# Arc sweep (circle clouds)
# ---------------------------------------------------------------------------

def solve_arc_sweep(graph: ProximityGraph) -> CutResult:
    """Exact Cheeger optimum over contiguous arcs of the angular order.

    Every arc of length k has the same balance, and the integer cuts keep
    their order under the positive factor, so each k keeps its least cut
    (first start on ties) and the best ratio over k wins. Growing the arcs
    that start at s by the vertex u at s + k adds deg(u) minus twice its
    neighbours inside the arc: min(lccw(u), k) behind it plus the forward
    neighbours the arc wraps onto, max(0, k + rcw(u) + 1 - n). For
    max lccw <= k <= n - 1 - max rcw both terms are fixed, so
    cut_k(s) = base(s) + Q[s + k] with Q the prefix sum of rcw - lccw along
    the doubled order; that middle range is scanned in windows, the lengths
    below and above it step the recurrence.
    """
    if graph.cloud is None or not isinstance(graph.cloud.manifold, Circle):
        raise WrongManifold("arc sweep requires a graph built on a Circle cloud")
    n = graph.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    mf = graph.cloud.manifold
    t = mf.to_intrinsic(graph.points)
    order = np.argsort(t, kind="stable")

    # directional neighbor-window sizes from the actual adjacency
    lccw = np.zeros(n, dtype=np.int64)  # neighbors among angular predecessors
    rcw = np.zeros(n, dtype=np.int64)   # neighbors among angular successors
    if len(graph.edges):
        i, j = graph.edges[:, 0], graph.edges[:, 1]
        g = np.mod(t[j] - t[i], 1.0)
        fwd = (g < 0.5) | ((g == 0.5) & (i < j))
        head = np.where(fwd, j, i)  # the endpoint ahead of the other
        lccw = np.bincount(head, minlength=n)
        rcw = np.bincount(i + j - head, minlength=n)
    # positions s + k of the doubled angular order need no modulo
    lc = np.tile(lccw[order], 2)
    rc = np.tile(rcw[order], 2)

    start = np.empty(n - 1, dtype=np.int64)
    least = np.empty(n - 1, dtype=np.int64)
    mid_lo = max(int(lccw.max()), 1)
    mid_hi = n - 1 - int(rcw.max())
    if mid_lo > mid_hi:
        mid_lo = n  # no middle range: the recurrence covers every length
    k, cut = 1, lc[:n] + rc[:n]  # arcs of length 1 starting at s
    while True:
        if k == mid_lo:
            q = np.concatenate([[0], np.cumsum(rc - lc)])
            base = cut - q[k:k + n]
            windows = sliding_window_view(q, n)
            rows = max(1, ARC_BLOCK // n)
            for lo in range(mid_lo, mid_hi + 1, rows):
                hi = min(lo + rows, mid_hi + 1)
                block = base + windows[lo:hi]
                s = np.argmin(block, axis=1)
                start[lo - 1:hi - 1] = s
                least[lo - 1:hi - 1] = block[np.arange(hi - lo), s]
            k = mid_hi
            cut = base + q[k:k + n]
        else:
            s = int(np.argmin(cut))
            start[k - 1], least[k - 1] = s, cut[s]
        if k == n - 1:
            break
        # extend every arc by the vertex at position s + k
        lv, rv = lc[k:k + n], rc[k:k + n]
        cut = cut + lv + rv - 2 * (np.minimum(lv, k) + np.maximum(0, k + rv + 1 - n))
        k += 1
    k = int(np.argmin(cheeger_ratio(least, np.arange(1, n), n, graph.rescale))) + 1
    subset = order[(start[k - 1] + np.arange(k)) % n]
    return result_from_subset(graph, subset, solver="arc_sweep")


# ---------------------------------------------------------------------------
# Spectral sweep
# ---------------------------------------------------------------------------

def _start_block(points):
    """Orthonormal basis of the centred coordinate functions of the cloud.

    On the model manifolds these span the lambda_2 cluster of the continuum
    Laplacian, so a block of one vector per coordinate starts near the answer.
    Columns below numpy's matrix-rank cut are dropped (collinear clouds); a
    cloud with no spread starts from the centred vertex index.
    """
    n = points.shape[0]
    X = points - points.mean(axis=0)
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    keep = s > s[:1] * max(X.shape) * np.finfo(float).eps
    # lobpcg needs n - 1 >= 5 * block size to iterate under the constraint
    U = U[:, keep][:, :(n - 1) // 5]
    if U.shape[1]:
        return U
    idx = np.arange(n) - (n - 1) / 2.0
    return (idx / np.linalg.norm(idx))[:, None]


def fiedler_vector(graph: ProximityGraph):
    """Second eigenvector of L = D - W, deflating the constant vector.

    LOBPCG runs on a block started from the cloud's centred coordinates and
    returns the lowest Ritz vector of the block.
    """
    n = graph.n
    W = graph.adjacency
    deg = graph.degrees
    L = sp.diags(deg, dtype=float) - W
    if n <= 128:
        vals, vecs = np.linalg.eigh(L.toarray())
        v = vecs[:, 1]
        return v, float(np.linalg.norm(L @ v - vals[1] * v))
    X = _start_block(graph.points)
    Y = np.ones((n, 1)) / np.sqrt(n)
    try:
        with np.errstate(all="ignore"):
            vals, vecs = spla.lobpcg(L, X, Y=Y, tol=LOBPCG_TOL,
                                     maxiter=LOBPCG_MAXITER, largest=False)
    except Exception as exc:  # noqa: BLE001 - surfaced as a typed error
        raise EigenNotConverged(f"lobpcg failed: {exc}") from exc
    v = vecs[:, 0]
    lam = float(vals[0])
    res = float(np.linalg.norm(L @ v - lam * v))
    if not np.isfinite(res) or res > 1e-5 * max(1.0, float(deg.max())):
        raise EigenNotConverged("Fiedler iteration did not converge",
                                iterations=LOBPCG_MAXITER, residual=res)
    return v, res


def solve_spectral_sweep(graph: ProximityGraph) -> CutResult:
    """Best Cheeger ratio among the n-1 threshold cuts of the Fiedler vector."""
    n = graph.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    # the adjacency is symmetric, so a search from vertex 0 reaches exactly
    # its component; a proper component is a zero-cut split
    reached = csgraph.breadth_first_order(graph.adjacency, 0, directed=True,
                                          return_predecessors=False)
    if len(reached) < n:
        return result_from_subset(graph, reached, solver="spectral_sweep",
                                  extras={"disconnected": True})
    v, res = fiedler_vector(graph)
    order = np.argsort(v, kind="stable")
    return result_from_subset(graph, order[:_best_sweep_k(graph, order)],
                              solver="spectral_sweep",
                              extras={"eigen_residual": res})


def _best_sweep_k(graph, order):
    """argmin over prefix cuts of the sorted order, Cheeger ratio."""
    n = graph.n
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    ri = rank[graph.edges[:, 0]]
    rj = rank[graph.edges[:, 1]]
    lo = np.minimum(ri, rj)
    hi = np.maximum(ri, rj)
    diff = np.bincount(lo + 1, minlength=n + 1) - np.bincount(hi + 1, minlength=n + 1)
    cut = np.cumsum(diff)[1:n]  # cut of prefix size k, k = 1..n-1
    vals = cheeger_ratio(cut, np.arange(1, n), n, graph.rescale)
    return int(np.argmin(vals)) + 1


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------

def refine_local_search(graph: ProximityGraph, start: CutResult) -> CutResult:
    """Greedy best single-vertex moves on the Cheeger ratio."""
    n = graph.n
    mask = _as_mask(n, start.subset)
    A = graph.adjacency
    indptr, indices = A.indptr, A.indices
    deg = graph.degrees
    d_in = A @ mask.astype(float)
    d_in = d_in.astype(np.int64)
    # each inside vertex contributes deg - d_in crossing edges
    cut = int(np.sum(deg[mask] - d_in[mask]))
    size = int(mask.sum())
    scale = graph.rescale
    cur = float(cheeger_ratio(cut, size, n, scale))
    moves = 0
    for _ in range(LOCAL_SEARCH_PASSES):
        improved = False
        for _ in range(n):
            cut_new = np.where(mask, cut - deg + 2 * d_in, cut + deg - 2 * d_in)
            size_new = np.where(mask, size - 1, size + 1)
            vals = cheeger_ratio(cut_new, size_new, n, scale)
            v = int(np.argmin(vals))
            if not vals[v] < cur:
                break
            # apply the move
            nb = indices[indptr[v]:indptr[v + 1]]
            if mask[v]:
                mask[v] = False
                size -= 1
                d_in[nb] -= 1
            else:
                mask[v] = True
                size += 1
                d_in[nb] += 1
            cut = int(cut_new[v])
            cur = float(vals[v])
            moves += 1
            improved = True
        if not improved:
            break
    # a search that moved nothing leaves the start (and its name as the
    # pipeline's winner) in place
    if moves == 0:
        return start
    out = result_from_subset(graph, mask, solver="local_search",
                             extras={"moves": moves, "start": start.solver})
    # the search never worsens the start
    if out.objective_value > start.objective_value:
        return start
    return out


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def solve_pipeline(graph: ProximityGraph) -> CutResult:
    """Default estimator: spectral (+ arc) sweep, then local search."""
    candidates = []
    degraded = False
    eigen_residual = None  # stays None when the solve fails or is not needed
    try:
        candidates.append(solve_spectral_sweep(graph))
        eigen_residual = candidates[0].extras.get("eigen_residual")
    except EigenNotConverged:
        degraded = True
    is_circle = graph.cloud is not None and isinstance(graph.cloud.manifold, Circle)
    if is_circle:
        candidates.append(solve_arc_sweep(graph))
    if not candidates:
        # spectral failed and no arc structure: fall back to a trivial start
        candidates.append(result_from_subset(graph, [0], solver="fallback"))
    # a search that moves nothing returns its start, whose solver then wins
    refined = [refine_local_search(graph, c) for c in candidates]
    best = min(refined, key=lambda r: (r.objective_value, r.subset.tolist()))
    return replace(best, solver="pipeline", certificate="Heuristic",
                   extras={"degraded": degraded, "winner": best.solver,
                           "eigen_residual": eigen_residual, **best.extras})
