"""Exact and approximate minimizers of the graph Cheeger ratio.

The discrete Cheeger problem is NP-hard, so we provide:

* ``solve_exact``         -- full enumeration for n <= 24;
* ``solve_arc_sweep``     -- exact over contiguous arcs of a circle cloud;
* ``solve_spectral_sweep``-- Fiedler-vector threshold sweep;
* ``refine_local_search`` -- greedy single-vertex moves, each one lowering
  the ratio;
* ``solve_pipeline``      -- one start cut, refined by local search unless a
  solver certified it: the arc sweep on a circle cloud, the spectral sweep
  on any other graph; this upper-bounds the true minimum.

Every solver scores a cut with ``proximity_graph.cheeger_ratio``, so a set
and its complement score the same float, and returns it through
``result_from_subset``, which takes the certificate from ``CERTIFICATES``.
Subsets are stored canonically as the side containing vertex 0, sorted.
``solve_exact`` breaks ties between subsets of equal float value toward the
lexicographically smallest canonical subset, found by peeling the tied
ids' lowest set bits; the arc sweep toward the shortest arc, then the first
start in angular order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.csgraph as csgraph
from numpy.lib.stride_tricks import sliding_window_view

from . import proximity_graph
from .errors import EigenNotConverged, SizeLimitExceeded, WrongManifold
from .manifold import Circle, _wrap
from .proximity_graph import (ProximityGraph, _as_mask, _edge_blocks,
                              cheeger_ratio, cut_and_balance, objective)

EXACT_LIMIT = 24
LOBPCG_TOL = 1e-8
LOBPCG_MAXITER = 10_000
LOCAL_SEARCH_PASSES = 10

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
    best_val, best_ids = np.inf, []
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
            best_val, best_ids = cmin, []
        if cmin == best_val:
            best_ids.append(ids[vals == cmin])
    mask = (_lex_min_id(np.concatenate(best_ids)) << 1) | 1
    return result_from_subset(graph, np.flatnonzero((mask >> np.arange(n)) & 1),
                              solver="exact")


def _lex_min_id(ids):
    """Id whose subset (bit v - 1 is vertex v; vertex 0 is always in) is
    lexicographically smallest as a sorted tuple.

    The least next member wins, so keep the ids whose lowest set bit is
    least and clear that bit. An id whose bits run out first is a prefix of
    the others, and a prefix is the smaller tuple.
    """
    cand = rest = np.asarray(ids, dtype=np.int64)
    while len(cand) > 1 and rest.all():
        low = rest & -rest
        keep = low == low.min()
        cand, rest = cand[keep], rest[keep] ^ low[keep]
    return int(cand[np.argmin(rest)])


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
    neighbours the arc wraps onto, max(0, k + rcw(u) + 1 - n). These counts
    are the arcs' cuts when each vertex's neighbours behind it and ahead of
    it are its lccw and rcw nearest in angular order, as in an epsilon-graph.
    Then an arc of length n - k is the complement of one of length k, with
    the same cut and balance, and ties go to the shorter length, so only the
    lengths 1..floor(n/2) are swept. An edge list without contiguous windows
    (such as a loaded file) gets every length 1..n - 1 and the certificate
    ``Heuristic``: its counts are not the arcs' cuts. For
    max lccw <= k <= n - 1 - max rcw both terms are fixed, so
    cut_k(s) = base(s) + Q[s + k] with Q the prefix sum of rcw - lccw along
    the doubled order. That middle range is scanned in windows; the lengths
    below and above it step the recurrence, a block of lengths at a time
    (``proximity_graph.BLOCK`` elements of 8 bytes, whatever the dtype).
    A cut is at most E, |Q| at most 2E and |base| at most 3E, so the sweep
    counts in int32 while 3E < 2^31 and in int64 beyond.
    """
    if graph.cloud is None or not isinstance(graph.cloud.manifold, Circle):
        raise WrongManifold("arc sweep requires a graph built on a Circle cloud")
    n = graph.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    mf = graph.cloud.manifold
    t = mf.to_intrinsic(graph.points)
    order = np.argsort(t, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    # directional neighbor-window sizes from the actual adjacency
    lccw = np.zeros(n, dtype=np.int64)  # neighbors among angular predecessors
    rcw = np.zeros(n, dtype=np.int64)   # neighbors among angular successors
    spread = 0  # sum over the edges of the steps in angular order from tail to head
    for block in _edge_blocks(graph):
        i, j = block[:, 0], block[:, 1]
        g = _wrap(t[j] - t[i])
        fwd = (g < 0.5) | ((g == 0.5) & (i < j))
        head = np.where(fwd, j, i)  # the endpoint ahead of the other
        tail = i + j - head
        lccw += np.bincount(head, minlength=n)
        rcw += np.bincount(tail, minlength=n)
        ahead = rank[head] - rank[tail]  # minus n where the edge wraps past 0
        spread += int(ahead.sum()) + n * int(np.count_nonzero(ahead < 0))
    # a vertex's rcw steps to its heads are distinct in 1..n - 1, so they sum
    # to at least rcw (rcw + 1) / 2, and to that only if they are 1..rcw; the
    # same steps seen from the heads bound the lccw windows
    contiguous = spread == int((rcw * (rcw + 1)).sum()) // 2 \
        == int((lccw * (lccw + 1)).sum()) // 2
    # the narrowest of int32 and int64 that holds 3E (see above)
    dtype = np.int32 if 3 * len(graph.edges) < 2 ** 31 else np.int64
    # positions s + k of the doubled angular order need no modulo
    lc = np.tile(lccw[order].astype(dtype), 2)
    rc = np.tile(rcw[order].astype(dtype), 2)

    top = n // 2 + 1 if contiguous else n  # one past the longest length swept
    start = np.empty(top - 1, dtype=np.int64)
    least = np.empty(top - 1, dtype=dtype)

    def keep(k, block):
        """Least cut and its first start, per row of cuts of length k, k + 1, ..."""
        s = np.argmin(block, axis=1)
        start[k - 1:k - 1 + len(block)] = s
        least[k - 1:k - 1 + len(block)] = block[np.arange(len(block)), s]

    mid_lo = max(int(lccw.max()), 1)
    mid_hi = min(n - 1 - int(rcw.max()), top)
    if mid_lo >= mid_hi:
        mid_lo = top  # no middle range: the recurrence covers every length
    lw, rw = sliding_window_view(lc, n), sliding_window_view(rc, n)
    rows = max(1, 8 * proximity_graph.BLOCK // (n * lc.itemsize))
    k, cut = 1, lc[:n] + rc[:n]  # arcs of length 1 starting at s
    while k < top:
        if k == mid_lo:
            q = np.zeros(2 * n + 1, dtype=dtype)
            np.cumsum(rc - lc, dtype=dtype, out=q[1:])
            base = cut - q[k:k + n]
            windows = sliding_window_view(q, n)
            for lo in range(mid_lo, mid_hi, rows):
                keep(lo, base + windows[lo:min(lo + rows, mid_hi)])
            k, cut = mid_hi, base + q[mid_hi:mid_hi + n]
            continue
        # step the recurrence over a block of lengths k..hi - 1 and on to hi:
        # extend every arc by the vertex at position s + k
        hi = min(k + rows, mid_lo if k < mid_lo else top)
        lv, rv, kk = lw[k:hi], rw[k:hi], np.arange(k, hi, dtype=dtype)[:, None]
        step = lv + rv - 2 * (np.minimum(lv, kk) + np.maximum(0, kk + rv + 1 - n))
        block = np.empty((hi - k + 1, n), dtype=dtype)
        block[0] = cut
        for r, inc in enumerate(step):
            np.add(block[r], inc, out=block[r + 1])
        keep(k, block[:-1])
        k, cut = hi, block[-1]
    k = int(np.argmin(cheeger_ratio(least, np.arange(1, top), n, graph.rescale))) + 1
    subset = order[(start[k - 1] + np.arange(k)) % n]
    res = result_from_subset(graph, subset, solver="arc_sweep")
    return res if contiguous else replace(res, certificate="Heuristic")


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
    U = U[:, keep]
    if U.shape[1]:
        return U
    idx = np.arange(n) - (n - 1) / 2.0
    return (idx / np.linalg.norm(idx))[:, None]


def _deflate(Q, v):
    """v less its part in the span of Q's orthonormal columns, taken off twice,
    as (unit vector, coefficients taken off, norm before scaling). The norm is
    0.0 when nothing of v is left, and the vector is then not scaled."""
    before = np.linalg.norm(v)
    c = Q.T @ v
    v = v - Q @ c
    c2 = Q.T @ v
    v -= Q @ c2
    nrm = float(np.linalg.norm(v))
    if not nrm > 1e-10 * before:
        return v, c + c2, 0.0
    return v / nrm, c + c2, nrm


def _lobpcg(W, X):
    """Lowest eigenpair of L = D - W in the complement of the constant
    vector, by LOBPCG from the orthonormal, centred block X. L is never
    formed: L x is ``deg * x - W @ x``, deg the row counts of the adjacency W.

    Each iteration takes the Rayleigh-Ritz pairs of the basis [X, p, r].
    Only the lowest Ritz pair gets a residual r, centred, and a search
    direction p, the move its vector made outside the previous block; the
    rest of the block holds the near-degenerate lambda_2 cluster. So an
    iteration costs one single-vector product with W, which takes the CSR
    row kernel, faster than the CSC view for one vector and bit-equal to it.
    p and r are made orthonormal to the basis before them, and a direction
    with nothing left is dropped. The products of the block and of p are
    updated with the basis. The iteration stops when
    ``||Lv - lam v|| <= LOBPCG_TOL`` with Lv computed afresh, after
    ``LOBPCG_MAXITER`` iterations, or when neither p nor r adds a direction.
    Returns (v, ||Lv - lam v||, iterations).
    """
    deg = np.diff(W.indptr).astype(float)
    n, k = X.shape
    S = np.empty((n, k + 2), order="F")   # [block, p, r]
    LS = np.empty((n, k + 2), order="F")  # L times each column of S
    # the block product takes W's CSC view: W is exactly symmetric, so it
    # gives the same floats as W @ X, faster
    S[:, :k], LS[:, :k] = X, deg[:, None] * X - W.T @ X
    m = k
    for it in range(LOBPCG_MAXITER + 1):
        vals, C = np.linalg.eigh(S[:, :m].T @ LS[:, :m])
        lam = vals[0]
        p, Lp = S[:, k:m] @ C[k:, 0], LS[:, k:m] @ C[k:, 0]
        S[:, :k], LS[:, :k] = S[:, :m] @ C[:, :k], LS[:, :m] @ C[:, :k]
        r = LS[:, 0] - lam * S[:, 0]
        res = float(np.linalg.norm(r))
        if not res > LOBPCG_TOL:
            LS[:, 0] = deg * S[:, 0] - W @ S[:, 0]
            r = LS[:, 0] - lam * S[:, 0]
            res = float(np.linalg.norm(r))
            if not res > LOBPCG_TOL:
                break
        m = k
        p, c, nrm = _deflate(S[:, :k], p)
        if nrm:
            S[:, m], LS[:, m] = p, (Lp - LS[:, :k] @ c) / nrm
            m += 1
        r, _, nrm = _deflate(S[:, :m], r - r.mean())
        if nrm:
            S[:, m], LS[:, m] = r, deg * r - W @ r
            m += 1
        if m == k:
            break
    return S[:, 0].copy(), res, it


def fiedler_vector(graph: ProximityGraph):
    """Second eigenvector of L = D - W, deflating the constant vector.

    ``_lobpcg`` iterates the lowest Ritz vector of a block started from the
    cloud's centred coordinates, on the graph's own adjacency, and the
    constant vector stays out because every direction is centred. Returns
    (v, ||Lv - lam v||); a solve that stops above ``LOBPCG_TOL`` raises
    ``EigenNotConverged`` naming the iterations it ran, with its residual
    last.
    """
    try:
        v, res, its = _lobpcg(graph.adjacency, _start_block(graph.points))
    except np.linalg.LinAlgError as exc:
        raise EigenNotConverged(f"Fiedler iteration failed: {exc}") from exc
    if not res <= LOBPCG_TOL:
        raise EigenNotConverged(f"Fiedler iteration stopped after {its} of at "
                                f"most {LOBPCG_MAXITER} iterations: "
                                f"residual {res:.3g}")
    return v, res


def solve_spectral_sweep(graph: ProximityGraph) -> CutResult:
    """Best Cheeger ratio among the n-1 threshold cuts of the Fiedler vector,
    with the twins it splits placed by index (``_sweep_subset``)."""
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
    return result_from_subset(graph, _sweep_subset(graph, v),
                              solver="spectral_sweep",
                              extras={"eigen_residual": res})


def _sweep_subset(graph, v):
    """Canonical best threshold cut of v, with each twin class it splits
    filled on vertex 0's side from its lowest indices.

    Twins, vertices of one closed neighbourhood, have equal entries in every
    eigenvector of L, so only the solver's rounding (or v's sign) orders
    them; swapping two twins maps the graph to itself, so the cut scores the
    same. Each vertex's key sums integer weights below 2^53 / n over its
    closed neighbourhood, exactly in any order, so twins share a key; the
    vertices of a key the cut splits are grouped by closed neighbourhood.
    """
    n = graph.n
    order = np.argsort(v, kind="stable")
    mask = _as_mask(n, canonical_subset(n, order[:_best_sweep_k(graph, order)]))
    A = graph.adjacency
    r = np.random.default_rng(0).integers(2 ** 53 // n, size=n).astype(float)
    _, inv, counts = np.unique(A @ r + r, return_inverse=True, return_counts=True)
    inside = np.bincount(inv, weights=mask)
    classes = {}
    for a in np.flatnonzero(((inside > 0) & (inside < counts))[inv]):
        closed = np.sort(np.append(A.indices[A.indptr[a]:A.indptr[a + 1]], a))
        classes.setdefault(closed.tobytes(), []).append(a)
    for members in classes.values():
        # members ascend; the side of vertex 0 keeps as many as it had
        mask[members] = np.arange(len(members)) < mask[members].sum()
    return np.flatnonzero(mask)


def _best_sweep_k(graph, order):
    """argmin over prefix cuts of the sorted order, Cheeger ratio."""
    n = graph.n
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    # an edge crosses the prefix cuts of sizes lo + 1 .. hi of its two ranks
    diff = np.zeros(n + 1, dtype=np.int64)
    for block in _edge_blocks(graph):
        ri, rj = rank[block[:, 0]], rank[block[:, 1]]
        diff += np.bincount(np.minimum(ri, rj) + 1, minlength=n + 1)
        diff -= np.bincount(np.maximum(ri, rj) + 1, minlength=n + 1)
    cut = np.cumsum(diff)[1:n]  # cut of prefix size k, k = 1..n-1
    vals = cheeger_ratio(cut, np.arange(1, n), n, graph.rescale)
    return int(np.argmin(vals)) + 1


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------

def refine_local_search(graph: ProximityGraph, start: CutResult) -> CutResult:
    """Greedy best single-vertex moves on the Cheeger ratio.

    Each move flips the first vertex whose flip scores least, while that is
    strictly below the current ratio, for at most ``LOCAL_SEARCH_PASSES * n``
    moves; a search that moves nothing returns ``start`` itself. Degrees
    and inside neighbours are read off the CSR adjacency, which a graph
    builds on first access.
    """
    n = graph.n
    mask = _as_mask(n, start.subset)
    A = graph.adjacency
    deg = graph.degrees
    d_in = (A @ mask.astype(float)).astype(np.int64)
    # each inside vertex contributes deg - d_in crossing edges
    cut = int(np.sum(deg[mask] - d_in[mask]))
    size = int(mask.sum())
    scale = graph.rescale
    cur = float(cheeger_ratio(cut, size, n, scale))
    moves = 0
    while moves < LOCAL_SEARCH_PASSES * n:
        cut_new = np.where(mask, cut - deg + 2 * d_in, cut + deg - 2 * d_in)
        size_new = np.where(mask, size - 1, size + 1)
        vals = cheeger_ratio(cut_new, size_new, n, scale)
        v = int(np.argmin(vals))
        if not vals[v] < cur:
            break
        nb = A.indices[A.indptr[v]:A.indptr[v + 1]]
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
    if moves == 0:
        return start
    return result_from_subset(graph, mask, solver="local_search",
                              extras={"moves": moves, "start": start.solver})


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def solve_pipeline(graph: ProximityGraph) -> CutResult:
    """Default estimator: one start cut, refined by local search unless a
    solver certified it.

    A circle cloud starts from the arc sweep, exact over every arc, so no
    eigen solve runs there; its cut is the answer unless gaps in the edge
    windows left it ``Heuristic``. Any other graph starts from the spectral
    sweep, or from the trivial cut [0] when the eigen solve fails
    (``degraded``), and both are refined.
    """
    if graph.cloud is not None and isinstance(graph.cloud.manifold, Circle):
        start = solve_arc_sweep(graph)
    else:
        try:
            start = solve_spectral_sweep(graph)
        except EigenNotConverged:
            start = result_from_subset(graph, [0], solver="fallback")
    cut = start
    if start.certificate == "Heuristic":
        # a search that moves nothing returns its start, whose solver then wins
        cut = refine_local_search(graph, start)
    # the residual is None where the solve failed or did not run
    return replace(cut, solver="pipeline", certificate="Heuristic",
                   extras={"degraded": start.solver == "fallback",
                           "winner": cut.solver,
                           "eigen_residual": start.extras.get("eigen_residual"),
                           **cut.extras})
