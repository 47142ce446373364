"""Exact and approximate minimizers of the graph Cheeger ratio.

The discrete Cheeger problem is NP-hard, so we provide:

* ``solve_exact``         -- full enumeration for n <= 24;
* ``solve_arc_sweep``     -- exact over the arcs of a circle cloud's angular
  order, from the edge counts at each boundary of that order;
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
start in angular order, and it scores only the arcs that integer bounds on
the cut leave in reach of the best found.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.csgraph as csgraph

from .errors import EigenNotConverged, SizeLimitExceeded, WrongManifold
from .manifold import Circle
from .proximity_graph import (ProximityGraph, _as_mask, _edge_blocks,
                              _lag_chunks, cheeger_ratio, cut_and_balance,
                              objective)

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
    """Exact Cheeger optimum over the arcs of the angular order.

    Boundary b sits between positions b - 1 and b, so the arc [i, i + L)
    has the boundaries i and i + L. Each edge runs forward from its tail, the
    endpoint behind in angle, ``step`` positions to its head, and crosses
    the boundaries between them; c(b) counts the edges that cross b, and S
    is the longest step. An edge is cut iff it crosses exactly one of the
    arc's two boundaries, so for S <= L <= n - L the cut is c(i) + c(i + L);
    a shorter arc's cut subtracts twice the edges that cross both
    (``_arc_counts``). An arc of length n - L is the complement of one of
    length L, with the same cut and balance, and ties go to the shorter
    arc, so only the lengths 1..floor(n/2) are searched:

    * the arcs of length floor(n/2) give a best cut C* at length L*;
    * at S <= L an arc from start i scores (c(i) + c(i + L)) / L, at least
      (c(i) + c_min) / L, so start i is searched from the least L at which
      that bound reaches C* / L*;
    * an arc shorter than S has each vertex's degree less at most L - 1
      inside neighbours as its cut, at least L (d_min - L + 1); a length
      whose bound, or whose arcs' degree sums less L (L - 1), cannot reach
      C* / L* is skipped, and every other length is scored exactly, whole.

    Bounds compare cut * L* with C* * L in integers. They keep an arc
    within a relative 2^-50 of C* / L* (``tol``; 0 while C* * n / 2 < 2^50),
    which covers the float rounding of ``cheeger_ratio``, so every arc that
    could tie the best float is scored. The tie rule: the least float
    ``cheeger_ratio``, then the shortest arc, then the first start.

    The result is exact over arcs on every edge list. Its certificate is
    ``FamilyOptimum`` when each vertex's neighbours are the nearest behind it
    and ahead of it in angular order (contiguous windows), as in an
    epsilon-graph; any other edge list, such as a thinned one, gets
    ``Heuristic``, and the pipeline refines its cut.
    """
    if graph.cloud is None or not isinstance(graph.cloud.manifold, Circle):
        raise WrongManifold("arc sweep requires a graph built on a Circle cloud")
    n = graph.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    order, c, deg, longest, contiguous, crossing = _arc_counts(graph)
    c2 = np.concatenate([c, c])  # boundaries i + L need no modulo
    half = n // 2
    best = None  # (float ratio, length, start, cut)

    def offer(cut, length, start):
        nonlocal best
        if not len(cut):
            return
        vals = cheeger_ratio(cut, length, n, graph.rescale)
        k = np.flatnonzero(vals == vals.min())
        k = k[np.lexsort((start[k], length[k]))[0]]
        cand = (float(vals[k]), int(length[k]), int(start[k]), int(cut[k]))
        if best is None or cand[:3] < best[:3]:
            best = cand

    def bound():
        """(C*, L*, tol): an arc of cut x at length L stays while
        x * L* <= C* * L + tol."""
        return best[3], best[1], (best[3] * half) >> 50

    every = np.arange(n)
    if longest <= half:
        shortest = max(longest, 1)
        offer(c + c2[half:half + n], np.full(n, half), every)
        cut_best, len_best, tol = bound()
        need = (c + c.min()) * len_best - tol
        if cut_best:
            # the least L with need <= C* L, less one: the lags past lo
            lo = np.clip(-(-need // cut_best) - 1, shortest - 1, half - 1)
            for p0, p1, cnt, q in _lag_chunks(lo, np.full(n, half - 1)):
                p = np.repeat(np.arange(p0, p1), cnt)
                offer(c[p] + c2[q], q - p, p)
        else:
            # only zero cuts compete: from each zero boundary the next one
            # at least `shortest` ahead
            zero = np.flatnonzero(c2 == 0)
            start = zero[zero < n]
            length = zero[np.searchsorted(zero, start + shortest)] - start
            keep = length < half
            offer(np.zeros(keep.sum(), dtype=np.int64), length[keep], start[keep])
    cum = np.concatenate([[0], np.cumsum(np.concatenate([deg, deg]))])
    d_min = int(deg.min())
    for length in range(min(longest - 1, half), 0, -1):
        if best is not None:
            cut_best, len_best, tol = bound()
            if length * (d_min - length + 1) * len_best > cut_best * length + tol:
                continue
            lower = cum[length:length + n] - cum[:n] - length * (length - 1)
            if not (lower * len_best <= cut_best * length + tol).any():
                continue
        both = crossing(length)
        if longest > n - length:
            both += np.roll(crossing(n - length), -length)
        offer(c + c2[length:length + n] - 2 * both, np.full(n, length), every)
    _, length, start, _ = best
    subset = order[(start + np.arange(length)) % n]
    res = result_from_subset(graph, subset, solver="arc_sweep")
    return res if contiguous else replace(res, certificate="Heuristic")


def _arc_counts(graph):
    """(order, c, deg, S, contiguous, crossing) of ``solve_arc_sweep``, in
    angular positions: the order, the boundary counts c, the degrees, the
    longest step S, whether the windows are contiguous, and the function
    m -> A_m, where A_m(b) counts the edges that cross both b and b + m
    (c is A_0). An edge crosses both boundaries of the arc [i, i + L) iff it
    is counted in A_L(i) or in A_{n-L}(i + L).

    A graph that kept its build's windows (``ProximityGraph.windows``) gives
    them in O(n) each: the edges of position p run to p + 1..p + count[p],
    so A_m adds a ramp count[p] - m, count[p] - m - 1, ..., 1 on the
    boundaries from p + 1. Its forward windows are contiguous by
    construction, and its backward ones iff no window ends before the one
    behind it: count[p + 1] >= count[p] - 1. Any other graph gets them from
    passes over its edge list: steps are taken forward in angle, and the
    backward windows are contiguous iff the steps sum to
    sum rcw (rcw + 1) / 2 and to sum lccw (lccw + 1) / 2 (rcw and lccw the
    edges from each position forward and backward): a position's steps to
    its heads are distinct in 1..n - 1, so they sum to at least that, and
    to that only if they are 1..rcw, and the same holds from the heads.
    """
    n = graph.n
    if graph.windows is not None:
        order, count = graph.windows
        # the windows that reach each position are its edges behind it
        behind = np.zeros(2 * n + 1, dtype=np.int64)
        _cross(behind, np.arange(n), count, 0)
        return (order, _ramps(count), count + _fold(np.cumsum(behind), n),
                int(count.max()),
                bool((np.roll(count, -1) >= count - 1).all()),
                lambda m: _ramps(np.maximum(count - m, 0)))
    t = graph.cloud.manifold.to_intrinsic(graph.points)
    order = np.argsort(t, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    def steps():
        """Per edge block, (tail position, step)."""
        for block in _edge_blocks(graph):
            i, j = block[:, 0], block[:, 1]
            # the gap from i forward to j in the sorted order, past its end
            # where j comes first: a point at t = 1.0 is behind one at 0.0
            g = t[j] - t[i] + (rank[j] < rank[i])
            fwd = (g < 0.5) | ((g == 0.5) & (i < j))
            tail = rank[np.where(fwd, i, j)]
            yield tail, (rank[np.where(fwd, j, i)] - tail) % n

    def crossing(m):
        diff = np.zeros(2 * n + 1, dtype=np.int64)
        for tail, step in steps():
            _cross(diff, tail, step, m)
        return _fold(np.cumsum(diff), n)

    # one pass for c, the windows and the steps' sum and maximum
    rcw = np.zeros(n, dtype=np.int64)
    lccw = np.zeros(n, dtype=np.int64)
    diff = np.zeros(2 * n + 1, dtype=np.int64)
    spread = longest = 0
    for tail, step in steps():
        head = tail + step
        rcw += np.bincount(tail, minlength=n)
        lccw += np.bincount(head % n, minlength=n)
        _cross(diff, tail, step, 0)
        spread += int(step.sum())
        longest = max(longest, int(step.max()))
    contiguous = spread == int((rcw * (rcw + 1)).sum()) // 2 \
        == int((lccw * (lccw + 1)).sum()) // 2
    return (order, _fold(np.cumsum(diff), n), rcw + lccw, longest, contiguous,
            crossing)


def _cross(diff, tail, step, m):
    """Add to the difference array ``diff`` of doubled boundaries the edges
    of step > m, each on the boundaries b = tail + 1..tail + step - m, at
    which it crosses both b and b + m."""
    k = step > m
    diff += np.bincount(tail[k] + 1, minlength=len(diff))
    diff -= np.bincount(tail[k] + step[k] - m + 1, minlength=len(diff))


def _fold(f, n):
    """A function of the doubled positions 0..2n - 1 summed onto 0..n - 1."""
    return f[:n] + f[n:2 * n]


def _ramps(h):
    """Per position b, the sum over p of the ramps h[p], h[p] - 1, ..., 1 on
    the positions p + 1, p + 2, ... (mod n), from their second differences."""
    n = len(h)
    d2 = np.zeros(2 * n + 2, dtype=np.int64)
    d2[1:n + 1] += h
    d2[2:n + 2] -= h + 1
    d2 += np.bincount(np.arange(n) + h + 2, minlength=2 * n + 2)
    return _fold(np.cumsum(np.cumsum(d2)), n)


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
