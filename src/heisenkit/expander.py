"""Cayley graphs of SL_n(Z/qZ) with elementary generators and their
spectral gaps.

Vertices are enumerated by one BFS pass from the identity.  Matrices are
base-q codes, and each generator e_{i,j}(v) acts on a whole frontier as
the column operation g[r, j] += v g[r, i] mod q, written as a change of
code; a dense code -> vertex table numbers the new vertices and yields
each level's neighbour rows as soon as the level closes.  The gap is
degree - lambda_2, with lambda_2 the top eigenvalue of the adjacency with
its constant eigenvector deflated, from one sparse Lanczos solve (ARPACK,
k = 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

import numpy as np

DEFAULT_ORDER_CAP = 400000
START_SEED = 12345


def sl_order(n: int, q: int) -> int:
    """|SL_n(Z/qZ)| from multiplicativity over prime powers:
    |SL_n(Z/p^k)| = p^{(k-1)(n^2-1)} p^{n(n-1)/2} prod_{i=2..n} (p^i - 1)."""
    if q == 1:
        return 1
    total = 1
    m = q
    d = 2
    while d * d <= m:
        if m % d == 0:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            total *= _sl_prime_power(n, d, k)
        d += 1
    if m > 1:
        total *= _sl_prime_power(n, m, 1)
    return total


def _sl_prime_power(n: int, p: int, k: int) -> int:
    base = p ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        base *= p ** i - 1
    return p ** ((k - 1) * (n * n - 1)) * base


def elementary_generators(n: int, q: int, p: int) -> list[tuple[int, int, int]]:
    """The symmetrized set {e_{i,j}(+-p) : i != j} as (i, j, v) entries,
    v a residue mod q, one per distinct matrix.  Collapses when p = -p
    mod q (e.g. q = 2), and to the identity alone when p = 0 mod q."""
    out = []
    for i in range(n):
        for j in range(n):
            for v in dict.fromkeys((p % q, (-p) % q)):
                if i != j and (v or not out):
                    out.append((i, j, v))
    return out


@dataclass
class CayleyGraph:
    n: int
    q: int
    p: int
    order: int
    degree: int
    codes: np.ndarray                      # encoded vertices, BFS discovery order
    neighbors: np.ndarray                  # (order, degree) vertex indices


def enumerate_group(n: int, q: int, p: int = 1,
                    order_cap: int = DEFAULT_ORDER_CAP) -> CayleyGraph:
    """BFS closure of {e_{i,j}(+-p)} inside SL_n(Z/qZ).

    A matrix is its base-q code sum_{r,c} g[r, c] q^{rn+c}.  Right
    multiplication by e_{i,j}(v) is the column operation
    g[r, j] += v g[r, i] mod q, so each level's products come from the
    frontier's codes by one digit update per generator.  One dense table
    maps every code to its vertex index (-1 while unseen); the unseen
    products of a level are sorted and deduplicated, numbered in that
    order and become the next frontier, and the level's neighbour rows are
    read from the table as soon as the level closes.

    Raises when the enumeration exceeds ``order_cap``.
    """
    if not 2 <= n <= 3:
        raise ValueError("supported desk scale is n in {2, 3}")
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return CayleyGraph(n, q, p, 1, 0, np.zeros((1,), dtype=np.int64),
                           np.zeros((1, 0), dtype=np.int64))
    gens = elementary_generators(n, q, p)
    powers = q ** np.arange(n * n, dtype=np.int64)
    index_of = np.full(q ** (n * n), -1, dtype=np.int64)
    frontier = np.array([powers[::n + 1].sum()], dtype=np.int64)  # identity
    index_of[frontier] = 0
    code_chunks, nbr_chunks = [frontier], []
    count = 1
    while frontier.size:
        digits = frontier // powers[:, None] % q
        prods = np.empty((len(gens), frontier.size), dtype=np.int64)
        for col, (i, j, v) in enumerate(gens):
            src, dst = digits[i::n], digits[j::n]
            prods[col] = frontier + powers[j::n] @ ((dst + v * src) % q - dst)
        nbrs = index_of[prods]
        unseen = nbrs < 0
        candidates = prods[unseen]
        fresh = np.sort(candidates)
        fresh = fresh[np.diff(fresh, prepend=-1) != 0]
        index_of[fresh] = np.arange(count, count + fresh.size)
        count += fresh.size
        if count > order_cap:
            raise ValueError(f"group enumeration reached {count} elements, "
                             f"beyond the cap {order_cap}")
        nbrs[unseen] = index_of[candidates]
        nbr_chunks.append(nbrs.T)
        code_chunks.append(fresh)
        frontier = fresh
    return CayleyGraph(n, q, p, count, len(gens), np.concatenate(code_chunks),
                       np.concatenate(nbr_chunks))


@dataclass
class GapResult:
    lambda2: float
    gap: float
    normalized_gap: float
    connected: bool
    method: str
    iterations: int = 0
    residual: float = 0.0


def spectral_gap(graph: CayleyGraph) -> GapResult:
    """gap = degree - lambda_2 of the adjacency operator A.

    The constant vector is A's top eigenvector (eigenvalue ``degree``), so
    it is deflated: B v = A v - 3 degree mean(v) 1 sends it to -2 degree,
    strictly below every eigenvalue of A, and leaves the rest of A's
    spectrum in place.  lambda_2 is then B's largest eigenvalue, from one
    implicitly restarted Lanczos solve (ARPACK ``eigsh``, k = 1, tolerance
    at machine precision) started from a fixed-seed vector, so identical
    input gives bitwise-identical output.  ``iterations`` counts operator
    applications and ``residual`` is ||B v_2 - lambda_2 v_2||.  (With a
    shift of 2 degree the constant vector would tie with -degree, the
    bottom eigenvalue of a bipartite graph such as K_2; 3 degree keeps it
    strictly below.)

    A disconnected graph shows lambda_2 = degree (eigenvalue ``degree``
    with multiplicity > 1) and is flagged connected=False with gap 0.
    """
    v_count, deg = graph.order, graph.degree
    if v_count == 1:
        # single vertex: no second eigenvalue; report zeros by convention
        return GapResult(lambda2=0.0, gap=0.0, normalized_gap=0.0,
                         connected=True, method="trivial")
    # imported here: at module level every CLI start, expander or not,
    # would pay scipy.sparse.linalg's ~0.3 s and ~30 MB
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    nbr = graph.neighbors
    adj = csr_matrix((np.ones(nbr.size), nbr.ravel(),
                      np.arange(0, nbr.size + 1, deg)), shape=(v_count, v_count))
    shift = 3.0 * deg / v_count

    def deflated(v):
        return adj @ v - shift * v.sum()

    matvecs = 0

    def apply(v):
        nonlocal matvecs
        matvecs += 1
        return deflated(v)

    v0 = np.random.default_rng(START_SEED).standard_normal(v_count)
    try:
        w, vecs = eigsh(LinearOperator(adj.shape, matvec=apply, dtype=float),
                        k=1, which="LA", tol=0, v0=v0)
    except ArpackNoConvergence as exc:
        raise ValueError(f"Lanczos did not converge after {matvecs} "
                         f"operator applications") from exc
    lam2 = float(w[0])
    v2 = vecs[:, 0]
    res = float(np.linalg.norm(deflated(v2) - lam2 * v2))
    gap = deg - lam2
    connected = gap > max(10 * res, 1e-9)
    return GapResult(lambda2=lam2, gap=gap if connected else 0.0,
                     normalized_gap=(gap / deg if connected else 0.0),
                     connected=connected, method="lanczos",
                     iterations=matvecs, residual=res)


def coprime_residues(q: int) -> list[int]:
    return [p for p in range(1, q) if gcd(p, q) == 1] or [1]


def family_report(n: int, q_list, p_rule: str = "coprime",
                  order_cap: int = DEFAULT_ORDER_CAP) -> list[dict]:
    """One row per (q, p): BFS order vs the classical order, spectral gap,
    normalized gap, and the Lanczos residual and operator applications
    behind lambda_2.  ``p_rule`` is "unit" (p = 1 only) or "coprime" (every
    residue prime to q).  Rows for p and q - p share one computation since
    the symmetrized generator sets coincide.
    """
    if p_rule not in ("unit", "coprime"):
        raise ValueError("p_rule must be 'unit' or 'coprime'")
    rows = []
    cache: dict = {}
    for q in q_list:
        # coprime generators close up to all of SL_n(Z/q), so the classical
        # order is exactly what the BFS would enumerate
        if sl_order(n, q) > order_cap:
            raise ValueError(f"|SL_{n}(Z/{q})| = {sl_order(n, q)} exceeds "
                             f"the order cap {order_cap}")
        ps = [1] if p_rule == "unit" or q == 1 else coprime_residues(q)
        for p in ps:
            if q > 1 and gcd(p, q) != 1:
                raise ValueError(f"p={p} is not coprime to q={q}")
            key = (q, min(p % q, (-p) % q) if q > 1 else 0)
            if key not in cache:
                t0 = time.perf_counter()
                graph = enumerate_group(n, q, p, order_cap=order_cap)
                gap = spectral_gap(graph)
                cache[key] = (graph, gap, time.perf_counter() - t0)
            graph, gap, elapsed = cache[key]
            rows.append({
                "n": n, "q": q, "p": p,
                "order": graph.order,
                "classical_order": sl_order(n, q),
                "order_matches": graph.order == sl_order(n, q),
                "degree": graph.degree,
                "lambda2": gap.lambda2,
                "gap": gap.gap,
                "normalized_gap": gap.normalized_gap,
                "connected": gap.connected,
                "method": gap.method,
                "residual": gap.residual,
                "matvecs": gap.iterations,
                "seconds": elapsed,
            })
    return rows
