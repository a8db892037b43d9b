"""Cayley graphs of SL_n(Z/qZ) with elementary generators and their
spectral gaps.

Vertices are enumerated by BFS closure from the identity; matrices are
encoded as base-q digit vectors so the whole frontier advances with a few
vectorized column operations per generator.  The gap is degree - lambda_2:
dense eigensolve up to 4000 vertices, shifted power iteration with
deflation against the constant vector above that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import gcd

import numpy as np

DEFAULT_ORDER_CAP = 200000
DENSE_EIG_LIMIT = 4000
POWER_TOL = 1e-10
POWER_MAXITER = 200000
POWER_SEED = 12345


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


def elementary_generators(n: int, q: int, p: int) -> list[np.ndarray]:
    """Symmetrized set {e_{i,j}(+-p) : i != j} as distinct residue matrices.
    Collapses when p = -p mod q (e.g. q = 2)."""
    seen = set()
    out = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for v in (p % q, (-p) % q):
                g = np.eye(n, dtype=np.int64)
                g[i, j] = v
                key = tuple(g.ravel())
                if key not in seen:
                    seen.add(key)
                    out.append(g)
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
    generators: list = field(default_factory=list)


def _encode(mats: np.ndarray, q: int, powers: np.ndarray) -> np.ndarray:
    return mats.reshape(mats.shape[0], -1) @ powers


def _decode(codes: np.ndarray, n: int, q: int) -> np.ndarray:
    nn = n * n
    digits = np.empty((codes.size, nn), dtype=np.int64)
    c = codes.copy()
    for k in range(nn):
        digits[:, k] = c % q
        c //= q
    return digits.reshape(codes.size, n, n)


def enumerate_group(n: int, q: int, p: int = 1,
                    order_cap: int = DEFAULT_ORDER_CAP,
                    shuffle_seed: int | None = None) -> CayleyGraph:
    """BFS closure of {e_{i,j}(+-p)} inside SL_n(Z/qZ).

    Raises when the enumeration exceeds ``order_cap``.  The optional seed
    shuffles the generator application order and the final vertex
    labeling; the spectrum must not depend on it.
    """
    if not 2 <= n <= 3:
        raise ValueError("supported desk scale is n in {2, 3}")
    if q < 1:
        raise ValueError("q must be >= 1")
    gens = elementary_generators(n, q, p) if q > 1 else []
    rng = None
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        gens = [gens[i] for i in rng.permutation(len(gens))]
    nn = n * n
    powers = q ** np.arange(nn, dtype=np.int64) if q > 1 else np.ones(nn, dtype=np.int64)
    if q == 1:
        ident = np.zeros((1,), dtype=np.int64)
        return CayleyGraph(n, q, p, 1, 0, ident,
                           np.zeros((1, 0), dtype=np.int64), [])
    visited = np.zeros(q ** nn, dtype=bool)
    ident = np.eye(n, dtype=np.int64)[None]
    frontier = ident
    visited[_encode(ident, q, powers)] = True
    chunks = [_encode(ident, q, powers)]
    count = 1
    while frontier.shape[0]:
        prods = np.concatenate([(frontier @ g) % q for g in gens])
        codes = _encode(prods, q, powers)
        codes, first = np.unique(codes, return_index=True)
        fresh = ~visited[codes]
        codes = codes[fresh]
        visited[codes] = True
        frontier = prods[first[fresh]]
        count += codes.size
        if count > order_cap:
            raise ValueError(f"group enumeration reached {count} elements, "
                             f"beyond the cap {order_cap}")
        if codes.size:
            chunks.append(codes)
    all_codes = np.concatenate(chunks)
    if rng is not None:
        all_codes = all_codes[rng.permutation(all_codes.size)]
    order = all_codes.size
    index_of = np.full(q ** nn, -1, dtype=np.int64)
    index_of[all_codes] = np.arange(order)
    mats = _decode(all_codes, n, q)
    nbr_cols = []
    for g in gens:
        codes_n = _encode((mats @ g) % q, q, powers)
        col = index_of[codes_n]
        if np.any(col < 0):
            raise RuntimeError("BFS closure is not generator-closed")
        nbr_cols.append(col)
    neighbors = np.stack(nbr_cols, axis=1) if gens else np.zeros((order, 0), np.int64)
    return CayleyGraph(n, q, p, order, len(gens), all_codes, neighbors,
                       [g.copy() for g in gens])


@dataclass
class GapResult:
    lambda2: float
    gap: float
    normalized_gap: float
    connected: bool
    method: str
    iterations: int = 0
    residual: float = 0.0


def spectral_gap(graph: CayleyGraph | "FixtureGraph",
                 tol: float = POWER_TOL,
                 maxiter: int = POWER_MAXITER) -> GapResult:
    """gap = degree - lambda_2 of the adjacency operator.

    A disconnected graph shows lambda_2 = degree (eigenvalue ``degree``
    with multiplicity > 1) and is flagged connected=False with gap 0.
    """
    v_count, deg = graph.order, graph.degree
    if v_count == 1:
        # single vertex: no second eigenvalue; report zeros by convention
        return GapResult(lambda2=0.0, gap=0.0, normalized_gap=0.0,
                         connected=True, method="trivial")
    if v_count <= DENSE_EIG_LIMIT:
        adj = np.zeros((v_count, v_count))
        rows = np.repeat(np.arange(v_count), graph.neighbors.shape[1])
        np.add.at(adj, (rows, graph.neighbors.ravel()), 1.0)
        w = np.linalg.eigvalsh(adj)
        lam2 = float(w[-2])
        gap = deg - lam2
        connected = gap > 1e-9
        return GapResult(lambda2=lam2, gap=gap if connected else 0.0,
                         normalized_gap=(gap / deg if connected else 0.0),
                         connected=connected, method="dense")
    # shifted power iteration on the complement of the constant vector;
    # the shift keeps the operator PSD so bipartite -degree cannot win
    nbr = graph.neighbors
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(v_count)
    v -= v.mean()
    v /= np.linalg.norm(v)
    rho = 0.0
    res = np.inf
    iterations = 0
    for iterations in range(1, maxiter + 1):
        av = v[nbr].sum(axis=1)
        rho = float(v @ av)
        res = float(np.linalg.norm(av - rho * v))
        if res < tol:
            break
        w = av + deg * v
        w -= w.mean()
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
    if not res < tol:
        # the Rayleigh quotient is only a lower estimate of lambda_2 here
        raise ValueError(f"power iteration did not converge in {iterations} "
                         f"iterations (residual {res:.3e}, tol {tol:.1e})")
    lam2 = rho
    gap = deg - lam2
    connected = gap > max(10 * res, 1e-9)
    return GapResult(lambda2=lam2, gap=gap if connected else 0.0,
                     normalized_gap=(gap / deg if connected else 0.0),
                     connected=connected, method="power",
                     iterations=iterations, residual=res)


@dataclass
class FixtureGraph:
    """Plain neighbor-list graph for self-tests (complete graphs, unions)."""

    order: int
    degree: int
    neighbors: np.ndarray


def complete_graph(m: int) -> FixtureGraph:
    nbrs = np.array([[j for j in range(m) if j != i] for i in range(m)],
                    dtype=np.int64)
    return FixtureGraph(order=m, degree=m - 1, neighbors=nbrs)


def disjoint_union(a: FixtureGraph, b: FixtureGraph) -> FixtureGraph:
    if a.degree != b.degree:
        raise ValueError("union of regular graphs needs equal degrees")
    nbrs = np.concatenate([a.neighbors, b.neighbors + a.order])
    return FixtureGraph(order=a.order + b.order, degree=a.degree, neighbors=nbrs)


def coprime_residues(q: int) -> list[int]:
    return [p for p in range(1, q) if gcd(p, q) == 1] or [1]


def family_report(n: int, q_list, p_rule: str = "coprime",
                  order_cap: int = DEFAULT_ORDER_CAP) -> list[dict]:
    """One row per (q, p): BFS order vs the classical order, spectral gap,
    normalized gap.  ``p_rule`` is "unit" (p = 1 only) or "coprime" (every
    residue prime to q).  Rows for p and q - p share one computation since
    the symmetrized generator sets coincide.
    """
    if p_rule not in ("unit", "coprime"):
        raise ValueError("p_rule must be 'unit' or 'coprime'")
    rows = []
    cache: dict = {}
    for q in q_list:
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
                "seconds": elapsed,
            })
    return rows
