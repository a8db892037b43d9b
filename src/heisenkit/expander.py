"""Cayley graphs of SL_n(Z/qZ) with elementary generators and their
spectral gaps.

Vertices are enumerated by one BFS pass from the identity.  Matrices are
base-q codes, and each generator e_{i,j}(v) acts on a whole frontier as
the column operation g[r, j] += v g[r, i] mod q, written as a change of
code; a dense code -> vertex table numbers the new vertices and yields
each level's neighbour rows as soon as the level closes.  The same pass
sorts each level into orbits of W, the identity's stabiliser generated by
conjugation with adjacent transpositions and with diag(-1, 1, ...) and by
inverse-transpose: each of these maps {e_{i,j}(+-p)} onto itself, so it
is a graph automorphism fixing e and keeps word length.

The gap is degree - lambda_2, with lambda_2 the top eigenvalue of the
adjacency with its constant eigenvector deflated, from one sparse Lanczos
solve (ARPACK, k = 1) on the symmetric quotient of the orbit partition
rather than on the whole group.  No eigenvalue is lost: every left
translation and every element of W commutes with A, so the spectral
projection P_lambda delta_e is W-fixed, hence constant on orbits, and
vertex-transitivity gives ||P_lambda delta_e||^2 = dim V_lambda / |G| > 0.
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
    orbits: np.ndarray                     # W-orbit of each vertex, numbered
                                           # in order of smallest member


def enumerate_group(n: int, q: int, p: int = 1,
                    order_cap: int = DEFAULT_ORDER_CAP) -> CayleyGraph:
    """BFS closure of {e_{i,j}(+-p)} inside SL_n(Z/qZ), with its W-orbits.

    A matrix is its base-q code sum_{r,c} g[r, c] q^{rn+c}.  Right
    multiplication by e_{i,j}(v) is the column operation
    g[r, j] += v g[r, i] mod q, so each level's products come from the
    frontier's codes by one digit update per generator.  One dense table
    maps every code to its vertex index (-1 while unseen); the unseen
    products of a level are sorted and deduplicated, numbered in that
    order and become the next frontier, and the level's neighbour rows are
    read from the table as soon as the level closes.  W keeps word length,
    so the images of a level under W's generators lie in that level; the
    table turns them into vertex indices and min-label propagation labels
    each vertex with the smallest vertex of its orbit.

    Raises when the enumeration exceeds ``order_cap``.
    """
    if not 2 <= n <= 3:
        raise ValueError("supported desk scale is n in {2, 3}")
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        zero = np.zeros((1,), dtype=np.int64)
        return CayleyGraph(n, q, p, 1, 0, zero,
                           np.zeros((1, 0), dtype=np.int64), zero)
    gens = elementary_generators(n, q, p)
    powers = q ** np.arange(n * n, dtype=np.int64)
    index_of = np.full(q ** (n * n), -1, dtype=np.int64)
    frontier = np.array([powers[::n + 1].sum()], dtype=np.int64)  # identity
    index_of[frontier] = 0
    code_chunks, nbr_chunks, label_chunks = [frontier], [], []
    count = 1
    while frontier.size:
        digits = frontier // powers[:, None] % q
        start = count - frontier.size
        images = index_of[_stabiliser_images(frontier, digits, n, q,
                                              powers)] - start
        if images.min() < 0 or images.max() >= frontier.size:
            raise ValueError("a stabiliser image left its BFS level")
        label_chunks.append(start + _orbit_labels(images))
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
    smallest = np.concatenate(label_chunks)
    orbits = np.cumsum(smallest == np.arange(count))[smallest] - 1
    return CayleyGraph(n, q, p, count, len(gens), np.concatenate(code_chunks),
                       np.concatenate(nbr_chunks), orbits)


def _stabiliser_images(frontier: np.ndarray, digits: np.ndarray, n: int,
                       q: int, powers: np.ndarray) -> np.ndarray:
    """Codes of W's generators applied to a level, given its codes and
    their base-q digits (n*n, size): conjugation by each adjacent
    transposition (a permutation of the digits) and by diag(-1, 1, ...)
    (negating row 0 and column 0 off the diagonal), then inverse-transpose,
    which on SL_n is the cofactor matrix.  One row per generator; each
    generator is an involution."""
    at = np.arange(n * n).reshape(n, n)
    out = []
    for i in range(n - 1):
        swap = np.arange(n)
        swap[[i, i + 1]] = i + 1, i
        out.append(powers[at[swap][:, swap].ravel()] @ digits)
    flip = np.concatenate([at[0, 1:], at[1:, 0]])
    negate = (-np.arange(q)) % q - np.arange(q)   # d -> -d mod q, as a change
    out.append(frontier + powers[flip] @ negate[digits[flip]])
    g = digits.reshape(n, n, -1)
    inv_t = np.zeros_like(frontier)
    for r in range(n):
        for c in range(n):
            if n == 2:
                cof = (-1) ** (r + c) * g[1 - r, 1 - c]
            else:
                r1, r2 = (r + 1) % 3, (r + 2) % 3
                c1, c2 = (c + 1) % 3, (c + 2) % 3
                cof = g[r1, c1] * g[r2, c2] - g[r1, c2] * g[r2, c1]
            inv_t += powers[at[r, c]] * (cof % q)
    out.append(inv_t)
    return np.stack(out)


def _orbit_labels(images: np.ndarray) -> np.ndarray:
    """Smallest local index in each vertex's orbit, given the local indices
    of its images under the generators (one row each): min-label
    propagation with pointer jumping until nothing changes."""
    label = np.arange(images.shape[1])
    while True:
        new = np.minimum(label, label[images].min(axis=0))
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


@dataclass
class GapResult:
    lambda2: float
    gap: float
    normalized_gap: float
    connected: bool
    method: str
    iterations: int = 0
    residual: float = 0.0
    classes: int = 1                       # dimension of the quotient solved
    vector: np.ndarray | None = None       # its Ritz vector for lambda_2


def spectral_gap(graph: CayleyGraph) -> GapResult:
    """gap = degree - lambda_2 of the adjacency operator A.

    lambda_2 is solved on the quotient of an equitable partition of the
    vertices whose class of the identity (vertex 0) is {e}: the W-orbits of
    a ``CayleyGraph``, or single vertices for a graph without ``orbits``
    (e.g. a test fixture).  With Q_kl the neighbours in class l of a vertex
    of class k, the quotient M_kl = Q_kl sqrt(|O_k| / |O_l|) =
    sqrt(Q_kl Q_lk) is symmetric and its spectrum is that of A on
    class-constant vectors.  That spectrum is all of A's: delta_e is
    class-constant, so is every P_lambda delta_e = p(A) delta_e, and
    vertex-transitivity gives ||P_lambda delta_e||^2 = dim V_lambda / N > 0.
    The partition is checked in integers first (``_quotient_operator``).

    The constant vector maps to c_k = sqrt(|O_k| / N), M's top eigenvector
    (eigenvalue ``degree``), so it is deflated: B u = M u - 3 degree (c.u) c
    sends it to -2 degree, strictly below every eigenvalue of A, and leaves
    the rest in place.  lambda_2 is then B's largest eigenvalue, from one
    implicitly restarted Lanczos solve (ARPACK ``eigsh``, k = 1, tolerance
    at machine precision) started from a fixed-seed vector, so identical
    input gives bitwise-identical output.  ``iterations`` counts
    applications of B, ``classes`` is M's dimension, and ``residual`` is
    ||A f - lambda_2 f|| on the whole graph for the Ritz vector lifted to
    f_v = u_k / sqrt(|O_k|) (v in O_k).  (With a shift of 2 degree the
    constant vector would tie with -degree, the bottom eigenvalue of a
    bipartite graph such as K_2; 3 degree keeps it strictly below.)

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
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    nbr = graph.neighbors
    classes = getattr(graph, "orbits", None)
    if classes is None:
        classes = np.arange(v_count)
    quotient, sizes = _quotient_operator(nbr, classes)
    unit = np.sqrt(sizes / v_count)
    shift = 3.0 * deg

    def deflated(u):
        return quotient @ u - shift * (unit @ u) * unit

    matvecs = 0

    def apply(u):
        nonlocal matvecs
        matvecs += 1
        return deflated(u)

    v0 = np.random.default_rng(START_SEED).standard_normal(sizes.size)
    try:
        w, vecs = eigsh(LinearOperator(quotient.shape, matvec=apply,
                                       dtype=float),
                        k=1, which="LA", tol=0, v0=v0)
    except ArpackNoConvergence as exc:
        raise ValueError(f"Lanczos did not converge after {matvecs} "
                         f"operator applications") from exc
    lam2 = float(w[0])
    u2 = vecs[:, 0]
    f = (u2 / np.sqrt(sizes))[classes]
    res = float(np.linalg.norm(f[nbr].sum(axis=1) - lam2 * f))
    gap = deg - lam2
    connected = gap > max(10 * res, 1e-9)
    return GapResult(lambda2=lam2, gap=gap if connected else 0.0,
                     normalized_gap=(gap / deg if connected else 0.0),
                     connected=connected, method="lanczos",
                     iterations=matvecs, residual=res, classes=sizes.size,
                     vector=u2)


def _quotient_operator(neighbors: np.ndarray, classes: np.ndarray):
    """The symmetric quotient M_kl = sqrt(Q_kl Q_lk) (a CSR matrix) and
    the class sizes |O_k| of the partition ``classes`` (class index per
    vertex, 0..K-1) of the graph with neighbour table ``neighbors``.

    Refuses, in integers, a partition that cannot carry lambda_2: vertex 0
    (the identity) must be alone in its class, every vertex of a class must
    have the same count of neighbours in each class, and
    |O_k| Q_kl = |O_l| Q_lk for every pair of classes.
    """
    from scipy.sparse import csr_matrix

    v_count, deg = neighbors.shape
    sizes = np.bincount(classes)
    if not sizes.all():
        raise ValueError("orbit partition has an empty class")
    if sizes[classes[0]] != 1:
        raise ValueError("orbit partition does not keep the identity alone "
                         "in its class")
    k = sizes.size
    member = np.empty(k, dtype=np.int64)
    member[classes] = np.arange(v_count)   # any one vertex of each class
    rows = classes[neighbors]
    rows.sort(axis=1)
    for col, rep_col in zip(rows.T, rows[member].T):   # a column at a time
        if not np.array_equal(col, rep_col[classes]):
            raise ValueError("orbit partition is not equitable: vertices of "
                             "one class differ in their neighbour counts")
    counts = csr_matrix((np.ones(k * deg, dtype=np.int64),
                         rows[member].ravel(), np.arange(0, k * deg + 1, deg)),
                        shape=(k, k))
    counts.sum_duplicates()
    weighted = counts.multiply(sizes[:, None]).tocsr()
    if (weighted != weighted.T).nnz:
        raise ValueError("orbit partition is not equitable: |O_k| Q_kl != "
                         "|O_l| Q_lk")
    return counts.multiply(counts.T).sqrt().tocsr(), sizes


def coprime_residues(q: int) -> list[int]:
    return [p for p in range(1, q) if gcd(p, q) == 1] or [1]


def family_report(n: int, q_list, p_rule: str = "coprime",
                  order_cap: int = DEFAULT_ORDER_CAP) -> list[dict]:
    """One row per (q, p): BFS order vs the classical order, spectral gap,
    normalized gap, and the Lanczos residual, quotient operator
    applications and quotient dimension behind lambda_2.  ``p_rule`` is
    "unit" (p = 1 only) or "coprime" (every residue prime to q).  Rows for
    p and q - p share one computation since the symmetrized generator sets
    coincide.
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
                "classes": gap.classes,
                "seconds": elapsed,
            })
    return rows
