"""Cayley graphs of SL_n(Z/qZ) with elementary generators and their
spectral gaps.

The group is walked one class at a time.  W, the identity's stabiliser,
is generated by conjugation with adjacent transpositions and with
diag(-1, 1, ...) and by inverse-transpose (48 maps for n = 3).  Each of
these maps {e_{i,j}(+-p)} onto itself, so it is a graph automorphism that
fixes e and keeps word length: W's orbits are an equitable partition, and
each orbit lies in one BFS level.  A matrix is its base-q code; a class
is named by its canonical code, the least code among its |W| images, and
its size is |W| over the number of images equal to it.  The images are
float64 products of W's selections with a digit stack, taken in column
blocks small enough that BLAS runs each on the calling thread.  A BFS
level is a sorted array of canonical codes.  Each generator e_{i,j}(v)
acts on it as a column operation on the digits, every product is
canonicalised, and the canonical codes not yet known form the next level;
class ids are assigned after the walk.  Nothing of size q^(n^2) or |G|
is stored: the largest table is the (classes, degree) neighbour table of
class ids.

Before a map of W is trusted it is checked in integers: each generator
phi fixes e, maps the generating set S onto itself, and
phi(r s) = phi(r) phi(s) for every class representative r and every s in
S.

The gap is degree - lambda_2, with lambda_2 the top eigenvalue of the
adjacency with its constant eigenvector deflated, from one sparse Lanczos
solve (ARPACK, k = 1) on the symmetric quotient of the class partition
rather than on the whole group.  No eigenvalue is lost: every left
translation and every element of W commutes with A, so the spectral
projection P_lambda delta_e is W-fixed, hence constant on classes, and
vertex-transitivity gives ||P_lambda delta_e||^2 = dim V_lambda / |G| > 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from math import gcd

import numpy as np

from .linalg import physical_memory

DEFAULT_ORDER_CAP = 400000
START_SEED = 12345
CHUNK = 4096   # representatives per block; bounds the |W| x CHUNK image arrays
# multiply-adds per image product.  OpenBLAS runs a GEMM this small on the
# calling thread.  Whole (48 x 36) @ (36 x 4096) chunk products woke a
# second thread whose spin-wait doubled the BFS's CPU time for no wall
# time: SL_3(Z/5) took 0.14 s wall and 0.29 s CPU, and 0.11 s for both in
# blocks (OpenBLAS 0.3.31, 2 cores)
IMAGE_BLOCK = 2 ** 18


def sl_order(n: int, q: int) -> int:
    """|SL_n(Z/qZ)| from multiplicativity over prime powers:
    |SL_n(Z/p^k)| = p^{(k-1)(n^2-1)} p^{n(n-1)/2} prod_{i=2..n} (p^i - 1).
    Refuses a modulus q < 1."""
    if q < 1:
        raise ValueError(f"modulus q must be at least 1, got {q}")
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


def _check_modulus(n: int, q: int) -> None:
    """Refuse a modulus q < 1, and one whose base-q codes of n x n matrices
    pass the 2^53 that float64 images hold exactly."""
    if q < 1:
        raise ValueError(f"modulus q must be at least 1, got {q}")
    if q ** (n * n) > 2 ** 53:
        raise ValueError(f"codes of {n}x{n} matrices mod {q} reach "
                         f"{q}^{n * n}, past the 2^53 that float64 images "
                         f"hold exactly")


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
    order: int                             # |G|, the sum of ``sizes``
    degree: int
    codes: np.ndarray                      # canonical code of each class
    sizes: np.ndarray                      # members of each class
    neighbors: np.ndarray                  # (classes, degree): class of
                                           # codes[k] times each generator


def enumerate_group(n: int, q: int, p: int = 1,
                    order_cap: int = DEFAULT_ORDER_CAP) -> CayleyGraph:
    """BFS closure of {e_{i,j}(+-p)} inside SL_n(Z/qZ), one W-orbit at a
    time.

    A matrix is its base-q code sum_{r,c} g[r, c] q^{rn+c}.  Each level is
    a sorted array of canonical codes, one per class.  Right multiplication
    by e_{i,j}(v) is the column operation g[r, j] += v g[r, i] mod q, so a
    level's products come from its digits by one digit update per
    generator.  All |W| images of a product come from float64 products
    with its digit stack (``_stack``), exact because every code is below
    q^(n^2) <= 2^53, and the least image is its canonical code.  They are
    written into one preallocated array in column blocks of at most
    ``IMAGE_BLOCK`` multiply-adds (``_images``), so that BLAS never wakes
    a second thread for them.  The canonical codes not in the sorted array
    of known codes are the next level.  A representative is its own least
    image, so its class size is |W| over the number of its images equal to
    its code (orbit-stabiliser).  Levels are processed ``CHUNK``
    representatives at a time, and the homomorphism gate selects from a
    chunk's representatives once for all generators.  After the walk one
    ``argsort`` of all codes numbers the classes level by level, each in
    code order: the order of their least members in a vertex-by-vertex BFS
    that numbers each level in code order.

    Raises when the enumeration exceeds ``order_cap`` and when a generator
    of W fails the gate described in the module docstring.
    """
    if not 2 <= n <= 3:
        raise ValueError("supported desk scale is n in {2, 3}")
    _check_modulus(n, q)
    if q == 1:
        return CayleyGraph(n, q, p, 1, 0, np.zeros(1, dtype=np.int64),
                           np.ones(1, dtype=np.int64),
                           np.zeros((1, 0), dtype=np.int64))
    gens = elementary_generators(n, q, p)
    powers = q ** np.arange(n * n, dtype=np.int64)
    maps = stabiliser_maps(n)
    actions = _generator_actions(gens, n, q, powers)
    weights = np.zeros((len(maps), 4 * n * n))
    np.add.at(weights, (np.arange(len(maps))[:, None], maps), powers)
    level = known = powers[::n + 1].sum(keepdims=True)   # the identity
    images = np.empty((len(maps), CHUNK))
    codes, sizes, canons = [], [], []
    order = 0
    while level.size:
        canon = np.empty((level.size, len(gens)), dtype=np.int64)
        for lo in range(0, level.size, CHUNK):
            reps = level[lo:lo + CHUNK]
            d = reps // powers[:, None] % q
            stack = _stack(d, n, q)
            image = _images(weights, stack, images[:, :reps.size])
            sizes.append(len(maps) // (image == reps).sum(axis=0))
            order += int(sizes[-1].sum())
            gate = [(sel, stack[sel], image_of) for sel, image_of in actions]
            for col, gen in enumerate(gens):
                prod = _stack(_times(d, gen, n, q), n, q)
                _check_homomorphism(gate, prod, col, gens, n, q)
                canon[lo:lo + CHUNK, col] = _images(weights, prod,
                                                    image).min(axis=0)
        if order > order_cap:
            raise ValueError(f"group enumeration reached {order} elements, "
                             f"beyond the cap {order_cap}")
        found = np.unique(canon)
        at = np.minimum(np.searchsorted(known, found), known.size - 1)
        fresh = found[known[at] != found]
        known = np.sort(np.concatenate([known, fresh]))
        codes.append(level)
        canons.append(canon)
        level = fresh
    codes = np.concatenate(codes)
    by_code = np.argsort(codes)                         # known = codes[by_code]
    for canon in canons:                    # class ids written over the codes
        by_code.take(np.searchsorted(known, canon), out=canon)
    return CayleyGraph(n, q, p, order, len(gens), codes, np.concatenate(sizes),
                       np.concatenate(canons))


def _stabiliser_generators(n: int) -> list[np.ndarray]:
    """W's generators as selections from the digit stack of ``_stack``:
    entry r n + c of a selection is the stack row that holds the image's
    (r, c) digit.  Conjugation by an adjacent transposition permutes the
    digits, conjugation by diag(-1, 1, ...) negates row 0 and column 0 off
    the diagonal, and inverse-transpose is the cofactor matrix on SL_n."""
    nn = n * n
    at = np.arange(nn).reshape(n, n)
    out = []
    for i in range(n - 1):
        swap = np.arange(n)
        swap[[i, i + 1]] = i + 1, i
        out.append(at[swap][:, swap].ravel())
    flip = (at // n == 0) != (at % n == 0)          # row 0 xor column 0
    out.append((at + nn * flip).ravel())
    out.append(2 * nn + at.ravel())
    return out


@cache
def stabiliser_maps(n: int) -> np.ndarray:
    """Every element of W, one selection per row, closed from
    ``_stabiliser_generators``.  Stack row b n^2 + k holds digit k of a
    block: bit 0 of b negates and bit 1 takes the cofactor matrix.  Both
    commute with W's generators (cof(P g P^T) = P cof(g) P^T for a signed
    permutation P, and cof(cof(g)) = g on SL_n), so applying b after a
    reads a's selection at b's positions and XORs the blocks.  A generator
    that does not fix the identity is refused before the closure, which
    could otherwise grow far past W.  W is closed once per n, and every
    caller shares the one read-only array."""
    nn = n * n
    gens = _stabiliser_generators(n)
    e = np.eye(n, dtype=np.int64).ravel()
    e_stack = np.concatenate([e, -e, e, -e])        # cof(e) = e
    for w, sel in enumerate(gens):
        if not np.array_equal(e_stack[sel], e):
            raise ValueError(f"stabiliser generator {w} does not fix the "
                             f"identity")
    seen = {tuple(range(nn)): np.arange(nn)}
    todo = list(seen.values())
    while todo:
        a = todo.pop()
        for b in gens:
            src = a[b % nn]
            c = (src // nn ^ b // nn) * nn + src % nn
            if tuple(c) not in seen:
                seen[tuple(c)] = c
                todo.append(c)
    maps = np.array(list(seen.values()))
    maps.flags.writeable = False
    return maps


def _stack(d: np.ndarray, n: int, q: int) -> np.ndarray:
    """The digit stack [d; -d; cof; -cof] mod q (4 n*n, m) of the matrices
    given as digit columns d (n*n, m), cof the cofactor matrix (g^{-T} on
    SL_n); every map of W selects its image from it.  Entry (r, c) of cof
    is g[r+1, c+1] g[r+2, c+2] - g[r+1, c+2] g[r+2, c+1], indices mod 3,
    for n = 3, and (-1)^(r+c) g[1-r, 1-c] for n = 2: flat gathers of d,
    written into the one output array."""
    nn = n * n
    out = np.empty((4 * nn, d.shape[1]), dtype=np.int64)
    out[:nn] = d
    cof, scratch = out[2 * nn:3 * nn], out[3 * nn:]   # -cof comes last
    if n == 2:
        d.take([3, 2, 1, 0], axis=0, out=cof)
        np.negative(cof[1:3], out=cof[1:3])
    else:
        r1, r2 = [1, 2, 0], [2, 0, 1]
        d.take([3 * r + c for r in r1 for c in r1], axis=0, out=cof)
        cof *= d[[3 * r + c for r in r2 for c in r2]]
        d.take([3 * r + c for r in r1 for c in r2], axis=0, out=scratch)
        scratch *= d[[3 * r + c for r in r2 for c in r1]]
        cof -= scratch
    np.negative(d, out=out[nn:2 * nn])
    np.negative(cof, out=out[3 * nn:])
    np.remainder(out[nn:], q, out=out[nn:])
    return out


def _images(weights: np.ndarray, stack: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """weights @ stack into ``out``: the codes of every image under W of
    the matrices whose digit stack is ``stack``, one row per map.  The
    product is taken in column blocks of at most ``IMAGE_BLOCK``
    multiply-adds, so BLAS runs each on the calling thread.  Each code is a
    sum of n^2 exact terms below 2^53, so the blocks do not change it."""
    step = max(1, IMAGE_BLOCK // weights.size)
    for lo in range(0, stack.shape[1], step):
        np.matmul(weights, stack[:, lo:lo + step], out=out[:, lo:lo + step])
    return out


def _times(d: np.ndarray, gen: tuple[int, int, int], n: int,
           q: int) -> np.ndarray:
    """Digits of g e_{i,j}(v): column j of g gains v times column i."""
    i, j, v = gen
    out = d.copy()
    out[j::n] = (d[j::n] + v * d[i::n]) % q
    return out


def _generator_actions(gens, n: int, q: int, powers: np.ndarray):
    """(selection, generator permutation) of each generator phi of W,
    after checking that phi maps the generating set onto itself (that
    phi(e) = e, ``stabiliser_maps`` checks): image_of[k] is the index of
    phi(gens[k])."""
    nn = n * n
    mats = np.repeat(np.eye(n, dtype=np.int64).reshape(nn, 1), len(gens),
                     axis=1)
    for k, (i, j, v) in enumerate(gens):
        mats[i * n + j, k] = v
    stack = _stack(mats, n, q)
    index = {c: k for k, c in enumerate((powers @ mats).tolist())}
    actions = []
    for w, sel in enumerate(_stabiliser_generators(n)):
        image_of = [index.get(c, -1) for c in (powers @ stack[sel]).tolist()]
        if sorted(image_of) != list(range(len(gens))):
            raise ValueError(f"stabiliser generator {w} does not map the "
                             f"generating set onto itself")
        actions.append((sel, image_of))
    return actions


def _check_homomorphism(gate, prod: np.ndarray, col: int, gens, n: int,
                        q: int) -> None:
    """phi(r s) = phi(r) phi(s) for every generator phi of W, the
    representatives r and s = gens[col], whose products r s have the
    stack ``prod``.  ``gate`` holds per phi its selection, phi(r) as
    selected from the representatives' stack, and its generator
    permutation; phi(r s) is selected from ``prod``, so each side comes
    from its own digits.  Digit selections and one column operation, all
    in integers."""
    for w, (sel, image, image_of) in enumerate(gate):
        if not np.array_equal(prod[sel], _times(image, gens[image_of[col]],
                                                n, q)):
            raise ValueError(f"stabiliser generator {w} is not a "
                             f"homomorphism on the class representatives")


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
    vertices whose class 0 is the identity alone, given as ``sizes`` (the
    members of each class) and ``neighbors`` (a (classes, degree) table of
    the classes of one member's neighbours): the W-orbits of a
    ``CayleyGraph``, or single vertices for a test fixture with sizes all
    one.  With Q_kl the neighbours in class l of a vertex of class k, the
    quotient M_kl = Q_kl sqrt(|O_k| / |O_l|) = sqrt(Q_kl Q_lk) is symmetric
    and its spectrum is that of A on class-constant vectors.  That spectrum
    is all of A's: delta_e is class-constant, so is every
    P_lambda delta_e = p(A) delta_e, and vertex-transitivity gives
    ||P_lambda delta_e||^2 = dim V_lambda / N > 0.  The quotient is checked
    in integers first (``_quotient_operator``).

    The constant vector maps to c_k = sqrt(|O_k| / N), M's top eigenvector
    (eigenvalue ``degree``), so it is deflated: B u = M u - 3 degree (c.u) c
    sends it to -2 degree, strictly below every eigenvalue of A, and leaves
    the rest in place.  lambda_2 is then B's largest eigenvalue, from one
    implicitly restarted Lanczos solve (ARPACK ``eigsh``, k = 1, tolerance
    at machine precision) started from a fixed-seed vector, so identical
    input gives bitwise-identical output.  ``iterations`` counts
    applications of B, ``classes`` is M's dimension, and ``residual`` is
    ||M u - lambda_2 u|| for the Ritz vector u.  For an equitable partition
    that equals ||A f - lambda_2 f|| on the whole graph for u lifted to
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

    sizes = graph.sizes
    quotient = _quotient_operator(graph.neighbors, sizes)
    unit = np.sqrt(sizes / v_count)
    shift = 3.0 * deg

    matvecs = 0

    def apply(u):
        nonlocal matvecs
        matvecs += 1
        return quotient @ u - shift * (unit @ u) * unit

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
    res = float(np.linalg.norm(quotient @ u2 - lam2 * u2))
    gap = deg - lam2
    connected = gap > max(10 * res, 1e-9)
    return GapResult(lambda2=lam2, gap=gap if connected else 0.0,
                     normalized_gap=(gap / deg if connected else 0.0),
                     connected=connected, method="lanczos",
                     iterations=matvecs, residual=res, classes=sizes.size,
                     vector=u2)


def _quotient_operator(neighbors: np.ndarray, sizes: np.ndarray):
    """The symmetric quotient M_kl = sqrt(Q_kl Q_lk), a CSR matrix, of the
    partition with class sizes ``sizes`` and class neighbour table
    ``neighbors`` (classes, degree).

    Refuses, in integers, a quotient that cannot carry lambda_2: every
    class must have a positive size, class 0 (the identity) must have size
    one, and |O_k| Q_kl = |O_l| Q_lk for every pair of classes.

    Q's nonzeros are the runs of equal classes in the row-sorted table,
    in row-major order, so their keys k * classes + l are sorted.  One sort
    of the transposed keys l * classes + k (all distinct) pairs each (k, l)
    with (l, k); that pairing serves both the check and M.
    """
    from scipy.sparse import csr_matrix

    k, deg = neighbors.shape
    if sizes.shape != (k,) or not (sizes > 0).all():
        raise ValueError("orbit partition needs one positive size per class")
    if sizes[0] != 1:
        raise ValueError("orbit partition does not keep the identity alone "
                         "in its class")
    flat = np.sort(neighbors, axis=1).ravel()
    new = np.empty(flat.size, dtype=bool)
    new[1:] = flat[1:] != flat[:-1]
    new[::deg] = True                                   # each row starts a run
    starts = np.flatnonzero(new)
    cols = flat[starts]
    del flat, new       # each del lowers the peak of a large expander run
    counts = np.diff(starts, append=k * deg)            # Q_kl, row-major
    indptr = np.searchsorted(starts, np.arange(0, k * deg + 1, deg))
    rows = starts // deg
    del starts
    pair = np.argsort(cols * k + rows)                  # (k, l) -> (l, k)
    weighted = sizes[rows] * counts
    if not (np.array_equal(cols.take(pair), rows)
            and np.array_equal(rows.take(pair), cols)
            and np.array_equal(weighted.take(pair), weighted)):
        raise ValueError("orbit partition is not equitable: |O_k| Q_kl != "
                         "|O_l| Q_lk")
    del rows, weighted
    return csr_matrix((np.sqrt(counts * counts.take(pair)), cols, indptr),
                      shape=(k, k))


def coprime_residues(q: int) -> list[int]:
    return [p for p in range(1, q) if gcd(p, q) == 1] or [1]


def family_report(n: int, q_list, p_rule: str = "coprime",
                  order_cap: int = DEFAULT_ORDER_CAP) -> list[dict]:
    """One row per (q, p): BFS order vs the classical order, spectral gap,
    normalized gap, and the Lanczos residual, quotient operator
    applications and quotient dimension behind lambda_2.  ``p_rule`` is
    "unit" (p = 1 only) or "coprime" (every residue prime to q).  Rows for
    p and q - p share one computation since the symmetrized generator sets
    coincide.  An n outside {2, 3}, a repeated q, a q < 1 or with q^(n^2)
    past 2^53, a q whose classical order exceeds ``order_cap``, or one
    whose class table cannot fit in physical memory, is refused before its BFS.
    """
    if p_rule not in ("unit", "coprime"):
        raise ValueError("p_rule must be 'unit' or 'coprime'")
    if not 2 <= n <= 3:
        raise ValueError("supported desk scale is n in {2, 3}")
    if len(set(q_list)) < len(q_list):
        raise ValueError(f"repeated modulus in {list(q_list)}")
    w_order = len(stabiliser_maps(n))
    rows = []
    cache: dict = {}
    for q in q_list:
        _check_modulus(n, q)   # so that sl_order's trial division is quick
        # coprime generators close up to all of SL_n(Z/q), so the classical
        # order is exactly what the BFS would enumerate
        if sl_order(n, q) > order_cap:
            raise ValueError(f"|SL_{n}(Z/{q})| = {sl_order(n, q)} exceeds "
                             f"the order cap {order_cap}")
        # a class holds at most |W| elements, so the class table has at
        # least this many bytes
        table = (sl_order(n, q) // w_order
                 * len(elementary_generators(n, q, 1)) * 8)
        memory = physical_memory()
        if table > memory:
            raise ValueError(f"the class table of SL_{n}(Z/{q}) needs at "
                             f"least {table} bytes, more than the {memory} "
                             f"bytes of physical memory")
        ps = [1] if p_rule == "unit" or q == 1 else coprime_residues(q)
        for p in ps:
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
