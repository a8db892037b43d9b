"""Reference implementations that only the tests use: independent
eigenvalue oracles, the single-site sweeps solved one dense q x q matrix
per angle, the one-site letters X, Y, S and I and the sums of their
Kronecker words, the parity letters conjugated out of the dense q x q
letters, the tensor operators' least eigenvalues from a dense solve of
every parity block, the rank-3 Heisenberg group and its representation
evaluated word by word, the Laplacian of H and the route from R[H] into
R[H]/I^{N+1} (to_graded) that the graded tests compare against,
SL_n(Z/qZ) with an inverse and with one wrong product, plain fixture
graphs for the spectral-gap solver, Cayley graphs enumerated vertex by
vertex with their stabiliser orbits found by brute force, and lambda_2
solved on the whole adjacency of a graph rather than on its orbit
quotient."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import cos, pi, sin, sqrt

import numpy as np

from heisenkit import rotation, sweeps
from heisenkit.algebra import AlgebraElement, one_minus
from heisenkit.expander import elementary_generators
from heisenkit.graded import GradedElement, degree, graded_mul
from heisenkit.groups import Heisenberg, SpecialLinear
from heisenkit.linalg import (hermitian_operator, min_eigenvalue,
                              spectral_norm, spectral_projection)
from heisenkit.rotation import RationalAngle, farey_angles, pi_theta
from heisenkit.sweeps import IDENTITY_TOL, AngleRecord, SweepReport, zzz_theta0


def jacobi_eigenvalues(op: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi.

    Deterministic row-cyclic sweep order; convergence when the off-diagonal
    Frobenius mass drops below tol * ||M||_F.  Independent of LAPACK --
    used as a cross-check oracle.
    """
    m = hermitian_operator(op).copy()
    n = m.shape[0]
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = np.sqrt(max(np.linalg.norm(m) ** 2 - np.sum(np.diag(m) ** 2), 0.0))
        if off < tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # classical 2x2 symmetric Schur rotation
                tau = (m[q, q] - m[p, p]) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                elif abs(tau) > 1e8:
                    t = 1.0 / (2.0 * tau)  # overflow-safe asymptote
                else:
                    t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = m[p, :].copy(), m[q, :].copy()
                m[p, :] = c * rp - s * rq
                m[q, :] = s * rp + c * rq
                cp, cq = m[:, p].copy(), m[:, q].copy()
                m[:, p] = c * cp - s * cq
                m[:, q] = s * cp + c * cq
    return np.sort(np.diag(m))


def char_poly_coeffs(op: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients by Faddeev-LeVerrier.

    Returns [1, c_{n-1}, ..., c_0] for det(tI - A).  Entry arithmetic only;
    no eigensolver involved, so tests can use it as an independent oracle
    for small dimensions.
    """
    a = np.asarray(op, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ mk) / k
    return coeffs


def xyz2_block(angle: RationalAngle, m: int) -> np.ndarray:
    """2x2 corner block of 2s(X+Y) + (XY+YX)/2 at positions (m-1, m)."""
    s = angle.s
    bm1, bm = angle.b_m(m - 1), angle.b_m(m)
    off = -(2 * s + bm1 + bm)
    return np.array([[2 * (s + 1) * bm1 + 2 * s, off],
                     [off, 2 * (s + 1) * bm + 2 * s]])


def _bz(a, lambdas=(1.0, 2.0, 4.0), **_):
    return [AngleRecord(a.p, a.q, rotation.bz_bound(a, lam) - spectral_norm(
        rotation.almost_mathieu(a, lam)), {"lambda": float(lam)})
            for lam in lambdas]


def _xyz1(a, **_):
    m = rotation.x_op(a) + rotation.y_op(a) - a.s * np.eye(a.q)
    return [AngleRecord(a.p, a.q, min_eigenvalue(m))]


def _zzz(a, R, kappa, **_):
    m = (R * rotation.x_op(a) + rotation.y_op(a)
         - sqrt((1.0 - kappa) * R) * a.s * np.eye(a.q))
    return [AngleRecord(a.p, a.q, min_eigenvalue(m))]


def _xyz2(a, **_):
    x, y = rotation.x_op(a), rotation.y_op(a)
    op = (x + y) * (2.0 * a.s) + 0.5 * (x @ y + y @ x)
    det_min, trace_min, resid = np.inf, np.inf, 0.0
    for m in range(a.q):
        t = xyz2_block(a, m)
        det_min = min(det_min, float(np.linalg.det(t)))
        trace_min = min(trace_min, float(np.trace(t)))
        lhs = a.b_m(m - 1) - a.b_m(m)
        rhs = -2.0 * a.s * sin((2 * m - 1) * pi * a.p / a.q)
        resid = max(resid, abs(lhs - rhs))
    return [AngleRecord(a.p, a.q, min_eigenvalue(op),
                        {"det_min": det_min, "trace_min": trace_min,
                         "identity_residual": resid})]


def _prodnorm(a, **_):
    eye = np.eye(a.q, dtype=complex)
    m = (eye - rotation.pi_x(a)) @ (eye - rotation.pi_y(a))
    return [AngleRecord(a.p, a.q,
                        4.0 * cos(pi * a.theta / 2.0) - np.linalg.norm(m, 2))]


def _xsmall(a, deltas=(0.1, 0.3, 0.5), **_):
    out = []
    x, y = rotation.x_op(a), rotation.y_op(a)
    for delta in deltas:
        if not (0 < delta < 2.0 * (1.0 - cos(pi * a.theta))):
            continue
        px = spectral_projection(x, [delta])[0]
        py = spectral_projection(y, [delta])[0]
        low = [m for m in range(a.q) if 2.0 * a.b_m(m) <= delta]
        consecutive = any((m + 1) % a.q in low for m in low) and len(low) > 1
        out.append(AngleRecord(
            a.p, a.q, sqrt(2.0 / (4.0 - delta)) - spectral_norm(py @ px),
            {"delta": delta,
             "eq_residual": float(np.max(np.abs(px @ y @ px - 2.0 * px))),
             "low_set_size": len(low), "consecutive": consecutive}))
    return out


def single_site_sweep(name: str, *, qmax: int, full_circle: bool = False,
                      **params) -> SweepReport:
    """The single-site sweep ``verify_<name>`` computed one angle at a time
    on the dense q x q operators built from ``x_op``/``y_op``, with the
    records, notes and verdict of the sweep (not its constants), gated on
    ``sweeps.TOL`` as it stands at the call."""
    work = {"bz": _bz, "xyz1": _xyz1, "zzz": _zzz, "xyz2": _xyz2,
            "prodnorm": _prodnorm, "xsmall": _xsmall}[name]
    grid = farey_angles(qmax, max_value=None if full_circle else Fraction(1, 2))
    notes = []
    if name == "zzz":
        theta0 = zzz_theta0(params["R"], params["kappa"])
        grid = [a for a in grid if a.theta <= theta0]
        if all(a.p == 0 for a in grid):
            notes.append(f"empty sweep: no positive angle <= theta0="
                         f"{theta0:.6f} at qmax={qmax}")
    if name == "xsmall":
        grid = [a for a in grid if a.p != 0]
    records = sorted((r for a in grid for r in work(a, **params)),
                     key=AngleRecord.sort_key)
    ex, tol = [r.extras for r in records], sweeps.TOL
    if name == "xyz2":
        checks = [(sum(e["det_min"] < -tol or e["trace_min"] < -tol for e in ex),
                   "FAIL: {} angle(s) with negative block det/trace"),
                  (sum(e["identity_residual"] > IDENTITY_TOL for e in ex),
                   "FAIL: {} angle(s) violate the corrected difference "
                   f"identity beyond {IDENTITY_TOL}")]
    elif name == "xsmall":
        checks = [(sum(e["eq_residual"] > tol for e in ex),
                   "FAIL: compression identity violated at {} point(s)"),
                  (sum(e["consecutive"] for e in ex),
                   "FAIL: low-X residue set has consecutive members at "
                   "{} point(s)")]
    else:
        checks = []
    notes += [text.format(n) for n, text in checks if n]
    if not records:
        notes.append("FAIL: sweep produced no records")
    return SweepReport(name=name, records=records, notes=notes)


def site_letters(x: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """The one-site letters of the Kronecker words on one parity part (or
    on all of l_2(Z/qZ)): X = diag(x), Y = y, the on-site anticommutator
    S = XY + YX and the identity I.  X is diagonal, so
    S_ij = (x_i + x_j) Y_ij."""
    return {"X": np.diag(x), "Y": y, "S": (x[:, None] + x[None, :]) * y,
            "I": np.eye(len(x))}


def letters(angle: RationalAngle) -> dict[str, np.ndarray]:
    """``site_letters`` of X and Y at ``angle`` in the standard basis."""
    return site_letters(np.diag(rotation.x_op(angle)), rotation.y_op(angle))


def tensor_word(angle: RationalAngle, word: str) -> np.ndarray:
    """The ``np.kron`` product of the letters of ``word`` at ``angle``, one
    letter of X, Y, S and I per site."""
    table = letters(angle)
    return reduce(np.kron, [table[k] for k in word])


def kron_sum(sites, terms) -> np.ndarray:
    """The sum, in term order, of each coefficient times the ``np.kron``
    product of ``sites[i][word[i]]`` over the sites, where each site is a
    letter table such as ``site_letters(x, y)``."""
    return sum(c * reduce(np.kron, [site[k] for site, k in zip(sites, word)])
               for c, word in terms)


def parity_letters(angle: RationalAngle) -> list[dict[str, np.ndarray]]:
    """The dense letters X, Y, S = XY + YX and I at ``angle``, restricted to
    each nonempty parity part by conjugation with the orthonormal bases
    ``rotation.parity_bases(q) / column norm``: one letter table per part."""
    x, y = rotation.x_op(angle), rotation.y_op(angle)
    table = {"X": x, "Y": y, "S": x @ y + y @ x, "I": np.eye(angle.q)}
    out = []
    for v in rotation.parity_bases(angle.q):
        n = np.sum(v * v, axis=0)  # squared column norms, 1 or 2
        scale = 1.0 / np.sqrt(np.outer(n, n))
        out.append({k: (v.T @ m @ v) * scale for k, m in table.items()})
    return out


def parity_block_minima(angle: RationalAngle, terms) -> list:
    """The least eigenvalue of each real parity block of the tensor
    operator ``terms`` (such as ``sweeps.two_site_terms(R)``) at ``angle``,
    one dense solve per block, in the order of ``sweeps``' block stream
    (all-even first); their minimum is the operator's least eigenvalue."""
    sites = len(terms[0][1])
    return [min_eigenvalue(kron_sum(choice, terms))
            for choice in product(parity_letters(angle), repeat=sites)]


def _site_matrix(angle: RationalAngle, a: int, b: int) -> np.ndarray:
    return pi_theta(angle, (a, b, a * b))  # x^a y^b with no central phase


Heis3Elt = tuple[tuple[int, int, int], tuple[int, int, int], int]


class Heisenberg3:
    """Rank-3 Heisenberg group: triples (a, b, c) with integer 3-vectors
    a, b and corner c; product adds vectors and shifts c by the dot
    product a . b'.  Satisfies [x_i, y_i] = z and [x_i, y_j] = 1 (i != j)."""

    identity: Heis3Elt = ((0, 0, 0), (0, 0, 0), 0)

    @staticmethod
    def x(i: int) -> Heis3Elt:
        a = tuple(1 if k == i else 0 for k in range(3))
        return (a, (0, 0, 0), 0)

    @staticmethod
    def y(i: int) -> Heis3Elt:
        b = tuple(1 if k == i else 0 for k in range(3))
        return ((0, 0, 0), b, 0)

    z: Heis3Elt = ((0, 0, 0), (0, 0, 0), 1)

    @staticmethod
    def mul(g: Heis3Elt, h: Heis3Elt) -> Heis3Elt:
        a, b, c = g
        a2, b2, c2 = h
        dot = sum(u * v for u, v in zip(a, b2))
        return (tuple(u + v for u, v in zip(a, a2)),
                tuple(u + v for u, v in zip(b, b2)),
                c + c2 + dot)

    @staticmethod
    def inv(g: Heis3Elt) -> Heis3Elt:
        a, b, c = g
        dot = sum(u * v for u, v in zip(a, b))
        return (tuple(-u for u in a), tuple(-u for u in b), dot - c)


def pi_theta3(angle: RationalAngle, g: Heis3Elt) -> np.ndarray:
    """Image of a rank-3 element on the triple tensor power; the three
    central generators all map to the same scalar."""
    a, b, c = g
    dot = sum(u * v for u, v in zip(a, b))
    m = _site_matrix(angle, a[0], b[0])
    for i in (1, 2):
        m = np.kron(m, _site_matrix(angle, a[i], b[i]))
    phase = np.exp(2j * pi * angle.p * ((c - dot) % angle.q) / angle.q)
    return phase * m


def evaluate3(angle: RationalAngle, xi: AlgebraElement) -> np.ndarray:
    q = angle.q
    out = np.zeros((q ** 3, q ** 3), dtype=complex)
    for g, coeff in xi.terms.items():
        out += float(coeff) * pi_theta3(angle, g)
    return out


def heis_laplacian() -> AlgebraElement:
    """Delta = |S| - sum_{s in S} s in R[H] for S = {x^±1, y^±1}."""
    H = Heisenberg
    gens = (H.x, H.inv(H.x), H.y, H.inv(H.y))
    return AlgebraElement(H, {H.identity: 4, **{g: -1 for g in gens}})


def generator_power(letter: str, exponent: int, truncation: int) -> GradedElement:
    """Graded image of x^a, y^b or z^c: a power of u = 1 - ubar, or for a
    negative exponent of the truncated geometric series u^{-1} = sum ubar^k."""
    unit = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[letter]
    one = GradedElement.monomial(truncation, (0, 0, 0))
    if exponent >= 0:
        base = one - GradedElement.monomial(truncation, unit)
    else:
        kmax = truncation // degree(unit)
        base = GradedElement(truncation, {
            tuple(k * c for c in unit): 1 for k in range(kmax + 1)})
    acc = one
    for _ in range(abs(exponent)):
        acc = graded_mul(acc, base)
    return acc


def to_graded(xi: AlgebraElement, truncation: int) -> GradedElement:
    """Exact image of a group-algebra element in R[H]/I^{N+1}, the route
    through R[H] that the package does not take.

    A group element (a, b, c) = x^a y^b z^{c-ab} maps to the product of its
    generator powers, which is already normal-ordered."""
    out = GradedElement(truncation)
    for (a, b, c), coeff in xi.terms.items():
        img = graded_mul(
            graded_mul(generator_power("x", a, truncation),
                       generator_power("y", b, truncation)),
            generator_power("z", c - a * b, truncation))
        out = out + coeff * img
    return out


def group_algebra_phi_inputs() -> tuple:
    """Delta^2, the box sum (1/4) sum_{s,t in S} (1-s)*(1-t)*(1-t)(1-s) and
    zbar* zbar, multiplied out in R[H] itself."""
    H = Heisenberg
    gens = [H.x, H.inv(H.x), H.y, H.inv(H.y)]
    box = AlgebraElement(H)
    for s in gens:
        for t in gens:
            us, ut = one_minus(H, s), one_minus(H, t)
            box = box + us.star() * ut.star() * ut * us
    delta, zb = heis_laplacian(), one_minus(H, H.z)
    return delta * delta, Fraction(1, 4) * box, zb.star() * zb


class InvertibleSL(SpecialLinear):
    """SL_n(Z/qZ) with the inverse that the package never needs: the
    adjugate from its minors' determinants (each exact after rounding at
    these sizes) times det^{-1} mod q."""

    def inv(self, g):
        m = np.array(g, dtype=np.int64)
        adj = np.empty_like(m)
        for r in range(self.n):
            for c in range(self.n):
                minor = np.delete(np.delete(m, r, 0), c, 1)
                adj[c, r] = (-1) ** (r + c) * round(np.linalg.det(minor))
        d = pow(round(np.linalg.det(m)), -1, self.q)
        return tuple(tuple(int(v) for v in row) for row in adj * d % self.q)

    def commutator(self, g, h):
        return self.mul(self.mul(g, h), self.mul(self.inv(g), self.inv(h)))


def plant_wrong_product(monkeypatch, a, b):
    """Make ``SpecialLinear.mul`` wrong on the one product a b: its (1, 1)
    entry comes out one too large."""
    mul = SpecialLinear.mul

    def wrong(self, g, h):
        out = mul(self, g, h)
        if (g, h) == (a, b):
            out = (((out[0][0] + 1) % self.q, *out[0][1:]), *out[1:])
        return out

    monkeypatch.setattr(SpecialLinear, "mul", wrong)


@dataclass
class FixtureGraph:
    """Plain neighbor-list graph for self-tests (complete graphs, unions,
    whole Cayley graphs): every vertex is its own class."""

    order: int
    degree: int
    neighbors: np.ndarray
    codes: np.ndarray | None = None        # base-q code of each vertex

    @property
    def sizes(self) -> np.ndarray:
        return np.ones(self.order, dtype=np.int64)


def complete_graph(m: int) -> FixtureGraph:
    nbrs = np.array([[j for j in range(m) if j != i] for i in range(m)],
                    dtype=np.int64)
    return FixtureGraph(order=m, degree=m - 1, neighbors=nbrs)


def disjoint_union(a: FixtureGraph, b: FixtureGraph) -> FixtureGraph:
    if a.degree != b.degree:
        raise ValueError("union of regular graphs needs equal degrees")
    nbrs = np.concatenate([a.neighbors, b.neighbors + a.order])
    return FixtureGraph(order=a.order + b.order, degree=a.degree, neighbors=nbrs)


def full_lambda2(graph) -> float:
    """lambda_2 of a regular graph's whole adjacency: the constant vector
    deflated to -2 degree (A v - 3 degree mean(v) 1), then one ARPACK
    Lanczos solve (k = 1, tolerance at machine precision) from a
    fixed-seed start vector."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import LinearOperator, eigsh

    v_count, deg = graph.order, graph.degree
    nbr = graph.neighbors
    adj = csr_matrix((np.ones(nbr.size), nbr.ravel(),
                      np.arange(0, nbr.size + 1, deg)), shape=(v_count, v_count))
    shift = 3.0 * deg / v_count
    v0 = np.random.default_rng(12345).standard_normal(v_count)
    w, _ = eigsh(LinearOperator(adj.shape, dtype=float,
                                matvec=lambda v: adj @ v - shift * v.sum()),
                 k=1, which="LA", tol=0, v0=v0)
    return float(w[0])


def full_cayley_graph(n: int, q: int, p: int) -> FixtureGraph:
    """The Cayley graph of {e_{i,j}(+-p)} in SL_n(Z/qZ), vertex by vertex.

    BFS over base-q codes: right multiplication by e_{i,j}(v) is the column
    operation g[r, j] += v g[r, i] mod q, written as a change of code, and
    one dense table over all q^(n^2) codes maps each code to its vertex
    index (-1 while unseen).  Each level's unseen products are sorted,
    deduplicated and numbered in that order; neighbour columns follow
    ``elementary_generators``."""
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
        fresh = np.unique(candidates)
        index_of[fresh] = np.arange(count, count + fresh.size)
        count += fresh.size
        nbrs[unseen] = index_of[candidates]
        nbr_chunks.append(nbrs.T)
        code_chunks.append(fresh)
        frontier = fresh
    return FixtureGraph(count, len(gens), np.concatenate(nbr_chunks),
                        np.concatenate(code_chunks))


def stabiliser_orbits(graph: FixtureGraph, n: int, q: int) -> np.ndarray:
    """Orbit label of each vertex of a ``full_cayley_graph`` under W, by
    brute force: W's generators applied to whole integer matrices
    (conjugation by each adjacent transposition and by diag(-1, 1, ...),
    and inverse-transpose as the cofactor matrix from the minors'
    determinants), the vertex -> image edges closed into connected
    components."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    powers = q ** np.arange(n * n, dtype=np.int64)
    mats = (graph.codes[:, None] // powers % q).reshape(-1, n, n)
    conj = [np.diag([-1] + [1] * (n - 1))]
    for i in range(n - 1):
        conj.append(np.eye(n, dtype=np.int64))
        conj[-1][[i, i + 1]] = conj[-1][[i + 1, i]]
    images = [(s @ mats @ s.T) % q for s in conj]
    adj_t = np.empty_like(mats)           # = m^{-T}, as det m = 1
    for r in range(n):
        for c in range(n):
            minor = np.delete(np.delete(mats, r, 1), c, 2)
            adj_t[:, r, c] = (-1) ** (r + c) * np.rint(np.linalg.det(minor))
    images.append(adj_t % q)
    sorter = np.argsort(graph.codes)
    targets = []
    for img in images:
        codes = img.reshape(len(mats), -1) @ powers
        at = sorter[np.searchsorted(graph.codes, codes, sorter=sorter)]
        assert np.array_equal(graph.codes[at], codes), "image left the group"
        targets.append(at)
    edges = csr_matrix((np.ones(len(mats) * len(images)),
                        (np.tile(np.arange(len(mats)), len(images)),
                         np.concatenate(targets))),
                       shape=(len(mats), len(mats)))
    return connected_components(edges, directed=True, connection="weak")[1]
