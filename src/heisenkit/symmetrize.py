"""Exact symmetrization combinatorics over formal edge generators.

The objects here are integer combinations of one- and two-letter words in
self-adjoint symbols E_{i,j}(label), where the label is a commutative
monomial of degree one (t_r) or two (t_r t_s).  The symmetric group acts by
relabeling indices; an orbit sum is taken once per orbit of words, over
the injective relabelings of one representative, so every identity check
below is an exact coefficient match without enumerating Sym(n).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import ceil, factorial
from typing import NamedTuple

from .algebra import TermDict, accumulate
from .groups import SpecialLinear


class EdgeSymbol(NamedTuple):
    """E_{i,j}(label): i != j, label a sorted tuple of variable indices."""

    i: int
    j: int
    label: tuple

    @staticmethod
    def make(i: int, j: int, *variables: int) -> "EdgeSymbol":
        if i == j:
            raise ValueError("edge symbol needs i != j")
        if not 1 <= len(variables) <= 2:
            raise ValueError("label degree must be 1 or 2")
        return EdgeSymbol(i, j, tuple(sorted(variables)))


class FormalQuadratic(TermDict):
    """Integer combination of words of length <= 2 over EdgeSymbol."""

    __slots__ = ()
    coerce = staticmethod(operator.index)

    def _like(self, terms: dict) -> "FormalQuadratic":
        return FormalQuadratic(terms)

    def _product(self, other: "FormalQuadratic") -> "FormalQuadratic":
        if (self.terms and other.terms and max(map(len, self.terms))
                + max(map(len, other.terms)) > 2):
            raise ValueError("product would exceed two-letter words")
        return FormalQuadratic(accumulate({}, ((w1 + w2, c1 * c2)
                                               for w1, c1 in self.terms.items()
                                               for w2, c2 in other.terms.items())))

    def term_count(self) -> int:
        return len(self.terms)

    def divides_exactly(self, other: "FormalQuadratic"):
        """Return the integer scalar c with self == c * other, else None."""
        if self.is_zero():
            return 0
        if other.is_zero() or set(self.terms) != set(other.terms):
            return None
        ratios = {Fraction(self.terms[w], other.terms[w]) for w in self.terms}
        if len(ratios) != 1:
            return None
        r = ratios.pop()
        return int(r) if r.denominator == 1 else None

    def max_index(self) -> int:
        return max((max(s.i, s.j) for w in self.terms for s in w), default=0)

    def __repr__(self):
        return f"FormalQuadratic({len(self.terms)} terms)"


def delta_edge(i: int, j: int, d: int) -> FormalQuadratic:
    """Edge Laplacian contribution: sum_r E_{i,j}(t_r) + E_{j,i}(t_r)."""
    return FormalQuadratic({(EdgeSymbol.make(a, b, r),): 1
                            for r in range(1, d + 1) for a, b in ((i, j), (j, i))})


def edges(m: int) -> list:
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def _words(words) -> FormalQuadratic:
    """The sum of the given words, each with coefficient one."""
    return FormalQuadratic(accumulate({}, ((w, 1) for w in words)))


def build_parts(m: int, d: int) -> dict:
    """All the degree-two pieces over indices 1..m with d variables.

    Returns Delta, Delta^2, the diagonal/adjacent/disjoint splits Sq, Adj,
    Op (so that Delta^2 = Sq + Adj + Op exactly) and the degree-two
    Laplacian Delta2.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    es = edges(m)
    de = {e: delta_edge(e[0], e[1], d) for e in es}
    delta = _words(w for e in es for w in de[e].terms)
    by_common = ({}, {}, {})  # products of edge pairs sharing 0, 1, 2 indices
    for e in es:
        for f in es:
            accumulate(by_common[len(set(e) & set(f))],
                       (de[e] * de[f]).terms.items())
    op, adj, sq = map(FormalQuadratic, by_common)
    idx = range(1, m + 1)
    var = range(1, d + 1)
    delta2_low = _words((EdgeSymbol.make(i, j, r, s),)
                        for i in idx for j in idx if i != j
                        for r in var for s in var)
    return {"Delta": delta, "Delta_sq": delta * delta, "Sq": sq, "Adj": adj,
            "Op": op, "Delta2": delta2_low}


def _canonical(word: tuple) -> tuple:
    """The word with its k distinct indices renamed 1..k in order of first
    occurrence, and k."""
    rename: dict = {}
    for s in word:
        rename.setdefault(s.i, len(rename) + 1)
        rename.setdefault(s.j, len(rename) + 1)
    return (tuple(EdgeSymbol(rename[s.i], rename[s.j], s.label) for s in word),
            len(rename))


def orbit_sum(xi: FormalQuadratic, n: int) -> FormalQuadratic:
    """sum_{sigma in Sym(n)} sigma(xi), one orbit at a time.

    A word with k distinct indices is fixed by exactly the (n-k)!
    permutations that fix its support pointwise, so its orbit sum is (n-k)!
    times the sum of its images under the injective relabelings of its
    support into 1..n.  Coefficients are first collected on one
    representative per orbit; distinct representatives have disjoint
    images.
    """
    if xi.max_index() > n:
        raise ValueError("element uses indices beyond 1..n")
    reps = accumulate({}, ((_canonical(w), c) for w, c in xi.terms.items()))
    out: dict = {}
    for (rep, k), c in reps.items():
        c *= factorial(n - k)
        for f in permutations(range(1, n + 1), k):
            out[tuple(EdgeSymbol(f[s.i - 1], f[s.j - 1], s.label)
                      for s in rep)] = c
    return FormalQuadratic(out)


def edge_pair_census(m: int) -> dict:
    """Exhaustive pair counts, compared against the closed forms
    (1/2)m(m-1), (1/6)m(m-1)(m-2), (1/4)m(m-1)(m-2)(m-3).

    The adjacent-pair formula matches neither ordered nor unordered
    convention (it counts index triangles); discrepancies are reported,
    not asserted.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    es = edges(m)
    adjacent = sum(1 for e in es for f in es if len(set(e) & set(f)) == 1)
    disjoint = sum(1 for e in es for f in es if not set(e) & set(f))
    closed_edges = m * (m - 1) // 2
    closed_adj = m * (m - 1) * (m - 2) // 6
    closed_disj = m * (m - 1) * (m - 2) * (m - 3) // 4
    return {
        "m": m,
        "edges": len(es),
        "adjacent_ordered": adjacent,
        "adjacent_unordered": adjacent // 2,
        "disjoint_ordered": disjoint,
        "disjoint_unordered": disjoint // 2,
        "closed_form_edges": closed_edges,
        "closed_form_adjacent": closed_adj,
        "closed_form_disjoint": closed_disj,
        "edges_match": len(es) == closed_edges,
        "adjacent_matches_ordered": adjacent == closed_adj,
        "adjacent_matches_unordered": adjacent // 2 == closed_adj,
        "disjoint_matches_ordered": disjoint == closed_disj,
    }


def spade_blocks(d: int) -> tuple:
    """The local four-term block E_ij(r) E_jk(s) + E_jk(s) E_ij(r) +
    E_ij(r) E_il(s) + E_jk(s) E_lk(r) on (i, j, k, l) = (1, 2, 3, 4) and its
    right-hand letter E_ik(t_r t_s), each summed over the variable pairs
    (r, s)."""
    i, j, k, l = 1, 2, 3, 4
    block, rhs = [], []
    for r in range(1, d + 1):
        for s in range(1, d + 1):
            eij, ejk = EdgeSymbol.make(i, j, r), EdgeSymbol.make(j, k, s)
            block += [(eij, ejk), (ejk, eij), (eij, EdgeSymbol.make(i, l, s)),
                      (ejk, EdgeSymbol.make(l, k, r))]
            rhs.append((EdgeSymbol.make(i, k, r, s),))
    return _words(block), _words(rhs)


def spade_to_heart(m: int, d: int) -> dict:
    """Orbit-sum bookkeeping from the four-term local inequality to the
    stabilized one.

    Summing the local pattern over Sym(m) and over the variable pair
    (r, s) must reconstruct exact multiples: the four-term block gives
    (m-3)! Adj_m, the right-hand letter gives (m-2)! Delta2_m, and the
    disjoint part picks up m! d^2 Op_m.  Returns the multiplicities and
    the induced global constants R' and eps'.
    """
    if m < 4:
        raise ValueError("need m >= 4 (four distinct indices)")
    if d < 1:
        raise ValueError("need d >= 1 (with d = 0 every part is zero)")
    parts = build_parts(m, d)
    block, rhs = spade_blocks(d)
    adj_mult = orbit_sum(block, m).divides_exactly(parts["Adj"])
    rhs_mult = orbit_sum(rhs, m).divides_exactly(parts["Delta2"])
    op_mult = factorial(m) * d * d  # Op_m is Sym(m)-invariant; (r,s) sum is free
    record = {
        "m": m, "d": d,
        "adj_multiplicity": adj_mult,
        "rhs_multiplicity": rhs_mult,
        "op_multiplicity": op_mult,
        "adj_match": adj_mult == factorial(m - 3),
        "rhs_match": rhs_mult == factorial(m - 2),
    }
    if adj_mult:
        # dividing the summed inequality by the Adj multiplicity
        record["R_prime_factor"] = Fraction(op_mult, adj_mult)
        record["eps_prime_factor"] = Fraction(rhs_mult, adj_mult)
    return record


@dataclass(frozen=True)
class StabilityCertificate:
    """Hypothesis Adj_m + R Op_m >= eps Delta2_m, to be stabilized in n."""

    m: int
    R: Fraction
    epsilon: Fraction

    def __post_init__(self):
        if self.m < 4:
            raise ValueError("need m >= 4")
        if self.R <= 0 or self.epsilon <= 0:
            raise ValueError("R and epsilon must be positive")


def stability_threshold(cert: StabilityCertificate, n: int) -> dict:
    """Push the certificate from m to n >= m.

    The stabilized inequality (n-2)/(m-2) eps Delta2_n <= Adj_n +
    (m-3)/(n-3) R Op_n <= Delta_n^2 applies exactly when
    (m-3) R / (n-3) <= 1; the induced coefficient is
    eps_n = (n-2) eps / (m-2), reported also in the n eps' form.
    """
    if n < cert.m:
        raise ValueError(f"need n >= m = {cert.m}")
    applies = Fraction(cert.m - 3) * Fraction(cert.R) <= Fraction(n - 3)
    eps_n = Fraction(n - 2) * Fraction(cert.epsilon) / Fraction(cert.m - 2)
    return {
        "m": cert.m, "R": Fraction(cert.R), "epsilon": Fraction(cert.epsilon),
        "n": n,
        "applies": bool(applies),
        "epsilon_n": eps_n,
        "op_coefficient": Fraction(cert.m - 3, n - 3) * Fraction(cert.R),
        "eps_prime": eps_n / n,  # Delta^2 >= n eps' Delta2 form
    }


def n_threshold(cert: StabilityCertificate) -> int:
    """Smallest n >= m where the stabilized inequality applies: the least
    integer n with n - 3 >= (m-3) R, and at least m."""
    return max(cert.m, 3 + ceil((cert.m - 3) * Fraction(cert.R)))


EL5_ASSIGNMENT = {
    "x1": (1, 2, "r"), "x2": (1, 3, "s"), "x3": (1, 4, "r"),
    "y1": (2, 5, "s"), "y2": (3, 5, "r"), "y3": (4, 5, "s"),
    "z": (1, 5, "rs"),
}


def instantiate_el5(q: int, t_r: int, t_s: int) -> dict:
    """Check that the elementary-matrix assignment in SL_5(Z/qZ) obeys the
    rank-3 Heisenberg relations for concrete values of the two variables.

    x_i = e_{1,i+1}(.), y_i = e_{i+1,5}(.), z = e_{1,5}(t_r t_s); the
    variables alternate so that every [x_i, y_i] lands on t_r t_s in the
    commutative ring.  Each relation [g, h] = c is checked as the product
    identity g h = c h g.
    """
    G = SpecialLinear(5, q)
    vals = {"r": t_r % q, "s": t_s % q, "rs": (t_r * t_s) % q}
    elt = {name: G.elementary(i, j, vals[v])
           for name, (i, j, v) in EL5_ASSIGNMENT.items()}
    comm, one = G.commutator_is, G.identity
    checks = {}
    for i in (1, 2, 3):
        checks[f"[x{i},y{i}]=z"] = comm(elt[f"x{i}"], elt[f"y{i}"], elt["z"])
        for j in (1, 2, 3):
            if i != j:
                checks[f"[x{i},y{j}]=1"] = comm(elt[f"x{i}"], elt[f"y{j}"], one)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a < b:
                checks[f"[x{a},x{b}]=1"] = comm(elt[f"x{a}"], elt[f"x{b}"], one)
                checks[f"[y{a},y{b}]=1"] = comm(elt[f"y{a}"], elt[f"y{b}"], one)
    for name in elt:
        checks[f"[{name},z]=1"] = comm(elt[name], elt["z"], one)
    return {"q": q, "t_r": t_r, "t_s": t_s,
            "assignment": dict(EL5_ASSIGNMENT),
            "checks": checks, "pass": all(checks.values())}
