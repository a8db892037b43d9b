"""Exact symmetrization combinatorics over formal edge generators.

The objects here are integer combinations of one- and two-letter words in
self-adjoint symbols E_{i,j}(label), where the label is a commutative
monomial of degree one (t_r) or two (t_r t_s).  The symmetric group acts by
relabeling indices; orbit sums are computed by full enumeration, so every
identity check below is an exact coefficient match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import NamedTuple

from .groups import SpecialLinear

MAX_SYM_N = 8  # factorial enumeration guard


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


class FormalQuadratic:
    """Integer combination of words of length <= 2 over EdgeSymbol."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = c

    @classmethod
    def letter(cls, sym: EdgeSymbol, coeff=1) -> "FormalQuadratic":
        return cls({(sym,): coeff})

    def __add__(self, other: "FormalQuadratic") -> "FormalQuadratic":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            elif w in out:
                del out[w]
        return FormalQuadratic(out)

    def __sub__(self, other: "FormalQuadratic") -> "FormalQuadratic":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "FormalQuadratic":
        if not scalar:
            return FormalQuadratic()
        return FormalQuadratic({w: scalar * c for w, c in self.terms.items()})

    def __mul__(self, other: "FormalQuadratic") -> "FormalQuadratic":
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                if len(w) > 2:
                    raise ValueError("product would exceed two-letter words")
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                elif w in out:
                    del out[w]
        return FormalQuadratic(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalQuadratic) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def apply_perm(self, sigma: tuple) -> "FormalQuadratic":
        """Relabel indices by sigma (sigma[i-1] is the image of i)."""
        out: dict = {}
        for w, c in self.terms.items():
            nw = tuple(EdgeSymbol(sigma[s.i - 1], sigma[s.j - 1], s.label) for s in w)
            out[nw] = out.get(nw, 0) + c
        return FormalQuadratic({w: c for w, c in out.items() if c})

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
    out = FormalQuadratic()
    for r in range(1, d + 1):
        out = out + FormalQuadratic.letter(EdgeSymbol.make(i, j, r))
        out = out + FormalQuadratic.letter(EdgeSymbol.make(j, i, r))
    return out


def edges(m: int) -> list:
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def build_parts(m: int, d: int) -> dict:
    """All the degree-two pieces over indices 1..m with d variables.

    Returns Delta, Delta^2, the diagonal/adjacent/disjoint splits Sq, Adj,
    Op (so that Delta^2 = Sq + Adj + Op exactly), the degree-two Laplacian
    Delta2, and the four-pattern re-expansion of Adj for cross-checking.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    es = edges(m)
    de = {e: delta_edge(e[0], e[1], d) for e in es}
    delta = FormalQuadratic()
    for e in es:
        delta = delta + de[e]
    sq = FormalQuadratic()
    adj = FormalQuadratic()
    op = FormalQuadratic()
    for e in es:
        for f in es:
            prod = de[e] * de[f]
            common = len(set(e) & set(f))
            if common == 2:
                sq = sq + prod
            elif common == 1:
                adj = adj + prod
            else:
                op = op + prod
    delta2_low = FormalQuadratic()
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i == j:
                continue
            for r in range(1, d + 1):
                for s in range(1, d + 1):
                    delta2_low = delta2_low + FormalQuadratic.letter(
                        EdgeSymbol.make(i, j, r, s))
    adj_expanded = FormalQuadratic()
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                if len({i, j, k}) != 3:
                    continue
                for r in range(1, d + 1):
                    for s in range(1, d + 1):
                        eij = FormalQuadratic.letter(EdgeSymbol.make(i, j, r))
                        ejk = FormalQuadratic.letter(EdgeSymbol.make(j, k, s))
                        eik = FormalQuadratic.letter(EdgeSymbol.make(i, k, s))
                        eik_r = FormalQuadratic.letter(EdgeSymbol.make(i, k, r))
                        adj_expanded = (adj_expanded + eij * ejk + ejk * eij
                                        + eij * eik + ejk * eik_r)
    return {"Delta": delta, "Delta_sq": delta * delta, "Sq": sq, "Adj": adj,
            "Op": op, "Delta2": delta2_low, "Adj_four_term": adj_expanded}


def orbit_sum(xi: FormalQuadratic, n: int) -> FormalQuadratic:
    """sum_{sigma in Sym(n)} sigma(xi), by full enumeration."""
    if n > MAX_SYM_N:
        raise ValueError(f"Sym({n}) enumeration exceeds the n <= {MAX_SYM_N} cap")
    if xi.max_index() > n:
        raise ValueError("element uses indices beyond 1..n")
    out: dict = {}
    for sigma in permutations(range(1, n + 1)):
        for w, c in xi.terms.items():
            nw = tuple(EdgeSymbol(sigma[s.i - 1], sigma[s.j - 1], s.label) for s in w)
            out[nw] = out.get(nw, 0) + c
    return FormalQuadratic({w: c for w, c in out.items() if c})


def edge_pair_census(m: int) -> dict:
    """Exhaustive pair counts, compared against the closed forms
    (1/2)m(m-1), (1/6)m(m-1)(m-2), (1/4)m(m-1)(m-2)(m-3).

    The adjacent-pair formula matches neither ordered nor unordered
    convention (it counts index triangles); discrepancies are reported,
    not asserted.
    """
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
    if d < 0:
        raise ValueError("need d >= 0")
    parts = build_parts(m, d) if d > 0 else None
    i, j, k, l = 1, 2, 3, 4
    block_orbit = FormalQuadratic()
    rhs_orbit = FormalQuadratic()
    for r in range(1, d + 1):
        for s in range(1, d + 1):
            eij = FormalQuadratic.letter(EdgeSymbol.make(i, j, r))
            ejk = FormalQuadratic.letter(EdgeSymbol.make(j, k, s))
            eil = FormalQuadratic.letter(EdgeSymbol.make(i, l, s))
            elk = FormalQuadratic.letter(EdgeSymbol.make(l, k, r))
            block = eij * ejk + ejk * eij + eij * eil + ejk * elk
            block_orbit = block_orbit + orbit_sum(block, m)
            rhs_orbit = rhs_orbit + orbit_sum(
                FormalQuadratic.letter(EdgeSymbol.make(i, k, r, s)), m)
    if d == 0:
        return {"m": m, "d": 0, "adj_multiplicity": 0, "rhs_multiplicity": 0,
                "op_multiplicity": 0, "adj_match": True, "rhs_match": True,
                "all_zero": True}
    adj_mult = block_orbit.divides_exactly(parts["Adj"])
    rhs_mult = rhs_orbit.divides_exactly(parts["Delta2"])
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
    """Smallest n >= m where the stabilized inequality applies."""
    n = cert.m
    while not stability_threshold(cert, n)["applies"]:
        n += 1
    return n


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
    commutative ring.
    """
    G = SpecialLinear(5, q)
    vals = {"r": t_r % q, "s": t_s % q, "rs": (t_r * t_s) % q}
    elt = {name: G.elementary(i, j, vals[v])
           for name, (i, j, v) in EL5_ASSIGNMENT.items()}
    checks = {}
    for i in (1, 2, 3):
        comm = G.commutator(elt[f"x{i}"], elt[f"y{i}"])
        checks[f"[x{i},y{i}]=z"] = comm == elt["z"]
        for j in (1, 2, 3):
            if i != j:
                comm = G.commutator(elt[f"x{i}"], elt[f"y{j}"])
                checks[f"[x{i},y{j}]=1"] = comm == G.identity
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a < b:
                checks[f"[x{a},x{b}]=1"] = (
                    G.commutator(elt[f"x{a}"], elt[f"x{b}"]) == G.identity)
                checks[f"[y{a},y{b}]=1"] = (
                    G.commutator(elt[f"y{a}"], elt[f"y{b}"]) == G.identity)
    for name in elt:
        checks[f"[{name},z]=1"] = G.commutator(elt[name], elt["z"]) == G.identity
    return {"q": q, "t_r": t_r, "t_s": t_s,
            "assignment": dict(EL5_ASSIGNMENT),
            "checks": checks, "pass": all(checks.values())}
