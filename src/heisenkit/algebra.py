"""Exact arithmetic in real group algebras.

An :class:`AlgebraElement` is a finite formal sum of group elements with
``fractions.Fraction`` coefficients; the involution ``star`` extends
g -> g^{-1}.  Everything here is exact -- floats appear only once an
element is pushed through a representation (see :mod:`heisenkit.rotation`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .groups import Heisenberg, SpecialLinear


class AlgebraElement:
    """Finite formal sum over a group, with exact rational coefficients.

    ``group`` must expose ``identity``, ``mul`` and ``inv``; elements must be
    hashable canonical forms.  Zero coefficients are never stored.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group, terms: dict | None = None):
        self.group = group
        self.terms: dict = {}
        if terms:
            for g, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[g] = c

    @classmethod
    def one(cls, group) -> "AlgebraElement":
        return cls(group, {group.identity: 1})

    @classmethod
    def from_elt(cls, group, g) -> "AlgebraElement":
        return cls(group, {g: 1})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            s = out.get(g, Fraction(0)) + c
            if s:
                out[g] = s
            elif g in out:
                del out[g]
        return AlgebraElement(self.group, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "AlgebraElement":
        c = Fraction(scalar)
        if not c:
            return AlgebraElement(self.group)
        return AlgebraElement(self.group, {g: c * v for g, v in self.terms.items()})

    def __mul__(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return self.__rmul__(other)  # scalar on the right
        self._check(other)
        mul = self.group.mul
        out: dict = {}
        for g, cg in self.terms.items():
            for h, ch in other.terms.items():
                k = mul(g, h)
                s = out.get(k, Fraction(0)) + cg * ch
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return AlgebraElement(self.group, out)

    def star(self) -> "AlgebraElement":
        inv = self.group.inv
        return AlgebraElement(self.group, {inv(g): c for g, c in self.terms.items()})

    def __neg__(self) -> "AlgebraElement":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("AlgebraElement is mutable-dict backed; not hashable")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, g) -> Fraction:
        return self.terms.get(g, Fraction(0))

    def _check(self, other: "AlgebraElement"):
        if self.group is not other.group:
            raise ValueError("elements live over different groups")

    def __repr__(self):
        items = ", ".join(f"{g}: {c}" for g, c in sorted(self.terms.items(), key=repr))
        return f"AlgebraElement({{{items}}})"


def one_minus(group, g) -> AlgebraElement:
    out = {group.identity: Fraction(1)}
    out[g] = out.get(g, Fraction(0)) - 1  # g may be the identity itself
    return AlgebraElement(group, out)


def hermitian_square(group, g) -> AlgebraElement:
    """(1-g)*(1-g) = 2 - g - g^{-1}."""
    u = one_minus(group, g)
    return u.star() * u


def e_term(group: SpecialLinear, i: int, j: int, r: int) -> AlgebraElement:
    """2 - e_{i,j}(r) - e_{i,j}(r)^{-1} over SL_n(Z/qZ)."""
    g = group.elementary(i, j, r)
    return hermitian_square(group, g)


def laplacian(group, generators: Iterable) -> AlgebraElement:
    """|S| - sum_{s in S} s for the symmetrized generating set S."""
    sym = set()
    for g in generators:
        sym.add(g)
        sym.add(group.inv(g))
    out = AlgebraElement(group, {group.identity: len(sym)})
    for s in sorted(sym, key=repr):
        out = out + AlgebraElement(group, {s: -1})
    return out


def laplacian_as_squares(group, generators: Iterable) -> AlgebraElement:
    """(1/2) sum_{s in S} (1-s)*(1-s); must equal :func:`laplacian` exactly."""
    sym = set()
    for g in generators:
        sym.add(g)
        sym.add(group.inv(g))
    out = AlgebraElement(group)
    for s in sorted(sym, key=repr):
        out = out + hermitian_square(group, s)
    return Fraction(1, 2) * out


def steinberg_check(n: int, q: int, max_pairs: int | None = None) -> dict:
    """Verify the three elementary-matrix relations on concrete residues.

    Checks, for ring elements r, s mod q (all pairs, or the first
    ``max_pairs`` when given):
      additivity   e_{i,j}(r) e_{i,j}(s) = e_{i,j}(r+s)
      commutator   [e_{i,j}(r), e_{j,k}(s)] = e_{i,k}(rs)   (i != k)
      disjointness [e_{i,j}(r), e_{k,l}(s)] = 1             (i != l, j != k)
    Returns pass/fail counts per relation.
    """
    G = SpecialLinear(n, q)
    pairs = [(r, s) for r in range(q) for s in range(q)]
    if max_pairs is not None:
        pairs = pairs[:max_pairs]
    report = {"additivity": 0, "commutator": 0, "disjoint": 0, "failures": []}
    idx = range(1, n + 1)
    for r, s in pairs:
        for i in idx:
            for j in idx:
                if i == j:
                    continue
                lhs = G.mul(G.elementary(i, j, r), G.elementary(i, j, s))
                if lhs == G.elementary(i, j, r + s):
                    report["additivity"] += 1
                else:
                    report["failures"].append(("additivity", i, j, r, s))
                for k in idx:
                    if k in (i, j):
                        continue
                    comm = G.commutator(G.elementary(i, j, r), G.elementary(j, k, s))
                    if comm == G.elementary(i, k, r * s):
                        report["commutator"] += 1
                    else:
                        report["failures"].append(("commutator", i, j, k, r, s))
                for k in idx:
                    for l in idx:
                        if k == l or i == l or j == k or (k, l) == (i, j):
                            continue
                        comm = G.commutator(G.elementary(i, j, r), G.elementary(k, l, s))
                        if comm == G.identity:
                            report["disjoint"] += 1
                        else:
                            report["failures"].append(("disjoint", i, j, k, l, r, s))
    report["pass"] = not report["failures"]
    return report


# ---------------------------------------------------------------------------
# Heisenberg combinations used throughout: X = (1-x)*(1-x), etc.

def heis_xyz() -> tuple[AlgebraElement, AlgebraElement, AlgebraElement]:
    H = Heisenberg
    return (hermitian_square(H, H.x), hermitian_square(H, H.y),
            hermitian_square(H, H.z))


def heis_laplacian() -> AlgebraElement:
    return laplacian(Heisenberg, [Heisenberg.x, Heisenberg.y])


def sos_identity_sides() -> tuple[AlgebraElement, AlgebraElement]:
    """Both sides of the exact certificate for Z + (XY+YX)/2.

    Left: Z + (XY+YX)/2.  Right: (X+Y)Z/4 plus 1/8 of the eight hermitian
    squares (1-b)^d (1-a)^e (1-a)^e' (1-b)^d' with (a,b) in {(x,y),(y,x)}
    and (e,e'), (d,d') each ranging over {(*,id),(id,*)}.
    """
    H = Heisenberg
    X, Y, Z = heis_xyz()
    lhs = Z + Fraction(1, 2) * (X * Y + Y * X)
    rhs = Fraction(1, 4) * ((X + Y) * Z)
    total = AlgebraElement(H)
    for a, b in [(H.x, H.y), (H.y, H.x)]:
        ua, ub = one_minus(H, a), one_minus(H, b)
        for star_inner in (True, False):
            for star_outer in (True, False):
                t1 = ub.star() if star_outer else ub
                t2 = ua.star() if star_inner else ua
                t3 = ua if star_inner else ua.star()
                t4 = ub if star_outer else ub.star()
                total = total + t1 * t2 * t3 * t4
    return lhs, rhs + Fraction(1, 8) * total
