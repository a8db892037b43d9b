"""Exact arithmetic in real group algebras.

An :class:`AlgebraElement` is a finite formal sum of group elements with
``fractions.Fraction`` coefficients; the involution ``star`` extends
g -> g^{-1}.  Everything here is exact -- floats appear only once an
element is pushed through a representation (see :mod:`heisenkit.rotation`).
"""

from __future__ import annotations

from fractions import Fraction

from .groups import Heisenberg, SpecialLinear


def accumulate(out: dict, pairs) -> dict:
    """Add each ``(key, coefficient)`` of ``pairs`` into ``out`` in place,
    deleting a key whose sum is zero; returns ``out``."""
    for k, c in pairs:
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


class TermDict:
    """Finite formal sum: ``terms`` maps basis keys to nonzero coefficients.

    A subclass fixes the coefficient type (``coerce`` maps every coefficient
    given to the constructor onto it), the context both operands of a binary
    operation must share (``context``; ``None`` when there is none), how to
    make a sum over the same context (``_like``) and its product
    (``_product``).  Elements are dict backed and therefore not hashable.
    """

    __slots__ = ("terms",)
    coerce = Fraction

    def __init__(self, terms: dict | None = None):
        self.terms: dict = {}
        if terms:
            coerce = self.coerce
            for k, c in terms.items():
                c = coerce(c)
                if c:
                    self.terms[k] = c

    def context(self):
        return None

    def _check(self, other: "TermDict"):
        if self.context() != other.context():
            raise ValueError(f"mixed contexts {self.context()!r} and "
                             f"{other.context()!r}")

    def __add__(self, other: "TermDict") -> "TermDict":
        self._check(other)
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "TermDict") -> "TermDict":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "TermDict":
        c = self.coerce(scalar)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    def __mul__(self, other) -> "TermDict":
        if not isinstance(other, TermDict):
            return self.__rmul__(other)  # scalar on the right
        self._check(other)
        return self._product(other)

    def __neg__(self) -> "TermDict":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.context() == other.context()
                and self.terms == other.terms)

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms


class AlgebraElement(TermDict):
    """Finite formal sum over a group, with exact rational coefficients.

    ``group`` must expose ``identity`` and ``mul``, and ``inv`` for
    ``star`` (so also for ``hermitian_square``); elements must be hashable
    canonical forms.  Zero coefficients are never stored.
    """

    __slots__ = ("group",)

    def __init__(self, group, terms: dict | None = None):
        self.group = group
        super().__init__(terms)

    def context(self):
        return self.group

    def _like(self, terms: dict) -> "AlgebraElement":
        return AlgebraElement(self.group, terms)

    def _product(self, other: "AlgebraElement") -> "AlgebraElement":
        mul = self.group.mul
        return self._like(accumulate({}, ((mul(g, h), cg * ch)
                                          for g, cg in self.terms.items()
                                          for h, ch in other.terms.items())))

    def star(self) -> "AlgebraElement":
        inv = self.group.inv
        return self._like({inv(g): c for g, c in self.terms.items()})

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


def steinberg_check(n: int, q: int) -> dict:
    """Verify the three elementary-matrix relations on concrete residues.

    Checks, for all ring elements r, s mod q:
      additivity   e_{i,j}(r) e_{i,j}(s) = e_{i,j}(r+s)
      commutator   [e_{i,j}(r), e_{j,k}(s)] = e_{i,k}(rs)   (i != k)
      disjointness [e_{i,j}(r), e_{k,l}(s)] = 1             (i != l, j != k)
    Each commutator relation [g, h] = c is checked as the product identity
    g h = c h g, so no matrix is inverted.  Returns pass/fail counts per
    relation.
    """
    G = SpecialLinear(n, q)
    pairs = [(r, s) for r in range(q) for s in range(q)]
    report = {"additivity": 0, "commutator": 0, "disjoint": 0, "failures": []}
    idx = range(1, n + 1)
    for r, s in pairs:
        for i in idx:
            for j in idx:
                if i == j:
                    continue
                g = G.elementary(i, j, r)
                if G.mul(g, G.elementary(i, j, s)) == G.elementary(i, j, r + s):
                    report["additivity"] += 1
                else:
                    report["failures"].append(("additivity", i, j, r, s))
                for k in idx:
                    if k in (i, j):
                        continue
                    if G.commutator_is(g, G.elementary(j, k, s),
                                       G.elementary(i, k, r * s)):
                        report["commutator"] += 1
                    else:
                        report["failures"].append(("commutator", i, j, k, r, s))
                for k in idx:
                    for l in idx:
                        if k == l or i == l or j == k or (k, l) == (i, j):
                            continue
                        if G.commutator_is(g, G.elementary(k, l, s),
                                           G.identity):
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
