"""Concrete groups with canonical hashable elements.

Every group here exposes ``identity`` and ``mul`` and stores elements in
a normal form (integer tuples, residue matrices), so the group-algebra
layer never has to rewrite words.  ``Heisenberg`` also has ``inv``; the
SL_n relation checks are product identities that need none.
"""

from __future__ import annotations

HeisElt = tuple[int, int, int]
MatElt = tuple[tuple[int, ...], ...]


class Heisenberg:
    """Integral Heisenberg group; (a, b, c) is the upper unitriangular
    3x3 matrix with a, b on the superdiagonal and c in the corner."""

    identity: HeisElt = (0, 0, 0)
    x: HeisElt = (1, 0, 0)
    y: HeisElt = (0, 1, 0)
    z: HeisElt = (0, 0, 1)

    @staticmethod
    def mul(g: HeisElt, h: HeisElt) -> HeisElt:
        a, b, c = g
        a2, b2, c2 = h
        return (a + a2, b + b2, c + c2 + a * b2)

    @staticmethod
    def inv(g: HeisElt) -> HeisElt:
        a, b, c = g
        return (-a, -b, a * b - c)


class SpecialLinear:
    """SL_n(Z/qZ) elements as n x n residue tuples with determinant 1 mod q."""

    def __init__(self, n: int, q: int):
        if n < 2 or q < 1:
            raise ValueError(f"need n >= 2 and q >= 1, got n={n}, q={q}")
        self.n = n
        self.q = q
        self.identity: MatElt = tuple(
            tuple((1 if i == j else 0) % q for j in range(n))
            for i in range(n)
        )

    def elementary(self, i: int, j: int, r: int) -> MatElt:
        """e_{i,j}(r): identity plus r in entry (i, j); 1-based indices."""
        if i == j:
            raise ValueError("elementary matrix needs i != j")
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"indices out of range for n={self.n}")
        m = [list(row) for row in self.identity]
        m[i - 1][j - 1] = r % self.q
        return tuple(tuple(row) for row in m)

    def mul(self, g: MatElt, h: MatElt) -> MatElt:
        n, q = self.n, self.q
        return tuple(
            tuple(sum(g[i][k] * h[k][j] for k in range(n)) % q for j in range(n))
            for i in range(n)
        )

    def commutator_is(self, g: MatElt, h: MatElt, c: MatElt) -> bool:
        """Whether [g, h] = g h g^{-1} h^{-1} equals c, checked as the
        inverse-free identity g h = c h g."""
        return self.mul(g, h) == self.mul(self.mul(c, h), g)
