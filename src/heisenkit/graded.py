"""Exact arithmetic in R[H] modulo augmentation powers.

Working in the quotient by I^{N+1}, elements are rational combinations of
normal-ordered monomials xbar^i ybar^j zbar^k (xbar = 1-x, etc.) of degree
i + j + 2k <= N.  The central letter zbar commutes; the single rewrite
    ybar xbar = xbar ybar + zbar - zbar xbar - zbar ybar + zbar ybar xbar
is an exact identity in R[H] and terminates under truncation because the
recursive branch raises degree by two.  The involution stays in the
quotient: it is fixed by ubar* = 1 - u^{-1} = -(ubar + ... + ubar^N) on
each letter and reverses the order of a product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import (AlgebraElement, TermDict, accumulate, heis_laplacian,
                      one_minus)
from .groups import Heisenberg

MAX_TRUNCATION = 10
PHI_TRUNCATION = 5            # phi and its checks work in R[H]/I^6
SQUARE_SWAP_TRUNCATION = 4    # the ybar^2 xbar^2 chain is stated mod I^5

Monomial = tuple  # (i, j, k) meaning xbar^i ybar^j zbar^k


def degree(m: Monomial) -> int:
    return m[0] + m[1] + 2 * m[2]


def graded_dimension(n: int) -> int:
    """dim I^n / I^{n+1} = (floor(n/2) + 1)(n - floor(n/2) + 1)."""
    return (n // 2 + 1) * (n - n // 2 + 1)


def basis_monomials(n: int) -> list:
    """All (i, j, k) with i + j + 2k = n, lexicographic."""
    out = []
    for k in range(n // 2 + 1):
        for i in range(n - 2 * k + 1):
            out.append((i, n - 2 * k - i, k))
    return sorted(out)


class GradedElement(TermDict):
    """Truncated element of R[H] in the normal-ordered monomial basis."""

    __slots__ = ("truncation",)

    def __init__(self, truncation: int, terms: dict | None = None):
        if not 0 <= truncation <= MAX_TRUNCATION:
            raise ValueError(f"truncation must be in 0..{MAX_TRUNCATION}")
        self.truncation = truncation
        super().__init__({m: c for m, c in (terms or {}).items()
                          if degree(m) <= truncation})

    @classmethod
    def monomial(cls, truncation: int, m: Monomial, coeff=1) -> "GradedElement":
        return cls(truncation, {tuple(m): coeff})

    def context(self):
        return self.truncation

    def _like(self, terms: dict) -> "GradedElement":
        return GradedElement(self.truncation, terms)

    def _product(self, other: "GradedElement") -> "GradedElement":
        return graded_mul(self, other)

    def __repr__(self):
        parts = [f"{c}*x^{m[0]}y^{m[1]}z^{m[2]}" for m, c in sorted(self.terms.items())]
        return f"GradedElement(N={self.truncation}: {' + '.join(parts) or '0'})"


@lru_cache(maxsize=4096)
def _normal_form(word: tuple, zpow: int, truncation: int) -> tuple:
    """Normal-order a word over the letters 'x', 'y' with an attached
    central zbar power: the leftmost 'yx' inversion is rewritten first and
    branches above the truncation are dropped.  Returns (monomial,
    coefficient) pairs as a tuple, so the cached value cannot be changed
    by a caller.  A run of ``graded_mul`` asks for few distinct words many
    times over."""
    leaves = []
    stack = [(word, zpow, Fraction(1))]
    while stack:
        w, k, c = stack.pop()
        if len(w) + 2 * k > truncation:
            continue
        pos = next((t for t in range(len(w) - 1)
                    if w[t] == "y" and w[t + 1] == "x"), None)
        if pos is None:
            leaves.append(((w.count("x"), w.count("y"), k), c))
            continue
        pre, post = w[:pos], w[pos + 2:]
        stack.append((pre + ("x", "y") + post, k, c))
        stack.append((pre + post, k + 1, c))
        stack.append((pre + ("x",) + post, k + 1, -c))
        stack.append((pre + ("y",) + post, k + 1, -c))
        stack.append((pre + ("y", "x") + post, k + 1, c))
    return tuple(accumulate({}, leaves).items())


def graded_mul(a: GradedElement, b: GradedElement) -> GradedElement:
    n = a.truncation
    out: dict = {}
    for (i1, j1, k1), c1 in a.terms.items():
        for (i2, j2, k2), c2 in b.terms.items():
            if i1 + j1 + i2 + j2 + 2 * (k1 + k2) > n:
                continue
            word = ("x",) * i1 + ("y",) * j1 + ("x",) * i2 + ("y",) * j2
            c12 = c1 * c2
            accumulate(out, ((key, c12 * c) for key, c
                             in _normal_form(word, k1 + k2, n)))
    return GradedElement(n, out)


def _generator_power(letter: str, exponent: int, truncation: int) -> GradedElement:
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
    """Exact image of a group-algebra element in R[H]/I^{N+1}.

    A group element (a, b, c) = x^a y^b z^{c-ab} maps to the product of its
    generator powers, which is already normal-ordered."""
    out = GradedElement(truncation)
    for (a, b, c), coeff in xi.terms.items():
        img = graded_mul(
            graded_mul(_generator_power("x", a, truncation),
                       _generator_power("y", b, truncation)),
            _generator_power("z", c - a * b, truncation))
        out = out + coeff * img
    return out


def graded_star(a: GradedElement) -> GradedElement:
    """The involution of R[H]/I^{N+1}.  I^{N+1} is *-stable, so * passes
    to the anti-automorphism of the quotient fixed by its values on the
    letters, ubar* = 1 - u^{-1}; the order reverses, so
    (xbar^i ybar^j zbar^k)* = zbar*^k ybar*^j xbar*^i."""
    n = a.truncation
    one = GradedElement.monomial(n, (0, 0, 0))
    star = {u: one - _generator_power(u, -1, n) for u in "xyz"}
    out = GradedElement(n)
    for (i, j, k), c in a.terms.items():
        img = one
        for u in "z" * k + "y" * j + "x" * i:
            img = graded_mul(img, star[u])
        out = out + c * img
    return out


# ---------------------------------------------------------------------------
# the degree-four functional and its consequences

PHI_VALUES = {
    (4, 0, 0): Fraction(1),
    (0, 4, 0): Fraction(1),
    (0, 0, 2): Fraction(-2),
    (2, 2, 0): Fraction(-1),
    (1, 1, 1): Fraction(1),
}


def evaluate_phi(a: GradedElement) -> Fraction:
    """Apply the degree-four functional (zero off degree four)."""
    if a.truncation < 4:
        raise ValueError("element must carry degree-four terms (N >= 4)")
    return sum((PHI_VALUES.get(m, Fraction(0)) * c
                for m, c in a.terms.items() if degree(m) == 4), Fraction(0))


def box_element() -> GradedElement:
    """(1/4) sum_{s,t in S} (1-s)*(1-t)*(1-t)(1-s) for S = {x^±1, y^±1},
    computed exactly in R[H] and then graded."""
    H = Heisenberg
    gens = [H.x, H.inv(H.x), H.y, H.inv(H.y)]
    total = AlgebraElement(H)
    for s in gens:
        for t in gens:
            us, ut = one_minus(H, s), one_minus(H, t)
            total = total + us.star() * ut.star() * ut * us
    return to_graded(Fraction(1, 4) * total, PHI_TRUNCATION)


def phi_report() -> dict:
    """The headline values: phi(Delta^2) = 0, phi(box) = 4,
    phi(zbar* zbar) = 2, and the uniform non-positivity witness
    phi(R Delta^2 + box/4 - zbar* zbar) = -1 for every R."""
    H = Heisenberg
    delta = heis_laplacian()
    zb = one_minus(H, H.z)
    phi_d2 = evaluate_phi(to_graded(delta * delta, PHI_TRUNCATION))
    phi_box = evaluate_phi(box_element())
    phi_zz = evaluate_phi(to_graded(zb.star() * zb, PHI_TRUNCATION))
    return {
        "phi_delta_sq": phi_d2,
        "phi_box": phi_box,
        "phi_zstar_z": phi_zz,
        "witness_value": phi_d2 + Fraction(1, 4) * phi_box - phi_zz,
        "pass": (phi_d2 == 0 and phi_box == 4 and phi_zz == 2),
    }


GRAM_EXPECTED = ((1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0), (-1, 0, 0, 1))


def gram_matrix_check() -> dict:
    """Bilinear form phi(xi* eta) on the ordered degree-two words
    {xbar xbar, xbar ybar, ybar xbar, ybar ybar}; compares with the
    expected 4x4 and checks positive semidefiniteness."""
    n = PHI_TRUNCATION
    xb = GradedElement.monomial(n, (1, 0, 0))
    yb = GradedElement.monomial(n, (0, 1, 0))
    basis = [graded_mul(xb, xb), graded_mul(xb, yb),
             graded_mul(yb, xb), graded_mul(yb, yb)]
    stars = [graded_star(b) for b in basis]
    gram = [[evaluate_phi(graded_mul(si, bj)) for bj in basis] for si in stars]
    arr = np.array([[float(v) for v in row] for row in gram])
    eigs = np.linalg.eigvalsh(arr)
    return {
        "matrix": [[v for v in row] for row in gram],
        "matches_expected": all(gram[i][j] == GRAM_EXPECTED[i][j]
                                for i in range(4) for j in range(4)),
        "eigenvalues": [float(e) for e in eigs],
        "psd": bool(eigs[0] >= -1e-12),
    }


def rederive_square_swap_lines() -> dict:
    """Re-derive the chain of congruences used for ybar^2 xbar^2 mod I^5:
    each displayed intermediate expression must normal-order to the same
    element; any coefficient mismatch is reported."""
    n = SQUARE_SWAP_TRUNCATION
    mono = lambda m: GradedElement.monomial(n, m)
    yyxx = graded_mul(mono((0, 2, 0)), mono((2, 0, 0)))
    yx = graded_mul(mono((0, 1, 0)), mono((1, 0, 0)))
    line2 = graded_mul(yx, yx) + graded_mul(yx, mono((0, 0, 1)))
    xy = mono((1, 1, 0))
    line3 = graded_mul(xy, xy) + 3 * mono((1, 1, 1)) + 2 * mono((0, 0, 2))
    line4 = mono((2, 2, 0)) + 4 * mono((1, 1, 1)) + 2 * mono((0, 0, 2))
    return {
        "yyxx": yyxx,
        "line2_matches": yyxx == line2,
        "line3_matches": yyxx == line3,
        "line4_matches": yyxx == line4,
        "pass": yyxx == line2 == line3 == line4,
    }


def phi_selfadjoint_check() -> bool:
    """phi(xi*) == phi(xi) on every degree-four basis monomial."""
    for m in basis_monomials(4):
        st = graded_star(GradedElement.monomial(PHI_TRUNCATION, m))
        if evaluate_phi(st) != PHI_VALUES.get(m, Fraction(0)):
            return False
    return True


def dimension_table(max_degree: int) -> list:
    """Rows (n, closed form, brute-force count) for n <= max_degree."""
    rows = []
    for n in range(max_degree + 1):
        brute = sum(1 for i in range(n + 1) for j in range(n + 1)
                    for k in range(n // 2 + 1) if i + j + 2 * k == n)
        rows.append((n, graded_dimension(n), brute))
    return rows
