"""Finite-dimensional rotation representations of the Heisenberg group.

For a reduced angle p/q the generators act on l_2(Z/qZ) by a diagonal
phase and a cyclic shift; every algebra element evaluates to a dense
q x q complex matrix.

The positive combinations X = 2 - x - x* and Y = 2 - y - y* are real
symmetric (X diagonal, Y a cyclic second difference), so their builders
and every Kronecker word over them are float64.  Both commute with the
parity j -> -j, which splits l_2(Z/qZ) into an even and an odd part and
every Kronecker word into one real block per choice of part at each site.
One builder makes those parts: ``parity_stack`` gives, per part, X's
diagonals for every angle of one denominator and Y's block, and
``site_letters`` turns one diagonal and the block into the part's letters
X, Y, S = XY + YX and I.

Every trigonometric value is computed from a residue k mod q folded into
[0, q/2]: cos(2 pi k/q) and sin(pi k/q) (for 0 <= k < q) take the same
value at k and q - k, so computing them from min(k, q - k) makes the
operators at p/q and (q-p)/q bitwise equal, not only equal in exact
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, pi, sin

import numpy as np

from .algebra import AlgebraElement
from .groups import HeisElt


@dataclass(frozen=True, order=True)
class RationalAngle:
    """Reduced fraction p/q with 0 <= p/q < 1; the angle of a representation."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1 or not (0 <= self.p < self.q or (self.p, self.q) == (0, 1)):
            raise ValueError(f"need 0 <= p/q < 1 with q >= 1, got {self.p}/{self.q}")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not reduced")

    @property
    def theta(self) -> float:
        return self.p / self.q

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def s(self) -> float:
        """sin(pi theta)"""
        return sin(pi * min(self.p, self.q - self.p) / self.q)

    def c_m(self, m: int) -> float:
        """cos(2 m pi theta)"""
        r = m * self.p % self.q
        return cos(2 * pi * min(r, self.q - r) / self.q)

    def b_m(self, m: int) -> float:
        """1 - cos(2 m pi theta) = 2 sin^2(m pi theta)"""
        return 1.0 - self.c_m(m)


def farey_angles(qmax: int, max_value: Fraction | None = Fraction(1, 2)
                 ) -> list[RationalAngle]:
    """All reduced p/q with q <= qmax up to ``max_value`` (None: all of [0,1)),
    sorted by value.  The sort key is the double p/q: distinct reduced
    fractions with q < 2^25 differ by at least 1/(q1 q2), far above its
    rounding error, so the order is that of the fractions."""
    hi = Fraction(max_value if max_value is not None else 1)
    out = [RationalAngle(p, q) for q in range(1, qmax + 1) for p in range(q)
           if gcd(p, q) == 1 and p * hi.denominator <= q * hi.numerator]
    return sorted(out, key=lambda a: a.theta)


def pi_x(angle: RationalAngle) -> np.ndarray:
    q = angle.q
    j = np.arange(q)
    return np.diag(np.exp(2j * pi * j * angle.p / q))


def pi_y(angle: RationalAngle) -> np.ndarray:
    q = angle.q
    m = np.zeros((q, q), dtype=complex)
    for j in range(q):
        m[(j + 1) % q, j] = 1.0
    return m


def pi_theta(angle: RationalAngle, g: HeisElt) -> np.ndarray:
    """Unitary image of a group element (a, b, c) = x^a y^b z^(c-ab)."""
    a, b, c = g
    q = angle.q
    omega_pow = lambda e: np.exp(2j * pi * angle.p * (e % q) / q)
    j = np.arange(q)
    m = np.zeros((q, q), dtype=complex)
    m[(j + b) % q, j] = np.exp(2j * pi * angle.p * (a * ((j + b) % q) % q) / q)
    return omega_pow(c - a * b) * m


def evaluate(angle: RationalAngle, xi: AlgebraElement) -> np.ndarray:
    """Linear extension of pi_theta to the group algebra (Heisenberg)."""
    q = angle.q
    out = np.zeros((q, q), dtype=complex)
    for g, coeff in xi.terms.items():
        out += float(coeff) * pi_theta(angle, g)
    return out


def _x_diagonals(p: np.ndarray, q: int) -> np.ndarray:
    """2 b_j = 2(1 - cos(2 pi j p/q)) for j = 0..q//2, one row per
    numerator in the column ``p``, from the residues j p mod q folded
    into [0, q/2]."""
    r = np.arange(q // 2 + 1) * p % q
    return 2.0 * (1.0 - np.cos(2 * pi * np.minimum(r, q - r) / q))


def x_op(angle: RationalAngle) -> np.ndarray:
    """X_theta = 2 - pi(x) - pi(x)*: diagonal with entries 2 b_j.

    Entry q - j is a copy of entry j, so X commutes with j -> -j exactly
    in floating point, not only up to the rounding of the cosine.
    """
    q = angle.q
    j = np.arange(q)
    return np.diag(_x_diagonals(np.array([[angle.p]]), q)[0, np.minimum(j, q - j)])


def y_op(angle: RationalAngle) -> np.ndarray:
    """Y_theta = 2 - pi(y) - pi(y)*: circulant second difference."""
    s = pi_y(angle).real
    return 2.0 * np.eye(angle.q) - s - s.T


def z_scalar(angle: RationalAngle) -> float:
    """Z_theta = 2(1 - cos 2 pi theta) = 4 sin^2(pi theta)."""
    return 2.0 * angle.b_m(1)


def almost_mathieu(angle: RationalAngle, lam: float) -> np.ndarray:
    """H = pi((lam/2)(x + x*) + y + y*) = (lam+2) - (lam/2 X + Y)."""
    if lam <= 0:
        raise ValueError(f"coupling must be positive, got {lam}")
    return ((lam + 2.0) * np.eye(angle.q)
            - (lam / 2.0) * x_op(angle) - y_op(angle))


def bz_bound(angle: RationalAngle, lam: float) -> float:
    """Norm bound lam + 2 - (2 lam / (lam+2)) sin(pi theta)."""
    return lam + 2.0 - (2.0 * lam / (lam + 2.0)) * angle.s


def site_letters(x: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """The one-site letters of the Kronecker words on one parity part (or
    on all of l_2(Z/qZ)): X = diag(x), Y = y, the on-site anticommutator
    S = XY + YX and the identity I.  X is diagonal, so
    S_ij = (x_i + x_j) Y_ij."""
    return {"X": np.diag(x), "Y": y, "S": (x[:, None] + x[None, :]) * y,
            "I": np.eye(len(x))}


def letters(angle: RationalAngle) -> dict[str, np.ndarray]:
    """``site_letters`` of X and Y at ``angle`` in the standard basis."""
    return site_letters(np.diag(x_op(angle)), y_op(angle))


def parity_bases(q: int) -> list[np.ndarray]:
    """Orthogonal bases, as columns, of the even and the odd part of
    l_2(Z/qZ) under j -> -j.

    Columns are e_j + e_{-j} (e_j alone at a fixed point j = -j) and
    e_j - e_{-j}, so every entry is 0 or +-1 and a column has squared norm
    1 or 2.  For q <= 2 every point is fixed and only the even part is
    returned.
    """
    bases = []
    for sign, reps in ((1, range(q // 2 + 1)), (-1, range(1, (q + 1) // 2))):
        v = np.zeros((q, len(reps)))
        for col, j in enumerate(reps):
            v[j, col] = 1.0
            if -j % q != j:
                v[-j % q, col] = sign
        if v.size:
            bases.append(v)
    return bases


def parity_stack(angles) -> list[tuple[np.ndarray, np.ndarray]]:
    """X and Y at angles sharing one denominator q, restricted to each
    nonempty parity part in the orthonormal bases
    ``parity_bases(q) / column norm``.

    X is diagonal in the parity bases (its entries 2 b_j for the
    representatives j = 0..q//2 of the even part and 1..(q-1)//2 of the
    odd part) and Y does not depend on p, so each part is the pair
    (diagonals of X, one row per angle, shape (len(angles), n);
    the block of Y, shape (n, n)).  ``site_letters`` of one row and the
    block are the part's letters at that angle.
    """
    q = angles[0].q
    if any(a.q != q for a in angles):
        raise ValueError("the angles of a stack must share their denominator")
    half = _x_diagonals(np.array([[a.p] for a in angles]), q)
    y = y_op(angles[0])
    out = []
    for x, v in zip((half, half[:, 1:(q + 1) // 2]), parity_bases(q)):
        n = np.sum(v * v, axis=0)  # squared column norms, 1 or 2
        out.append((x, (v.T @ y @ v) * (1.0 / np.sqrt(np.outer(n, n)))))
    return out


def kron_word(sites, word: str) -> np.ndarray:
    """Kronecker product of ``sites[i][word[i]]`` over the sites, where each
    site is a letter table such as ``site_letters(x, y)``."""
    out = sites[0][word[0]]
    for site, letter in zip(sites[1:], word[1:]):
        b = site[letter]  # np.kron of two matrices, without its n-d overhead
        out = (out[:, None, :, None] * b[None, :, None, :]).reshape(
            out.shape[0] * b.shape[0], out.shape[1] * b.shape[1])
    return out


def tensor_operator(angle: RationalAngle, word: str) -> np.ndarray:
    """Kronecker product of per-site operators at a common angle.

    ``word`` is a string over {X, Y, S, I}, one letter per site (2 or 3
    sites); S is the on-site anticommutator XY + YX.
    """
    if len(word) not in (2, 3):
        raise ValueError(f"expected 2 or 3 sites, got {len(word)}")
    table = letters(angle)
    if not set(word) <= set(table):
        raise ValueError(f"unknown factor in {word!r}; use X, Y, S or I")
    return kron_word([table] * len(word), word)
