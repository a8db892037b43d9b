"""Finite-dimensional rotation representations of the Heisenberg group.

For a reduced angle p/q the generators act on l_2(Z/qZ) by a diagonal
phase and a cyclic shift; every algebra element evaluates to a dense
q x q complex matrix.  Rank-3 elements evaluate on the triple tensor
power with the three central generators identified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, pi, sin

import numpy as np

from .algebra import AlgebraElement
from .groups import Heis3Elt, HeisElt


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

    @classmethod
    def from_fraction(cls, f: Fraction) -> "RationalAngle":
        f = Fraction(f)
        return cls(f.numerator, f.denominator)

    @property
    def theta(self) -> float:
        return self.p / self.q

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def s(self) -> float:
        """sin(pi theta)"""
        return sin(pi * self.p / self.q)

    def c_m(self, m: int) -> float:
        """cos(2 m pi theta)"""
        return cos(2 * m * pi * self.p / self.q)

    def b_m(self, m: int) -> float:
        """1 - cos(2 m pi theta) = 2 sin^2(m pi theta)"""
        return 1.0 - cos(2 * m * pi * self.p / self.q)


def farey_angles(qmax: int, max_value: Fraction | None = Fraction(1, 2),
                 include_zero: bool = True) -> list[RationalAngle]:
    """All reduced p/q with q <= qmax up to ``max_value`` (None: all of [0,1)),
    sorted by value."""
    hi = Fraction(max_value) if max_value is not None else None
    out = []
    for q in range(1, qmax + 1):
        for p in range(0, q):
            if gcd(p, q) != 1:
                continue
            f = Fraction(p, q)
            if not include_zero and p == 0:
                continue
            if hi is not None and f > hi:
                continue
            out.append(RationalAngle(p, q))
    return sorted(set(out), key=lambda a: a.fraction)


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


def _site_matrix(angle: RationalAngle, a: int, b: int) -> np.ndarray:
    return pi_theta(angle, (a, b, a * b))  # x^a y^b with no central phase


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


def x_op(angle: RationalAngle) -> np.ndarray:
    """X_theta = 2 - pi(x) - pi(x)*: diagonal with entries 2 b_j."""
    q = angle.q
    return np.diag([2.0 * angle.b_m(j) for j in range(q)]).astype(complex)


def y_op(angle: RationalAngle) -> np.ndarray:
    """Y_theta = 2 - pi(y) - pi(y)*: circulant second difference."""
    s = pi_y(angle)
    return 2.0 * np.eye(angle.q, dtype=complex) - s - s.conj().T


def z_scalar(angle: RationalAngle) -> float:
    """Z_theta = 2(1 - cos 2 pi theta) = 4 sin^2(pi theta)."""
    return 2.0 * (1.0 - cos(2 * pi * angle.p / angle.q))


def almost_mathieu(angle: RationalAngle, lam: float) -> np.ndarray:
    """H = pi((lam/2)(x + x*) + y + y*) = (lam+2) - (lam/2 X + Y)."""
    if lam <= 0:
        raise ValueError(f"coupling must be positive, got {lam}")
    q = angle.q
    return ((lam + 2.0) * np.eye(q, dtype=complex)
            - (lam / 2.0) * x_op(angle) - y_op(angle))


def bz_bound(angle: RationalAngle, lam: float) -> float:
    """Norm bound lam + 2 - (2 lam / (lam+2)) sin(pi theta)."""
    return lam + 2.0 - (2.0 * lam / (lam + 2.0)) * angle.s


def tensor_operator(angle: RationalAngle, word: str) -> np.ndarray:
    """Kronecker product of per-site operators at a common angle.

    ``word`` is a string over {X, Y, S, I}, one letter per site (2 or 3
    sites); S is the on-site anticommutator XY + YX.
    """
    if len(word) not in (2, 3):
        raise ValueError(f"expected 2 or 3 sites, got {len(word)}")
    x, y = x_op(angle), y_op(angle)
    letters = {"X": x, "Y": y, "S": x @ y + y @ x,
               "I": np.eye(angle.q, dtype=complex)}
    if not set(word) <= set(letters):
        raise ValueError(f"unknown factor in {word!r}; use X, Y, S or I")
    out = letters[word[0]]
    for letter in word[1:]:
        out = np.kron(out, letters[letter])
    return out
