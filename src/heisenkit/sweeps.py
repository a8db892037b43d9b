"""Numerical sweeps over rational-angle grids for the operator inequalities.

Each ``verify_*`` function sweeps a Farey grid, records one margin per angle
(min eigenvalue of the slack operator, or bound minus norm) and reports the
global minimum.  Positivity in the group C*-algebra is accepted when every
margin clears ``-TOL``; the grid order is the accuracy knob and no option
moves the gate.  A sweep's keyword parameters are its only options (the
``verify`` command refuses any other).  The default grid order ``qmax`` is
60 for the single-site sweeps, 40 for the projection sweep, 24 for the
two-site inequality and 12 for the three-site inequality.  A sweep whose
largest solve would not fit in physical memory is refused before its grid
is built.  Every margin is a dense LAPACK eigenvalue of a real parity block.

Each eigenvalue check (xyz1, zzz, xyz2, bz and both tensor searches) is an
entry of ``CHECKS``: its site count, its operator as (coefficient, word)
terms over the letters X, Y, S = XY + YX and I, its grid rule and extras.
Every sweep runs through ``_stacked_sweep``, which builds the parity
blocks of X and Y with ``rotation.parity_stack`` once per denominator and
hands them to the sweep in runs of up to STACK angles.  A one-site
operator is summed on the dense letters of its even and odd blocks of
about q/2, one stack per run.  Every angle enters through residues folded
into [0, q/2], so theta and 1 - theta have bitwise equal operators and a
full circle solves only [0, 1/2].  The two- and three-site operators split
into 4 blocks of about (q/2)^2 and 8 of about (q/2)^3, each summed from its
nonzeros alone (``_parity_blocks``) and solved only when a Cholesky cannot
certify that it does not lower the minimum (``_block_min_eigenvalue``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product
from math import asin, cos, pi, prod, sqrt

import numpy as np

from . import rotation
from .linalg import (CUT_AMBIGUITY_TOL, exceeds, hermitian_norm,
                     min_eigenvalue, physical_memory, spectral_norm,
                     spectral_projection)
from .rotation import RationalAngle, farey_angles

R_SCAN = (2, 4, 8, 16, 32)
EPS_SCAN = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
THETA0_SCAN = (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32))
TOL = 1e-9  # the PASS gate: every margin must clear -TOL
IDENTITY_TOL = 1e-12
# peak memory of a solve, in multiples of its parity blocks' 8 N^2 bytes
# each: one-angle tensor sweeps raised peak RSS by 3.3-4.0x that
# (three-site q = 20 and 24, two-site q = 80; numpy 2.4, OpenBLAS 0.3.31)
SOLVE_PEAK_RATIO = 4


@dataclass
class AngleRecord:
    p: int
    q: int
    margin: float
    extras: dict = field(default_factory=dict)

    @property
    def theta(self) -> float:
        return self.p / self.q

    def sort_key(self):
        # the double p/q orders reduced fractions exactly (see farey_angles)
        return (self.theta, sorted(self.extras.items()))


@dataclass
class SweepReport:
    """Per-angle margins plus the global verdict for one inequality sweep."""

    name: str
    records: list
    constants: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if not self.records:
            self.notes = self.notes + ["FAIL: sweep produced no records"]

    @property
    def min_margin(self) -> float:
        return min((r.margin for r in self.records), default=float("inf"))

    @property
    def argmin(self) -> AngleRecord | None:
        return min(self.records, key=lambda r: r.margin, default=None)

    @property
    def passed(self) -> bool:
        return self.min_margin >= -TOL and not any(
            n.startswith("FAIL") for n in self.notes)

    def witnesses(self) -> list:
        return [r for r in self.records if r.margin < -TOL]


# ---------------------------------------------------------------------------
# the stacked sweep

STACK = 8  # angles per stacked solve; bounds the temporaries of a stack


def _stacked_sweep(grid, work) -> list:
    """The records of ``work(angles, parts)`` over ``grid``, in sorted-angle
    order, called on runs of at most STACK angles of one denominator;
    ``parts`` holds, per parity part, the run's rows of X's diagonals and
    Y's block (``rotation.parity_stack``, built once per denominator).

    An angle (q-p)/q whose mirror p/q, 2p < q, is also in the grid is not
    solved: its records are those of p/q with p replaced.  So on a grid
    with mirror pairs (the full-circle grids of bz, xyz1 and xyz2),
    ``work`` may read an angle only through values that are bitwise equal
    at p/q and (q-p)/q: its parity stack, sin(pi theta) and sines of
    residues folded as ``rotation`` folds them."""
    by_q: dict = {}
    for a in grid:
        by_q.setdefault(a.q, []).append(a)
    records = []
    for q, angles in by_q.items():
        numerators = {a.p for a in angles}
        solved = [a for a in angles if 2 * a.p <= q or q - a.p not in numerators]
        parts = rotation.parity_stack(solved)
        found = []
        for i in range(0, len(solved), STACK):
            found += work(solved[i:i + STACK],
                          [(x[i:i + STACK], y) for x, y in parts])
        records += found + [
            AngleRecord(q - r.p, q, r.margin, dict(r.extras))
            for r in found if 2 * r.p < q and q - r.p in numerators]
    records.sort(key=AngleRecord.sort_key)
    return records


def _refuse_oversize(qmax: int, sites: int, count: int = 1) -> None:
    """Refuse a sweep whose largest solve, ``count`` parity blocks of order
    N = (qmax // 2 + 1)^sites at SOLVE_PEAK_RATIO * 8 N^2 bytes each, would
    not fit in physical memory."""
    order = (qmax // 2 + 1) ** sites
    need, memory = SOLVE_PEAK_RATIO * 8 * count * order ** 2, physical_memory()
    if need > memory:
        blocks = f"a stack of {count} parity blocks" if count > 1 else "a parity block"
        raise ValueError(f"{blocks} of order {order} needs about {need} bytes "
                         f"to solve, more than the {memory} bytes of physical memory")


def _sines(angles) -> np.ndarray:
    """sin(pi theta) of each angle, as a column."""
    return np.array([[a.s] for a in angles])


def _residue_x(x: np.ndarray, q: int) -> np.ndarray:
    """X's diagonals over every residue m = 0..q-1 from the even part's
    rows x of a ``rotation.parity_stack``: entry min(m, q - m) of x."""
    m = np.arange(q)
    return x[:, np.minimum(m, q - m)]


# ---------------------------------------------------------------------------
# the check table

@dataclass(frozen=True)
class Check:
    """``terms(s, **constants)``: the operator on ``sites`` sites, summed in
    order, as ((coefficient, word), ...) with one letter per site; the
    coefficients broadcast over a run's stack through s = sin(pi theta) as
    an (angles, 1, 1) array (None for tensor checks) and bz's couplings on
    a leading axis.  ``grid(angle, **constants)``: whether a Farey angle of
    [0, 1) is swept.  ``extras(angles, parts)``: values per angle of a run.
    A ``norm`` check's margin is ``rotation.bz_bound`` less the norm, per
    coupling; any other is the least eigenvalue (less epsilon Z for the
    tensor checks)."""

    sites: int
    terms: Callable
    grid: Callable
    extras: Callable | None = None
    norm: bool = False


def _swept(a: RationalAngle, full_circle: bool = False,
           theta0: Fraction | None = None, **_) -> bool:
    """Whether a lies in [0, min(1/2, theta0)], or anywhere on a full circle."""
    return full_circle or 2 * a.p <= a.q and (theta0 is None or a.fraction <= theta0)


def zzz_theta0(R: float, kappa: float) -> float:
    """Small-angle threshold min{1/4, arcsin(kappa sqrt((1-kappa)/R))/pi}."""
    return min(0.25, asin(kappa * sqrt((1.0 - kappa) / R)) / pi)


def _xyz2_blocks(angles, parts) -> dict:
    """xyz2's extras over m = 0..q-1 per angle of a run, with
    s = sin(pi theta) and b_m half of X's entry at residue m: the least
    determinant ad - c^2 and trace a + d of the corner blocks
    [[a, c], [c, d]] of 2s(X+Y) + (XY+YX)/2 at (m-1, m), where
    a = 2(s+1) b_{m-1} + 2s, c = -(2s + b_{m-1} + b_m), d = 2(s+1) b_m + 2s,
    and the largest residual of b_{m-1} - b_m = -2 s sin((2m-1) pi theta),
    the sine taken at k = (2m-1) p mod 2q folded into [0, q/2] and negated
    for k > q, so p/q and (q-p)/q give the same floats."""
    q, p = angles[0].q, np.array([[a.p] for a in angles])
    s = _sines(angles)
    bm = _residue_x(parts[0][0], q) / 2.0
    bm1 = np.roll(bm, 1, axis=1)  # b_{m-1}, with b_{-1} = b_{q-1}
    a = 2 * (s + 1) * bm1 + 2 * s
    c = -(2 * s + bm1 + bm)
    d = 2 * (s + 1) * bm + 2 * s
    k = (2 * np.arange(q) - 1) * p % (2 * q)
    r = k % q
    sines = np.where(k > q, -1.0, 1.0) * np.sin(pi * np.minimum(r, q - r) / q)
    return {"det_min": np.min(a * d - c * c, axis=1),
            "trace_min": np.min(a + d, axis=1),
            "identity_residual": np.max(np.abs(bm1 - bm + 2.0 * s * sines),
                                        axis=1)}


CHECKS = {
    # X + Y >= sqrt(Z)/2 = sin(pi theta)
    "xyz1": Check(1, lambda s, **_: ((1.0, "X"), (-s, "I"), (1.0, "Y")), _swept),
    # R X + Y >= sqrt((1-kappa) R) sin(pi theta) for theta <= theta0
    "zzz": Check(1, lambda s, R, kappa, **_: (
        (R, "X"), (-sqrt((1.0 - kappa) * R) * s, "I"), (1.0, "Y")),
        lambda a, theta0, **_: a.theta <= theta0),
    # (X+Y) sqrt(Z) + (XY+YX)/2 >= 0
    "xyz2": Check(1, lambda s, **_: (
        (2.0 * s, "X"), (2.0 * s, "Y"), (0.5, "S")), _swept, _xyz2_blocks),
    # ||H|| <= bz_bound for H = (lam+2) - (lam/2) X - Y, lam an (L, 1, 1, 1) column
    "bz": Check(1, lambda s, lambdas, **_: (
        (lambdas + 2.0, "I"), (-lambdas / 2.0, "X"), (-1.0, "Y")), _swept, norm=True),
    # R(X(x)Y + Y(x)X) + X(x)X + Y(x)Y + (XY+YX)(x)1 >= epsilon Z
    "smalltheta": Check(2, lambda s, R: (
        (R, "XY"), (R, "YX"), (1.0, "XX"), (1.0, "YY"), (1.0, "SI")), _swept),
    # R(X1 Y2 + Y1 X2 + X1 Y3 + Y1 X3) + X1 X2 + Y1 Y2 + X1 Y1 + Y1 X1 >= epsilon Z
    "formula": Check(3, lambda s, R: (
        (R, "XYI"), (R, "YXI"), (R, "XIY"), (R, "YIX"), (1.0, "XXI"),
        (1.0, "YYI"), (1.0, "SII")), _swept),
}


# ---------------------------------------------------------------------------
# the single-site sweeps

def _term_sum(terms, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The operator ``terms`` per row of x, summed in term order from the
    ``np.kron`` products of the dense letters X = diag(x), Y = y,
    S = XY + YX = (x_i + x_j) Y_ij and I: on a parity part (x, y) of a run,
    each angle's one-site operator."""
    eye = np.eye(len(y))
    letters = {"X": lambda: x[:, :, None] * eye, "Y": lambda: y,
               "S": lambda: (x[:, :, None] + x[:, None, :]) * y,
               "I": lambda: eye}
    return reduce(np.add, (c * reduce(np.kron, [letters[k]() for k in word])
                           for c, word in terms))


def _site_sweep(name: str, qmax: int, **constants) -> list:
    """The records of the one-site check ``CHECKS[name]`` at ``constants``
    on its grid of order qmax: one stack per parity part and run, with
    every coupling of a norm check, solved by one call."""
    check = CHECKS[name]
    couplings = constants["lambdas"].ravel().tolist() if check.norm else []
    _refuse_oversize(qmax, 1, STACK * max(1, len(couplings)))

    def work(angles, parts):
        terms = check.terms(_sines(angles)[:, :, None], **constants)
        solve = hermitian_norm if check.norm else min_eigenvalue
        values = [solve(_term_sum(terms, x, y)) for x, y in parts]
        if check.norm:
            return [AngleRecord(a.p, a.q, rotation.bz_bound(a, lam) - float(n),
                                {"lambda": lam})
                    for lam, row in zip(couplings, np.max(values, axis=0))
                    for a, n in zip(angles, row)]
        extras = check.extras(angles, parts) if check.extras else {}
        return [AngleRecord(a.p, a.q, float(m),
                            {k: float(v[i]) for k, v in extras.items()})
                for i, (a, m) in enumerate(zip(angles, np.min(values, axis=0)))]

    return _stacked_sweep([a for a in farey_angles(qmax, max_value=None)
                           if check.grid(a, **constants)], work)


def verify_bz(*, qmax: int = 60, lambdas: tuple = (1.0, 2.0, 4.0),
              full_circle: bool = False) -> SweepReport:
    """Almost Mathieu norm bound: ||H|| <= lam+2 - (2 lam/(lam+2)) sin(pi theta),
    H = (lam+2) - (lam/2 X + Y), with ||H|| the largest |eigenvalue|."""
    for lam in lambdas:
        if not lam > 0:
            raise ValueError(f"coupling must be positive, got {lam}")
    if len(set(lambdas)) < len(lambdas):
        raise ValueError(f"repeated coupling in {list(lambdas)}")
    records = _site_sweep("bz", qmax, full_circle=full_circle, lambdas=np.array(
        lambdas, dtype=float)[:, None, None, None])
    return SweepReport("bz", records,
                       constants={"lambdas": list(lambdas), "qmax": qmax})


def verify_xyz1(*, qmax: int = 60, full_circle: bool = False) -> SweepReport:
    """X + Y >= sqrt(Z)/2, i.e. min eig(X + Y - sin(pi theta)) >= 0."""
    records = _site_sweep("xyz1", qmax, full_circle=full_circle)
    return SweepReport("xyz1", records, constants={"qmax": qmax})


def verify_zzz(*, qmax: int = 60, R: float | None = None,
               kappa: float | None = None) -> SweepReport:
    """R X + Y >= sqrt((1-kappa) R) sin(pi theta) for theta <= theta0(R, kappa)."""
    if R is None or kappa is None:
        raise ValueError("verify_zzz needs R and kappa")
    if R < 1 or not (0 < kappa < 1):
        raise ValueError(f"need R >= 1 and kappa in (0,1), got R={R}, kappa={kappa}")
    theta0 = zzz_theta0(R, kappa)
    records = _site_sweep("zzz", qmax, R=R, kappa=kappa, theta0=theta0)
    notes = []
    if all(r.p == 0 for r in records):
        notes.append(f"empty sweep: no positive angle <= theta0={theta0:.6f} at qmax={qmax}")
    return SweepReport("zzz", records, notes=notes,
                       constants={"R": R, "kappa": kappa, "theta0": theta0,
                                  "qmax": qmax})


def verify_xyz2(*, qmax: int = 60, full_circle: bool = False) -> SweepReport:
    """(X+Y) sqrt(Z) + (XY+YX)/2 >= 0, via the operator sweep and the exact
    2x2 block determinants, plus the corrected difference identity
    b_{m-1} - b_m = -2 sin(pi theta) sin((2m-1) pi theta)."""
    records = _site_sweep("xyz2", qmax, full_circle=full_circle)
    notes = []
    bad_det = [r for r in records if r.extras["det_min"] < -TOL
               or r.extras["trace_min"] < -TOL]
    bad_id = [r for r in records if r.extras["identity_residual"] > IDENTITY_TOL]
    if bad_det:
        notes.append(f"FAIL: {len(bad_det)} angle(s) with negative block det/trace")
    if bad_id:
        notes.append(f"FAIL: {len(bad_id)} angle(s) violate the corrected "
                     f"difference identity beyond {IDENTITY_TOL}")
    return SweepReport("xyz2", records, notes=notes, constants={"qmax": qmax})


def verify_prodnorm(*, qmax: int = 60) -> SweepReport:
    """||pi((1-x)(1-y))|| <= 4 cos(pi theta / 2).

    The product is neither normal nor parity-commuting, but
    (1-x)*(1-x) = X and (1-y)(1-y)* = Y give ||(1-x)(1-y)||^2 =
    ||sqrt(X) Y sqrt(X)||, whose operator does commute with the parity."""
    _refuse_oversize(qmax, 1, STACK)
    grid = farey_angles(qmax)

    def root_x_y_root_x(x, y):
        r = np.sqrt(x)
        return r[:, :, None] * y * r[:, None, :]

    def work(angles, parts):
        squares = np.max([hermitian_norm(root_x_y_root_x(x, y))
                          for x, y in parts], axis=0)
        return [AngleRecord(a.p, a.q, 4.0 * cos(pi * a.theta / 2.0) - sqrt(float(n)))
                for a, n in zip(angles, squares)]

    records = _stacked_sweep(grid, work)
    return SweepReport("prodnorm", records, constants={"qmax": qmax})


def verify_xsmall(*, qmax: int = 40,
                  deltas: tuple = (0.1, 0.3, 0.5)) -> SweepReport:
    """Spectral-projection facts for 0 < delta < 2(1 - cos(pi theta)):
    the low-X subspace sees Y as 2 (no consecutive residues), and
    ||P_{Y<=d} P_{X<=d}|| <= sqrt(2/(4-d)).

    Only Y is decomposed, once per parity part and stack, for the union
    of the cuts that apply at the stack's angles.  X is diagonal, so P_X
    is the coordinate projection onto {x <= delta}: ||P_Y P_X|| is the
    largest, over the parts, spectral norm of P_Y with the columns outside
    that set zeroed, and the compression residual max |P_X Y P_X - 2 P_X|
    is the largest, over the parts, max |(Y - 2) [low (x) low]| on the
    part's Y block: Y - 2 is nonzero there only next to the diagonal and
    at the fold of an odd q, so it is 0.0 exactly when no two adjacent
    residues are low, as in the standard basis.  The low-set size and the
    adjacency come from X over every residue.  On [0, 1/2] the gap is at
    most 2, so a cut outside (0, 2) never applies and is refused, as is a
    repeated cut or one within CUT_AMBIGUITY_TOL of an entry of X."""
    for delta in deltas:
        if not 0 < delta < 2:
            raise ValueError(f"cut must lie in (0, 2), got {delta}")
    if len(set(deltas)) < len(deltas):
        raise ValueError(f"repeated cut in {list(deltas)}")
    _refuse_oversize(qmax, 1, STACK)
    grid = [a for a in farey_angles(qmax) if a.p != 0]
    notes = []

    def work(angles, parts):
        q = angles[0].q
        gaps = np.array([2.0 * (1.0 - cos(pi * a.theta)) for a in angles])
        union = sorted(d for d in deltas if d < gaps.max())
        if not union:
            return []
        x_full = _residue_x(parts[0][0], q)
        projections = [spectral_projection(y, union) for _, y in parts]
        out = []
        for k, delta in enumerate(union):
            rows = np.flatnonzero(delta < gaps)
            if np.any(np.abs(x_full[rows] - delta) < CUT_AMBIGUITY_TOL):
                raise ValueError(f"ambiguous spectral cut: eigenvalue within "
                                 f"{CUT_AMBIGUITY_TOL} of delta={delta}")
            lows = [x[rows] <= delta for x, _ in parts]
            # P_Y P_X: the columns of P_Y outside {x <= delta} zeroed
            norm = np.max([spectral_norm(py[k] * low[:, None, :])
                           for low, py in zip(lows, projections)], axis=0)
            resid = np.max([np.max(np.abs((y - 2.0 * np.eye(len(y))) * (
                low[:, :, None] & low[:, None, :])), axis=(-2, -1))
                for low, (_, y) in zip(lows, parts)], axis=0)
            low = x_full[rows] <= delta
            size = np.sum(low, axis=-1)
            consecutive = (size > 1) & np.any(low & np.roll(low, -1, axis=-1),
                                              axis=-1)
            out += [AngleRecord(angles[i].p, q,
                                sqrt(2.0 / (4.0 - delta)) - float(norm[r]),
                                {"delta": delta, "eq_residual": float(resid[r]),
                                 "low_set_size": int(size[r]),
                                 "consecutive": bool(consecutive[r])})
                    for r, i in enumerate(rows)]
        return out

    records = _stacked_sweep(grid, work)
    bad_eq = [r for r in records if r.extras["eq_residual"] > TOL]
    bad_cons = [r for r in records if r.extras["consecutive"]]
    if bad_eq:
        notes.append(f"FAIL: compression identity violated at {len(bad_eq)} point(s)")
    if bad_cons:
        notes.append(f"FAIL: low-X residue set has consecutive members at "
                     f"{len(bad_cons)} point(s)")
    return SweepReport("xsmall", records, notes=notes,
                       constants={"deltas": list(deltas), "qmax": qmax})


# ---------------------------------------------------------------------------
# the tensor sweeps and constant searches

def _dense_operator(name: str, angle: RationalAngle, **constants) -> np.ndarray:
    """``CHECKS[name]`` at ``angle`` in the standard basis."""
    return _term_sum(CHECKS[name].terms(angle.s, **constants), np.diag(
        rotation.x_op(angle))[None, :], rotation.y_op(angle))[0]


def two_site_operator(angle: RationalAngle, R: float) -> np.ndarray:
    """The dense q^2 x q^2 two-site operator (``CHECKS["smalltheta"]``)."""
    return _dense_operator("smalltheta", angle, R=R)


def three_site_operator(angle: RationalAngle, R: float) -> np.ndarray:
    """The dense q^3 x q^3 three-site operator (``CHECKS["formula"]``)."""
    return _dense_operator("formula", angle, R=R)


def _letters(parts) -> tuple:
    """The letters X, Y, S = XY + YX and I at their entries that may be
    nonzero, on each part (x, y) of ``parts`` (a run of
    ``rotation.parity_stack``): X = diag(x) at each angle's row of x and I
    are diagonal, Y = y is tridiagonal in the parity bases and
    S_ij = (x_i + x_j) Y_ij.  Returns (the values, one row per angle and
    one column per entry; each entry's part, row and column; each letter's
    columns), indices as int32.  The columns go letter after letter and,
    within a letter, part after part."""
    cells = {letter: [] for letter in "XIYS"}  # per part (rows, cols, values)
    for x, y in parts:
        d, (r, c) = np.arange(len(y)), np.nonzero(y)
        cells["X"].append((d, d, x))
        cells["I"].append((d, d, np.ones_like(x)))
        cells["Y"].append((r, c, np.broadcast_to(y[r, c], (len(x), len(r)))))
        cells["S"].append((r, c, (x[:, r] + x[:, c]) * y[r, c]))
    entries, values, spans, start = [], [], {}, 0
    for letter, per_part in cells.items():
        for k, (r, c, v) in enumerate(per_part):
            entries.append((np.full(len(r), k), r, c))
            values.append(v)
        end = start + sum(len(r) for r, _, _ in per_part)
        spans[letter], start = np.arange(start, end, dtype=np.int32), end
    return (np.concatenate(values, axis=1),
            tuple(np.concatenate(e).astype(np.int32) for e in zip(*entries)),
            spans)


def _block_positions(parts, words, table) -> dict:
    """Where the parity blocks of one denominator get their nonzeros from.

    Per choice of part at each site (a tuple of part indices, keyed in
    ``itertools.product`` order, so all-even first): (the block's order;
    the flat positions in the block of the nonzeros of each word's
    Kronecker product, word after word; per site the index of each one's
    factor among the columns of ``table``, the ``_letters`` of ``parts``;
    the count per word).  None of it depends on the angle or on the
    coefficients.  Each word's entries are walked for every choice at once
    over the mesh of its letters' columns, which gives the factors: site
    by site, choice = choice * parts + part, row = row * n + r,
    col = col * n + c for the entry (r, c) of a part of order n.  They are
    then sorted by choice, stably, so they stay in word order within a
    block."""
    _, (part, rows, cols), spans = table
    n = np.array([len(y) for _, y in parts], dtype=np.int32)[part]
    sites = len(words[0])
    choices = list(product(range(len(parts)), repeat=sites))
    lengths = [prod(len(spans[letter]) for letter in word) for word in words]
    ends = np.cumsum(lengths)
    walk = np.empty((3 + sites, ends[-1]), dtype=np.int32)
    counts = []
    for word, end, length in zip(words, ends, lengths):
        mesh = np.ix_(*(spans[letter] for letter in word))
        choice = row = col = 0
        for j in mesh:
            choice = choice * len(parts) + part[j]
            row = row * n[j] + rows[j]
            col = col * n[j] + cols[j]
        for dest, a in zip(walk[:, end - length:end], (choice, row, col, *mesh)):
            dest.reshape(row.shape)[...] = a
        counts.append(np.bincount(choice.ravel(), minlength=len(choices)))
    choice, rows, cols, *factors = walk
    order = np.argsort(choice.astype(np.min_scalar_type(len(choices))),
                       kind="stable")
    rows, cols = rows.take(order), cols.take(order)
    index = np.min_scalar_type(len(part))
    factors = [f.take(order).astype(index) for f in factors]
    out, start = {}, 0
    for key, count in zip(choices, np.stack(counts, axis=1)):
        end = start + int(count.sum())
        size = prod(len(parts[k][1]) for k in key)
        flat = rows[start:end].astype(np.int64) * size + cols[start:end]
        out[key] = (size, flat.astype(np.min_scalar_type(size * size)),
                    [f[start:end] for f in factors], count)
        start = end
    return out


def _parity_blocks(letters, terms, positions: dict):
    """Yield (angle index, block): the real parity blocks of the operator
    ``terms`` at each angle of a run of ``rotation.parity_stack``, one
    choice of part per site at a time, all-even first, from ``letters``,
    the values of the run's ``_letters``, and ``positions``, the
    run's ``_block_positions`` for the terms' words.

    A block's values are each term's coefficient times the product of its
    letters' values, multiplied in site order as ``np.kron`` does, and
    ``np.bincount`` adds them into the block in term order from 0.0; so
    every entry is the float of the dense sum, in term order, of each
    coefficient times the ``np.kron`` product of its word's letters on the
    block's parts."""
    coefficients = np.array([c for c, _ in terms])
    for n, flat, factors, counts in positions.values():
        values = letters.take(factors[0], axis=1)
        for f in factors[1:]:
            values *= letters.take(f, axis=1)
        values *= coefficients.repeat(counts)
        for i, weights in enumerate(values):
            yield i, np.bincount(flat, weights=weights,
                                 minlength=n * n).reshape(n, n)


def _block_min_eigenvalue(letters, terms, positions: dict) -> list:
    """Per angle of a run of ``rotation.parity_stack``, min eig of the
    operator ``terms`` as the minimum over its ``_parity_blocks``
    (``letters`` and ``positions`` as there).

    At each angle the blocks come all-even first.  The first is solved
    densely; each later one is solved only when ``exceeds`` cannot
    certify, with one Cholesky, that its computed least eigenvalue would
    not be below the minimum so far.  So the result is the dense
    eigenvalue of the minimising block, the same float as the minimum over
    dense solves of every block."""
    low = [None] * len(letters)
    for i, block in _parity_blocks(letters, terms, positions):
        if low[i] is None:
            low[i] = min_eigenvalue(block)
        elif not exceeds(block, low[i]):
            low[i] = min(low[i], min_eigenvalue(block))
    return low


def _tensor_sweep(terms, grid, store: dict) -> list:
    """One record per angle of ``grid``, margin the least eigenvalue of the
    multi-site operator ``terms``.  ``store`` keeps, for the verdict's
    sweeps at other R, each run's ``_letters`` under (q, first p) and the
    words' ``_block_positions`` under q; what is missing is built."""
    words = [word for _, word in terms]

    def work(angles, parts):
        q, p = angles[0].q, angles[0].p
        if (q, p) not in store:
            table = store[q, p] = _letters(parts)
            if q not in store:
                store[q] = _block_positions(parts, words, table)
        lows = _block_min_eigenvalue(store[q, p][0], terms, store[q])
        return [AngleRecord(a.p, a.q, low) for a, low in zip(angles, lows)]

    return _stacked_sweep(grid, work)


def _search_constants(name, qmax, R, epsilon, th0_list) -> SweepReport:
    """First-pass-wins scan of R, then epsilon, then theta0, for the
    tensor check ``CHECKS[name]``: unset R and epsilon scan R_SCAN and
    EPS_SCAN, and a theta0 of ``None`` means the whole grid.  The minimum
    eigenvalues are computed once per R; the margin at (R, epsilon) is
    min eig - epsilon * 4 sin^2(pi theta).  An epsilon too large for a
    float is refused before the grid is built."""
    check = CHECKS[name]
    r_list = [R] if R is not None else R_SCAN
    try:  # (epsilon, its float)
        eps_list = [(eps, float(eps)) for eps in
                    ([epsilon] if epsilon is not None else EPS_SCAN)]
    except OverflowError:
        raise ValueError("epsilon is too large for a float") from None
    mode = "explicit" if len(r_list) == len(eps_list) == len(th0_list) == 1 else "search"
    _refuse_oversize(qmax, check.sites)
    theta0 = None if None in th0_list else max(th0_list)
    grid = [a for a in farey_angles(qmax, max_value=None)
            if check.grid(a, theta0=theta0)]
    store: dict = {}  # the blocks' positions and the runs' letters, for every R
    scanned, notes = {}, []
    best = (-float("inf"), {}, [])  # (min margin, constants, records)
    for R in r_list:
        mineigs = _tensor_sweep(check.terms(None, R=R), grid, store)
        z = [rotation.z_scalar(RationalAngle(r.p, r.q)) for r in mineigs]
        for eps, e in eps_list:
            for th0 in th0_list:
                combo = {"R": R, "epsilon": eps} | (
                    {"theta0": th0} if th0 is not None else {})
                key = f"R={R},eps={eps}" + (f",theta0={th0}" if th0 is not None else "")
                records = [AngleRecord(r.p, r.q, r.margin - e * zr)
                           for r, zr in zip(mineigs, z)
                           if th0 is None or Fraction(r.p, r.q) <= th0]
                if th0 is not None and all(r.p == 0 for r in records):
                    notes.append(f"empty sweep: no positive angle <= "
                                 f"theta0={th0} at qmax={qmax}")
                scanned[key] = min((r.margin for r in records), default=float("inf"))
                if scanned[key] > best[0]:
                    best = (scanned[key], combo, records)
                if scanned[key] >= -TOL:
                    return SweepReport(name, records, notes=notes, constants={
                        "scan": scanned, "qmax": qmax, "mode": mode, **combo})
    params = "theta0, R, epsilon" if th0_list != [None] else "R, epsilon"
    notes.insert(0, f"FAIL: no passing ({params}) in scan range")
    return SweepReport(name, best[2], notes=notes, constants={
        "scan": scanned, "qmax": qmax, "mode": mode, **best[1]})


def verify_smalltheta(*, qmax: int = 24, R: float | None = None,
                      epsilon: Fraction | None = None,
                      theta0: Fraction | None = None) -> SweepReport:
    """Two-site inequality for small angles.  Unset constants scan
    R_SCAN, EPS_SCAN and THETA0_SCAN, first-pass-wins, and every scanned
    triple's margin is kept in the report constants; with no passing
    triple the report carries the best candidate's records and fails."""
    th0_list = [theta0] if theta0 is not None else list(THETA0_SCAN)
    return _search_constants("smalltheta", qmax, R, epsilon, th0_list)


def verify_formula(*, qmax: int = 12, R: float | None = None,
                   epsilon: Fraction | None = None) -> SweepReport:
    """Three-site inequality over [0, 1/2], searched as the two-site one."""
    return _search_constants("formula", qmax, R, epsilon, [None])
