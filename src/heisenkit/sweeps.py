"""Numerical sweeps over rational-angle grids for the operator inequalities.

Each ``verify_*`` function sweeps a Farey grid, records one margin per angle
(min eigenvalue of the slack operator, or bound minus norm) and reports the
global minimum.  Positivity in the group C*-algebra is accepted when every
margin clears ``-TOL``; the grid order is the accuracy knob and no option
moves the gate.  A sweep's keyword parameters are its only options (the
``verify`` command refuses any other).  The default grid order ``qmax`` is
60 for the single-site sweeps, 40 for the projection sweep, 24 for the
two-site inequality and 12 for the three-site inequality.  Every margin is a dense LAPACK eigenvalue of a
real parity block.  Every sweep, single-site or tensor, runs through one
driver, ``_stacked_sweep``: it builds the parity blocks of X and Y with
``rotation.parity_stack`` once per denominator and hands them to the
sweep's work in runs of up to STACK angles.  The single-site operators
split into an even and an odd block of about q/2, solved as one stack per
run.  They depend on theta only through cos(2 pi j theta) and
sin(pi theta), and cos(2 pi j (1 - theta)) = cos(2 pi j theta),
sin(pi (1 - theta)) = sin(pi theta), so theta and 1 - theta have the same
operators (bitwise, as ``rotation`` folds every residue into [0, q/2]): a
full-circle sweep solves only the angles in [0, 1/2] and costs the same
solves as the half circle.  No sweep builds a dense q x q operator; xyz2
and xsmall read X over every residue from the even part's rows.  The
two- and three-site operators split into
four blocks of about (q/2)^2 and eight of about (q/2)^3, sums of Kronecker
words over each part's letters X and I (diagonal) and Y and S = XY + YX
(tridiagonal).  One letter table, ``_letters``, holds the entries of the
letters that may be nonzero: their values per angle and their (part,
row, column).  Each block is summed from its nonzeros alone: their
positions, walked out of that table word by word, are built once per
denominator and verdict, for every run and every R of a search, and the
sum adds them in term order, so a block is the same float array as the
dense sum of the words' ``np.kron`` products over the part's letters.
The blocks are streamed one at a time per angle.  Only the all-even block
is always solved; a later block is solved only when ``linalg.exceeds``
cannot certify, with one Cholesky, that it does not lower the minimum so
far, so the margin is the same float as the minimum over dense solves of
every block.
"""

from __future__ import annotations

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
# peak memory of a tensor sweep, in multiples of its largest parity
# block's 8 N^2 bytes: one-angle sweeps raised peak RSS by 3.3-4.0x that
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


def _finish(name, records, constants=None, notes=None) -> SweepReport:
    if not records:
        notes = (notes or []) + ["FAIL: sweep produced no records"]
    return SweepReport(name=name, records=records, constants=constants or {},
                       notes=notes or [])


# ---------------------------------------------------------------------------
# the sweep driver and the single-site sweeps

STACK = 8  # angles per stacked solve; bounds the temporaries of a stack


def _stacked_sweep(grid, work) -> list:
    """The records of ``work(angles, parts)`` over ``grid``, called on runs
    of at most STACK angles that share a denominator; ``parts`` holds, per
    parity part, the rows of the X diagonals that belong to the run and
    the block of Y (``rotation.parity_stack``, built once per
    denominator).  Records come in sorted-angle order.

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


def _diag(d: np.ndarray) -> np.ndarray:
    """The stack of diagonal matrices whose diagonals are the rows of d."""
    return d[..., None] * np.eye(d.shape[-1])


def _sines(angles) -> np.ndarray:
    """sin(pi theta) of each angle, as a column."""
    return np.array([[a.s] for a in angles])


def _residue_x(x: np.ndarray, q: int) -> np.ndarray:
    """X's diagonals 2 b_m over every residue m = 0..q-1, from the even
    part's rows x of a ``rotation.parity_stack`` (entries 2 b_j for
    j = 0..q//2): entry m is entry min(m, q - m) of x."""
    m = np.arange(q)
    return x[:, np.minimum(m, q - m)]


def _min_eig_sweep(grid, op, extras=None) -> list:
    """One record per angle of ``grid`` whose margin is the minimum
    eigenvalue, over the parity blocks, of the operator ``op(s, x, y)``:
    s is the column of sin(pi theta) of a run of angles and x, y a part of
    its ``rotation.parity_stack``.  ``extras(angles, parts)``, if given,
    returns named values with one entry per angle of the run, which go
    into the records' extras."""
    def work(angles, parts):
        s = _sines(angles)
        margins = np.min([min_eigenvalue(op(s, x, y)) for x, y in parts],
                         axis=0)
        values = extras(angles, parts) if extras else {}
        return [AngleRecord(a.p, a.q, float(m),
                            {k: float(v[i]) for k, v in values.items()})
                for i, (a, m) in enumerate(zip(angles, margins))]

    return _stacked_sweep(grid, work)


def verify_bz(*, qmax: int = 60, lambdas: tuple = (1.0, 2.0, 4.0),
              full_circle: bool = False) -> SweepReport:
    """Almost Mathieu norm bound: ||H|| <= lam+2 - (2 lam/(lam+2)) sin(pi theta),
    H = (lam+2) - (lam/2 X + Y); ||H|| is the largest |eigenvalue| of the
    symmetric H over its parity blocks."""
    for lam in lambdas:
        if not lam > 0:
            raise ValueError(f"coupling must be positive, got {lam}")
    if len(set(lambdas)) < len(lambdas):
        raise ValueError(f"repeated coupling in {list(lambdas)}")
    grid = farey_angles(qmax, max_value=None if full_circle else Fraction(1, 2))
    c = np.array(lambdas, dtype=float)[:, None, None]

    def work(angles, parts):
        # one (couplings, angles, n, n) stack per part
        norms = np.max([hermitian_norm(_diag((c + 2.0) - (c / 2.0) * x) - y)
                        for x, y in parts], axis=0)
        return [AngleRecord(a.p, a.q, rotation.bz_bound(a, lam) - float(n),
                            {"lambda": float(lam)})
                for lam, row in zip(lambdas, norms) for a, n in zip(angles, row)]

    records = _stacked_sweep(grid, work)
    return _finish("bz", records,
                   constants={"lambdas": list(lambdas), "qmax": qmax})


def verify_xyz1(*, qmax: int = 60, full_circle: bool = False) -> SweepReport:
    """X + Y >= sqrt(Z)/2, i.e. min eig(X + Y - sin(pi theta)) >= 0."""
    grid = farey_angles(qmax, max_value=None if full_circle else Fraction(1, 2))
    records = _min_eig_sweep(grid, lambda s, x, y: _diag(x - s) + y)
    return _finish("xyz1", records, constants={"qmax": qmax})


def zzz_theta0(R: float, kappa: float) -> float:
    """Small-angle threshold min{1/4, arcsin(kappa sqrt((1-kappa)/R))/pi}."""
    return min(0.25, asin(kappa * sqrt((1.0 - kappa) / R)) / pi)


def verify_zzz(*, qmax: int = 60, R: float | None = None,
               kappa: float | None = None) -> SweepReport:
    """R X + Y >= sqrt((1-kappa) R) sin(pi theta) for theta <= theta0(R, kappa)."""
    if R is None or kappa is None:
        raise ValueError("verify_zzz needs R and kappa")
    if R < 1 or not (0 < kappa < 1):
        raise ValueError(f"need R >= 1 and kappa in (0,1), got R={R}, kappa={kappa}")
    theta0 = zzz_theta0(R, kappa)
    coeff = sqrt((1.0 - kappa) * R)
    grid = [a for a in farey_angles(qmax) if a.theta <= theta0]
    notes = []
    if all(a.p == 0 for a in grid):
        notes.append(f"empty sweep: no positive angle <= theta0={theta0:.6f} at qmax={qmax}")
    records = _min_eig_sweep(grid, lambda s, x, y: _diag(R * x - coeff * s) + y)
    return _finish("zzz", records, notes=notes,
                   constants={"R": R, "kappa": kappa, "theta0": theta0,
                              "qmax": qmax})


def _xyz2_blocks(angles, parts) -> dict:
    """Over m = 0..q-1 of each angle of a run, the least determinant
    ad - c^2 and trace a + d of the 2x2 corner blocks [[a, c], [c, d]] of
    2s(X+Y) + (XY+YX)/2 at positions (m-1, m), with s = sin(pi theta),
    a = 2(s+1) b_{m-1} + 2s, c = -(2s + b_{m-1} + b_m),
    d = 2(s+1) b_m + 2s; and the largest residual of the corrected
    difference identity b_{m-1} - b_m = -2 s sin((2m-1) pi theta).
    b_m is half of X's entry at residue m, and sin((2m-1) pi theta) is
    taken at k = (2m-1) p mod 2q folded into [0, q/2], negated for k > q:
    so p/q and (q-p)/q (k + k' = q mod 2q) give the same floats."""
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


def verify_xyz2(*, qmax: int = 60, full_circle: bool = False) -> SweepReport:
    """(X+Y) sqrt(Z) + (XY+YX)/2 >= 0, via the operator sweep and the exact
    2x2 block determinants, plus the corrected difference identity
    b_{m-1} - b_m = -2 sin(pi theta) sin((2m-1) pi theta)."""
    grid = farey_angles(qmax, max_value=None if full_circle else Fraction(1, 2))
    notes = []
    # (XY + YX)_ij = (x_i + x_j) Y_ij, as X is diagonal
    records = _min_eig_sweep(grid, lambda s, x, y: _diag(2.0 * s * x) + (
        2.0 * s[:, :, None] + 0.5 * (x[:, :, None] + x[:, None, :])) * y,
        extras=_xyz2_blocks)
    bad_det = [r for r in records if r.extras["det_min"] < -TOL
               or r.extras["trace_min"] < -TOL]
    bad_id = [r for r in records if r.extras["identity_residual"] > IDENTITY_TOL]
    if bad_det:
        notes.append(f"FAIL: {len(bad_det)} angle(s) with negative block det/trace")
    if bad_id:
        notes.append(f"FAIL: {len(bad_id)} angle(s) violate the corrected "
                     f"difference identity beyond {IDENTITY_TOL}")
    return _finish("xyz2", records, notes=notes, constants={"qmax": qmax})


def verify_prodnorm(*, qmax: int = 60) -> SweepReport:
    """||pi((1-x)(1-y))|| <= 4 cos(pi theta / 2).

    The product is neither normal nor parity-commuting, but
    (1-x)*(1-x) = X and (1-y)(1-y)* = Y give ||(1-x)(1-y)||^2 =
    ||sqrt(X) Y sqrt(X)||, whose operator does commute with the parity."""
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
    return _finish("prodnorm", records, constants={"qmax": qmax})


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
    return _finish("xsmall", records, notes=notes,
                   constants={"deltas": list(deltas), "qmax": qmax})


# ---------------------------------------------------------------------------
# tensor-product sweeps and constant searches

# Each tensor inequality is described once, as ((coefficient, Kronecker
# word), ...) at coupling R; the dense operators and the parity-block sweep
# are both derived from the description.  A word has one letter per site:
# X, Y, the on-site anticommutator S = XY + YX, or the identity I.

def two_site_terms(R: float) -> tuple:
    """R(X(x)Y + Y(x)X) + X(x)X + Y(x)Y + (XY+YX)(x)1."""
    return ((R, "XY"), (R, "YX"), (1.0, "XX"), (1.0, "YY"), (1.0, "SI"))


def three_site_terms(R: float) -> tuple:
    """R(X1 Y2 + Y1 X2 + X1 Y3 + Y1 X3) + X1 X2 + Y1 Y2 + X1 Y1 + Y1 X1."""
    return ((R, "XYI"), (R, "YXI"), (R, "XIY"), (R, "YIX"),
            (1.0, "XXI"), (1.0, "YYI"), (1.0, "SII"))


def _dense_operator(angle: RationalAngle, terms) -> np.ndarray:
    """The sum, in term order, of each coefficient times the ``np.kron``
    product of its word's letters at ``angle`` in the standard basis."""
    x, y = rotation.x_op(angle), rotation.y_op(angle)
    table = {"X": x, "Y": y, "S": x @ y + y @ x, "I": np.eye(angle.q)}
    return sum(c * reduce(np.kron, [table[k] for k in word])
               for c, word in terms)


def two_site_operator(angle: RationalAngle, R: float) -> np.ndarray:
    """The dense q^2 x q^2 two-site operator (``two_site_terms``)."""
    return _dense_operator(angle, two_site_terms(R))


def three_site_operator(angle: RationalAngle, R: float) -> np.ndarray:
    """The dense q^3 x q^3 three-site operator (``three_site_terms``)."""
    return _dense_operator(angle, three_site_terms(R))


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


def _tensor_sweep(inequality, grid, R: float, positions: dict) -> list:
    """One record per angle of ``grid`` whose margin is the minimum
    eigenvalue, at that angle, of the operator whose terms ``inequality(R)``
    gives (such as ``two_site_terms``).  ``positions`` maps a denominator
    to its ``_block_positions``; those missing are built into it, for
    later sweeps of the same inequality at other R.  Each run's letter
    table is built once and serves both."""
    terms = inequality(R)

    def work(angles, parts):
        q = angles[0].q
        table = _letters(parts)
        if q not in positions:
            positions[q] = _block_positions(parts, [word for _, word in terms],
                                            table)
        lows = _block_min_eigenvalue(table[0], terms, positions[q])
        return [AngleRecord(a.p, a.q, low) for a, low in zip(angles, lows)]

    return _stacked_sweep(grid, work)


def _search_constants(name, inequality, qmax, R, epsilon,
                      th0_list) -> SweepReport:
    """First-pass-wins scan of R, then epsilon, then theta0.

    Unset R and epsilon scan R_SCAN and EPS_SCAN; a theta0 of ``None``
    means the whole grid.  The minimum eigenvalues are computed once per R,
    and the margin at (R, epsilon) is min eig - epsilon * 4 sin^2(pi theta).
    An epsilon too large for a float, and a grid whose largest parity
    block would not fit in physical memory, are refused before the scan.
    """
    r_list = [R] if R is not None else list(R_SCAN)
    eps_list = [epsilon] if epsilon is not None else list(EPS_SCAN)
    try:
        eps_floats = [float(eps) for eps in eps_list]
    except OverflowError:
        raise ValueError("epsilon is too large for a float") from None
    explicit = len(r_list) == len(eps_list) == len(th0_list) == 1
    grid = farey_angles(qmax)
    if None not in th0_list:
        grid = [a for a in grid if a.fraction <= max(th0_list)]
    # the all-even block of the largest denominator is the largest block
    sites = len(inequality(r_list[0])[0][1])
    order = (max((a.q for a in grid), default=1) // 2 + 1) ** sites
    need, memory = SOLVE_PEAK_RATIO * 8 * order * order, physical_memory()
    if need > memory:
        raise ValueError(f"a parity block of order {order} needs about "
                         f"{need} bytes to solve, more than the {memory} "
                         f"bytes of physical memory")

    positions: dict = {}  # the blocks' nonzero positions, for every R

    def scan():
        for R in r_list:
            mineigs = _tensor_sweep(inequality, grid, R, positions)
            z = [rotation.z_scalar(RationalAngle(r.p, r.q)) for r in mineigs]
            for eps, e in zip(eps_list, eps_floats):
                margins = [AngleRecord(r.p, r.q, r.margin - e * zr)
                           for r, zr in zip(mineigs, z)]
                for th0 in th0_list:
                    combo = {"R": R, "epsilon": eps}
                    if th0 is not None:
                        combo["theta0"] = th0
                    yield combo, [r for r in margins
                                  if th0 is None or Fraction(r.p, r.q) <= th0]

    scanned, notes = {}, []
    best = (-float("inf"), None, [])  # (min margin, constants, records)
    for combo, records in scan():
        key = f"R={combo['R']},eps={combo['epsilon']}"
        if "theta0" in combo:
            key += f",theta0={combo['theta0']}"
            if all(r.p == 0 for r in records):
                notes.append(f"empty sweep: no positive angle <= "
                             f"theta0={combo['theta0']} at qmax={qmax}")
        worst = min((r.margin for r in records), default=float("inf"))
        scanned[key] = worst
        if worst > best[0]:
            best = (worst, combo, records)
        if worst >= -TOL:
            break
    else:
        params = "theta0, R, epsilon" if th0_list != [None] else "R, epsilon"
        notes.insert(0, f"FAIL: no passing ({params}) in scan range")
    constants = {"scan": scanned, "qmax": qmax,
                 "mode": "explicit" if explicit else "search", **(best[1] or {})}
    return _finish(name, best[2], constants=constants, notes=notes)


def verify_smalltheta(*, qmax: int = 24, R: float | None = None,
                      epsilon: Fraction | None = None,
                      theta0: Fraction | None = None) -> SweepReport:
    """Two-site inequality for small angles.

    Constants left unset scan geometric grids (R in {2,4,8,16,32}, epsilon
    in {1/4,1/8,1/16}, theta0 in {1/8,1/16,1/32}), first-pass-wins; pinned
    constants replace their grid by a singleton.  Margins of every scanned
    triple are kept in the report constants; with no passing triple the
    report carries the best candidate's records and fails.
    """
    th0_list = [theta0] if theta0 is not None else list(THETA0_SCAN)
    return _search_constants("smalltheta", two_site_terms, qmax, R, epsilon,
                             th0_list)


def verify_formula(*, qmax: int = 12, R: float | None = None,
                   epsilon: Fraction | None = None) -> SweepReport:
    """Three-site inequality over the full grid in [0, 1/2].

    Pinned (R, epsilon) sweep directly; unset constants scan the same
    geometric grids as the two-site search (first-pass-wins)."""
    return _search_constants("formula", three_site_terms, qmax, R, epsilon,
                             [None])
