"""Dilatations of the braid family, by polynomial chain and by matrix.

The characteristic polynomial of a braid tuple factors through a chain of
dominant polynomials built inductively from the first parameter; the
dilatation is the largest real root and can be cross-checked against the
Perron-Frobenius eigenvalue of the transition matrix.  The formula route
evaluates the chain as a 2x2 transfer recurrence and decides "is the
dilatation below x?" and "is the limit below x?" exactly at dyadic x
(``_below``, ``_limit_below``); every root is a cell of such decisions.
Each decision climbs a ladder of precisions (``_decide``): the recurrence
runs on balls, a midpoint and a radius that always enclose the exact value,
and a sign counts only when its ball excludes 0.  The last rung is the same
recurrence on exact integers, so every answer is the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

from .intpoly import _GRID, IntPoly
from .nnmatrix import PFCertificate
from .treebuilder import (
    BraidTuple,
    block_boundaries,
    closing_sign,
    dominant_matrix,
    params,
    transition_matrix,
)

__all__ = [
    "DilatationReport",
    "ScanRow",
    "dominant_chain",
    "braid_char_poly",
    "dilatation",
    "limit_dilatation",
    "monotonicity_check",
    "MonotonicityCheck",
    "convergence_table",
]

_LIMIT_ENCLOSURE = 1e-10  # width of the Perron-Frobenius enclosure of the limit
# the finest grid, 2^-1024, that scan rows and monotonicity checks refine
# to when two roots share a 2^-48 cell
_FINEST_GRID = 1024
# half-width, in grid units, of the first bracket around the float hint; the
# hint fell within one unit on every grid and random-sweep tuple measured
_HINT_UNITS = 4
# the ladder of ``_decide``: guard bits of the first rung above the grid's,
# the growth from rung to rung, and how many times wider than a rung the
# exact integers must be before the rung is tried
_GUARD_BITS = 64
_RUNG_GROWTH = 4
_EXACT_RATIO = 64


def dominant_chain(prefix):
    """The chain of dominant polynomials for the nested prefixes of ``prefix``.

    The first element is t^(m_1+1) (t-1) - 2t; each later element i is
    t^(m_i) (t-1) P + (-1)^i 2t P* where P is the previous element and P*
    its reciprocal at its own degree.  Element i is monic of degree n_i + 1.
    The chain is the level rule of ``_levels`` folded from P = 1.
    """
    chain = []
    poly = IntPoly((1,))
    for m, s in _levels(params(prefix, 1)):
        twist = poly.reciprocal(poly.degree).shift(1) * (2 * s)
        poly = poly.shift(m + 1) - poly.shift(m) + twist  # t^m (t-1) P + 2s t P*
        chain.append(poly)
    return chain


def braid_char_poly(m):
    """Characteristic polynomial of the braid tuple, from the chain formula.

    Equals t^(m_last) P + sigma P* with P the dominant polynomial of the
    prefix and sigma the tuple sign; coincides coefficientwise with
    char_poly(transition_matrix(m)).
    """
    m = BraidTuple(m)
    return _close(dominant_chain(m.prefix)[-1], m.values[-1], m.sign)


def _close(dom, last, sign):
    # t^last P + sign P*, the characteristic polynomial on top of the prefix
    # whose dominant polynomial is P
    mirrored = dom.reciprocal(dom.degree)
    poly = dom.shift(last)
    return poly + mirrored if sign > 0 else poly - mirrored


def _levels(prefix):
    # (m, s) for each chain level of the prefix: P' = t^m (t-1) P + 2s t P*,
    # from P = P* = 1, with m = m_1 + 1 on the first level and s the parity
    # sign closing_sign(i) on level i
    return [(m + (i == 1), closing_sign(i)) for i, m in enumerate(prefix, start=1)]


def _pair(prefix, num, shift, prec=None):
    """The prefix's dominant pair (P(x), P*(x)) at x = num / 2^shift, as balls.

    Write P for a chain level and P* for its reciprocal at its own degree.
    The next level is P' = t^m (t-1) P + 2s t P* with s = ±1, and then
    P'* = (1-t) P* + 2s t^m P, so the pair (P(x), P*(x)) moves by one 2×2
    matrix per level and no degree-N polynomial is expanded.  Each value is
    a ball (mid, rad, exp) of integers: the true value lies in
    [mid - rad, mid + rad]·2^exp.  With ``prec`` bits the pair is rounded
    outward to that precision after each level, and x^m is squared up at
    it.  With ``prec`` None nothing is rounded and the radii stay 0: the
    pair is exact, P(x) and P*(x) as integers scaled by 2^(shift·deg).

    Ascending roots: each level has exactly one root above the previous
    level's largest root and is negative between the two.  Hence for x > 1
    every level is positive at x exactly when μ(prefix) < x, the largest
    root of the last level.  False answers "μ >= x", as for any x <= 1: a
    level's ball lies at or below 0.  None answers nothing: a level's ball
    holds 0, so ``prec`` was too low to tell its sign.
    """
    one = 1 << shift
    if num <= one:
        return False
    powers = {}
    p = q = 1  # the pair of the empty prefix
    rp = rq = exp = 0
    for m, s in _levels(prefix):
        if m not in powers:
            powers[m] = _power(num, shift, m, prec)
        xm, xr, lift = powers[m]  # x^m = (xm ± xr)·2^-lift
        if prec is not None:
            err = xm * rp + xr * (abs(p) + rp)  # the radius of x^m P
            rp, rq = (
                err * (num - one) + ((2 * num * rq) << lift),
                (((num - one) * rq) << lift) + ((2 * err) << shift),
            )
        p, q = (
            xm * (num - one) * p + ((2 * s * num * q) << lift),
            (((one - num) * q) << lift) + ((2 * s * xm * p) << shift),
        )
        exp -= shift + lift
        if prec is not None:
            d = max(abs(p).bit_length(), abs(q).bit_length(), rp.bit_length(), rq.bit_length()) - prec
            if d > 0:
                (p, rp), (q, rq), exp = _round(p, rp, d), _round(q, rq, d), exp + d
        if p <= rp:  # the ball does not lie above 0
            return None if p > -rp else False
    return (p, rp, exp), (q, rq, exp)


def _decision(prefix, last, num, shift, prec):
    # one rung: whether μ(prefix) < x when last is None, else whether
    # λ(prefix + (last,)) < x; None when a ball at prec holds 0
    pair = _pair(prefix, num, shift, prec)
    if not pair:
        return pair
    if last is None:
        return True
    (p, rp, _), (q, rq, _) = pair
    xl, xr, lift = _power(num, shift, last, prec)
    closing = xl * p + ((closing_sign(len(prefix) + 1) * q) << lift)
    rad = 0 if prec is None else xl * rp + xr * (abs(p) + rp) + (rq << lift)
    if closing <= rad:
        return None if closing > -rad else False
    return True


def _decide(prefix, last, num, shift):
    """The exact answer of ``_decision``, climbing a ladder of precisions.

    The first rung carries ``shift`` + 64 bits, each next rung 4 times as
    many, and the last rung is exact.  A rung answers only when every ball
    it signs excludes 0, so each answer is the exact one.  A decision whose
    exact integers (about degree·shift bits) are at most 64 times wider than
    a rung goes to the exact rung at once: there the balls cost more than
    the exact integers they replace.
    """
    width = shift * (sum(prefix) + len(prefix) + 1 + (last or 0))
    prec = shift + _GUARD_BITS
    while prec * _EXACT_RATIO < width:
        answer = _decision(prefix, last, num, shift, prec)
        if answer is not None:
            return answer
        prec *= _RUNG_GROWTH
    return _decision(prefix, last, num, shift, None)


def _limit_below(prefix, num, shift):
    """Exactly whether μ(prefix) < x for the dyadic x = num / 2^shift."""
    return _decide(prefix, None, num, shift)


def _below(vals, num, shift):
    """Exactly whether λ(vals) < x for the dyadic x = num / 2^shift.

    The tuple's polynomial t^last P + σ P*, with P the prefix's dominant
    polynomial and σ the closing sign, has exactly one root above μ(prefix)
    and is negative between the two (the lemma of ``_pair``).  So λ < x
    exactly when μ < x and the closing polynomial is positive at x.
    """
    return _decide(vals[:-1], vals[-1], num, shift)


def _round(mid, rad, d):
    # the ball mid ± rad divided by 2^d, rounded outward to integers
    return mid >> d, -(-rad >> d) + 1


def _power(num, shift, n, prec):
    # x^n for x = num / 2^shift as (mid, rad, lift), the ball mid ± rad
    # times 2^-lift: squared up with each product rounded outward to prec
    # bits, but never past the units (lift >= 0); exact when prec is None
    if prec is None:
        return num**n, 0, shift * n
    mid, rad, lift = num, 0, shift
    for bit in bin(n)[3:]:
        mid, rad, lift = mid * mid, 2 * mid * rad + rad * rad, 2 * lift
        if bit == "1":
            mid, rad, lift = mid * num, rad * num, lift + shift
        d = min(max(mid.bit_length(), rad.bit_length()) - prec, lift)
        if d > 0:
            (mid, rad), lift = _round(mid, rad, d), lift - d
    return mid, rad, lift


def _float_hint(prefix, last=None, lo=1.0, hi=None):
    # λ(prefix + (last,)), or μ(prefix) when last is None, by bisecting a
    # double-precision pass of the recurrence inside [lo, hi], doubling from
    # lo when hi is None: each level is divided by x^m and the pair
    # normalised, which keeps every sign; a guide for the exact bracket,
    # never a result
    sigma = closing_sign(len(prefix) + 1)
    levels = _levels(prefix)

    def below(x):
        p = q = 1.0
        for m, s in levels:
            r = x**-m
            p, q = (x - 1.0) * p + 2.0 * s * x * r * q, (1.0 - x) * r * q + 2.0 * s * p
            if not p > 0.0:
                return False
            scale = max(p, abs(q))
            p, q = p / scale, q / scale
        return last is None or p + sigma * q * x**-last > 0.0

    if hi is None:
        hi = 2.0 * lo
        while not below(hi):
            lo, hi = hi, 2.0 * hi
            if math.isinf(hi):
                return hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if below(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


class _Cell:
    """A root r held on the 2^-shift grid as lo <= r·2^shift < lo + 1.

    ``below(num, shift)`` is the exact decision "r < num / 2^shift" that
    produced the cell and refines it.
    """

    __slots__ = ("below", "lo", "shift")

    def __init__(self, below, lo, shift=_GRID):
        self.below, self.lo, self.shift = below, lo, shift

    def ends(self, shift):
        # (lo, hi) in units of 2^-shift, for shift >= self.shift
        d = shift - self.shift
        return self.lo << d, (self.lo + 1) << d

    def refine(self):
        if self.shift >= _FINEST_GRID:
            raise RuntimeError(
                "separating two roots needs a grid finer than the finest "
                f"grid 2^-{_FINEST_GRID}"
            )
        self.lo = _bisect(self.below, 2 * self.lo, 2 * self.lo + 2, self.shift + 1)
        self.shift += 1

    def bracket(self):
        return Fraction(self.lo, 1 << self.shift), Fraction(self.lo + 1, 1 << self.shift)

    def value(self):
        # the midpoint of the root's 2^-48 cell
        return (2 * (self.lo >> (self.shift - _GRID)) + 1) * 2.0 ** -(_GRID + 1)


def _bisect(below, lo, hi, shift):
    # the one-unit cell inside [lo, hi] with not below(lo) and below(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid, shift):
            hi = mid
        else:
            lo = mid
    return lo


def _formula_cell(below, hint):
    """The 2^-48 cell of the root r of the exact decision ``below``.

    ``below(num, shift)`` answers "r < num / 2^shift"; the cell holds
    lo <= r < lo + 1 in units of 2^-48.  A tuple's λ is never a grid point:
    its polynomial is monic with constant term ±1, so its only rational
    roots could be ±1.  A limit μ can be one: (1,) has μ = 2.  The float
    ``hint`` places the first bracket; exact decisions confirm it, widen it
    when it misses, and bisect it to one unit.  A hint that is not finite
    is replaced by doubling from 1.
    """
    if math.isfinite(hint):
        centre = math.floor(hint * 2.0**_GRID)
        lo, hi = centre - _HINT_UNITS, centre + _HINT_UNITS
    else:
        lo, hi = 1 << _GRID, 2 << _GRID  # doubling from 1
    if below(hi, _GRID):
        while below(lo, _GRID):
            lo, hi = lo - 2 * (hi - lo), lo
    else:
        lo, hi = hi, hi + 2 * (hi - lo)
        while not below(hi, _GRID):
            lo, hi = hi, hi + 2 * (hi - lo)
    return _Cell(below, _bisect(below, lo, hi, _GRID))


def _tuple_cell(vals):
    # λ(vals) on the 2^-48 grid
    return _formula_cell(partial(_below, vals), _float_hint(vals[:-1], vals[-1]))


def _limit_cell(prefix):
    # μ(prefix) on the 2^-48 grid
    return _formula_cell(partial(_limit_below, prefix), _float_hint(prefix))


def _separate(upper, lower):
    """Refine two cells of distinct roots until they are disjoint.

    Returns whether ``upper`` then lies above ``lower``.  The coarser cell
    is refined first, both when their grids agree.
    """
    while True:
        shift = max(upper.shift, lower.shift)
        up_lo, up_hi = upper.ends(shift)
        low_lo, low_hi = lower.ends(shift)
        if up_lo >= low_hi or low_lo >= up_hi:
            return up_lo >= low_hi
        coarse = min(upper.shift, lower.shift)
        for cell in (upper, lower):
            if cell.shift == coarse:
                cell.refine()


@dataclass(frozen=True)
class DilatationReport:
    """Dilatation of one braid tuple with the evidence that produced it."""

    tuple_values: tuple[int, ...]
    lambda_formula: float | None
    lambda_matrix: float | None
    agreement: float | None
    certificate: PFCertificate | None
    # the formula route's certified cell lo < λ < hi, exact dyadic rationals;
    # not part of the JSON report
    formula_bracket: tuple[Fraction, Fraction] | None = None

    @cached_property
    def polynomial(self):
        """The characteristic polynomial, expanded from the chain when first read."""
        return braid_char_poly(self.tuple_values)

    def to_json_dict(self):
        cert = None
        if self.certificate is not None:
            cert = {
                "irreducible": self.certificate.irreducible,
                "primitive": self.certificate.primitive,
                "eigenvalue": self.certificate.eigenvalue,
                "residual": self.certificate.residual,
            }
        return {
            "tuple": list(self.tuple_values),
            "polynomial": str(self.polynomial),
            "lambda_formula": self.lambda_formula,
            "lambda_matrix": self.lambda_matrix,
            "agreement": self.agreement,
            "certificate": cert,
        }


def dilatation(m, method="both", tol=1e-10):
    """Dilatation of the braid tuple ``m``.

    ``method`` selects the route: "formula" bisects the exact decision
    "is λ < x?" on the chain's transfer recurrence down to a 2^-48 cell,
    kept as ``formula_bracket``; "matrix" takes the Perron-Frobenius
    eigenvalue of the transition matrix; "both" runs the two and records
    their difference.  ``tol`` is the width of the matrix route's
    enclosure; the formula route reaches a fixed accuracy and ignores it.
    """
    if method not in ("formula", "matrix", "both"):
        raise ValueError(f"unknown method {method!r}")
    m = BraidTuple(m)
    lam_formula = None
    lam_matrix = None
    certificate = None
    bracket = None
    if method in ("formula", "both"):
        cell = _tuple_cell(m.values)
        lam_formula, bracket = cell.value(), cell.bracket()
    if method in ("matrix", "both"):
        certificate = transition_matrix(m).spectral_radius(tol=tol)
        lam_matrix = certificate.eigenvalue
    agreement = None
    if lam_formula is not None and lam_matrix is not None:
        agreement = abs(lam_formula - lam_matrix)
    return DilatationReport(
        m.values, lam_formula, lam_matrix, agreement, certificate, bracket
    )


def limit_dilatation(prefix):
    """Limit of the dilatations as the parameters after ``prefix`` grow.

    This is μ, the largest root of the dominant polynomial P of the prefix:
    the midpoint of its cell lo <= μ < lo + 2^-48, bisected from the exact
    decision "μ < x" (every chain level positive at x).  The cell is
    certified against the dominant block B of the transition matrix:
    ``spectral_radius`` accepts only a primitive B, and det(tI - B) = P
    exactly (``pabraid verify`` and the tests check this identity), so by
    the Perron-Frobenius theorem the eigenvalue of B is a simple root of P
    strictly larger in modulus than every other root.  The cell must meet
    the exact Collatz-Wielandt enclosure of that eigenvalue, else
    AssertionError.
    """
    return _certified_limit(params(prefix, 1)).value()


def _certified_limit(vals):
    cell = _limit_cell(vals)
    cert = dominant_matrix(vals).spectral_radius(tol=_LIMIT_ENCLOSURE)
    _check_overlap(cell, cert, "the limit", "the dominant block")
    return cell


def _check_overlap(cell, cert, root, matrix):
    # the formula route's cell and the matrix route's enclosure, compared
    # exactly: they must share a point
    lo, hi = cell.bracket()
    if not (lo <= Fraction(cert.upper) and Fraction(cert.lower) <= hi):
        raise AssertionError(
            f"{root}'s cell [{float(lo)!r}, {float(hi)!r}] misses the "
            f"Perron-Frobenius enclosure [{cert.lower}, {cert.upper}] of "
            f"{matrix}"
        )


@dataclass(frozen=True)
class MonotonicityCheck:
    lambda_before: float
    lambda_after: float
    strictly_decreasing: bool


def monotonicity_check(m, i):
    """Compare the dilatation of ``m`` with the tuple incremented at slot i.

    ``i`` is 1-based.  The boolean is exact: the two certified 2^-48 cells
    are refined on finer grids until they are disjoint, and it tells
    whether λ(m) lies above λ(incremented).  Dilatations closer than
    2^-1024 raise RuntimeError.
    """
    m = BraidTuple(m)
    if not (1 <= i <= len(m)):
        raise ValueError(f"coordinate index {i} outside 1..{len(m)}")
    bumped = list(m.values)
    bumped[i - 1] += 1
    before = _tuple_cell(m.values)
    after = _tuple_cell(tuple(bumped))
    return MonotonicityCheck(before.value(), after.value(), _separate(before, after))


@dataclass(frozen=True)
class ScanRow:
    """One row of a parameter sweep over the last tuple entry."""

    tuple_values: tuple[int, ...]
    lam: float
    gap_to_limit: float
    poly_degree: int
    # the certified bracket lo < λ < hi, exact dyadic rationals; not part of
    # the CSV line
    bracket: tuple[Fraction, Fraction] | None = None

    CSV_HEADER = "tuple;lambda;gap_to_limit;poly_degree"

    def csv_line(self):
        head = ",".join(str(v) for v in self.tuple_values)
        return f"{head};{self.lam!r};{self.gap_to_limit!r};{self.poly_degree}"


def convergence_table(prefix, last_values):
    """Sweep the last parameter and certify the convergence to the limit.

    ``last_values`` must be strictly increasing integers >= 1.  Each row's
    ``lam`` is the midpoint of λ's 2^-48 cell and ``gap_to_limit`` the
    difference of that float and the limit's, so deep rows may show a gap
    of 0.0.  The statement being reproduced, λ falling strictly toward μ,
    is certified on exact brackets instead: each row's ``bracket`` lies
    above μ's cell and below the previous row's bracket, refining the cells
    on grids down to 2^-1024 as far as a row needs (RuntimeError beyond).
    """
    vals = params(prefix, 1)
    steps = tuple(last_values)
    if not steps:
        raise ValueError("the sweep range must be nonempty")
    steps = params(steps, 1)
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("the sweep range must be strictly increasing")
    mu = _certified_limit(vals)
    limit = mu.value()
    cells = []
    for last in steps:
        prev = cells[-1] if cells else None
        cell = _row_cell(vals + (last,), mu, prev)
        if not _separate(cell, mu) or (prev is not None and not _separate(prev, cell)):
            raise RuntimeError(f"the dilatations do not fall strictly toward μ at {vals + (last,)}")
        cells.append(cell)
    degree = block_boundaries(vals)[-1] + 1  # of the prefix's dominant polynomial
    return [
        ScanRow(vals + (last,), cell.value(), cell.value() - limit, degree + last, cell.bracket())
        for last, cell in zip(steps, cells)
    ]


def _row_cell(full, mu, prev):
    # λ(full) inside the warm bracket from μ's cell up to the previous row's:
    # bisected exactly when the float hint cannot help, that is below the
    # 2^-48 grid or within a few of its units
    below = partial(_below, full)
    if prev is None:
        return _formula_cell(below, _float_hint(full[:-1], full[-1], mu.value()))
    shift = max(mu.shift, prev.shift)
    lo, hi = mu.ends(shift)[0], prev.ends(shift)[1]
    if shift == _GRID and hi - lo > 2 * _HINT_UNITS:
        hint = _float_hint(full[:-1], full[-1], lo * 2.0**-shift, hi * 2.0**-shift)
        return _formula_cell(below, hint)
    if not below(hi, shift):
        raise RuntimeError(f"the dilatations do not fall strictly toward μ at {full}")
    return _Cell(below, _bisect(below, lo, hi, shift), shift)
