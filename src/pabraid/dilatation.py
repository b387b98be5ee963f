"""Dilatations of the braid family, by polynomial chain and by matrix.

The characteristic polynomial of a braid tuple factors through a chain of
dominant polynomials built inductively from the first parameter, expanded
on request by folding ascending coefficient lists level by level.  The
dilatation is its largest real root and can be cross-checked against the
Perron-Frobenius eigenvalue of the transition matrix.  The formula route
evaluates the chain as a 2x2 transfer recurrence and decides "is the
dilatation below x?" and "is the limit below x?" exactly at dyadic x
(``_decide``); every root is a cell of such decisions.  Each decision
climbs a ladder of precisions: the recurrence runs on balls, a midpoint and
a radius that always enclose the exact value, and a sign counts only when
its ball excludes 0.  The last rung is the same recurrence on exact
integers, so every answer is the exact one.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from fractions import Fraction
from functools import cached_property, partial

from .intpoly import _GRID, IntPoly, _integer, _power, _scaled, _tolerance
from .nnmatrix import _hub_perron
from .treebuilder import BraidTuple, _level_hubs, _size, closing_sign, params

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

# the finest grid, 2^-1024, that a monotonicity check refines to when the
# two dilatations share a 2^-48 cell
_FINEST_GRID = 1024
# the ladder of ``_decide``: guard bits of the first rung above the grid's,
# the growth from rung to rung, and how many times wider than a rung the
# exact integers must be before the rung is tried
_GUARD_BITS = 64
_RUNG_GROWTH = 4
_EXACT_RATIO = 64
# the highest degree of a polynomial expanded on a coefficient list, 8
# bytes and more per coefficient: printing one of degree 10^7 takes about
# 0.7 s and 250 MB
_MAX_DEGREE = 10_000_000


def dominant_chain(prefix):
    """The chain of dominant polynomials for the nested prefixes of ``prefix``.

    The first element is t^(m_1+1) (t-1) - 2t; each later element i is
    t^(m_i) (t-1) P + (-1)^i 2t P* where P is the previous element and P*
    its reciprocal at its own degree.  Element i is monic of degree n_i + 1.
    The levels are folded on coefficient lists (``_expanded``); past degree
    ``_MAX_DEGREE`` it raises ValueError before folding.

    >>> [str(p) for p in dominant_chain((1, 1))]
    ['t^3 - t^2 - 2*t', 't^5 - 2*t^4 - 5*t^3 + 2*t']
    """
    vals = params(prefix, 1)
    _check_degree(_size(vals) + 1)
    return [IntPoly(p) for p in _expanded(vals)]


def braid_char_poly(m):
    """Characteristic polynomial of the braid tuple, from the chain formula.

    Equals t^(m_last) P + sigma P* with P the dominant polynomial of the
    prefix and sigma the tuple sign, closed on the coefficient list of P;
    coincides coefficientwise with char_poly(transition_matrix(m)).
    Past degree ``_MAX_DEGREE`` it raises ValueError before expanding.
    """
    m = BraidTuple(m)
    _check_degree(m.size)
    return _closed(deque(_expanded(m.prefix), maxlen=1)[0], m.values[-1], m.sign)


def _check_degree(degree):
    # ValueError when a polynomial to expand would pass the degree limit
    if degree > _MAX_DEGREE:
        raise ValueError(f"the polynomial would have degree {degree}; the limit is {_MAX_DEGREE}")


def _closed(p, last, sign):
    # t^last P + sign P* for the ascending coefficients p of a chain level P
    q = [*[sign * c for c in reversed(p)], *[0] * last]  # sign P*, padded
    q[last:] = [a + b for a, b in zip(q[last:], p)]  # + t^last P
    return IntPoly(q)


def _expanded(prefix):
    # the chain levels as ascending coefficient lists, from P = [1]
    p = [1]
    for i, m in enumerate(prefix, start=1):
        p = _next_level(p, m, i)
        yield p


def _next_level(p, m, i):
    # chain level i for the prefix entry m, with m and s as in ``_levels``,
    # from the ascending coefficients p of level i - 1: 2s t P* is P
    # reversed, scaled and padded, and t^m (t-1) P is added in one pass
    m, s = m + (i == 1), closing_sign(i)
    q = [0, *[2 * s * c for c in reversed(p)], *[0] * m]
    q[m:] = [a + b - c for a, b, c in zip(q[m:], [0, *p], [*p, 0])]
    return q


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
    [mid - rad, mid + rad]·2^exp.  With ``prec`` bits, x^m is squared up
    at prec bits to a ball (xm ± xr)·2^-lift, and ``_scaled`` aligns the
    q-terms to it and rounds the pair to prec bits after each level.  Past
    2^prec, lift < 0: a q-term shifted right by -lift is rounded exactly as
    the precision step rounds, its midpoint floored and its radius rounded
    up plus 1, the floor's error.  So every ball still holds its exact
    value.  With ``prec`` None nothing is rounded and the radii stay 0: the
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
        if prec is None:  # exact: lift >= 0 and no radius
            u, v = (2 * s * num * q) << lift, ((one - num) * q) << lift
        else:
            err = xm * rp + xr * (abs(p) + rp)  # the radius of x^m P
            u, ru = _scaled(2 * s * num * q, 2 * num * rq, lift)
            v, rv = _scaled((one - num) * q, (num - one) * rq, lift)
            rp, rq = err * (num - one) + ru, rv + ((2 * err) << shift)
        p, q = xm * (num - one) * p + u, v + ((2 * s * xm * p) << shift)
        exp -= shift + lift
        if prec is not None:
            d = max(abs(p).bit_length(), abs(q).bit_length(), rp.bit_length(), rq.bit_length()) - prec
            if d > 0:
                (p, rp), (q, rq), exp = _scaled(p, rp, -d), _scaled(q, rq, -d), exp + d
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
    v, rv = _scaled(closing_sign(len(prefix) + 1) * q, rq, lift)
    closing, rad = xl * p + v, xl * rp + xr * (abs(p) + rp) + rv
    if closing <= rad:
        return None if closing > -rad else False
    return True


def _decide(prefix, last, num, shift):
    """Exactly whether λ(prefix + (last,)) < x for the dyadic x = num / 2^shift.

    With ``last`` None, exactly whether μ(prefix) < x.  The tuple's
    polynomial t^last P + σ P*, with P the prefix's dominant polynomial and
    σ the closing sign, has exactly one root above μ(prefix) and is
    negative between the two (the lemma of ``_pair``).  So λ < x exactly
    when μ < x and the closing polynomial is positive at x.

    The answer is ``_decision``'s, climbing a ladder of precisions.  The
    first rung carries ``shift`` + 64 bits, each next rung 4 times as many,
    and the last rung is exact.  A rung answers only when every ball it
    signs excludes 0, so each answer is the exact one.  A decision whose
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


def _float_hint(prefix, last=None, lo=1.0, hi=None):
    # λ(prefix + (last,)), or μ(prefix) when last is None, by bisecting a
    # double-precision pass of the recurrence inside [lo, hi], doubling from
    # lo when hi is None: each level is divided by x^m and the pair
    # normalised, which keeps every sign; a guide for the exact bracket,
    # never a result.  The matrix route starts Noda's iteration at it, so its
    # float operations and their order are kept bit for bit
    sigma = closing_sign(len(prefix) + 1)
    levels = [(-m, 2.0 * s) for m, s in _levels(prefix)]

    def below(x):
        up, down = x - 1.0, 1.0 - x
        p = q = 1.0
        for neg, two_s in levels:
            r = x**neg
            p, q = up * p + two_s * x * r * q, down * r * q + two_s * p
            if not p > 0.0:
                return False
            scale = -q if -q > p else q if q > p else p  # max(p, abs(q))
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

    Every cell is born on the 2^-48 grid; only ``_separate`` refines it to
    finer ones.  ``below(num, shift)`` is the exact decision
    "r < num / 2^shift" that produced the cell and refines it.
    """

    __slots__ = ("below", "lo", "shift")

    def __init__(self, below, lo):
        self.below, self.lo, self.shift = below, lo, _GRID

    def ends(self, shift):
        # (lo, hi) in units of 2^-shift, for shift >= self.shift
        d = shift - self.shift
        return self.lo << d, (self.lo + 1) << d

    def refine(self):
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
    roots could be ±1.  A limit μ can be one: (1,) has μ = 2.  Two exact
    decisions at the float ``hint``'s own cell, not below(lo) and then
    below(lo + 1), certify it.  When the hint misses, the search tries the
    adjacent cell, then doubles its step away from the hint, and bisects
    the bracket it finds to one unit.  The hint is the upper end of a float
    bracket, so it misses mostly from above, which costs two decisions; one
    cell below costs three.  A hint that is not finite starts at 1.
    """
    lo = math.floor(hint * 2.0**_GRID) if math.isfinite(hint) else 1 << _GRID
    if below(lo, _GRID):
        lo, hi, step = lo - 1, lo, 2
        while below(lo, _GRID):
            lo, hi, step = lo - step, lo, 2 * step
    else:
        hi, step = lo + 1, 1
        while not below(hi, _GRID):
            lo, hi, step = hi, hi + step, 2 * step
    return _Cell(below, _bisect(below, lo, hi, _GRID))


def _cell(prefix, last=None, lo=1.0, hi=None):
    # λ(prefix + (last,)), or μ(prefix) when last is None, on the 2^-48 grid,
    # from the float hint inside [lo, hi]
    return _formula_cell(partial(_decide, prefix, last), _float_hint(prefix, last, lo, hi))


def _separate(upper, lower):
    """Refine two cells of distinct roots until they are disjoint.

    Returns whether ``upper`` then lies above ``lower``.  The coarser cell
    is refined first, both when their grids agree.  Refining past the
    finest grid, 2^-``_FINEST_GRID``, raises RuntimeError.
    """
    while True:
        shift = max(upper.shift, lower.shift)
        up_lo, up_hi = upper.ends(shift)
        low_lo, low_hi = lower.ends(shift)
        if up_lo >= low_hi or low_lo >= up_hi:
            return up_lo >= low_hi
        coarse = min(upper.shift, lower.shift)
        if coarse >= _FINEST_GRID:
            raise RuntimeError(
                f"separating two roots needs a grid finer than the finest grid 2^-{_FINEST_GRID}"
            )
        for cell in (upper, lower):
            if cell.shift == coarse:
                cell.refine()


class DilatationReport(namedtuple(
    "DilatationReport",
    "tuple_values lambda_formula lambda_matrix agreement certificate formula_bracket",
    defaults=(None,),
)):
    """Dilatation of one braid tuple with the evidence that produced it.

    The floats and the ``PFCertificate`` are None for a route not run.
    ``formula_bracket`` is the formula route's certified cell lo < λ < hi,
    a pair of exact dyadic rationals, or None; it is not part of the JSON
    report.  No ``__slots__``: ``polynomial`` is cached in the instance.
    """

    @cached_property
    def polynomial(self):
        """The characteristic polynomial, expanded from the chain when first read."""
        return braid_char_poly(self.tuple_values)

    def to_json_dict(self):
        c = self.certificate  # of a primitive matrix, so both flags are true
        cert = None if c is None else {
            "irreducible": True, "primitive": True,
            "eigenvalue": c.eigenvalue, "residual": c.residual,
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

    ``method`` selects the route: "formula" certifies a 2^-48 cell of λ,
    kept as ``formula_bracket``, by the exact decision "is λ < x?" on the
    chain's transfer recurrence, asked at the float hint's cell; "matrix"
    takes the Perron-Frobenius eigenvalue of the transition matrix; "both"
    runs the two, certifies that the cell meets the matrix enclosure
    (``_cross_check``) and records their difference.  ``tol``, positive and
    finite, is the matrix route's enclosure width; the formula route
    reaches a fixed accuracy and ignores it.
    Without a cell, method "matrix" starts Noda's iteration just above the
    float hint; the enclosure is exact on the matrix alone either way, so
    ``lambda_matrix`` lies within ``tol`` of λ.
    """
    if method not in ("formula", "matrix", "both"):
        raise ValueError(f"unknown method {method!r}")
    _tolerance(tol)
    m = BraidTuple(m)
    lam_formula = agreement = certificate = bracket = None
    # the nonzero limit refuses a matrix route before any formula work
    levels = None if method == "formula" else _level_hubs(m.values, m.size)
    if method == "matrix":
        above = _float_hint(m.values[:-1], m.values[-1])
        certificate = _hub_perron(levels, tol, above)
    else:
        cell = _cell(m.values[:-1], m.values[-1])
        lam_formula, bracket = cell.value(), cell.bracket()
        if method == "both":
            certificate = _cross_check(cell, levels, tol)
            agreement = abs(lam_formula - certificate.eigenvalue)
    lam_matrix = None if certificate is None else certificate.eigenvalue
    return DilatationReport(
        m.values, lam_formula, lam_matrix, agreement, certificate, bracket
    )


def limit_dilatation(prefix):
    """Limit of the dilatations as the parameters after ``prefix`` grow.

    This is μ, the largest root of the dominant polynomial P of the prefix:
    the midpoint of its cell lo <= μ < lo + 2^-48, certified by the exact
    decision "μ < x" (every chain level positive at x).  The cell is
    certified against the dominant block B of the transition matrix: B is
    primitive (the lemma of ``treebuilder``), and det(tI - B) = P
    exactly (``pabraid verify`` and the tests check this identity), so by
    the Perron-Frobenius theorem the eigenvalue of B is a simple root of P
    strictly larger in modulus than every other root.  ``_cross_check``
    requires the cell to meet the exact Collatz-Wielandt enclosure of that
    eigenvalue, else AssertionError.
    """
    return _certified_limit(params(prefix, 1)).value()


def _certified_limit(vals):
    block = _level_hubs(vals + (1,), _size(vals) + 1)  # the dominant block
    cell = _cell(vals)  # after the nonzero limit, which _level_hubs checks
    _cross_check(cell, block)
    return cell


def _cross_check(cell, levels, tol=1e-10):
    """``_hub_perron``'s certificate of a braid matrix, checked against ``cell``.

    The matrix is ``levels``, built from the block boundaries: primitive
    by ``treebuilder``'s lemma, so no graph is searched and no matrix
    validated.  The formula route's cell and the Collatz-Wielandt enclosure
    (width ``tol``) are compared exactly and must share a point, else
    AssertionError; the test is exact at any ``tol``.  Noda's iteration
    starts just above the cell's upper end, but the enclosure is evaluated
    on the matrix alone: a wrong cell costs steps, never a false overlap.
    """
    lo, hi = cell.bracket()
    cert = _hub_perron(levels, tol, float(hi))
    if not (lo <= Fraction(cert.upper) and Fraction(cert.lower) <= hi):
        raise AssertionError(
            f"the cell [{float(lo)!r}, {float(hi)!r}] misses the "
            f"Perron-Frobenius enclosure [{cert.lower}, {cert.upper}] of "
            f"its {levels.size}x{levels.size} matrix"
        )
    return cert


MonotonicityCheck = namedtuple("MonotonicityCheck", "lambda_before lambda_after strictly_decreasing")


def monotonicity_check(m, i):
    """Compare the dilatation of ``m`` with the tuple incremented at slot i.

    ``i`` is 1-based, and the floats are the midpoints of the two certified
    2^-48 cells.  The boolean is exact and tells whether λ(m) lies above
    λ(incremented).  At the last slot it is True by the last-coordinate
    lemma stated in ``convergence_table``, and no cell is refined.  At an
    inner slot the strict drop is the paper's theorem, not a lemma stated
    here, so the two cells are refined on finer grids until they are
    disjoint; dilatations closer than 2^-1024 raise RuntimeError.
    """
    m = BraidTuple(m)
    i = _integer(i, "coordinate index")
    if not (1 <= i <= len(m)):
        raise ValueError(f"coordinate index {i} outside 1..{len(m)}")
    bumped = list(m.values)
    bumped[i - 1] += 1
    before = _cell(m.values[:-1], m.values[-1])
    after = _cell(tuple(bumped[:-1]), bumped[-1])
    decreasing = i == len(m) or _separate(before, after)
    return MonotonicityCheck(before.value(), after.value(), decreasing)


class ScanRow(namedtuple(
    "ScanRow", "tuple_values lam gap_to_limit poly_degree bracket", defaults=(None,)
)):
    """One row of a parameter sweep over the last tuple entry.

    ``bracket`` is λ's certified 2^-48 cell lo < λ < hi, a pair of exact
    dyadic rationals, as ``DilatationReport.formula_bracket``; it is not
    part of the CSV line.
    """

    __slots__ = ()
    CSV_HEADER = "tuple;lambda;gap_to_limit;poly_degree"

    def csv_line(self):
        head = ",".join(str(v) for v in self.tuple_values)
        return f"{head};{self.lam!r};{self.gap_to_limit!r};{self.poly_degree}"


def convergence_table(prefix, last_values):
    """Sweep the last parameter and certify the convergence to the limit.

    ``last_values`` must be strictly increasing integers >= 1.  Each row's
    ``lam`` is the midpoint of λ's 2^-48 cell and ``gap_to_limit`` the
    difference of that float and the limit's, so deep rows may show a gap
    of 0.0.  Each row's ``bracket`` is that cell, certified by two exact
    decisions at the float hint, which is sought between the lower end of
    μ's cell and the upper end of the previous row's.

    The statement being reproduced, λ falling strictly toward μ, holds for
    every prefix by the last-coordinate lemma, so no decision checks it.
    Write λ_m for λ(prefix + (m,)) and Q_m = t^m P + σ P* for its
    polynomial, with P the prefix's dominant polynomial and σ the closing
    sign.  Then Q_(m+1)(x) - Q_m(x) = x^m (x - 1) P(x), which is positive
    for every x > μ > 1 (the lemma of ``_pair``).  So Q_(m+1)(λ_m) > 0, and
    by the closing-polynomial lemma of ``_decide``, μ < λ_(m+1) < λ_m.
    """
    vals = params(prefix, 1)
    steps = tuple(last_values)
    if not steps:
        raise ValueError("the sweep range must be nonempty")
    steps = params(steps, 1)
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("the sweep range must be strictly increasing")
    mu = _certified_limit(vals)
    limit, lo = mu.value(), mu.lo * 2.0**-_GRID
    cells = []
    for last in steps:
        hi = None if not cells else (cells[-1].lo + 1) * 2.0**-_GRID
        cells.append(_cell(vals, last, lo, hi))
    degree = _size(vals) + 1  # of the prefix's dominant polynomial
    return [
        ScanRow(vals + (last,), cell.value(), cell.value() - limit, degree + last, cell.bracket())
        for last, cell in zip(steps, cells)
    ]
