"""Dilatations of the braid family, by polynomial chain and by matrix.

The characteristic polynomial of a braid tuple factors through a chain of
dominant polynomials built inductively from the first parameter; the
dilatation is the largest real root and can be cross-checked against the
Perron-Frobenius eigenvalue of the transition matrix.  The formula route
evaluates the chain as a 2x2 transfer recurrence and decides "is the
dilatation below x?" exactly at dyadic x (``_below``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .intpoly import IntPoly, first_real_root_above, largest_real_root
from .nnmatrix import PFCertificate
from .treebuilder import BraidTuple, closing_sign, dominant_matrix, params, transition_matrix

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

_T_MINUS_1 = IntPoly((-1, 1))
_TWO_T = IntPoly((0, 2))
_LIMIT_ENCLOSURE = 1e-10  # width of the Perron-Frobenius enclosure of the limit
_LIMIT_AGREEMENT = 1e-9  # slack allowed between the climbed root and the enclosure
_GRID = 48  # the formula route's dyadic grid, 2^-48 ~ 3.6e-15
# half-width, in grid units, of the first bracket around the float hint; the
# hint fell within one unit on every grid and random-sweep tuple measured
_HINT_UNITS = 4


def dominant_chain(prefix):
    """The chain of dominant polynomials for the nested prefixes of ``prefix``.

    The first element is t^(m_1+1) (t-1) - 2t; each later element i is
    t^(m_i) (t-1) P + (-1)^i 2t P* where P is the previous element and P*
    its reciprocal at its own degree.  Element i is monic of degree n_i + 1.
    """
    vals = params(prefix, 1)
    first = _T_MINUS_1.shift(vals[0] + 1) - _TWO_T
    chain = [first]
    for i, m in enumerate(vals[1:], start=2):
        prev = chain[-1]
        grown = prev.shift(m + 1) - prev.shift(m)  # t^m (t-1) * prev
        twist = _TWO_T * prev.reciprocal(prev.degree)
        chain.append(grown + twist if i % 2 == 0 else grown - twist)
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


def _climb_chain(chain):
    # The dominant roots ascend strictly level by level, and each level has
    # exactly one root above the previous level's root.  Walking the chain
    # with that lower bound isolates the top root unambiguously, even when
    # the lower real roots of deep chains cluster within ~1e-3 of it.
    mu = largest_real_root(chain[0], lower=1.0)
    for poly in chain[1:]:
        mu = first_real_root_above(poly, mu)
    return mu


def _levels(vals):
    # (m, s) for each chain level: P' = t^m (t-1) P + 2s t P*, the first
    # level on P = P* = 1 with m = m_1 + 1 and s = -1
    levels = [(vals[0] + 1, -1)]
    levels += [(m, 1 if i % 2 == 0 else -1) for i, m in enumerate(vals[1:-1], start=2)]
    return levels


def _below(vals, num, shift):
    """Exactly whether λ(vals) < x for the dyadic x = num / 2^shift.

    Write P for a chain level and P* for its reciprocal at its own degree.
    The next level is P' = t^m (t-1) P + 2s t P* with s = ±1, and then
    P'* = (1-t) P* + 2s t^m P, so the pair (P(x), P*(x)) moves by one 2×2
    matrix per level; the tuple's polynomial is t^last P + σ P* with σ the
    closing sign.  The pair is carried as integers scaled by
    2^(shift·deg), so no degree-N polynomial is expanded.

    Ascending roots: each level has exactly one root above the previous
    level's largest root and is negative between the two, and so has the
    closing polynomial above the last level's root (the lemma ``_climb_chain``
    walks on).  Hence for x > 1, λ < x exactly when every level and the
    closing polynomial are positive at x.  False for x <= 1, since λ > 1.
    """
    one = 1 << shift
    if num <= one:
        return False
    powers = {}
    p = q = 1  # the scaled pair (P(x), P*(x)) of the empty prefix
    for m, s in _levels(vals):
        if m not in powers:
            powers[m] = num**m
        xm = powers[m]
        p, q = (
            xm * (num - one) * p + ((2 * s * num * q) << (shift * m)),
            (((one - num) * q) << (shift * m)) + ((2 * s * xm * p) << shift),
        )
        if p <= 0:
            return False
    last = vals[-1]
    return num**last * p + ((closing_sign(len(vals)) * q) << (shift * last)) > 0


def _float_hint(vals):
    # λ by bisecting a double-precision pass of the recurrence: each level
    # is divided by x^m and the pair normalised, which keeps every sign; a
    # guide for the exact bracket, never a result
    sigma = closing_sign(len(vals))
    levels = _levels(vals)

    def below(x):
        p = q = 1.0
        for m, s in levels:
            r = x**-m
            p, q = (x - 1.0) * p + 2.0 * s * x * r * q, (1.0 - x) * r * q + 2.0 * s * p
            if not p > 0.0:
                return False
            scale = max(p, abs(q))
            p, q = p / scale, q / scale
        return p + sigma * q * x ** -vals[-1] > 0.0

    lo, hi = 1.0, 2.0
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


def _formula_cell(vals):
    """λ(vals) from the exact decision ``_below`` on the 2^-48 grid.

    Returns ``(lam, lo, hi)``: the grid cell lo/2^48 < λ < hi/2^48 with
    hi = lo + 1, and its midpoint as a float.  λ is never a grid point: the
    tuple's polynomial is monic with constant term ±1, so its only rational
    roots could be ±1.  A float hint places the first bracket; exact
    decisions confirm it, widen it when it misses, and bisect it to one
    unit.
    """
    hint = _float_hint(vals)
    if math.isfinite(hint):
        centre = math.floor(hint * 2.0**_GRID)
        lo, hi = centre - _HINT_UNITS, centre + _HINT_UNITS
    else:
        lo, hi = 1 << _GRID, 2 << _GRID  # doubling from 1
    if _below(vals, hi, _GRID):
        while _below(vals, lo, _GRID):
            lo, hi = lo - 2 * (hi - lo), lo
    else:
        lo, hi = hi, hi + 2 * (hi - lo)
        while not _below(vals, hi, _GRID):
            lo, hi = hi, hi + 2 * (hi - lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _below(vals, mid, _GRID):
            hi = mid
        else:
            lo = mid
    return (lo + hi) * 2.0 ** -(_GRID + 1), lo, hi


@dataclass(frozen=True)
class DilatationReport:
    """Dilatation of one braid tuple with the evidence that produced it."""

    tuple_values: tuple[int, ...]
    polynomial: IntPoly
    lambda_formula: float | None
    lambda_matrix: float | None
    agreement: float | None
    certificate: PFCertificate | None
    # the formula route's certified cell lo < λ < hi, exact dyadic rationals;
    # not part of the JSON report
    formula_bracket: tuple[Fraction, Fraction] | None = None

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
    poly = braid_char_poly(m)
    lam_formula = None
    lam_matrix = None
    certificate = None
    bracket = None
    if method in ("formula", "both"):
        lam_formula, lo, hi = _formula_cell(m.values)
        bracket = (Fraction(lo, 1 << _GRID), Fraction(hi, 1 << _GRID))
    if method in ("matrix", "both"):
        certificate = transition_matrix(m).spectral_radius(tol=tol)
        lam_matrix = certificate.eigenvalue
    agreement = None
    if lam_formula is not None and lam_matrix is not None:
        agreement = abs(lam_formula - lam_matrix)
    return DilatationReport(
        m.values, poly, lam_formula, lam_matrix, agreement, certificate, bracket
    )


def limit_dilatation(prefix):
    """Limit of the dilatations as the parameters after ``prefix`` grow.

    This is the largest root of the dominant polynomial P of the prefix,
    found by climbing the chain.  It is certified against the dominant
    block B of the transition matrix: ``spectral_radius`` accepts only a
    primitive B, and det(tI - B) = P exactly (``pabraid verify`` and the
    tests check this identity), so by the Perron-Frobenius theorem the
    eigenvalue of B is a simple root of P strictly larger in modulus than
    every other root.  The climbed root must lie within 1e-9 of the exact
    Collatz-Wielandt enclosure of that eigenvalue, else AssertionError.
    The climbed root is accurate to about 5e-13.
    """
    vals = params(prefix, 1)
    return _certified_limit(vals, dominant_chain(vals))


def _certified_limit(vals, chain):
    mu = _climb_chain(chain)
    cert = dominant_matrix(vals).spectral_radius(tol=_LIMIT_ENCLOSURE)
    if not cert.lower - _LIMIT_AGREEMENT <= mu <= cert.upper + _LIMIT_AGREEMENT:
        raise AssertionError(
            f"largest real root {mu} lies outside the Perron-Frobenius enclosure "
            f"[{cert.lower}, {cert.upper}] of the dominant block"
        )
    return mu


@dataclass(frozen=True)
class MonotonicityCheck:
    lambda_before: float
    lambda_after: float
    strictly_decreasing: bool


def monotonicity_check(m, i):
    """Compare the dilatation of ``m`` with the tuple incremented at slot i.

    ``i`` is 1-based.  The boolean is exact: with x the upper end of the
    incremented tuple's certified cell, λ(incremented) < x holds by
    construction, and the check asks ``_below`` whether x <= λ(m).  It is
    False also when both dilatations lie in one 2^-48 cell.
    """
    m = BraidTuple(m)
    if not (1 <= i <= len(m)):
        raise ValueError(f"coordinate index {i} outside 1..{len(m)}")
    bumped = list(m.values)
    bumped[i - 1] += 1
    before = _formula_cell(m.values)[0]
    after, _, x = _formula_cell(tuple(bumped))
    return MonotonicityCheck(before, after, not _below(m.values, x, _GRID))


@dataclass(frozen=True)
class ScanRow:
    """One row of a parameter sweep over the last tuple entry."""

    tuple_values: tuple[int, ...]
    lam: float
    gap_to_limit: float
    poly_degree: int

    CSV_HEADER = "tuple;lambda;gap_to_limit;poly_degree"

    def csv_line(self):
        head = ",".join(str(v) for v in self.tuple_values)
        return f"{head};{self.lam!r};{self.gap_to_limit!r};{self.poly_degree}"


def convergence_table(prefix, last_values):
    """Sweep the last parameter and report the gap to the limit dilatation.

    ``last_values`` must be strictly increasing; the returned gaps are then
    checked to be positive and strictly decreasing, which is the convergence
    statement being reproduced.
    """
    vals = params(prefix, 1)
    steps = [int(v) for v in last_values]
    if not steps:
        raise ValueError("the sweep range must be nonempty")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("the sweep range must be strictly increasing")
    chain = dominant_chain(vals)
    limit = _certified_limit(vals, chain)
    sign = closing_sign(len(vals) + 1)
    rows = []
    for last in steps:
        full = vals + (last,)
        poly = _close(chain[-1], last, sign)
        lam = first_real_root_above(poly, limit)
        rows.append(ScanRow(full, lam, lam - limit, poly.degree))
    gaps = [r.gap_to_limit for r in rows]
    if any(g <= 0 for g in gaps) or any(b >= a for a, b in zip(gaps, gaps[1:])):
        raise RuntimeError("convergence gaps are not positive and strictly decreasing")
    return rows
