"""Volume lower bounds for the family and the small-dilatation parameter search.

The closed braids here are alternating links whose twist number is the
tuple length, which gives the lower bound (k-1)/2 times the volume of the
regular ideal tetrahedron.  That constant is computed by quadrature, never
hard-coded, and a second independent quadrature certifies it in the tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

from scipy.integrate import quad

from .dilatation import _below, _check_overlap, _tuple_cell
from .intpoly import _integer
from .treebuilder import BraidTuple, transition_matrix

__all__ = [
    "lobachevsky",
    "ideal_tetrahedron_volume",
    "volume_lower_bound",
    "twist_number",
    "BoundReport",
    "find_parameters",
]


def lobachevsky(theta):
    """Lobachevsky function: minus the integral of log|2 sin u| over [0, theta]."""
    if theta == 0.0:
        return 0.0
    value, _ = quad(lambda u: math.log(abs(2.0 * math.sin(u))), 0.0, theta, limit=200)
    return -value


@lru_cache(maxsize=1)
def ideal_tetrahedron_volume():
    """Volume of the regular ideal hyperbolic tetrahedron, 3 Lob(pi/3)."""
    return 3.0 * lobachevsky(math.pi / 3.0)


def volume_lower_bound(k):
    """Lower bound (k-1)/2 times the ideal tetrahedron volume, for k >= 1."""
    k = _integer(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    return 0.5 * (k - 1) * ideal_tetrahedron_volume()


def twist_number(m):
    """Twist number of the alternating closed braid: the tuple length k+1."""
    return len(BraidTuple(m))


@dataclass(frozen=True)
class BoundReport:
    """Witness parameters: dilatation below target, volume bound above target."""

    k: int
    m: int
    lambda_achieved: float
    volume_bound: float
    target_lambda: float
    target_volume: float

    def to_json_dict(self):
        return asdict(self)


_SEARCH_CAP = 10**6


def _least_below(below):
    # least n >= 1 with below(n), for a predicate that holds from some n
    # on: double from 1, then bisect
    lo, hi = 0, 1
    while not below(hi):
        lo = hi
        hi *= 2
        if hi > _SEARCH_CAP:
            raise RuntimeError(f"parameter search exceeded the cap {_SEARCH_CAP}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi


def find_parameters(target_lambda, target_volume, tol=1e-10):
    """Smallest (k, m) with the diagonal tuple beating both targets.

    k is the least value whose volume bound exceeds ``target_volume``; m is
    the least value for which the diagonal tuple (m, ..., m) with k+1
    entries has dilatation below ``target_lambda`` (monotone in m, so found
    by doubling plus binary search).  The target is the exact value of the
    float passed, and each comparison with it is an exact decision on the
    chain's transfer recurrence, so λ(m) < target and λ(m-1) >= target are
    proved, not inferred from rounded roots.  By monotonicity any tuple
    with every entry >= m satisfies the dilatation bound as well; an exact
    off-diagonal spot check per report asserts that.  The matrix route's
    enclosure (width ``tol``) must overlap the witness's 2^-48 cell, an
    exact cross-check of the reported dilatation at any ``tol``.
    """
    target_lambda = float(target_lambda)
    target_volume = float(target_volume)
    if not 1.0 < target_lambda < math.inf:
        raise ValueError("target_lambda must be finite and exceed 1")
    if not 0.0 < target_volume < math.inf:
        raise ValueError("target_volume must be finite and positive")

    k = _least_below(lambda kk: volume_lower_bound(kk) > target_volume)
    width = k + 1
    target = Fraction(target_lambda)
    num, shift = target.numerator, target.denominator.bit_length() - 1
    m = _least_below(lambda mm: _below((mm,) * width, num, shift))
    cell = _tuple_cell((m,) * width)

    off_diagonal = (m + 1,) + (m,) * k
    if not _below(off_diagonal, num, shift):
        raise AssertionError("monotonicity spot check failed")

    # certify the witness through the independent matrix route
    cert = transition_matrix((m,) * width).spectral_radius(tol=tol)
    _check_overlap(cell, cert, "the witness", "its transition matrix")

    return BoundReport(
        k=k,
        m=m,
        lambda_achieved=cell.value(),
        volume_bound=volume_lower_bound(k),
        target_lambda=target_lambda,
        target_volume=target_volume,
    )
