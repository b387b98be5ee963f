"""Volume lower bounds for the family and the small-dilatation parameter search.

The closed braids here are alternating links whose twist number is the
tuple length, which gives the lower bound (k-1)/2 times the volume of the
regular ideal tetrahedron.  That constant is computed by quadrature, never
hard-coded, and a second independent quadrature certifies it in the tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

from scipy.integrate import quad

from .dilatation import dilatation
from .intpoly import IntPoly, largest_real_root
from .treebuilder import BraidTuple

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
    k = int(k)
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


def _least_below(f, target, start):
    # least m >= start with f(m) < target, for f non-increasing in m and
    # every m below start failing: double from start, then bisect
    lo, hi = start - 1, start
    while f(hi) >= target:
        lo = hi
        hi *= 2
        if hi > _SEARCH_CAP:
            raise RuntimeError("parameter search exceeded the cap")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) < target:
            hi = mid
        else:
            lo = mid
    return hi


def find_parameters(target_lambda, target_volume, tol=1e-10):
    """Smallest (k, m) with the diagonal tuple beating both targets.

    k is the least value whose volume bound exceeds ``target_volume``; m is
    the least value for which the diagonal tuple (m, ..., m) with k+1
    entries has dilatation below ``target_lambda`` (monotone in m, so found
    by doubling plus binary search).  By monotonicity any tuple with every
    entry >= m satisfies the dilatation bound as well; one off-diagonal
    spot check per report asserts that.
    """
    target_lambda = float(target_lambda)
    target_volume = float(target_volume)
    if target_lambda <= 1.0:
        raise ValueError("target_lambda must exceed 1")
    if target_volume <= 0.0:
        raise ValueError("target_volume must be positive")

    v3 = ideal_tetrahedron_volume()
    k = max(1, int(math.floor(2.0 * target_volume / v3)) + 2)
    while k > 1 and volume_lower_bound(k - 1) > target_volume:
        k -= 1
    while volume_lower_bound(k) <= target_volume:
        k += 1

    width = k + 1
    cache = {}

    def diagonal_lambda(mm):
        if mm not in cache:
            cache[mm] = dilatation((mm,) * width, method="formula").lambda_formula
        return cache[mm]

    # the chain-base root is a lower bound for the dilatation, so its own
    # threshold is a cheap starting point for the search on the diagonal
    def base_root(mm):
        poly = IntPoly((-1, 1)).shift(mm + 1) - IntPoly((0, 2))
        return largest_real_root(poly, lower=1.0)

    start = _least_below(base_root, target_lambda, 1)
    # every m below `start` already fails the cheap lower bound
    m = _least_below(diagonal_lambda, target_lambda, start)
    achieved = diagonal_lambda(m)

    off_diagonal = (m + 1,) + (m,) * k
    off_lambda = dilatation(off_diagonal, method="formula").lambda_formula
    assert off_lambda <= achieved + 10 * tol, "monotonicity spot check failed"

    # certify the witness through the independent matrix route
    matrix_lambda = dilatation((m,) * width, method="matrix", tol=tol).lambda_matrix
    assert abs(matrix_lambda - achieved) <= 1e-9, (
        f"formula/matrix disagreement at the witness: {achieved} vs {matrix_lambda}"
    )

    return BoundReport(
        k=k,
        m=m,
        lambda_achieved=achieved,
        volume_bound=volume_lower_bound(k),
        target_lambda=target_lambda,
        target_volume=target_volume,
    )
