"""Volume lower bounds for the family and the small-dilatation parameter search.

The closed braids here are alternating links whose twist number is the
tuple length, which gives the lower bound (k-1)/2 times the volume v3 of
the regular ideal tetrahedron.  v3 = 3 Л(π/3) comes from the Clausen series
of the Lobachevsky function, never hard-coded: in floating point for
``lobachevsky``, and as an exact rational enclosure for v3, so that the
choice of k is an exact decision like the choice of m.  The tests check the
series against two independent quadratures.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .dilatation import _bisect, _decide, dilatation
from .intpoly import _integer
from .treebuilder import _check_nonzeros

__all__ = [
    "lobachevsky",
    "ideal_tetrahedron_volume",
    "volume_lower_bound",
    "BoundReport",
    "find_parameters",
]

# finest enclosure of v3, 2^-_V3_BITS_CAP wide, before the choice of k gives up
_V3_BITS_CAP = 1024


@lru_cache(maxsize=None)
def _coefficients(n):
    """(T_k, (4^k - 1)(2k + 1)!) for k = 1..n: the Clausen series coefficients d_k.

    T_k are the tangent numbers 1, 2, 16, 272, ... (tan x = sum_k T_k
    x^(2k-1)/(2k-1)!), from the integer recurrence of Brent and Zimmermann
    (Modern Computer Arithmetic, Algorithm 4.2).  For 0 < θ <= π/2,
    Л(θ) = θ (1 - log 2θ + sum_k d_k θ^(2k)), which is ½ Cl_2(2θ) with
    |B_2k| = 2k T_k / (4^k (4^k - 1)).  By Euler's formula for ζ(2k),
    d_k θ^(2k) = ζ(2k) (θ/π)^(2k) / (k (2k + 1)).
    """
    t = [math.factorial(k) for k in range(n)]
    for k in range(1, n):
        for j in range(k, n):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(
        (tk, (4**k - 1) * math.factorial(2 * k + 1)) for k, tk in enumerate(t, start=1)
    )


# d_k for k = 24 down to 1: the terms left out sum to under 1e-18 for θ <= π/2
_FLOAT_COEFFICIENTS = tuple(t / d for t, d in reversed(_coefficients(24)))


def lobachevsky(theta):
    """Lobachevsky function Л(θ): minus the integral of log|2 sin u| over [0, θ].

    Л is odd and π-periodic, so θ is reduced to |θ| <= π/2 and the Clausen
    series of ``_coefficients`` is summed in floating point.
    """
    theta = math.remainder(theta, math.pi)
    t = abs(theta)
    if t == 0.0:
        return 0.0
    t2 = t * t
    series = 0.0
    for d in _FLOAT_COEFFICIENTS:
        series = (series + d) * t2
    return math.copysign(t * (1.0 - math.log(2.0 * t) + series), theta)


def _div(a, b, up):
    """a/b rounded down, or up when ``up``, for b > 0."""
    return -(-a // b) if up else a // b


def _arctan_inverse(n, one):
    """Integers lo < one·atan(1/n) < hi, by the alternating series."""
    total, j, power = 0, 0, n
    while True:
        term = one // ((2 * j + 1) * power)
        if not term:
            # j truncated terms, each off by less than 1, and a tail below 1
            return total - j - 1, total + j + 1
        total += -term if j & 1 else term
        j += 1
        power *= n * n


def _log_2pi_over_3(pi, one, up):
    """one·log(2π/3) rounded down, or up when ``up``, from one·π rounded alike.

    log(2π/3) = 2 atanh z with z = (2π - 3)/(2π + 3) < 0.36, increasing in π.
    """
    z = _div((2 * pi - 3 * one) * one, 2 * pi + 3 * one, up)
    z2 = _div(z * z, one, up)
    total, j, power = 0, 0, z
    while power > 1:
        total += _div(power, 2 * j + 1, up)
        j += 1
        power = _div(power * z2, one, up)
    # the tail left is below power/(1 - z^2) < 2
    return 2 * (total + 2 if up else total)


def _clausen_sum(pi, one, up):
    """one·sum_k d_k (π/3)^(2k) rounded down, or up when ``up``, from one·π rounded alike.

    Every term grows with π.  The tail after n terms is below 9^-(n+1)
    (``_coefficients``: ζ(2k) <= ζ(2)), under 1/one for n = bits(one) // 3.
    """
    u = _div(pi * pi, 9 * one, up)
    total, power = 0, one
    for t, d in _coefficients(one.bit_length() // 3):
        power = _div(power * u, one, up)
        total += _div(t * power, d, up)
    return total + 1 if up else total


@lru_cache(maxsize=None)
def _v3_enclosure(bits):
    """Rationals lo < v3 < hi with hi - lo <= 2^-bits.

    v3 = 3 Л(π/3) = π (1 - log(2π/3) + sum_k d_k (π/3)^(2k)), from Machin's
    formula for π, the atanh series for log(2π/3) and the Clausen series
    with its geometric tail bound, all in integers scaled by 2^(bits + 16)
    and rounded outward.
    """
    one = 1 << (bits + 16)
    a_lo, a_hi = _arctan_inverse(5, one)
    b_lo, b_hi = _arctan_inverse(239, one)
    pi_lo, pi_hi = 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo
    lo = pi_lo * (one - _log_2pi_over_3(pi_hi, one, True) + _clausen_sum(pi_lo, one, False))
    hi = pi_hi * (one - _log_2pi_over_3(pi_lo, one, False) + _clausen_sum(pi_hi, one, True))
    return Fraction(lo, one * one), Fraction(hi, one * one)


@lru_cache(maxsize=1)
def ideal_tetrahedron_volume():
    """Volume v3 of the regular ideal hyperbolic tetrahedron, 3 Л(π/3), correctly rounded."""
    return float(_v3_enclosure(64)[0])


def volume_lower_bound(k):
    """Lower bound (k-1)/2 times the ideal tetrahedron volume, for k >= 1."""
    k = _integer(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    return 0.5 * (k - 1) * ideal_tetrahedron_volume()


def _bound_exceeds(k, target):
    """Whether (k-1)/2 · v3 > ``target``, a rational, decided exactly.

    The enclosure of v3 starts 2^-16 wide and is refined, squaring its
    width, while the target lies inside it.  Nobody has shown v3 to be
    irrational, so equality cannot be ruled out: at ``_V3_BITS_CAP`` bits
    the decision raises RuntimeError.
    """
    bits = 16
    while bits <= _V3_BITS_CAP:
        lo, hi = _v3_enclosure(bits)
        if (k - 1) * lo > 2 * target:
            return True
        if (k - 1) * hi <= 2 * target:
            return False
        bits *= 2
    raise RuntimeError(
        f"cannot decide whether the volume bound of k={k} exceeds the target "
        f"volume {float(target)!r}: the target lies inside the bound's "
        f"enclosure from v3 to within 2^-{bits // 2}"
    )


class BoundReport(namedtuple(
    "BoundReport", "k m lambda_achieved volume_bound target_lambda target_volume"
)):
    """Witness parameters: dilatation below target, volume bound above target."""

    __slots__ = ()

    def to_json_dict(self):
        return self._asdict()


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
    return _bisect(lambda n, _: below(n), lo, hi, None) + 1


def find_parameters(target_lambda, target_volume):
    """Smallest (k, m) with the diagonal tuple beating both targets.

    k is the least value whose volume bound (k-1)/2 · v3 exceeds
    ``target_volume``, compared exactly with the enclosure of v3
    (``_bound_exceeds``); m is the least value for which the diagonal tuple
    (m, ..., m) with k+1 entries has dilatation below ``target_lambda``
    (monotone in m, so found by doubling plus binary search).  Each target
    is the exact value of the float passed, and each comparison of a
    dilatation with it is an exact decision on the chain's transfer
    recurrence, so λ(m) < target and λ(m-1) >= target are proved, not
    inferred from rounded roots.  By monotonicity any tuple with every
    entry >= m satisfies the dilatation bound as well.  The witness comes
    from ``dilatation(..., method="both")``, which cross-checks its 2^-48
    cell exactly against the Perron-Frobenius enclosure of its transition
    matrix.
    """
    target_lambda = float(target_lambda)
    target_volume = float(target_volume)
    if not 1.0 < target_lambda < math.inf:
        raise ValueError("target_lambda must be finite and exceed 1")
    if not 0.0 < target_volume < math.inf:
        raise ValueError("target_volume must be finite and positive")

    volume = Fraction(target_volume)
    k = _least_below(lambda kk: _bound_exceeds(kk, volume))
    # past the nonzero limit at the least witness, so at every m
    _check_nonzeros((1,) * (k + 1))
    target = Fraction(target_lambda)
    num, shift = target.numerator, target.denominator.bit_length() - 1
    m = _least_below(lambda mm: _decide((mm,) * k, mm, num, shift))
    witness = dilatation((m,) * (k + 1), method="both")
    return BoundReport(
        k=k,
        m=m,
        lambda_achieved=witness.lambda_formula,
        volume_bound=volume_lower_bound(k),
        target_lambda=target_lambda,
        target_volume=target_volume,
    )
