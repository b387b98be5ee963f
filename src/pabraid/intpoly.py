"""Exact integer-coefficient polynomials and deterministic root extraction.

All algebra on :class:`IntPoly` is performed with arbitrary-precision
integers, so it is exact.  Only the root finders return floating-point
values; each states its accuracy and is deterministic for fixed input.
"""

from __future__ import annotations

import cmath
import math
import random
import re

import numpy as np

__all__ = [
    "IntPoly",
    "largest_real_root",
    "first_real_root_above",
    "roots_outside_unit_disk",
]

_EPS = 2.220446049250313e-16

# one term of the text grammar, e.g. "-2*t^5", "+t", "7"
_TERM_RE = re.compile(r"^([+-]?)(\d+)?\s*\*?\s*(t(?:\^(\d+))?)?$")


class IntPoly:
    """Dense integer polynomial; index ``i`` stores the coefficient of t^i.

    Instances are immutable values: every operation returns a fresh
    polynomial, and the highest stored coefficient is nonzero (the zero
    polynomial is the empty coefficient tuple).  Evaluation via ``p(x)`` is
    exact for int and Fraction arguments.

    >>> p = IntPoly.parse("t^2 - t - 1")
    >>> p(2)
    1
    >>> str(p.reciprocal(2))
    '-t^2 - t + 1'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, power, coeff=1):
        """coeff * t^power"""
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls((0,) * power + (coeff,))

    @classmethod
    def parse(cls, text):
        """Parse the rendering grammar: descending powers, explicit signs.

        >>> IntPoly.parse("t^6 - t^5 - 2*t").coeffs
        (0, -2, 0, 0, 0, -1, 1)
        """
        stripped = text.replace(" ", "")
        if not stripped:
            raise ValueError("empty polynomial string")
        if stripped == "0":
            return cls()
        terms = re.findall(r"[+-]?[^+-]+", stripped)
        if "".join(terms) != stripped:
            raise ValueError(f"cannot parse polynomial {text!r}")
        acc = {}
        for term in terms:
            m = _TERM_RE.match(term)
            if not m or (m.group(2) is None and m.group(3) is None):
                raise ValueError(f"cannot parse polynomial term {term!r}")
            sign = -1 if m.group(1) == "-" else 1
            coeff = int(m.group(2)) if m.group(2) is not None else 1
            if m.group(3) is None:
                power = 0
            else:
                power = int(m.group(4)) if m.group(4) is not None else 1
            acc[power] = acc.get(power, 0) + sign * coeff
        cs = [0] * (max(acc) + 1)
        for power, coeff in acc.items():
            cs[power] = coeff
        return cls(cs)

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == IntPoly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, _coeffs_of(other)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(other * c for c in self.coeffs)
        if isinstance(other, IntPoly):
            if not self.coeffs or not other.coeffs:
                return IntPoly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return IntPoly(out)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, n):
        """Multiply by t^n."""
        if n < 0:
            raise ValueError("shift must be >= 0")
        if not self.coeffs:
            return self
        return IntPoly((0,) * n + self.coeffs)

    def scale(self, c):
        return self * int(c)

    def __call__(self, x):
        r = 0
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

    def derivative(self):
        return IntPoly(i * self.coeffs[i] for i in range(1, len(self.coeffs)))

    def reciprocal(self, nominal_degree):
        """Coefficient reversal t^d * p(1/t) at the explicit nominal degree d.

        The nominal degree matters: polynomials with zero constant term are
        not involutive unless d is tracked explicitly.
        """
        d = int(nominal_degree)
        if d < self.degree:
            raise ValueError(
                f"nominal degree {d} is smaller than the actual degree {self.degree}"
            )
        out = [0] * (d + 1)
        for i, c in enumerate(self.coeffs):
            out[d - i] = c
        return IntPoly(out)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"IntPoly({str(self)!r})"


def _coeffs_of(other):
    if isinstance(other, IntPoly):
        return other.coeffs
    if isinstance(other, int):
        return (other,) if other else ()
    raise TypeError(f"cannot combine IntPoly with {type(other).__name__}")


def _as_poly(other):
    return other if isinstance(other, IntPoly) else IntPoly((int(other),))


def _exact_sign_at_dyadic(coeffs, num, shift):
    """Sign of p(num / 2**shift), by pure integer arithmetic."""
    d = len(coeffs) - 1
    acc = coeffs[d]
    for i in range(d - 1, -1, -1):
        acc = acc * num + (coeffs[i] << (shift * (d - i)))
    return (acc > 0) - (acc < 0)


_FIX_BITS = 320  # fraction bits of the fixed-point tier


class _SignOracle:
    """Certified sign of a polynomial at dyadic rationals.

    Three tiers, each rigorous: a float Horner pass with a running error
    bound; a fixed-point integer Horner (320 fraction bits) with a
    truncation-error bound, which survives the catastrophic cancellation
    that defeats doubles on deep chain polynomials; and exact big-integer
    evaluation as the final authority.  The float tier is bypassed once it
    repeatedly fails to certify.
    """

    def __init__(self, coeffs):
        self.coeffs = coeffs
        top = max(abs(c) for c in coeffs)
        # keep float conversion in range; truncation error is absorbed by +1
        down = max(0, top.bit_length() - 970)
        if down:
            self._fc = [float(c >> down) for c in coeffs]
            self._fa = [float((abs(c) >> down) + 1) for c in coeffs]
        else:
            self._fc = [float(c) for c in coeffs]
            self._fa = [abs(f) for f in self._fc]
        self._guard = (2 * len(coeffs) + 4) * _EPS
        self._float_misses = 0
        self._fixed = None

    def sign(self, num, shift=0):
        if self._float_misses < 4 and abs(num) < (1 << 52):
            x = num * 2.0 ** -shift
            v = 0.0
            b = 0.0
            ax = abs(x)
            for c, a in zip(reversed(self._fc), reversed(self._fa)):
                v = v * x + c
                b = b * ax + a
            bound = self._guard * b + 5e-308
            if v > bound:
                self._float_misses = 0
                return 1
            if v < -bound:
                self._float_misses = 0
                return -1
            self._float_misses += 1
        s = self._fixed_point_sign(num, shift)
        if s is not None:
            return s
        return _exact_sign_at_dyadic(self.coeffs, num, shift)

    def _fixed_point_sign(self, num, shift):
        coeffs = self.coeffs
        d = len(coeffs) - 1
        if d < 1:
            return (coeffs[0] > 0) - (coeffs[0] < 0) if coeffs else 0
        if self._fixed is None:
            self._fixed = [c << _FIX_BITS for c in coeffs]
        scaled = self._fixed
        acc = scaled[d]
        for i in range(d - 1, -1, -1):
            acc = ((acc * num) >> shift) + scaled[i]
        # every truncation loses < 1 unit, amplified by at most |x| per step
        err_bits = d.bit_length() + 3
        if num and (abs(num) >> shift):  # |x| >= 1
            log2x = math.log2(abs(num)) - shift
            if log2x > 0:
                err_bits += math.ceil(d * log2x) + 2
        if abs(acc) >> err_bits:
            return 1 if acc > 0 else -1
        return None


def _integer_root_bound(coeffs):
    """Integer B with every root of the polynomial strictly inside |z| < B.

    Minimum of the Cauchy bound and a power-of-two Fujiwara bound; the
    latter keeps B small for high-degree polynomials whose large
    coefficients sit far below the leading term.
    """
    lead = abs(coeffs[-1])
    rest = [abs(c) for c in coeffs[:-1]]
    if not rest or not max(rest):
        return 1
    cauchy = 1 + -(-max(rest) // lead)
    d = len(coeffs) - 1
    exp = 0
    for k in range(1, d + 1):
        c = coeffs[d - k]
        if c:
            bits = abs(c).bit_length() - lead.bit_length() + 1
            if bits > 0:
                exp = max(exp, -(-bits // k))
    fujiwara = 1 << (exp + 1)
    return min(cauchy, fujiwara) + 1


_SCAN_LIMIT = 10**7
_BISECT_STEPS = 41  # final bracket width 2^-41 < 5e-13


def largest_real_root(f, lower=0.0):
    """Largest real root of ``f`` strictly above ``lower``, to about 5e-13.

    Brackets by a descending integer scan from a root bound, bisects the
    bracket to below 5e-13 with certified signs, then polishes with Newton
    when float evaluation of the coefficients is exact.  Deterministic.

    Raises ValueError when no sign change is found above ``lower``.
    """
    if not isinstance(f, IntPoly):
        f = IntPoly(f)
    if f.degree < 1:
        raise ValueError("largest_real_root needs a nonconstant polynomial")
    coeffs = f.coeffs if f.coeffs[-1] > 0 else tuple(-c for c in f.coeffs)
    oracle = _SignOracle(coeffs)

    bound = _integer_root_bound(coeffs)
    if bound <= lower:
        raise ValueError(f"no real root above {lower!r} (root bound {bound})")
    if bound - lower > _SCAN_LIMIT:
        raise RuntimeError("root bound too large for a descending integer scan")

    lo_int = math.floor(lower) + 1
    bracket = None
    for x in range(bound, lo_int - 1, -1):
        s = oracle.sign(x)
        if s == 0:
            return float(x)
        if s < 0:
            bracket = (x, x + 1, 0)
            break
    if bracket is None:
        bracket = _fine_scan(oracle, lower, min(lo_int, bound))
    if bracket is None:
        raise ValueError(f"no real root above {lower!r}")
    return _bisect(f, oracle, *bracket)


def _fine_scan(oracle, lower, hi):
    # No integer sign change: look for one on dyadic grids inside (lower, hi].
    for scale_bits in (6, 12):
        scale = 1 << scale_bits
        start = hi * scale - 1
        stop = math.floor(lower * scale)
        for num in range(start, stop, -1):
            if num <= lower * scale:
                break
            s = oracle.sign(num, scale_bits)
            if s <= 0:
                return (num, num + 1, scale_bits)
    return None


def _bisect(f, oracle, lo, hi, shift):
    # invariant: p(lo/2^shift) < 0 < p(hi/2^shift), hi - lo == 1
    while shift < _BISECT_STEPS:
        lo <<= 1
        hi <<= 1
        shift += 1
        mid = lo + 1
        s = oracle.sign(mid, shift)
        if s == 0:
            return mid * 2.0 ** -shift
        if s < 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) * 2.0 ** -(shift + 1)
    # Newton polish only while float evaluation of the coefficients is exact
    if max(abs(c) for c in f.coeffs) < (1 << 50):
        width = 2.0 ** -shift
        deriv = f.derivative()
        x = root
        for _ in range(8):
            dfx = deriv(x)
            if dfx == 0:
                break
            step = f(x) / dfx
            x -= step
            if abs(step) < 1e-16 * max(1.0, abs(x)):
                break
        if abs(x - root) <= 4 * width:
            root = x
    return root


_PROBE_SHIFT = 48  # dyadic sampling grid, 2^-48 ~ 3.6e-15


def first_real_root_above(f, lower):
    """Smallest real root of ``f`` strictly above ``lower``.

    Intended for polynomials whose root structure right above ``lower``
    begins with an isolated simple root (the sign is then negative between
    ``lower`` and that root): the sign is sampled just above ``lower``, the
    change is bracketed by doubling steps and bisected with certified
    signs.  Accuracy is about 4e-15.

    Raises ValueError when no sign change is found up to the root bound.
    """
    if not isinstance(f, IntPoly):
        f = IntPoly(f)
    if f.degree < 1:
        raise ValueError("first_real_root_above needs a nonconstant polynomial")
    coeffs = f.coeffs if f.coeffs[-1] > 0 else tuple(-c for c in f.coeffs)
    oracle = _SignOracle(coeffs)
    s = _PROBE_SHIFT
    base = math.floor(lower * 2.0**s) + 1  # strictly above lower
    limit = (_integer_root_bound(coeffs) + 1) << s

    a = None
    last_positive = None
    off = 1
    while base + off <= limit:
        x = base + off
        sgn = oracle.sign(x, s)
        if sgn == 0:
            return x * 2.0**-s
        if sgn < 0:
            a = x
            break
        last_positive = x
        off *= 16
    if a is None:
        raise ValueError(f"no sign change above {lower!r} up to the root bound")
    if last_positive is not None:
        # the sign was still positive just above `lower`: the first crossing
        # sits between the last positive sample and the negative one
        lo, hi = last_positive, a
        while hi - lo > 1:
            mid = (lo + hi) // 2
            sgn = oracle.sign(mid, s)
            if sgn == 0:
                return mid * 2.0**-s
            if sgn > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) * 2.0 ** -(s + 1)

    # overshooting the root with a large first step is harmless (the bracket
    # still isolates it), so jump well past the sampling scale immediately
    h = max(a - base, 1 << 18)
    while True:
        b = a + h
        sgn = oracle.sign(b, s)
        if sgn == 0:
            return b * 2.0**-s
        if sgn > 0:
            break
        a = b
        h *= 2
        if a > limit:
            raise ValueError("polynomial never turns positive above the root bound")
    while b - a > 1:
        mid = (a + b) // 2
        sgn = oracle.sign(mid, s)
        if sgn == 0:
            return mid * 2.0**-s
        if sgn < 0:
            a = mid
        else:
            b = mid
    return (a + b) * 2.0 ** -(s + 1)


def roots_outside_unit_disk(f, tol=1e-10):
    """All complex roots of modulus > 1 + tol, with multiplicity.

    Durand-Kerner simultaneous iteration from seeded, randomly perturbed
    points on a circle at the root bound, followed by a Newton polish and a
    clustering pass so that a root of multiplicity m is reported m times
    (roots closer than 1e-6 are treated as one cluster).  Returns a list of
    complex numbers sorted by decreasing modulus; the empty list is a valid
    result.
    """
    if not isinstance(f, IntPoly):
        f = IntPoly(f)
    if f.is_zero():
        raise ValueError("the zero polynomial has no root set")
    if tol <= 0:
        raise ValueError("tol must be positive")
    coeffs = list(f.coeffs)
    while coeffs[0] == 0:  # roots at 0 lie inside the disk
        coeffs.pop(0)
    d = len(coeffs) - 1
    if d == 0:
        return []

    top = max(abs(c) for c in coeffs)
    p = np.array([c / top for c in reversed(coeffs)], dtype=float)
    dp = p[:-1] * np.arange(d, 0, -1)
    radius = float(_integer_root_bound(coeffs))

    rng = random.Random(314159)
    z = np.array(
        [
            radius
            * cmath.exp(2j * math.pi * (j + 0.5) / d)
            * (1.0 + 1e-3 * rng.random())
            for j in range(d)
        ]
    )
    lead = p[0]
    for _ in range(10000):
        pv = np.polyval(p, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        den = lead * diff.prod(axis=1)
        den = np.where(den == 0, 1e-300, den)
        step = pv / den
        z = z - step
        if np.max(np.abs(step)) < 1e-13:
            break

    # per-root Newton polish, kept only when the residual improves
    for _ in range(3):
        pv = np.polyval(p, z)
        dv = np.polyval(dp, z)
        safe = np.where(dv == 0, 1.0, dv)
        cand = z - np.where(dv == 0, 0.0, pv / safe)
        better = np.abs(np.polyval(p, cand)) <= np.abs(pv)
        z = np.where(better, cand, z)

    clusters = _cluster(sorted(z.tolist(), key=lambda w: (w.real, w.imag)))
    out = []
    for centre, count in clusters:
        if abs(centre) > 1.0 + tol:
            out.extend([centre] * count)
    out.sort(key=lambda w: (-abs(w), -w.real, -w.imag))
    return out


def _cluster(points, eps=1e-6):
    groups = []
    for w in points:
        for g in groups:
            if abs(w - g[0] / g[1]) < eps:
                g[0] += w
                g[1] += 1
                break
        else:
            groups.append([w, 1])
    return [(total / count, count) for total, count in groups]
