"""Exact integer-coefficient polynomials and a float-guided real-root finder.

All algebra on :class:`IntPoly` is performed with arbitrary-precision
integers, so it is exact.  The root finders start from the eigenvalues of
the companion matrix (``np.roots``).  A real root is returned only after an
exact sign change on the dyadic grid 2^-48 confirms it, so it is certified
to lie in its grid cell; which root is found (the largest, or the first
above a bound) rests on the floating-point eigenvalues.
``roots_outside_unit_disk`` returns the eigenvalues themselves, unconfirmed.

No library code calls the three root finders: the formula route decides
its roots exactly on the chain's transfer recurrence.  They stay here
because the tests use them as oracles, and the benchmark tracer
(``bench/tracing.py``) binds them by name.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = [
    "IntPoly",
    "largest_real_root",
    "first_real_root_above",
    "roots_outside_unit_disk",
]

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
        cs = [c if type(c) is int else _integer(c, "coefficient") for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
        a, b = self.coeffs, _as_poly(other).coeffs
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

    def __call__(self, x):
        r = 0
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

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


def _integer(v, what="parameter"):
    """``v`` as an int; ValueError unless it is integral (3.0 is, 2.9 is not)."""
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != v:
        raise ValueError(f"{what} {v!r} is not an integer")
    return n


def _as_poly(other):
    return other if isinstance(other, IntPoly) else IntPoly((other,))


def _exact_sign_at_dyadic(coeffs, num, shift):
    """Sign of p(num / 2**shift), by pure integer arithmetic."""
    d = len(coeffs) - 1
    acc = coeffs[d]
    for i in range(d - 1, -1, -1):
        acc = acc * num + (coeffs[i] << (shift * (d - i)))
    return (acc > 0) - (acc < 0)


_GRID = 48  # the dyadic grid 2^-48 ~ 3.6e-15 of every certified root cell
_WINDOW_CAP = 1 << 32  # widest confirmation half-window, in grid units (~1.5e-5)


def _eigenvalues(coeffs):
    # companion-matrix eigenvalues; int / int rounds correctly at any size
    top = max(abs(c) for c in coeffs)
    return np.roots([c / top for c in reversed(coeffs)])


def _confirmed_root(coeffs, x, base, descending):
    """A root of p near the float ``x``, on grid points >= ``base``, or None.

    Exact signs at the grid points c = floor(x·2^48) and c ± w, for w = 4,
    8, ... up to the cap: the first of the two half-windows [c - w, c] and
    [c, c + w] whose ends differ in sign (the upper one first when
    ``descending``) is bisected to one grid unit, and the cell's midpoint
    returned.  Testing c itself finds the two roots of a close pair whose
    eigenvalues merged into a complex pair centred between them.  A grid
    point where p is exactly zero is returned as it is.
    """

    def sign(n):
        return _exact_sign_at_dyadic(coeffs, n, _GRID)

    centre = max(math.floor(x * 2.0**_GRID), base)
    s_centre = sign(centre)
    if s_centre == 0:
        return centre * 2.0**-_GRID
    w = 4
    while w <= _WINDOW_CAP:
        halves = [(centre + w, centre), (max(centre - w, base), centre)]
        if not descending:
            halves.reverse()
        for end, inner in halves:
            s = sign(end)
            if s == 0:
                return end * 2.0**-_GRID
            if s != s_centre:
                return _bisect_cell(sign, inner, s_centre, end)
        w *= 2
    return None


def _bisect_cell(sign, a, s_a, b):
    # p has the nonzero sign s_a at the grid point a and the other at b
    while abs(b - a) > 1:
        mid = (a + b) // 2
        s = sign(mid)
        if s == 0:
            return mid * 2.0**-_GRID
        if s == s_a:
            a = mid
        else:
            b = mid
    return (a + b) * 2.0 ** -(_GRID + 1)


def _confirm_first(f, lower, name, descending):
    # the first eigenvalue real part above `lower`, in the given order,
    # that exact signs confirm
    if not isinstance(f, IntPoly):
        f = IntPoly(f)
    if f.degree < 1:
        raise ValueError(f"{name} needs a nonconstant polynomial")
    base = math.floor(lower * 2.0**_GRID) + 1  # the first grid point above lower
    xs = sorted({z.real for z in _eigenvalues(f.coeffs) if z.real > lower}, reverse=descending)
    for x in xs:
        root = _confirmed_root(f.coeffs, x, base, descending)
        if root is not None:
            return root
    raise ValueError(f"no real root above {lower!r} with a sign change")


def largest_real_root(f, lower=0.0):
    """Largest real root of ``f`` strictly above ``lower``.

    The real parts of the eigenvalues above ``lower`` are tried from the
    largest down; the first one within about 1.5e-5 of an exact sign change
    on the 2^-48 grid gives the root.  The result is certified to lie in
    that 2^-48 cell (it is the cell's midpoint, or the grid point itself
    where ``f`` vanishes exactly).  That it is the largest root rests on
    the floating-point eigenvalues, which can misorder roots in a tight
    cluster.  A root of even multiplicity shows no sign change and is not
    returned.  Deterministic.

    Raises ValueError for a constant polynomial, and when no candidate
    above ``lower`` is confirmed.
    """
    return _confirm_first(f, lower, "largest_real_root", descending=True)


def first_real_root_above(f, lower):
    """Smallest real root of ``f`` strictly above ``lower``.

    As :func:`largest_real_root`, with the eigenvalues' real parts tried
    from the smallest up: the result is certified to lie in its 2^-48 cell,
    that it is the first root above ``lower`` rests on the eigenvalues, and
    a root of even multiplicity is not returned.

    Raises ValueError for a constant polynomial, and when no candidate
    above ``lower`` is confirmed.
    """
    return _confirm_first(f, lower, "first_real_root_above", descending=False)


def roots_outside_unit_disk(f, tol=1e-10):
    """All complex roots of modulus > 1 + tol, with multiplicity.

    The companion-matrix eigenvalues (``np.roots``; Edelman and Murakami,
    Math. Comp. 64, 1995) of modulus above 1 + tol, sorted by decreasing
    modulus.  They are floating-point values, not certified: a root of
    modulus within the eigenvalue error of 1 + tol can fall on either
    side, and a multiple root comes back as a cluster of nearby values.
    The empty list is a valid result.
    """
    if not isinstance(f, IntPoly):
        f = IntPoly(f)
    if f.is_zero():
        raise ValueError("the zero polynomial has no root set")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    out = [complex(z) for z in _eigenvalues(f.coeffs) if abs(z) > 1.0 + tol]
    out.sort(key=lambda w: (-abs(w), -w.real, -w.imag))
    return out
