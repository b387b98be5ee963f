"""Independent oracles for the test suite.

Everything here is deliberately naive (cofactor expansion, plain rational
bisection, boolean matrix powers) so the library's fast paths are checked
against arithmetic that shares nothing with them.
"""

import importlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from pabraid import (
    IntPoly,
    NNMatrix,
    block_boundaries,
    first_real_root_above,
    largest_real_root,
    poly_matrix_det,
    transition_matrix,
)


def grid_tuples():
    """The 775-tuple grid: lengths 2, 3 and 4 with entries 1..5."""
    return [
        tv
        for length in (2, 3, 4)
        for tv in itertools.product(range(1, 6), repeat=length)
    ]


def record_rungs(monkeypatch):
    """Record every rung the decision ladder climbs, as (prec, answer).

    prec None is the exact rung; answer None is a ball rung that could not
    tell.  Not an oracle: a spy on ``pabraid.dilatation._decision``.
    """
    module = importlib.import_module("pabraid.dilatation")
    decision = module._decision
    rungs = []

    def recorded(prefix, last, num, shift, prec):
        answer = decision(prefix, last, num, shift, prec)
        rungs.append((prec, answer))
        return answer

    monkeypatch.setattr(module, "_decision", recorded)
    return rungs


def climb_chain(chain):
    """Largest root of the last chain polynomial, by walking up the chain.

    The dominant roots ascend strictly level by level, and each level has
    exactly one root above the previous level's root.  Each step asks the
    generic finder for the first root above the previous one; its answer
    is certified to lie in its 2^-48 cell, and the chain's lemma says it is
    the dominant root, even when the lower real roots of deep chains
    cluster within ~1e-3 of it.
    """
    mu = largest_real_root(chain[0], lower=1.0)
    for poly in chain[1:]:
        mu = first_real_root_above(poly, mu)
    return mu


def bisect_root(poly, lo, hi, steps=60):
    """Exact-rational bisection; requires poly(lo) < 0 < poly(hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    assert poly(lo) < 0 < poly(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        v = poly(mid)
        if v == 0:
            return float(mid)
        if v < 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def cofactor_det(rows):
    """Determinant of a square matrix of IntPoly entries by cofactor expansion."""
    n = len(rows)
    one = IntPoly((1,))
    memo = {}

    def expand(r, colmask):
        if r == n:
            return one
        key = colmask
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = IntPoly()
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not colmask & bit:
                continue
            entry = rows[r][j]
            if not entry.is_zero():
                sub = expand(r + 1, colmask & ~bit)
                term = entry * sub
                total = total + term if sign > 0 else total - term
            sign = -sign
        memo[key] = total
        return total

    return expand(0, (1 << n) - 1)


def char_poly_oracle(matrix):
    """det(tI - M) by cofactor expansion over polynomial entries."""
    t = IntPoly((0, 1))
    dense = matrix.to_rows()
    rows = [
        [(t - v) if i == j else IntPoly((-v,)) for j, v in enumerate(row)]
        for i, row in enumerate(dense)
    ]
    return cofactor_det(rows)


def det_identity_minus_tm(matrix):
    """det(I - t*M) by cofactor expansion over polynomial entries."""
    t = IntPoly((0, 1))
    dense = matrix.to_rows()
    rows = [
        [IntPoly((1,)) - t * v if i == j else IntPoly((0, -v)) for j, v in enumerate(row)]
        for i, row in enumerate(dense)
    ]
    return cofactor_det(rows)


def bordered_det_oracle(prefix, appended, reciprocal):
    """The recessive polynomial's bordered determinant on one extension.

    Rows of tI - B, or of I - tB when ``reciprocal``, for the transition
    matrix B of ``prefix + (appended,)``, with row n_i + 1 replaced by the
    last row and cut to the upper-left (n_i + 1)-square corner.  The
    determinant is the library's ``poly_matrix_det``, which the tests check
    against cofactor expansion.
    """
    mat = transition_matrix(tuple(prefix) + (appended,))
    cut = block_boundaries(prefix)[-1] + 1
    t = IntPoly((0, 1))
    rows = []
    for i in range(1, cut + 1):
        src = mat.size if i == cut else i
        row = []
        for j in range(1, cut + 1):
            a = mat.entry(src, j)
            if reciprocal:
                row.append(IntPoly((1,)) - t * a if src == j else IntPoly((0, -a)))
            else:
                row.append(t - a if src == j else IntPoly((-a,)))
        rows.append(row)
    return poly_matrix_det(rows)


def subinvariance_bound(matrix, y):
    """min_i (My)_i / y_i for a positive vector y, on the dense rows.

    My >= s*y for this s, so the Perron-Frobenius eigenvalue of a primitive
    M is at least s (Collatz-Wielandt), with equality iff y is an
    eigenvector.
    """
    return min(
        sum(a * b for a, b in zip(row, y)) / yi for row, yi in zip(matrix.to_rows(), y)
    )


def wielandt_positive(matrix):
    """Whether M^((N-1)^2 + 1) is entrywise positive, by boolean powers."""
    n = matrix.size
    adj = np.array(matrix.to_rows(), dtype=np.int64) > 0
    return _positive_power(adj, (n - 1) * (n - 1) + 1)


def strongly_connected(matrix):
    """Whether (I + M)^(N-1) is entrywise positive, by boolean powers.

    A 1x1 matrix also needs its self-loop: without it the graph has no
    closed walk of positive length.
    """
    n = matrix.size
    if n == 1:
        return matrix.entry(1, 1) > 0
    adj = np.array(matrix.to_rows(), dtype=np.int64) > 0
    return _positive_power(adj | np.eye(n, dtype=bool), n - 1)


def _positive_power(adj, power):
    """Whether the boolean matrix power adj^power is entrywise positive."""
    result = np.eye(len(adj), dtype=bool)
    base = adj
    while power:
        if power & 1:
            result = (result.astype(np.int64) @ base.astype(np.int64)) > 0
        power >>= 1
        if power:
            base = (base.astype(np.int64) @ base.astype(np.int64)) > 0
    return bool(result.all())


def random_nn_matrix(rng, max_size=8, max_entry=3):
    n = rng.randint(1, max_size)
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < 0.45:
                entries[(i, j)] = rng.randint(1, max_entry)
    return NNMatrix(n, entries)


def random_primitive_matrix(rng, max_size=8, max_entry=3):
    while True:
        m = random_nn_matrix(rng, max_size, max_entry)
        if m.is_primitive():
            return m


def lobachevsky_by_quad(theta):
    """Minus the integral of log|2 sin u| over [0, theta], by QUADPACK.

    The range is cut at the multiples of π inside it, where the integrand
    has logarithmic singularities, and each piece is integrated on its own.
    """
    lo, hi = sorted((0.0, theta))
    cuts = [n * math.pi for n in range(math.floor(lo / math.pi) + 1, math.ceil(hi / math.pi))]
    ends = [lo, *cuts, hi]
    total = sum(
        quad(lambda u: math.log(abs(2.0 * math.sin(u))), a, b, limit=200)[0]
        for a, b in zip(ends, ends[1:])
    )
    return -total if theta > 0 else total


def lobachevsky_by_parts(theta):
    """Independent evaluation via integration by parts, for 0 <= theta < π.

    Rewrites the defining integral as -theta log(2 sin theta) plus the
    integral of u cot u, whose integrand is analytic at 0, and integrates
    the latter with an in-house adaptive Simpson rule.  The rewriting holds
    on (0, π) only, where sin is positive; theta = 0 is the empty integral,
    and any other theta raises ValueError.
    """
    if theta == 0.0:
        return 0.0
    if not 0.0 < theta < math.pi:
        raise ValueError(f"integration by parts needs 0 < theta < pi, not {theta!r}")

    def integrand(u):
        return 1.0 if u == 0.0 else u * math.cos(u) / math.sin(u)

    tail = _adaptive_simpson(integrand, 0.0, theta, 1e-13)
    return -theta * math.log(2.0 * math.sin(theta)) + tail


# integrand evaluations per adaptive Simpson integral.  The test angles need
# at most 16 145 (theta = 3.1); near the pole of u cot u at π the rule would
# otherwise subdivide to its depth cap, about 2^50 evaluations
SIMPSON_BUDGET = 250_000


def _adaptive_simpson(g, a, b, eps):
    calls = 0

    def counted(u):
        nonlocal calls
        calls += 1
        if calls > SIMPSON_BUDGET:
            raise RuntimeError(
                f"adaptive Simpson exceeded its budget of {SIMPSON_BUDGET} "
                "integrand evaluations (SIMPSON_BUDGET)"
            )
        return g(u)

    fa, fb = counted(a), counted(b)
    m = 0.5 * (a + b)
    fm = counted(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(counted, a, b, fa, fm, fb, whole, eps, 50)


def _simpson_step(g, a, b, fa, fm, fb, whole, eps, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = g(lm), g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * eps
    return _simpson_step(g, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_step(
        g, m, b, fm, frm, fb, right, half, depth - 1
    )


@dataclass(frozen=True)
class TreeMapSpec:
    """A graph self-map given by edge images, kept as transition counts only.

    ``images[j]`` lists the edges crossed by the image of edge j; a negative
    index means the edge is traversed against its orientation.  Only the
    unordered crossing counts are meaningful here, and they must reproduce
    the transition matrix entry (|i|, j) -> count.
    """

    edge_count: int
    images: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if self.edge_count < 1:
            raise ValueError("edge_count must be >= 1")
        for j, path in self.images.items():
            if not (1 <= j <= self.edge_count):
                raise ValueError(f"image given for unknown edge {j}")
            for e in path:
                if not (1 <= abs(e) <= self.edge_count):
                    raise ValueError(f"edge path of {j} crosses unknown edge {e}")

    def transition_matrix(self):
        entries = {}
        for j, path in self.images.items():
            for e in path:
                key = (abs(e), j)
                entries[key] = entries.get(key, 0) + 1
        return NNMatrix(self.edge_count, entries)

    def matches(self, matrix):
        """True when the crossing counts reproduce ``matrix`` exactly."""
        return self.transition_matrix() == matrix


# Tuples whose leading eigenvalues nearly coincide, so power iteration crawls.
# Root isolation once found no sign change above the climbed root on all
# three; the transfer recurrence now certifies each of them.
HARD_TUPLES = [
    (38, 28, 3, 23, 30, 1, 13, 20, 1, 35, 8),
    (10, 18, 19, 39, 1, 35, 1, 9, 25, 36, 7),
    (9, 5, 33, 24, 37, 20, 28, 33, 23, 34, 21, 1),
]

GOLDEN_8x8 = [
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0],
    [1, 0, 0, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 2, 0, 0],
]
