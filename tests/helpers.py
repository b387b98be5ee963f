"""Independent oracles for the test suite.

Everything here is deliberately naive (cofactor expansion, plain rational
bisection, boolean matrix powers) so the library's fast paths are checked
against arithmetic that shares nothing with them.
"""

import contextlib
import importlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
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
from pabraid.hubsearch import _dense_kernel, _searched_hubs
from pabraid.nnmatrix import _hub_perron


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


@contextlib.contextmanager
def nnmatrix_calls(name, record):
    """Call ``record(*args)`` before every call of ``name`` in ``pabraid.nnmatrix``.

    Not an oracle: a spy on the module's name.
    """
    nnmatrix = importlib.import_module("pabraid.nnmatrix")
    inner = getattr(nnmatrix, name)

    def spy(*args):
        record(*args)
        return inner(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nnmatrix, name, spy)
        yield


@contextlib.contextmanager
def berkowitz_starts():
    """Record every ``_berkowitz`` run as None: each runs every row, from the first."""
    starts = []

    def record(size, entries):
        starts.append(None)

    with nnmatrix_calls("_berkowitz", record):
        yield starts


@contextlib.contextmanager
def krylov_rows():
    """Count the Krylov sequences formed, the calls of the one loop ``_krylov``.

    A ``_berkowitz`` run forms one at each row that has an entry left of
    the diagonal while its column has one above, and a block's memo one
    for each row it does not hold yet, taken less its entry in the block's
    last column, which the cofactor identity adds.
    Yields a list whose one item is the count so far.
    """
    count = [0]

    def record(*args):
        count[0] += 1

    with nnmatrix_calls("_krylov", record):
        yield count


def dominant_chain_oracle(prefix):
    """The dominant chain by ``IntPoly`` arithmetic, one polynomial per level.

    Level i is P' = t^m (t-1) P + 2s t P* from P = 1, with m = m_1 + 1 on
    the first level and m = m_i after it, s = (-1)^i, and P* the reversal
    of P at its own degree.
    """
    chain = []
    poly = IntPoly((1,))
    for i, m in enumerate(prefix, start=1):
        m += i == 1
        twist = poly.reciprocal(poly.degree).shift(1) * (2 * (-1) ** i)
        poly = poly.shift(m + 1) - poly.shift(m) + twist
        chain.append(poly)
    return chain


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


def float_hint_oracle(prefix, last=None, lo=1.0, hi=None):
    """``pabraid.dilatation._float_hint`` as it was first written.

    The same double-precision bisection of the transfer recurrence, each
    level divided by x^m and the pair normalised by max(p, |q|), with every
    float operation in the library's order; the library's version must
    return this value bit for bit, since the matrix route starts Noda's
    iteration at it.
    """
    sigma = 1 if (len(prefix) + 1) % 2 == 0 else -1
    levels = [(m + (i == 1), (-1) ** i) for i, m in enumerate(prefix, start=1)]

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


def record_decisions(monkeypatch):
    """Record the arguments of every exact decision, one per ``_decide`` call.

    Not an oracle: a spy on ``pabraid.dilatation._decide`` and on the name
    ``pabraid.volume`` imports.  A ``partial(_decide, ...)`` binds the
    function when it is built, so build any after this call.
    """
    module = importlib.import_module("pabraid.dilatation")
    decide = module._decide
    calls = []

    def recorded(prefix, last, num, shift):
        calls.append((prefix, last, num, shift))
        return decide(prefix, last, num, shift)

    monkeypatch.setattr(module, "_decide", recorded)
    monkeypatch.setattr(importlib.import_module("pabraid.volume"), "_decide", recorded)
    return calls


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
            if entry:
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
            a = mat.entries.get((src, j), 0)
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


def seeded_radius(matrix, above, tol=1e-10):
    """``matrix.spectral_radius(tol)`` with Noda's first shift and chain ratio at ``above``.

    The braid routes' one entry into the solve, ``_hub_perron``, on the
    hubs that ``NNMatrix.spectral_radius`` builds from its entries dict and
    the depths of its breadth-first search, with its dense solve.  ``above``
    None gives ``spectral_radius`` itself, which bisects for its own seed.
    """
    if above is None:
        return matrix.spectral_radius(tol)
    return _hub_perron(searched_hubs(matrix), tol, above, _dense_kernel)


def searched_hubs(matrix):
    """The ``_Hubs`` that ``NNMatrix.spectral_radius`` solves on."""
    return _searched_hubs(matrix.size, matrix.entries, matrix._primitive_depths())


def schur_hub_matrix(entries, hubs, t):
    """R(t) = M_HH + M_HC (tI - M_CC)^-1 M_CH over the 0-based vertices ``hubs``, exactly.

    ``entries`` maps 1-based (row, col) to M's entries and t is a Fraction.
    The rest C must hold no cycle, so M_CC is nilpotent and (tI - M_CC)^-1
    M_CH is the finite sum of t^-(k+1) M_CC^k M_CH, formed column by column
    on sparse dicts until the power vanishes.  A dense list of rows, in the
    order of ``hubs``.
    """
    place = {h: p for p, h in enumerate(hubs)}
    rows = {}
    for (i, j), a in entries.items():
        rows.setdefault(i - 1, {})[j - 1] = a
    cols = {}
    for i, row in rows.items():
        for j, a in row.items():
            cols.setdefault(j, {})[i] = a
    r = [[Fraction(0)] * len(hubs) for _ in hubs]
    for i, row in rows.items():
        for j, a in row.items():
            if i in place and j in place:
                r[place[i]][place[j]] += a
    for h, q in place.items():
        # x = t^-(k+1) M_CC^k M_CH e_h on C, each power read by the hub rows
        x = {i: Fraction(a) / t for i, a in cols.get(h, {}).items() if i not in place}
        for _ in range(len(entries) + 1):
            if not x:
                break
            nxt = {}
            for j, xj in x.items():
                for i, a in cols.get(j, {}).items():
                    if i in place:
                        r[place[i]][q] += a * xj
                    else:
                        nxt[i] = nxt.get(i, 0) + a * xj / t
            x = nxt
        assert not x, "the rest holds a cycle"
    return r


def corpus_parameters():
    """The tuples and prefixes whose matrices the benchmark's corpora solve.

    Drawn as bench/workloads.py draws them: 213 tuples, then 12 prefixes.
    The tuples are ``bound``'s witness, the 200 of ``tuple-sweep``, and the
    last row of each ``limit-scan`` prefix's scan.
    """
    rng = random.Random(1)
    tuples = [(79,) * 42]
    for _ in range(200):  # tuple-sweep
        tuples.append(tuple(rng.randint(1, 40) for _ in range(rng.randint(2, 12))))
    rng = random.Random(1)
    prefixes = []
    for _ in range(12):  # limit-scan: each prefix's block, and its scan's last tuple
        prefixes.append(tuple(rng.randint(1, 10) for _ in range(rng.randint(1, 6))))
    return tuples + [prefix + (40,) for prefix in prefixes], prefixes


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
        return matrix.entries.get((1, 1), 0) > 0
    adj = np.array(matrix.to_rows(), dtype=np.int64) > 0
    return _positive_power(adj | np.eye(n, dtype=bool), n - 1)


def corner(matrix, n):
    """The upper-left n-by-n corner of an NNMatrix."""
    return NNMatrix(n, {ij: v for ij, v in matrix.entries.items() if max(ij) <= n})


def split_at_corner(matrix, n):
    """M's upper-left n-square corner B and M's entries past it, one scan of M.

    ``B._joined(M.size, past)`` is M again: the whole-matrix reference for
    ``NNMatrix._joined``, which takes its piece as the entries past the
    corner unscanned.
    """
    past = {ij: v for ij, v in matrix.entries.items() if max(ij) > n}
    return corner(matrix, n), past


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


def glued_entries_oracle(values):
    """The transition matrix entries of the tuple ``values``, glued star by star.

    The rules of ``treebuilder``'s docstring in absolute indices: the first
    star's cyclic rotation, then for each star i+1 the feeds into hub
    n_i + 1, the hub row, the unit superdiagonal and the last row n_{i+1}.
    """
    ns = block_boundaries(values)
    e = {(r, r + 1): 1 for r in range(1, ns[0])}
    e[(ns[0], 1)] = 1
    for i in range(1, len(values)):
        lo, hi = ns[i - 1], ns[i]
        reads = {1: 1, **{ns[j] + 1: 2 for j in range(i - 1)}}
        e[(lo - 1, lo + 1)] = e[(lo, lo + 1)] = 1
        e.update({(lo + 1, j): v for j, v in reads.items()})
        e[(lo + 1, lo + 1)] = e[(lo + 1, lo + 2)] = 1
        e.update({(r, r + 1): 1 for r in range(lo + 2, hi)})
        e.update({(hi, j): v for j, v in reads.items()})
        e[(hi, lo + 1)] = 2
    return e


def bordered_rows_oracle(prefix, appended, last=None):
    """``bordered_det_oracle(prefix, appended, False)`` from integer rows.

    The bordered block is tI - B' without t in its last row, for the corner
    B' of the transition matrix B of ``prefix + (appended,)`` with row
    n_i + 1 replaced by the last row, copied here entry by entry, or by
    ``last`` ({column: entry}) when given.  Being
    linear in that row, its determinant is det(tI - B') - t det(tI - B'_{n_i});
    each term is a fresh, unseeded ``char_poly``.  The polynomial rows of
    ``bordered_det_oracle`` cost seconds per prefix once the block passes
    about 50 rows; these two integer runs cost milliseconds.
    """
    mat = transition_matrix(tuple(prefix) + (appended,))
    cut = block_boundaries(prefix)[-1] + 1
    rows = [
        [mat.entries.get((mat.size if i == cut else i, j), 0) for j in range(1, cut + 1)]
        for i in range(1, cut + 1)
    ]
    if last is not None:
        rows[-1] = [last.get(j, 0) for j in range(1, cut + 1)]
    whole = NNMatrix.from_rows(rows).char_poly()
    corner = NNMatrix.from_rows([row[:-1] for row in rows[:-1]]).char_poly()
    return whole - corner.shift(1)


def unit_chain_end(matrix, n):
    """The row N where a unit chain after the leading n-square closes, or None.

    The conditions of ``NNMatrix.char_poly``, read off the dense rows: N > n
    is the first row whose columns 1..N+1 are not exactly 0, ..., 0, 1; rows
    n+1..N-1 hold nothing in columns r+2..N; row N holds nothing in columns
    n+1..N; and rows 1..n hold nothing in columns n+1..N but (n, n+1).
    """
    rows, size = matrix.to_rows(), matrix.size
    if n >= size:
        return None
    end = n + 1
    while end < size and rows[end - 1][: end + 1] == [0] * end + [1]:
        end += 1
    chain = all(not any(rows[r - 1][r + 1 : end]) for r in range(n + 1, end))
    last = not any(rows[end - 1][n:end])
    block = not any(v for row in rows[: n - 1] for v in row[n:end]) and not any(
        rows[n - 1][n + 1 : end]
    )
    return end if chain and last and block else None


def hub_row_follows(matrix, n, end):
    """Whether the hub row of ``NNMatrix.char_poly`` follows a chain closing at end.

    Read off the dense rows: row end + 1 exists and equals row end in
    columns 1..end, and rows 1..n-1 hold nothing in column end + 1.
    """
    rows = matrix.to_rows()
    return (
        end < matrix.size
        and rows[end][:end] == rows[end - 1][:end]
        and not any(row[end] for row in rows[: n - 1])
    )
