"""Sparse non-negative integer matrices with a Perron-Frobenius toolkit.

The directed graph of a matrix T has an edge from vertex j to vertex i
exactly when the entry (i, j) is nonzero.  One breadth-first search from
vertex 0, along the edges and against them, decides primitivity: every
vertex gets a depth both ways, and the gcd over all edges u -> v of
depth(u) + 1 - depth(v), which is the period, is 1.  The search serves
only ``is_primitive`` and ``NNMatrix.spectral_radius`` on arbitrary
matrices: a braid matrix is primitive by ``treebuilder``'s lemma.
Characteristic polynomials are exact: Berkowitz's division-free recurrence
grows det(tI - A_r) over the leading blocks A_r, in integers or over any
commutative ring, so it also gives ``poly_matrix_det``.

One solver gives every Perron-Frobenius eigenvalue (``_hub_perron``): on
a ``_Hubs``, whose rest holds no cycle and is eliminated exactly, Noda's
iteration (``_noda``) runs on the hub matrix R(t) of a chain ratio t, with
an exact Collatz-Wielandt enclosure of the whole matrix.
``treebuilder._level_hubs`` builds a braid matrix's ``_Hubs`` from its
block boundaries, and ``_searched_hubs`` any matrix's from the depths of
``spectral_radius``'s search.  Only the solve uses numpy, imported on its
first call, so the commands without a matrix route (``polynomial``,
``matrix``, ``verify`` and ``dilatation --method formula``) never load it.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain

from .intpoly import IntPoly, _integer, _power, _tolerance

__all__ = ["NNMatrix", "PFCertificate", "poly_matrix_det"]

_NODA_STEPS = 500  # Noda steps before spectral_radius gives up
_SMALLEST_NORMAL = 2.0**-1022
# relative gap between a caller's float just above lambda and the first Noda
# shift: it covers that float's rounding
_SEED_MARGIN = 1e-13
# the relative width at which ``_seed`` stops bisecting, after about 20 dense
# solves; the chain ratio's moves close the rest.  On dominant_matrix((3,)*300)
# spectral_radius took 0.8 s, against 1.2 s at 1e-13 and 1.6 s at 1e-3
_SEED_WIDTH = 1e-6
# the most hubs of a solve, whose dense hub system takes 8 bytes per hub
# squared.  Under treebuilder's limit of 10^6 nonzeros, N + k^2 + 4k with
# N >= 2(k + 1), a braid matrix has at most 2(k + 1) = 1996 hubs
_MAX_HUBS = 2000
# the greatest product of link entries down to a vertex of the rest: every
# integer up to 2^53 is a double
_EXACT_COEF = 1 << 53
# the chain ratio rho = num / 2^_RHO_BITS, and the bits of the balls of its
# powers: both far finer than a double
_RHO_BITS = 96
_POWER_BITS = 128

# A primitive matrix on its hubs, which meet every cycle; every other vertex,
# the rest, reads hubs alone (a root) or one vertex of the rest (a link).
# Every field but ``size`` is columns of ints.  ``hubs``: the hubs' 0-based
# vertices, ascending.  ``entries`` (rows, cols, ints): the entries among
# hubs, by hub place.  ``ladder`` (heads, steps, counts): row ``step`` reads 2
# at the first ``count`` heads.  ``chains`` (readers, reads, coefs, lengths):
# R(t) gains coef t^-n at (reader, read).  For the float vector, ``rest``
# (starts, roots, coefs, tops): runs of consecutive vertices up to the next
# start or hub, each with one root (by the run it ends) and pi, d falling by
# 1 from ``top``; ``roots`` (runs, reads, ints): each root's entries.
_Hubs = namedtuple("_Hubs", "size hubs entries ladder chains roots rest")


class PFCertificate(namedtuple(
    "PFCertificate", "eigenvalue lower upper right_eigenvector residual"
)):
    """Outcome of a spectral-radius computation on a primitive matrix.

    ``lower <= lambda <= upper`` holds exactly for the Perron-Frobenius
    eigenvalue lambda, with ``upper - lower <= tol``; ``eigenvalue`` is the
    midpoint.  ``right_eigenvector`` is a tuple of floats, and ``residual``
    is max_i |(Mv)_i - eigenvalue*v_i| in floating point for that
    eigenvector v, a rounding of the one certified (``_hub_enclosure``).
    """

    __slots__ = ()


class NNMatrix:
    """Square matrix with non-negative integer entries, stored sparsely.

    ``entries`` maps 1-based ``(row, col)`` pairs to strictly positive
    integers; absent pairs are zero.  Instances are immutable values.
    """

    __slots__ = ("size", "entries", "_char_poly", "_pair", "_closings")

    def __init__(self, size, entries):
        size = _integer(size, "matrix size")
        if size < 1:
            raise ValueError("matrix size must be >= 1")
        clean = {}
        for (i, j), v in dict(entries).items():
            if not type(i) is type(j) is type(v) is int:
                i, j = _integer(i, "matrix index"), _integer(j, "matrix index")
                v = _integer(v, "matrix entry")
            if not (1 <= i <= size and 1 <= j <= size):
                raise ValueError(f"entry ({i},{j}) outside 1..{size}")
            if v < 0:
                raise ValueError(f"entry ({i},{j}) is negative")
            if v:
                clean[(i, j)] = v
        self.size = size
        self.entries = clean
        self._char_poly = self._pair = None
        self._closings = {}  # char_poly's h of a unit chain after this block, by R

    @classmethod
    def _of(cls, size, entries):
        """A matrix on ``entries`` as they are, neither checked nor copied.

        For callers whose entries are positive ints at 1-based indices
        within ``size`` by construction; ``NNMatrix(size, entries)`` checks.
        """
        matrix = cls.__new__(cls)
        matrix.size, matrix.entries = size, entries
        matrix._char_poly = matrix._pair = None
        matrix._closings = {}
        return matrix

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix rows must form a square array")
        entries = {
            (i + 1, j + 1): v for i, r in enumerate(rows) for j, v in enumerate(r) if v
        }
        return cls(n, entries)

    def text(self):
        lines = [str(self.size)]
        for (i, j), v in sorted(self.entries.items()):
            lines.append(f"{i} {j} {v}")
        return "\n".join(lines) + "\n"

    def to_rows(self):
        rows = [[0] * self.size for _ in range(self.size)]
        for (i, j), v in self.entries.items():
            rows[i - 1][j - 1] = v
        return rows

    def pretty(self):
        rows = self.to_rows()
        width = max(len(str(v)) for r in rows for v in r)
        return "\n".join(" ".join(str(v).rjust(width) for v in r) for r in rows)

    def __eq__(self, other):
        if not isinstance(other, NNMatrix):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __hash__(self):
        return hash((self.size, frozenset(self.entries.items())))

    def __repr__(self):
        return f"NNMatrix(size={self.size}, nonzeros={len(self.entries)})"

    # -- digraph machinery -------------------------------------------------

    def is_primitive(self):
        """True iff irreducible with cycle-length gcd (the period) 1."""
        return self._primitive_depths() is not None

    def _primitive_depths(self):
        """Breadth-first depths from vertex 0 if the matrix is primitive, else None."""
        succ = [[] for _ in range(self.size)]
        pred = [[] for _ in range(self.size)]
        for i, j in self.entries:
            succ[j - 1].append(i - 1)
            pred[i - 1].append(j - 1)
        depth = _bfs_depths(succ)
        if min(depth) < 0 or min(_bfs_depths(pred)) < 0:
            return None
        g = 0
        for i, j in self.entries:
            g = math.gcd(g, depth[j - 1] + 1 - depth[i - 1])
            if g == 1:  # a gcd of 1 cannot grow again
                return depth
        return None

    # -- numerics ----------------------------------------------------------

    def spectral_radius(self, tol=1e-10):
        """Certified Perron-Frobenius eigenvalue and eigenvector of a primitive matrix.

        Noda's inverse iteration (Numer. Math. 17, 1971): each step shifts by
        the Collatz-Wielandt upper bound sigma = max_i (Mv)_i/v_i and solves
        with sigma*I - D^-1 M D, D = diag(v), which keeps every iterate
        positive and converges quadratically once sigma is near lambda.  The
        rescaling keeps tiny eigenvector entries relatively accurate.

        The solve (``_hub_perron``) runs on the hubs that the primitivity
        test's depths give (``_searched_hubs``; past ``_MAX_HUBS`` of them,
        ValueError before any step), from the all-ones vector: unseeded when
        every vertex is a hub, else from a float above lambda that ``_seed``
        bisects for from the least and greatest row sums.  The enclosure
        min_i (Mv)_i/v_i <= lambda <= max_i (Mv)_i/v_i is exact on the whole
        matrix, rounded outward to ``lower`` and ``upper`` within tol, and
        ``eigenvalue`` is their midpoint: a bad solve costs steps, never a
        false enclosure.  The eigenvector has max entry 1.

        Raises RuntimeError when the step cap is reached before the enclosure
        is narrower than tol, when an iterate entry underflows, or when a
        Noda solve is not positive even from the fallback shift.
        """
        _tolerance(tol)
        depth = self._primitive_depths()
        if depth is None:
            raise ValueError(
                "spectral_radius requires a primitive matrix "
                "(the Perron-Frobenius certificate is only defined there)"
            )
        hubs, sums = _searched_hubs(self.size, self.entries, depth), Counter()
        for (i, _), a in self.entries.items() if hubs.chains[0] else ():
            sums[i] += a
        return _hub_perron(hubs, tol, _seed(hubs, min(sums.values()), max(sums.values())) if sums else None)

    def char_poly(self, *, _block=None):
        """Exact det(tI - M) by Berkowitz's recurrence over the leading blocks of M.

        Memoized, with the run's last two rows (``_leading_pair``).  A
        leading principal block B passed as ``_block`` (in ``verify``, a
        prefix's dominant matrix) finishes the pair from B's own run, with no
        row run, when B's entries equal M's n-square corner, n = B.size, and
        M ends at row n, at the row N where a unit chain closes, or at the
        hub row N+1 after it (below); otherwise the recurrence runs in full,
        so a wrong ``_block`` costs time, never a wrong result.

        The unit chain.  Let N > n be the first row whose entries in columns
        1..N+1 are not exactly (N, N+1) = 1.  The chain closes at N when row
        N reads, inside the leading N-square, only columns 1..n (the row R),
        and B's rows reach columns n+1..N only through one entry s at
        (n, n+1), else s = 0.  With L = N - n and q = det(tI - B), then

            det(tI - M_{N-1}) = t^(L-1) q,   Q = det(tI - M_N) = t^L q - s h,
            h = sum_j (R B^j e_n) [q / t^(j+1)],  [.] dropping negative powers.

        Proof: rows n+1..N-1 hold nothing on or left of the diagonal inside
        the N-square, so M_{N-1} is block upper triangular with B and a
        nilpotent block.  At row N, Berkowitz's step (``_berkowitz``) has
        a = 0, S = column N above row N, and A = M_{N-1}, whose column r
        is e_{r-1} for n+1 < r < N and s e_n for r = n+1; columns 1..n of A
        are B's.  So A^k S walks up the chain to A^(L-1) S = s e_n, R meets
        no chain vertex, and A^(L-1+j) S = s B^j e_n, with
        [t^(L-1) q / t^(L+j)] = [q / t^(j+1)].  h depends on neither L nor
        s: it is R adj(tI - B) e_n = q R (tI - B)^-1 e_n, the sum over j of
        (R B^j e_n) q / t^(j+1), whose negative powers cancel.  B memoizes h
        by R.  The (n, n) cofactor of tI - B is p = det(tI - B_{n-1}), so
        h of R plus c in column n is h of R plus c p; only a row without an
        entry in column n forms the Krylov sequence R B^j e_n, j < n.

        The hub row.  Let row N+1 read exactly R left of its diagonal a, and
        let column N+1 above the diagonal hold entries only in B's row n
        (sigma, else 0) and in rows p = n+1..N (S_p).  Then

            det(tI - M_{N+1}) = (t - a) Q - X h,
            X = sigma t^L + s sum_p S_p t^(N-p).

        Proof: with that row R' and column S', Berkowitz's step is
        (t - a) Q - R' adj(tI - M_N) S', and adj(tI - M_N) = Q (tI - M_N)^-1.
        Solve (tI - M_N)(u, w) = S', u on B's columns and w on the chain:
        (tI - B) u = (sigma + s w_{n+1}) e_n, t w_p = w_{p+1} + S_p for
        n < p < N, and t w_N = R u + S_N.  So R u = (sigma + s w_{n+1}) h / q
        and w_{n+1} = T + t^-L R u, T = sum_p S_p t^(n-p).  Eliminating
        w_{n+1}, (1 - s h / (t^L q)) R u = (sigma + s T) h / q, where
        1 - s h / (t^L q) = Q / (t^L q); hence Q R' (tI - M_N)^-1 S' =
        Q R u = t^L (sigma + s T) h = X h, the claim.

        The lift.  When the hub row is M's last, M is a block C in turn, and
        C's h for R is X h.  Proof: solve (tI - C)(u, w, z) = e_{N+1}.  Its
        first N rows give (u, w) = z (tI - M_N)^-1 S', so R u = z X h / Q
        as above, and row N+1 gives (t - a) z - R u = 1, so
        z = Q / det(tI - C) and det(tI - C) R u = X h.  C's memo takes X h
        under R, and C's p is Q.

        In ``verify`` a prefix's tuples close on row R after the prefix's
        block, and so does each child's block, whose hub row follows and
        whose tuples close on R plus 2 in the hub's column: only a block
        without a parent forms a Krylov sequence or runs the recurrence.

        >>> NNMatrix.from_rows([[0, 1], [1, 1]]).char_poly()
        IntPoly('t^2 - t - 1')
        """
        if self._char_poly is None:
            self._pair = _block and _block._seed(self) or _berkowitz(self.size, self.entries)
            self._char_poly = IntPoly(self._pair[-1])
        return self._char_poly

    def _seed(self, matrix):
        """``char_poly``'s finished pair for ``matrix``, given this leading block, or None.

        The pair is finished only when this block is the matrix's corner and
        the matrix ends where ``char_poly``'s pair closes: at this block, at
        the row N where a unit chain closes, or at the hub row N+1 after it,
        whose matrix takes the lift.  Any other shape is None before this
        block's memo is asked, so it forms no Krylov sequence.  One pass
        over the matrix's entries sets apart those outside the corner, which
        is this block when it holds all of this block's entries and no
        others; the chain is read from those apart.
        """
        n, size, entries = self.size, matrix.size, matrix.entries
        if n > size:
            return None
        past = [(i, j, v) for (i, j), v in entries.items() if i > n or j > n]
        if len(entries) - len(past) != len(self.entries) or not (
            self.entries.items() <= entries.items()
        ):
            return None
        pair = self._leading_pair()
        if n == size:
            return list(pair)
        left = min((i for i, j, _ in past if j <= i), default=size)
        end = n + 1  # past each row that reads (end, end + 1) = 1 and nothing left of it
        while end < left and entries.get((end, end + 1)) == 1:
            end += 1
        if end + 1 < size:  # the matrix goes on past the hub row
            return None
        s, row, hub, feed = 0, {}, {}, {}  # feed: column end + 1 above the diagonal
        for i, j, v in past:
            if j == end + 1 and i <= end:
                feed[i] = v
            elif i == end + 1 and j <= end:
                hub[j] = v
            elif i > end or j > end:
                pass
            elif i == end and j <= n:
                row[j] = v
            elif i == n and j == n + 1:
                s = v
            elif not n < i == j - 1:  # else a chain row's unit
                return None
        if end < size and (hub != row or any(i < n for i in feed)):
            return None
        key = tuple(sorted(row.items()))
        h, chain = self._closing(key), end - n
        closed = [0] * chain + pair[1]
        for j, c in enumerate(h):
            closed[j] -= s * c
        if end == size:
            return [[0] * (chain - 1) + pair[1], closed]
        xh = [0] * (end + 1)  # X h of the hub row, the lift
        for i, v in feed.items():
            weight = v if i == n else s * v
            for j, c in enumerate(h, start=end - i):
                xh[j] += weight * c
        a = entries.get((end + 1, end + 1), 0)
        matrix._closings[key] = xh
        return [closed, [c - a * d - x for c, d, x in zip([0] + closed, closed + [0], xh + [0])]]

    def _closing(self, row):
        """``char_poly``'s memoized h for the row R, as sorted (column, entry) pairs.

        R with c in column n takes the h of R without it plus c p, by the
        cofactor identity; any other R forms one Krylov sequence R B^j e_n.
        """
        if row not in self._closings:
            n, (p, q) = self.size, self._leading_pair()
            if row and row[-1][0] == n:
                c = row[-1][1]
                h = [x + c * d for x, d in zip(self._closing(row[:-1]), p)]
            else:
                cols = [[] for _ in range(n + 1)]
                for (i, j), v in self.entries.items():
                    cols[j].append((i, v))
                h = _fold(q, _krylov(cols, n + 1, [(n, 1)], row, n))
            self._closings[row] = h
        return self._closings[row]

    def _leading_pair(self):
        """The memoized ``_berkowitz`` pair of ``char_poly``, not to be changed.

        Ascending coefficients of det(tI - M_{n-1}), M_{n-1} the leading
        (n-1)-square block, then of det(tI - M).
        """
        self.char_poly()
        return self._pair


def _searched_hubs(size, entries, depth):
    """The primitive matrix of ``entries`` as a ``_Hubs``, its hubs found from ``depth``.

    ``depth`` is breadth-first along the edges j -> i of the entries
    (i, j), from vertex 0.  Along a cycle the depth fails to increase
    somewhere, so the heads of the edges that do not increase it meet every
    cycle.  They are hubs, and so is each vertex whose row holds an entry
    from a vertex that is not such a head beside another entry.  Every
    other vertex reads only from the depth before its own, so the rest
    holds no cycle.  Taken by depth, a link k that reads j with entry a has
    j's root, d_k = d_j + 1 and pi_k = a pi_j, unless pi_k would pass 2^53:
    then k is a hub, so that every pi_k is exact as a float.  Raises
    ValueError past ``_MAX_HUBS`` hubs.
    """
    import numpy as np

    ij = np.fromiter(chain.from_iterable(entries), np.intp, 2 * len(entries)) - 1
    rows, cols, ints = ij[0::2], ij[1::2], np.fromiter(entries.values(), object, len(entries))
    dep = np.array(depth)
    hub = np.zeros(size, dtype=bool)
    hub[rows[dep[cols] >= dep[rows]]] = True
    hub[rows[~hub[cols] & (np.bincount(rows, minlength=size)[rows] > 1)]] = True
    own = [[] for _ in range(size)]  # the entries of each vertex of the rest
    for i, j, a in zip(*(x[~hub[rows]].tolist() for x in (rows, cols, ints))):
        own[i].append((j, a))
    hub, found = hub.tolist(), {}  # each vertex of the rest: its root, pi and d
    for k in sorted((k for k in range(size) if not hub[k]), key=depth.__getitem__):
        j, a = own[k][0]
        if hub[j]:
            found[k] = (k, 1, 0)
        elif a * found[j][1] > _EXACT_COEF:
            hub[k] = True
        else:
            found[k] = (found[j][0], a * found[j][1], found[j][2] + 1)
    hubs = [k for k in range(size) if hub[k]]
    if len(hubs) > _MAX_HUBS:
        raise ValueError(
            f"the Perron-Frobenius solve would eliminate to {len(hubs)} hub vertices; the limit is {_MAX_HUBS}"
        )
    runs = []  # consecutive vertices of the rest with one root and pi, d falling by 1
    for k, (root, pi, d) in sorted(found.items()):
        if found.get(k - 1) == (root, pi, d + 1):
            runs[-1][1] += 1
        else:
            runs.append([k, 1, root, pi, d])
    at = {k: p for p, k in enumerate(hubs)}  # a hub's place, and a root's run
    at.update((start + count - 1, p) for p, (start, count, *_) in enumerate(runs))
    hub = np.array(hub)
    place, both = np.cumsum(hub) - 1, hub[rows] & hub[cols]  # a hub's place
    among = tuple(tuple(x.tolist()) for x in (place[rows[both]], place[cols[both]], ints[both]))
    terms = Counter()
    for i, j, a in zip(*(x[hub[rows] & ~hub[cols]].tolist() for x in (rows, cols, ints))):
        root, pi, d = found[j]
        for g, b in own[root]:
            terms[at[i], at[g], d + 1] += a * pi * b
    reads = [(at[k], at[j], b) for k in sorted(found) if found[k][0] == k for j, b in sorted(own[k])]
    return _Hubs(
        size, hubs, among, ((), (), ()),
        _columns([(i, j, c, n) for (i, j, n), c in sorted(terms.items())], 4), _columns(reads),
        _columns([(start, at[root], pi, top) for start, _, root, pi, top in runs], 4),
    )


def _columns(rows, width=3):
    # the tuples ``rows``, each ``width`` long, as that many columns
    return tuple(zip(*rows)) or ((),) * width


def _above(hubs, t):
    # whether ``_dense_solve``'s y with (tI - R(t))y = 1 is positive: exactly
    # so for t above the Perron root lambda, where tI - R(t) is a nonsingular
    # M-matrix, and not below, where R(t)'s Perron root exceeds t (Collatz-
    # Wielandt).  An error near lambda costs Noda steps, never a false enclosure
    import numpy as np

    matrix = _hub_matrix(hubs, np.array([c * t**-n for _, _, c, n in zip(*hubs.chains)]))
    try:
        return bool(np.all(_dense_solve(matrix, np.ones(len(hubs.hubs)), t) > 0))
    except np.linalg.LinAlgError:
        return False


def _seed(hubs, lo, hi):
    # a float above lambda, bisected by ``_above`` from lo <= lambda <= hi to _SEED_WIDTH
    while hi - lo > _SEED_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _above(hubs, mid) else (mid, hi)
    return hi


def _hub_perron(hubs, tol, above):
    """The certified Perron-Frobenius eigenvalue of the ``_Hubs`` ``hubs``, on its hubs alone.

    Noda's iteration (``_noda``) runs on the hub matrix R(t) of a chain
    ratio t = 1/rho, rho = num / 2^96 nearest 1/``above`` at first; the
    float ``above`` (a braid route's cell or hint, or ``_seed``'s) is also
    the first shift, and None starts unseeded: then the first run takes
    R(t)v from ``_hub_product`` until its first solve, so a start that
    certifies forms no dense R(t).  The enclosure is exact on the whole
    matrix (``_hub_enclosure``).  R(t) has the Perron root r(t) = t only at
    t = lambda: when the hub rows' quotients lie within tol but the
    enclosure does not, t moves to r(t), then by secant steps on r(t) - t,
    and an enclosure that no longer narrows raises the step cap's error.
    Far from lambda, R(t)'s Perron vector can span more than the doubles:
    when a run raises and ``_above`` puts lambda farther than
    ``_SEED_WIDTH`` from t, the solve starts again, once, from ``_seed``.
    """
    import numpy as np

    coefs, lengths = hubs.chains[2:]
    t, v, seed, points = Fraction(1 if above is None else above), np.ones(len(hubs.hubs)), above, []
    restarted = False
    while True:
        num = round((1 << _RHO_BITS) / t)
        t = Fraction(1 << _RHO_BITS, num)
        balls = {n: _power(num, _RHO_BITS, n, _POWER_BITS) for n in {*lengths}}
        floats = {n: math.ldexp(mid, -lift) for n, (mid, _, lift) in balls.items()}
        weights = np.array([c * floats[n] for c, n in zip(coefs, lengths)])
        product = None if seed or points else partial(_hub_product, hubs, weights)
        try:
            out = _noda(
                v, partial(_hub_matrix, hubs, weights), product,
                partial(_hub_enclosure, hubs, num, balls, tol), tol, seed,
            )
        except RuntimeError:
            x, ones, w = max(float(t), 1.0), np.ones(len(v)), _SEED_WIDTH  # 1 <= lambda
            if restarted or not lengths or _above(hubs, x * (1 + w)) > _above(hubs, x * (1 - w)):
                raise  # R is M on its hubs for any t, or lambda lies near t
            # 1 <= lambda < x, or lambda < r(x) <= R(x)'s greatest row sum
            weights = np.array([c * x**-n for c, n in zip(coefs, lengths)])
            lo, hi = (1.0, x) if _above(hubs, x) else (x, _hub_product(hubs, weights, ones).max())
            seed = _seed(hubs, lo, float(hi))
            t, v, points, restarted = Fraction(seed), ones, [], True
            continue
        if isinstance(out, PFCertificate):
            return out
        width, r, v = out
        if len(points) > 1 and width >= min(p[0] for p in points):
            raise _uncertified(tol)
        points.append((width, t, r - t))
        if len(points) == 1:  # a probe
            t = r
        else:  # a secant step
            (_, t0, f0), (_, t1, f1) = points[-2:]
            if f1 == f0:
                raise _uncertified(tol)
            t = t1 - f1 * (t1 - t0) / (f1 - f0)
        seed = None


def _noda(v, matrix, product, certify, tol, above):
    """Noda's iteration from the positive vector v: the first ``certify(v, w)`` not None.

    ``matrix()`` forms the dense M, for ``_dense_solve``; until the first
    solve, ``product(v)`` is Mv, and with ``product`` None M is formed at
    once.  Each step whose Collatz-Wielandt ratios w/v lie within tol
    asks ``certify`` first.  A float ``above`` lambda (a braid route's cell
    or hint, or ``_seed``'s) makes x = above*(1 + 1e-13) the first shift:
    for x > lambda, xI - M is a nonsingular M-matrix and (xI - M)y = 1 has
    a positive solution; else the step goes on with sigma, at one solve.
    RuntimeError after ``_NODA_STEPS`` steps, when an entry of v falls below
    ``_SMALLEST_NORMAL``, or when no shift gives a positive solve.
    """
    import numpy as np

    dense = matrix() if product is None else None
    w = product(v) if dense is None else dense.dot(v)
    for step in range(_NODA_STEPS):
        ratios = w / v
        lo, sigma = float(ratios.min()), float(ratios.max())
        if sigma - lo <= tol:
            out = certify(v, w)
            if out is not None:
                return out
        # Noda's shift sigma first.  Its solve fails (singular) or loses
        # positivity when sigma is far closer to lambda than v is to the
        # eigenvector: then from above sigma by the enclosure's width.
        shifts = (sigma, 2 * sigma - lo + 4 * math.ulp(sigma))
        if step == 0 and above is not None and 0 < above < math.inf:
            shifts = (above * (1 + _SEED_MARGIN), *shifts)
        dense = matrix() if dense is None else dense
        for shift in shifts:
            try:
                y = _dense_solve(dense, v, shift)
            except np.linalg.LinAlgError:  # shift equals lambda to double precision
                continue
            if np.all(y > 0):
                break
        else:
            raise RuntimeError("Noda iteration produced a non-positive entry")
        v = v * y
        v = v / v.max()
        if not v.min() >= _SMALLEST_NORMAL:
            raise RuntimeError(
                "an iterate entry fell below the smallest normal double "
                f"({_SMALLEST_NORMAL:.1e}); the float eigenvector cannot represent it"
            )
        w = dense.dot(v)
    raise _uncertified(tol)


def _uncertified(tol):
    # the error of an enclosure that stays wider than tol
    return RuntimeError(f"spectral radius not certified to tol={tol} within {_NODA_STEPS} Noda steps")


def _dense_solve(matrix, v, x):
    """``_noda``'s solve on the dense matrix M: y with (xI - D^-1 M D)y = 1, D = diag(v).

    LU with partial pivoting first, which raises numpy.linalg.LinAlgError
    on a singular system.  When its y is not positive (an iterate spanning
    many decades loses its small entries to the pivoting's subtractions),
    A = xI - D^-1 M D is eliminated again without pivoting, column by column
    from the last.  For x above the Perron root A is an M-matrix, and that
    elimination subtracts only on the diagonal: each row r < k with an entry
    in column k takes f = a_rk / a_kk <= 0 times row k, whose entries left
    of k are <= 0 as row r's are, and the right side only grows.  The lower
    triangle left is solved forward, each y_i a sum of non-negative terms
    over its pivot.  That costs O(h^2) on a braid matrix's hubs, whose rows
    read at most two columns past their own, and up to O(h^3) on a search's.
    """
    import numpy as np

    h = len(v)
    a = matrix * (-v / v[:, None])
    a.flat[:: h + 1] += x
    y = np.linalg.solve(a, np.ones(h))
    if np.all(y > 0):
        return y
    b, z = np.ones(h), np.empty(h)
    with np.errstate(all="ignore"):  # below the Perron root a pivot fails
        for k in range(h - 1, 0, -1):
            for r in a[:k, k].nonzero()[0]:
                f = a[r, k] / a[k, k]
                a[r, :k] -= f * a[k, :k]
                b[r] -= f * b[k]
        for i in range(h):
            z[i] = (b[i] - a[i, :i] @ z[:i]) / a[i, i]
    return z if np.isfinite(z).all() else y


def _hub_matrix(hubs, weights):
    """The hub matrix R(t) = M_HH + M_HC (tI - M_CC)^-1 M_CH of the ``_Hubs`` ``hubs``.

    ``weights``, floats or exact objects, holds coef t^-n for each chain
    term.  On the rest C, (tI - M)v = 0 gives t v_r = sum_h b_h v_h at a
    root r, over its entries b_h from hubs, and t v_k = a v_j at a link k
    that reads j with entry a, so v_k = pi_k t^-(d_k + 1) times the sum of
    k's root: a hub row that reads k with entry a reads a pi_k b_h
    t^-(d_k + 1) at each hub h, the chain terms.  R(lambda) has the Perron
    root lambda, and its Perron vector is the matrix's on the hubs.
    """
    import numpy as np

    h = len(hubs.hubs)
    r = np.zeros((h, h), dtype=weights.dtype)
    rows, cols, _, heads, steps, counts, readers, reads = _indices(hubs)
    r[rows, cols] = hubs.entries[2]
    r[steps[:, None], heads] += 2 * (np.arange(len(heads)) < counts[:, None])
    np.add.at(r, (readers, reads), weights)
    return r


def _indices(hubs):
    # the entries', ladder's and chain terms' columns of ints, as numpy arrays
    import numpy as np

    return [np.array(x, dtype=np.intp) for x in (*hubs.entries, *hubs.ladder, *hubs.chains[:2])]


def _hub_product(hubs, weights, v):
    # R(t)v on the columns of ``hubs``, ``weights`` as in ``_hub_matrix``
    import numpy as np

    rows, cols, ints, heads, steps, counts, readers, reads = _indices(hubs)
    w = np.bincount(rows, ints * v[cols], len(v)) + np.bincount(readers, weights * v[reads], len(v))
    w[steps] += 2 * np.append(0.0, np.cumsum(v[heads]))[counts]
    return w


def _hub_enclosure(hubs, num, balls, tol, v, w):
    """``_hub_perron``'s exact Collatz-Wielandt enclosure, from the hub vector v.

    The vector of the whole matrix is v on the hubs and, at each vertex k
    of the rest, pi_k rho^(d_k + 1) times the sum of k's root over its
    entries from hubs, rho = num / 2^96: every row of the rest has the
    quotient 1/rho exactly.  Only the hub rows are evaluated, on v scaled to
    integers and rho^n as the outward ball ``balls[n]`` of ``_power``.
    Returns a PFCertificate within tol; None when the hub rows alone lie
    wider than tol; else the width, the hub rows' mid quotient and v.
    """
    ints = _dyadic_ints(v.tolist())
    sums = [0] * len(ints)
    for i, j, a in zip(*hubs.entries):
        sums[i] += a * ints[j]
    heads, steps, counts = hubs.ladder
    below = [0, *accumulate(ints[j] for j in heads)]
    for i, count in zip(steps, counts):
        sums[i] += 2 * below[count]
    # each row's quotient; one that reads chains over the finest ball's 2^top
    top = max((lift for _, _, lift in balls.values()), default=0)
    lows, dens = sums[:], ints[:]
    for i in {*hubs.chains[0]}:
        lows[i], dens[i] = sums[i] << top, ints[i] << top
    highs = lows[:]
    for i, j, c, n in zip(*hubs.chains):
        mid, rad, lift = balls[n]
        x = c * ints[j] << top - lift
        lows[i] += x * (mid - rad)
        highs[i] += x * (mid + rad)
    lower, upper = bounds = _extremes(zip(lows, dens), zip(highs, dens))
    if Fraction(upper) - Fraction(lower) > Fraction(tol):
        return None
    if hubs.rest[0]:  # a row of the rest: its quotient 2^96 / num
        ratio = Fraction(1 << _RHO_BITS, num)
        lower, upper = min(lower, _round_down(ratio)), max(upper, -_round_down(-ratio))
    width = Fraction(upper) - Fraction(lower)
    if width > Fraction(tol):
        return width, (Fraction(bounds[0]) + Fraction(bounds[1])) / 2, v
    lam = 0.5 * (lower + upper)
    return PFCertificate(lam, lower, upper, *_hub_vector(hubs, v, w, num / (1 << _RHO_BITS), lam))


def _hub_vector(hubs, v, w, rho, lam):
    # ``_hub_enclosure``'s vector in floats, scaled to max entry 1, and its
    # float residual max |Mv - lam v|, with w = R(t)v for Mv on the hubs
    import numpy as np

    starts, roots, coefs, tops = np.array(hubs.rest, dtype=np.intp)
    owner, reads, entries = np.array(hubs.roots, dtype=np.intp)
    sums = np.bincount(owner, entries * v[reads], minlength=len(starts))
    vertices = np.flatnonzero(np.bincount(hubs.hubs, minlength=hubs.size) == 0)  # the rest's
    run = np.searchsorted(starts, vertices, "right") - 1
    mv = sums[roots[run]] * (coefs[run] * rho ** (starts[run] + tops[run] - vertices))
    full, product = np.empty(hubs.size), np.empty(hubs.size)
    full[hubs.hubs], full[vertices] = v, mv * rho
    product[hubs.hubs], product[vertices] = w, mv
    top = full.max()  # a vertex of the rest may pass the hubs
    full, product = full / top, product / top
    return tuple(full.tolist()), float(abs(product - lam * full).max())


def _dyadic_ints(vl):
    # the floats vl times one power of 2 that makes them all integers: each
    # denominator of a float is a power of 2
    pairs = [x.as_integer_ratio() for x in vl]
    top = max(d for _, d in pairs).bit_length()
    return [p << (top - d.bit_length()) for p, d in pairs]


def _extremes(lows, highs):
    # the least of the positive fractions (num, den) ``lows``, rounded down
    # to a float, and the greatest of ``highs``, rounded up
    lo = hi = None
    for num, den in lows:
        if lo is None or num * lo[1] < lo[0] * den:
            lo = (num, den)
    for num, den in highs:
        if hi is None or num * hi[1] > hi[0] * den:
            hi = (num, den)
    return _round_down(Fraction(*lo)), -_round_down(-Fraction(*hi))


def _bfs_depths(adj):
    """Breadth-first depth of every vertex from vertex 0; -1 if unreached."""
    depth = [-1] * len(adj)
    depth[0] = 0
    order = [0]
    for u in order:
        for v in adj[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                order.append(v)
    return depth


def _round_down(q):
    """Largest float <= the rational q."""
    x = q.numerator / q.denominator  # correctly rounded
    return x if Fraction(x) <= q else math.nextafter(x, -math.inf)


def _berkowitz(size, entries):
    """Ascending coefficients of det(tI - A_r) for the last two leading blocks A_r.

    ``entries`` maps 1-based ``(row, col)`` pairs to the nonzero entries of
    A over a commutative ring (ints or IntPoly); size 0 gives [[1]].  By
    Berkowitz's division-free recurrence (Inform. Process. Lett. 18, 1984),
    det(tI - A_r) = (t - a) q - sum_k (R A_{r-1}^k S) [q / t^(k+1)] for
    A_r = [[A_{r-1}, S], [R, a]] and q = det(tI - A_{r-1}), [.] dropping
    negative powers (``_fold``); the scalars R A_{r-1}^k S (``_krylov``)
    touch only nonzeros, and none are formed if R or S is 0.
    """
    left = [[] for _ in range(size + 1)]  # row r: (j, v) with j < r
    cols = [[] for _ in range(size + 1)]  # column r: (i, v) with i < r, then the block's
    for (i, j), v in entries.items():
        if j < i:
            left[i].append((j, v))
        elif i < j:
            cols[j].append((i, v))
    last = [[1]]  # ends with q
    for r in range(1, size + 1):
        a = entries.get((r, r), 0)
        q = last[-1]
        new = [c - a * d for c, d in zip([0] + q, q + [0])]
        if left[r] and cols[r]:
            for j, c in enumerate(_fold(q, _krylov(cols, r, cols[r], left[r], r - 1))):
                new[j] -= c
        last = [q, new]
        if a:
            cols[r].append((r, a))
        for j, x in left[r]:
            cols[j].append((r, x))
    return last


def _krylov(cols, size, column, row, count):
    """The scalars R A^k S for k < count, of ``_berkowitz`` and ``char_poly``'s memo.

    A's columns are the (i, entry) lists ``cols``, with indices below
    ``size``; S (``column``) and R (``row``) are (index, entry) lists.  Each
    product A^k S touches only nonzeros.
    """
    v = [0] * size
    for i, x in column:
        v[i] = x
    scalars = []
    for k in range(count):
        if k:  # v = A^k S
            w = [0] * size
            for j, y in enumerate(v):
                if y:
                    for i, x in cols[j]:
                        w[i] += x * y
            v = w
        scalars.append(sum(x * v[j] for j, x in row))
    return scalars


def _fold(q, scalars):
    """sum_k c_k [q / t^(k+1)] for the scalars c_k, ascending like q."""
    out = [0] * (len(q) - 1)
    for k, c in enumerate(scalars):
        if c:
            for j, x in enumerate(q[k + 1 :]):
                out[j] += c * x
    return out


def poly_matrix_det(rows):
    """Exact determinant of a square matrix of IntPoly entries.

    Berkowitz's recurrence over the IntPoly entries gives det(tI - A), whose
    constant term is det(-A) = (-1)^n det(A); the empty matrix gives 1.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("polynomial matrix must be square")
    entries = {(i + 1, j + 1): p for i, r in enumerate(rows) for j, p in enumerate(r) if p}
    return IntPoly(((-1) ** n,)) * _berkowitz(n, entries)[-1][0]
