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

One solver gives every Perron-Frobenius eigenvalue (``_hub_perron``): on a
``_Hubs``, whose rest holds no cycle and is eliminated exactly, Noda's
iteration (``_noda``) runs on the hub matrix R(t) of a chain ratio t, its
iterate a float and an integer exponent per entry, with an exact
Collatz-Wielandt enclosure of the whole matrix.  A braid's ``_Hubs``
(``treebuilder._level_hubs``) solves level by level in plain Python
(``_sweep``); ``spectral_radius`` searches for any matrix's and solves it
densely in numpy (``hubsearch``, which no command imports).
"""

from __future__ import annotations

import math
from collections import ChainMap, Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, repeat

from .intpoly import IntPoly, _integer, _power, _tolerance

__all__ = ["NNMatrix", "PFCertificate", "poly_matrix_det"]

_NODA_STEPS = 500  # Noda steps before spectral_radius gives up
# the binary exponent past which ``_sweep`` moves a sum to another scale
_SPAN = 300
# the enclosure's power steps when the hub rows' first quotients lie wider
# than tol: at 1e-15, (3,10,2,5,2,7) by "both" certified after 2, not 1
_POWER_STEPS = 2
# ``_levels``' place for R(t)'s entry (i, j) by i % 2 and j - i, but column 0's
_PLACES = {(0, 0): 0, (0, 1): 2, (0, 2): 3, (1, -1): 5, (1, 1): 6}
# relative gap between a caller's float just above lambda and the first Noda
# shift: it covers that float's rounding
_SEED_MARGIN = 1e-13
# the relative width at which ``hubsearch._seed`` stops bisecting, after
# about 20 dense solves, and ``_hub_perron`` bisects a chain ratio.  On
# dominant_matrix((3,)*300) spectral_radius took 0.8 s, against 1.2 s at
# 1e-13 and 1.6 s at 1e-3
_SEED_WIDTH = 1e-6
# the most hubs of a solve, whose dense hub system takes 8 bytes per hub
# squared.  Under treebuilder's limit of 10^6 nonzeros, N + k^2 + 4k with
# N >= 2(k + 1), a braid matrix has at most 2(k + 1) = 1996 hubs
_MAX_HUBS = 2000
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
        test's depths give (``hubsearch``; past ``_MAX_HUBS``, ValueError),
        from the all-ones vector, unseeded when every vertex is a hub, else
        at a float above lambda bisected for from the row sums.  The
        enclosure min_i (Mv)_i/v_i <= lambda <= max_i (Mv)_i/v_i is exact on
        the whole matrix, rounded outward to ``lower`` and ``upper`` within
        tol, and ``eigenvalue`` is their midpoint: a bad solve costs steps,
        never a false enclosure.  The eigenvector has max entry 1.

        Raises RuntimeError when the step cap is reached before the enclosure
        is narrower than tol, or an iterate repeats exactly first, or when a
        Noda solve is not positive even from the fallback shift.
        """
        _tolerance(tol)
        depth = self._primitive_depths()
        if depth is None:
            raise ValueError(
                "spectral_radius requires a primitive matrix "
                "(the Perron-Frobenius certificate is only defined there)"
            )
        from .hubsearch import _dense_kernel, _searched_hubs, _seed

        hubs, sums = _searched_hubs(self.size, self.entries, depth), Counter()
        for (i, _), a in self.entries.items() if hubs.chains[0] else ():
            sums[i] += a
        return _hub_perron(hubs, tol, _seed(hubs, min(sums.values()), max(sums.values())) if sums else None, _dense_kernel)

    def char_poly(self):
        """Exact det(tI - M) by Berkowitz's recurrence over the leading blocks of M.

        Memoized, with the run's last two rows (``_leading_pair``).  A matrix
        that a leading principal block B of size n joined to a piece
        (``_joined``) may hold its pair already, finished from B's own run
        with no row run, when M ends at row n, at the row N where a unit
        chain closes, or at the hub row N+1 after it (below).

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

        In ``verify`` only the empty prefix's 1-square block runs the
        recurrence and forms a Krylov sequence: every other block is joined
        to its parent's by its child piece, which closes on R and lifts, and
        each tuple's pair is its block's finished by its tuple piece
        (``_joined_pair``, no matrix built), closing on R plus 2 at the hub.

        >>> NNMatrix.from_rows([[0, 1], [1, 1]]).char_poly()
        IntPoly('t^2 - t - 1')
        """
        if self._char_poly is None:
            self._char_poly = IntPoly(self._leading_pair()[-1])
        return self._char_poly

    def _joined(self, size, piece):
        # the size-square matrix of this block's entries and piece's, which win
        matrix = NNMatrix._of(size, self._chained(piece))
        matrix._pair = self._joined_pair(size, piece, matrix._closings)
        return matrix

    def _joined_pair(self, size, piece, closings):
        # char_poly's pair for the matrix that _joined builds: _finish's, else
        # the recurrence's, so a wrong piece costs time, never a wrong result
        return self._finish(size, piece, closings) or _berkowitz(size, self._chained(piece))

    def _chained(self, piece):
        # piece, then this block's maps, in one flat ChainMap: len recurses through nested ones
        return ChainMap(piece, *getattr(self.entries, "maps", [self.entries]))

    def _finish(self, size, past, closings):
        # char_poly's pair for the size-square M of this block's entries and
        # past's, taken as M's outside the corner, where char_poly closes, the
        # lift going to M's memo closings; any other shape, or an entry of
        # past inside the corner, is None before this block's memo is asked
        n = self.size
        if n >= size:
            return None if past or n > size else list(self._leading_pair())
        pair = self._leading_pair()
        left = min((i for i, j in past if j <= i), default=size)
        end = n + 1  # past each row that reads (end, end + 1) = 1 and nothing left of it
        while end < left and past.get((end, end + 1)) == 1:
            end += 1
        if end + 1 < size:  # the matrix goes on past the hub row
            return None
        s, row, hub, feed = 0, {}, {}, {}  # feed: column end + 1 above the diagonal
        for (i, j), v in past.items():
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
        a = past.get((end + 1, end + 1), 0)
        closings[key] = xh
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
        if self._pair is None:
            self._pair = _berkowitz(self.size, self.entries)
        return self._pair


def _columns(rows, width=3):
    # the tuples ``rows``, each ``width`` long, as that many columns
    return tuple(zip(*rows)) or ((),) * width


def _hub_perron(hubs, tol, above, dense=None):
    """The certified Perron-Frobenius eigenvalue of the ``_Hubs`` ``hubs``, on its hubs alone.

    Noda's iteration (``_noda``) runs on the hub matrix R(t) of a chain
    ratio t = 1/rho, rho = num / 2^96 nearest 1/``above`` at first; the
    float ``above`` (None: unseeded) is also the first shift.  A braid's
    levels solve by ``_sweep``, a search's hubs by ``dense``
    (``hubsearch._dense_kernel``), and the enclosure is exact on the whole
    matrix (``_hub_enclosure``).  R(t)'s Perron root r(t) falls with t and
    equals t only at lambda, which lies between them: while that bracket is
    wider than ``_SEED_WIDTH``, t moves to its midpoint.  Nearer, while the
    enclosure is wider than tol, t moves to r(t), then by secant steps on
    r(t) - t, and an enclosure that no longer narrows raises the step cap's
    error.
    """
    coefs, lengths = hubs.chains[2:]
    ones = ([1.0] * len(hubs.hubs), [0] * len(hubs.hubs))
    t, v, seed, points = Fraction(1 if above is None else above), ones, above, []
    lo, hi = 0, math.inf  # lambda lies between t and r(t)
    while True:
        num = round((1 << _RHO_BITS) / t)
        t = Fraction(1 << _RHO_BITS, num)
        balls = {n: _power(num, _RHO_BITS, n, _POWER_BITS) for n in {*lengths}}
        floats = {n: math.ldexp(mid, -lift) for n, (mid, _, lift) in balls.items()}
        weights = [c * floats[n] for c, n in zip(coefs, lengths)]
        kernel = dense(hubs, weights, v is ones and not seed) if dense else _sweep_kernel(hubs, weights)
        out = _noda(v, *kernel, partial(_hub_enclosure, hubs, num, balls, tol), tol, seed)
        if isinstance(out, PFCertificate):
            return out
        width, r, v = out
        lo, hi = max(lo, min(r, t)), min(hi, max(r, t))
        if len(points) > 1 and width >= min(p[0] for p in points):
            raise _uncertified(tol)
        points.append((width, t, r - t))
        if hi - lo > _SEED_WIDTH * hi:  # far from lambda, a bisection step
            t, points = (lo + hi) / 2, []
        elif len(points) == 1:  # a probe
            t = r
        else:  # a secant step
            (_, t0, f0), (_, t1, f1) = points[-2:]
            if f1 == f0:
                raise _uncertified(tol)
            t = t1 - f1 * (t1 - t0) / (f1 - f0)
        seed = None


def _noda(v, ratios, solve, certify, tol, above):
    """Noda's iteration from the positive vector v: the first ``certify(v)`` not None.

    v is a pair of lists, floats m and integer exponents e, for the entries
    m_i 2^e_i.  ``ratios(v)`` gives the Collatz-Wielandt ratios (Mv)_i/v_i,
    and ``solve(v, x)`` the next iterate, (xI - M)^-1 v times a positive
    factor, with its ratios, or None when it is not positive.  Each step
    whose ratios lie within tol asks ``certify`` first.  A float ``above``
    lambda makes x = above*(1 + 1e-13) the first shift: for x > lambda,
    xI - M is a nonsingular M-matrix and the solve is positive; else the
    step goes on with sigma, at one solve.  An iterate that repeats exactly
    asks ``certify`` once more, then raises the step cap's RuntimeError, as
    ``_NODA_STEPS`` steps do; RuntimeError too when no shift gives a
    positive solve.
    """
    q, seen = ratios(v), set()
    for step in range(_NODA_STEPS):
        lo, sigma = min(q), max(q)
        if sigma - lo <= tol:
            out = certify(v)
            if out is not None:
                return out
        key = (*v[0], *v[1])
        if key in seen:  # the run would only repeat itself
            out = certify(v)
            if out is not None:
                return out
            break
        seen.add(key)
        # Noda's shift sigma first.  Its solve fails (singular) or loses
        # positivity when sigma is far closer to lambda than v is to the
        # eigenvector: then from above sigma by the enclosure's width.
        shifts = (sigma, 2 * sigma - lo + 4 * math.ulp(sigma))
        if step == 0 and above is not None and 0 < above < math.inf:
            shifts = (above * (1 + _SEED_MARGIN), *shifts)
        for shift in shifts:
            out = solve(v, shift)
            if out is not None:
                break
        else:
            raise RuntimeError("Noda iteration produced a non-positive entry")
        v, q = out
    raise _uncertified(tol)


def _uncertified(tol):
    # the error of an enclosure that stays wider than tol
    return RuntimeError(f"spectral radius not certified to tol={tol} within {_NODA_STEPS} Noda steps")


def _sweep_kernel(hubs, weights):
    # ``_noda``'s ratios and solve on a braid's levels, in plain Python
    levels = _levels(hubs, weights)

    def solve(v, x):
        z = _sweep(levels, v, x)
        if z is None:
            return None
        # over H_0, so that an iterate that repeats repeats exactly
        f, q = math.frexp(z[0][0])
        z = [x / f for x in z[0]], [k - z[1][0] - q for k in z[1]]
        return z, _level_ratios(levels, z)

    return partial(_level_ratios, levels), solve


def _levels(hubs, weights):
    """R(t) on a braid's hubs, level by level, read from the fields ``entries``, ``ladder`` and ``chains``.

    Level j is the hub H_j at place 2j and the last row E_j at 2j + 1 (none
    after a dominant block's last hub), as the list [a, g, u, w, g', b, f]:
    row H_j reads a at itself, g at H_0 (j > 0), u at E_j and w at H_(j+1),
    row E_j reads g' at H_0, b at H_j (j > 0) and f at H_(j+1), and both the
    ladder's 2 at H_1, ..., H_(j-1), and ``weights`` the chain terms'; any
    other entry is a KeyError or ValueError.
    """
    h = len(hubs.hubs)
    heads, steps, counts = hubs.ladder
    if [*heads] != [*range(2, h, 2)] or [*steps] != [*range(4, h)] or [*counts] != [s // 2 - 1 for s in steps]:
        raise ValueError("the ladder is not a braid's")
    flat = [0.0] * (7 * ((h + 1) // 2))
    for i, j, a in chain(zip(*hubs.entries), zip(*hubs.chains[:2], weights)):
        flat[7 * (i >> 1) + (3 * (i & 1) + 1 if j == 0 < i else _PLACES[i & 1, j - i])] += a
    return [flat[k : k + 7] for k in range(0, len(flat), 7)]


def _sweep(levels, v, x):
    """``_noda``'s solve on a braid's levels: z with (xI - R)z = v, in O(h).

    v and z are pairs of lists, floats and integer exponents, the exponents
    equal within each level.  Write h_j and e_j for z at H_j and E_j, and
    S_j = h_1 + ... + h_j.  Only row H_j reads E_j, and the rows of levels
    past j read levels j and before only through h_0 and S_j, so h_(j+1) =
    alpha + beta h_0 + gamma S_j.  From the last level, row E_j gives e_j in
    h_0, S_(j-1) and h_j, and row H_j then h_j's alpha, beta and gamma over
    its pivot; level 0 gives h_0, and forward from it each h_j, e_j and S_j
    follow.  That is elimination without pivoting of the M-matrix xI - R
    (Alfa, Xue and Ye, Math. Comp. 71, 2002), the ladder's semiseparable
    part carried as S (Eidelman and Gohberg, Integral Equations Operator
    Theory 34, 1999): all but the pivots are sums of non-negative terms, and
    the pivots, of the trailing principal minors, are all positive exactly
    when x lies above the Perron root; else None.  alpha carries v's scale
    and the forward sums a running one, each moved when it passes 2^+-_SPAN.
    """
    (m, e), h = _padded(v), len(v[0])
    big, small = 2.0**_SPAN, 2.0**-_SPAN
    alpha = beta = gamma = 0.0
    s, back = e[-1], []
    for (a, g, u, w, g2, b, f), vh, ve, k in zip(levels[:0:-1], m[-2:1:-2], m[:2:-2], e[-2:1:-2]):
        if k != s:  # v to alpha's scale, or alpha to v's when v passes it by far
            if k - s > _SPAN:
                alpha, s = math.ldexp(alpha, s - k), k
            vh, ve = math.ldexp(vh, k - s), math.ldexp(ve, k - s)
        e0, ez, es, eh = (ve + f * alpha) / x, (g2 + f * beta) / x, (2 + f * gamma) / x, (b + f * gamma) / x
        p = x - a - u * eh - w * gamma
        if not p > 0:
            return None
        alpha, beta, gamma = (vh + u * e0 + w * alpha) / p, (g + u * ez + w * beta) / p, (2 + u * es + w * gamma) / p
        back.append((alpha, s, beta, gamma, e0, ez, es, eh))
        if not small < alpha < big:
            alpha, q = math.frexp(alpha)
            s += q
    (a, _, u, w, g2, _, f), vh, ve = levels[0], m[0], m[1]
    if e[0] != s:
        if e[0] - s > _SPAN:
            alpha, s = math.ldexp(alpha, s - e[0]), e[0]
        vh, ve = math.ldexp(vh, e[0] - s), math.ldexp(ve, e[0] - s)
    e0, ez = (ve + f * alpha) / x, (g2 + f * beta) / x
    p = x - a - u * ez - w * beta  # level 0: h_0 is z_0
    if not p > 0:
        return None
    z = (vh + u * e0 + w * alpha) / p
    out, exps, total = [z, e0 + ez * z], [s], 0.0
    for alpha, k, beta, gamma, e0, ez, es, eh in reversed(back):
        if k - s > _SPAN or total > big:  # the running sums to the larger scale
            q = max(k, s + math.frexp(total)[1])
            z, total, s = math.ldexp(z, s - q), math.ldexp(total, s - q), q
        if k != s:
            alpha, e0 = math.ldexp(alpha, k - s), math.ldexp(e0, k - s)
        hj = alpha + beta * z + gamma * total
        out += (hj, e0 + ez * z + es * total + eh * hj)
        exps.append(s)
        total += hj
    return out[:h], [q for q in exps for _ in (0, 1)][:h]


def _padded(v):
    # v on a braid's levels: after a dominant block's last hub, a phantom
    # row E that no row reads, dropped from each result
    m, e = v
    return (m, e) if len(m) % 2 == 0 else (m + [1.0], e + e[-1:])


def _level_ratios(levels, v):
    # the Collatz-Wielandt ratios (Rv)_i / v_i on a braid's levels, v's
    # exponents one per level; H_0 and the sum of H_1 .. H_(j-1) follow in
    # each level's scale
    (m, e), h = _padded(v), len(v[0])
    hs, ks = m[0::2], e[0::2]
    out, first, total, last = [], hs[0], 0.0, ks[0]
    for (a, g, u, w, g2, b, f), vh, ve, k, nh, nk, add in zip(
        levels, hs, m[1::2], ks, [*hs[1:], 0.0], [*ks[1:], ks[-1]], [0.0, *hs[1:]]
    ):
        if k != last:
            scale = math.ldexp(1.0, last - k)
            first, total, last = first * scale, total * scale, k
        if nk != k:
            nh = math.ldexp(nh, nk - k)
        out += ((a * vh + g * first + 2 * total + u * ve + w * nh) / vh, (g2 * first + b * vh + 2 * total + f * nh) / ve)
        total += add
    return out[:h]


def _hub_enclosure(hubs, num, balls, tol, v):
    """``_hub_perron``'s exact Collatz-Wielandt enclosure, from the hub vector v.

    The vector of the whole matrix is v on the hubs and, at each vertex k
    of the rest, pi_k rho^(d_k + 1) times the sum of k's root over its
    entries from hubs, rho = num / 2^96: every row of the rest has the
    quotient 1/rho exactly.  Only the hub rows are evaluated, on v shifted
    to integers and rho^n as the outward ball ``balls[n]`` of ``_power``;
    while they lie wider than tol, up to ``_POWER_STEPS`` times more on the
    integers R(t)v (the balls' midpoints), a power step, which never widens
    the enclosure and damps the rounding of v.  Returns a PFCertificate
    within tol, its vector the one certified; None when the hub rows alone
    lie wider than tol; else the width, the hub rows' mid quotient and v.
    """
    ints = _dyadic_ints(*v)
    # each row's quotient; one that reads chains over the finest ball's 2^top
    top, chained = max((lift for _, _, lift in balls.values()), default=0), {*hubs.chains[0]}
    heads, steps, counts = hubs.ladder
    for _ in range(1 + _POWER_STEPS):
        sums = [0] * len(ints)
        for i, j, a in zip(*hubs.entries):
            sums[i] += a * ints[j]
        below = [0, *accumulate(ints[j] for j in heads)]
        for i, count in zip(steps, counts):
            sums[i] += 2 * below[count]
        lows, dens = sums[:], ints[:]
        for i in chained:
            lows[i], dens[i] = sums[i] << top, ints[i] << top
        highs = lows[:]
        for i, j, c, n in zip(*hubs.chains):
            mid, rad, lift = balls[n]
            x = c * ints[j] << top - lift
            lows[i] += x * (mid - rad)
            highs[i] += x * (mid + rad)
        # int / int rounds correctly: the exact extremes are among the rows
        # whose floats are extreme
        lowf = [a / b for a, b in zip(lows, dens)]
        highf = [a / b for a, b in zip(highs, dens)] if chained else lowf
        (a, b), (c, d) = _extreme(lows, dens, lowf, min), _extreme(highs, dens, highf, max)
        lower, upper = bounds = _round_down(a, b), -_round_down(-c, d)
        if not _wider(lower, upper, tol):
            break
        ints = [(lo + hi << (0 if i in chained else top)) >> 1 for i, (lo, hi) in enumerate(zip(lows, highs))]
    else:
        return None
    if hubs.rest[0]:  # a row of the rest: its quotient 2^96 / num
        lower, upper = min(lower, _round_down(1 << _RHO_BITS, num)), max(upper, -_round_down(-1 << _RHO_BITS, num))
    if _wider(lower, upper, tol):
        return Fraction(upper) - Fraction(lower), (Fraction(bounds[0]) + Fraction(bounds[1])) / 2, v
    lam = 0.5 * (lower + upper)
    return PFCertificate(lam, lower, upper, *_hub_vector(hubs, ints, lowf, num / (1 << _RHO_BITS), lam))


def _hub_vector(hubs, ints, quotients, rho, lam):
    # ``_hub_enclosure``'s float vector of the hub integers, max entry 1 (one
    # below 2^-970 keeps fewer bits, below 2^-1023 reads 0.0), and its residual
    # max |Mv - lam v| from each row's exact quotient, 1/rho on the rest
    shift = max(max(ints).bit_length() - 1023, 0)  # so that the greatest is a double
    top = float(max(ints) >> shift)
    hub = [float(x >> shift) / top for x in ints]
    sums = [0.0] * len(hubs.rest[0])
    for run, j, a in zip(*hubs.roots):
        sums[run] += a * hub[j]
    # every vertex in order: a hub, or a run of the rest up to the next
    # start or hub, pi rho^(d + 1) times its root's sum, d falling by 1;
    # rho^n is greatest at an end of a run
    starts, _, _, tops = hubs.rest
    marks = sorted([*hubs.hubs, *starts])
    ends = dict(zip(marks, [*marks[1:], hubs.size]))
    powers = list(map(rho.__pow__, range(max(tops, default=0) + 2)))
    runs = [(c * sums[r], powers[d + 1 : d + 1 + k - ends[k] : -1]) for k, r, c, d in zip(*hubs.rest)]
    rest = max([b * max(run[0], run[-1]) for b, run in runs], default=0.0)
    parts = dict(zip(hubs.hubs, zip(hub, repeat((1.0,)))))
    parts.update(zip(starts, runs))
    full = [b * p for b, run in map(parts.__getitem__, marks) for p in run]
    residual = max(max([abs(q - lam) * x for q, x in zip(quotients, hub)]), abs(1 / rho - lam) * rest)
    if rest > 1.0:  # a vertex of the rest passes the hubs
        return tuple([x / rest for x in full]), residual / rest
    return tuple(full), residual


def _dyadic_ints(m, e):
    # the entries m_i 2^e_i times one power of 2 that makes them all
    # integers: each denominator of a float is a power of 2
    pairs = [x.as_integer_ratio() for x in m]
    shifts = [d.bit_length() - 1 - s for (_, d), s in zip(pairs, e)]
    top = max(shifts)
    return [p << top - s for (p, _), s in zip(pairs, shifts)]


def _extreme(nums, dens, floats, pick):
    # the least (pick min) or greatest (pick max) of the positive fractions
    # nums_i / dens_i, exactly, as (num, den), among those whose floats are
    best, x = None, pick(floats)
    for a, b, f in zip(nums, dens, floats):
        if f == x and (best is None or (a * best[1] < best[0] * b) == (pick is min)):
            best = (a, b)
    return best


def _wider(lower, upper, tol):
    # whether upper - lower > tol exactly: within a factor 2 the float
    # difference of two positive floats is exact (Sterbenz)
    if 0 < upper <= 2 * lower:
        return upper - lower > tol
    return Fraction(upper) - Fraction(lower) > Fraction(tol)


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


def _round_down(num, den):
    """Largest float <= the rational num / den, den > 0."""
    x = num / den  # correctly rounded
    p, q = x.as_integer_ratio()
    return x if p * den <= num * q else math.nextafter(x, -math.inf)


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
