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
commutative ring, so it also gives ``poly_matrix_det``.  The spectral radius
comes from Noda inverse iteration from the all-ones vector with an exact
Collatz-Wielandt enclosure (``_perron``).  The iteration, its shifts and
its step cap are written once (``_noda``): the braid routes of
``dilatation`` run it on the hub matrix that ``treebuilder`` builds from
the levels, whose chains are eliminated exactly, with a certificate of
their own.  Each Noda step of ``NNMatrix.spectral_radius`` eliminates
every vertex off a set of hubs that meets every cycle, run by run, a run
being a path on which each vertex reads only the one before it
(``_HubProgram``, found from the breadth-first depths of its search); only
the dense system on the hubs, at most ``_MAX_HUBS`` vertices, is solved by
LU.  The enclosure screens its rows: a row whose only entry is 1, from j,
has (Mv)_i = v_j, so its float quotient is v_j / v_i correctly rounded.
Rounding is monotone, so the least (greatest) exact quotient of such rows
is among those tied at their float minimum (maximum); only those and the
other rows are evaluated exactly.  Only the spectral radius uses numpy,
imported on its first call,
so the commands without a matrix route (``polynomial``, ``matrix``,
``verify`` and ``dilatation --method formula``) never load it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain

from .intpoly import IntPoly, _integer, _tolerance

__all__ = ["NNMatrix", "PFCertificate", "poly_matrix_det"]

_NODA_STEPS = 500  # Noda steps before spectral_radius gives up
_SMALLEST_NORMAL = 2.0**-1022
# relative gap between a caller's float just above lambda and the first Noda
# shift: it covers that float's rounding
_SEED_MARGIN = 1e-13
# the most hubs of a spectral_radius elimination, whose dense hub system
# takes 8 bytes per hub squared.  A tuple of k + 1 parameters gives 2(k + 1)
# hubs in its transition matrix and 2k + 1 in its dominant block; under
# treebuilder's limit of 10^6 nonzeros, N + k^2 + 4k with N >= 2(k + 1),
# k + 1 is at most 998
_MAX_HUBS = 2000


class PFCertificate(namedtuple(
    "PFCertificate", "eigenvalue lower upper right_eigenvector residual"
)):
    """Outcome of a spectral-radius computation on a primitive matrix.

    ``lower <= lambda <= upper`` holds exactly for the Perron-Frobenius
    eigenvalue lambda, with ``upper - lower <= tol``; ``eigenvalue`` is the
    midpoint.  ``right_eigenvector`` is a tuple of floats, and ``residual``
    is max_i |(Mv)_i - eigenvalue*v_i| in floating point for that
    eigenvector v.  The braid routes certify a vector that is geometric
    down each chain; on the chains their float vector is a rounding of it.
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

        Each solve eliminates, without subtraction, every vertex off the hubs
        that the breadth-first depths of the primitivity test give, along
        the runs of the rest, and solves only the dense hub system by LU
        (``_HubProgram.from_depths``).  A matrix with more than
        ``_MAX_HUBS`` hubs raises ValueError before any step.

        The iteration starts from the all-ones vector.  The enclosure
        min_i (Mv)_i/v_i <= lambda <= max_i (Mv)_i/v_i is evaluated exactly
        on the float vector and the matrix alone (on the rows of the float
        screen, module docstring), then rounded outward to ``lower`` and
        ``upper``, with ``upper - lower <= tol``; ``eigenvalue`` is their
        midpoint.  A bad solve thus costs steps, never a false enclosure.
        The eigenvector has max entry 1.

        Raises RuntimeError when the step cap is reached before the enclosure
        is narrower than tol, when an iterate entry underflows, or when a
        Noda solve is not positive even from the fallback shift.  The solve
        is ``_perron``; ``dilatation`` runs ``_noda`` on braid matrices'
        hubs directly.
        """
        _tolerance(tol)
        depth = self._primitive_depths()
        if depth is None:
            raise ValueError(
                "spectral_radius requires a primitive matrix "
                "(the Perron-Frobenius certificate is only defined there)"
            )
        return _perron(_HubProgram.from_depths(self.size, self.entries, depth), tol, None)

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


def _perron(program, tol, above):
    # NNMatrix.spectral_radius on a _HubProgram, the primitive matrix with
    # the structure of its solves: ``_noda`` with its sparse products, its
    # solves by elimination and its screened certificate
    import numpy as np

    n, rows, cols, vals = program.size, program.rows, program.cols, program.vals
    return _noda(
        np.ones(n),
        lambda v: np.bincount(rows, vals * v[cols], minlength=n),
        lambda v, x: _hub_solve(program, vals * v[cols] / v[rows], x),
        lambda v, w: _certificate(rows, cols, vals, program.ints, v, w, tol),
        tol,
        above,
    )


def _noda(v, product, solve, certify, tol, above):
    """Noda's iteration from the positive vector v: the first ``certify(v, w)`` not None.

    ``product(v)`` is Mv, and ``solve(v, x)`` is y with (xI - D^-1 M D)y = 1,
    D = diag(v); it raises numpy.linalg.LinAlgError when that system is
    singular.  Each step whose Collatz-Wielandt ratios w/v lie within tol
    asks ``certify`` first.  A float ``above`` lambda (a braid route's cell
    or hint) makes x = above*(1 + 1e-13) the first shift: for x > lambda,
    xI - M is a nonsingular M-matrix and (xI - M)y = 1 has a positive
    solution; else the step goes on with sigma, at the cost of one solve.
    RuntimeError after ``_NODA_STEPS`` steps, when an entry of v falls below
    ``_SMALLEST_NORMAL``, or when no shift gives a positive solve.
    """
    import numpy as np

    w = product(v)
    for step in range(_NODA_STEPS):
        ratios = w / v
        lo, sigma = float(ratios.min()), float(ratios.max())
        if sigma - lo <= tol:
            out = certify(v, w)
            if out is not None:
                return out
        # Noda's shift sigma first.  The solve fails (singular hub system)
        # or loses positivity when sigma is far closer to lambda than v is
        # to the eigenvector; the step is then retried from above sigma by
        # the current enclosure width.
        shifts = (sigma, 2 * sigma - lo + 4 * math.ulp(sigma))
        if step == 0 and above is not None and 0 < above < math.inf:
            shifts = (above * (1 + _SEED_MARGIN), *shifts)
        for shift in shifts:
            try:
                y = solve(v, shift)
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
        w = product(v)
    raise _uncertified(tol)


def _uncertified(tol):
    # the error of an enclosure that stays wider than tol
    return RuntimeError(
        f"spectral radius not certified to tol={tol} within {_NODA_STEPS} Noda steps"
    )


def _dense_solve(matrix, v, x):
    """``_noda``'s solve on the dense matrix M: y with (xI - D^-1 M D)y = 1, D = diag(v).

    LU with partial pivoting first.  When its y is not positive (an
    iterate spanning many decades loses its small entries to the pivoting's
    subtractions), the system A = xI - D^-1 M D is eliminated again without
    pivoting, column by column from the last.  For x above the Perron root
    A is an M-matrix, and that elimination subtracts only on the diagonal:
    each row r < k with an entry in column k takes f = a_rk / a_kk <= 0
    times row k, whose entries left of k are <= 0 as row r's are, and the
    right side only grows.  The lower triangle left is solved forward, each
    y_i a sum of non-negative terms over its pivot.  The hub matrix's rows
    read at most two columns past their own, so this costs O(h^2).
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


def _certificate(rows, cols, vals, ints, v, w, tol):
    """PFCertificate for the positive vector v, or None if wider than tol.

    ``rows``, ``cols`` and ``vals`` are the entries' 0-based rows and
    columns and their floats, ``ints`` the same entries exactly, and
    w = Mv.  The rows the float screen keeps (module docstring) are
    compared exactly, on v scaled to integers.
    """
    import numpy as np

    n = len(v)
    ratios = w / v
    screened = (np.bincount(rows, minlength=n) == 1) & (np.bincount(rows, vals, minlength=n) == 1)
    kept = ~screened | (ratios == np.where(screened, ratios, math.inf).min())
    kept |= ratios == np.where(screened, ratios, -math.inf).max()
    picked = kept[rows]  # the kept rows' entries
    r, c, a = rows[picked].tolist(), cols[picked].tolist(), ints[picked].tolist()
    vl = v.tolist()
    ints = _dyadic_ints({*r, *c}, vl)
    mv = dict.fromkeys(r, 0)
    for i, j, x in zip(r, c, a):
        mv[i] += x * ints[j]
    quotients = [(num, ints[i]) for i, num in mv.items()]
    lower, upper = _extremes(quotients, quotients)
    if Fraction(upper) - Fraction(lower) > Fraction(tol):
        return None
    lam = 0.5 * (lower + upper)
    return PFCertificate(lam, lower, upper, tuple(vl), float(abs(w - lam * v).max()))


def _dyadic_ints(places, vl):
    # the floats vl at ``places`` times one power of 2 that makes them all
    # integers, by place: each denominator of a float is a power of 2
    pairs = {j: vl[j].as_integer_ratio() for j in places}
    top = max(d for _, d in pairs.values()).bit_length()
    return {j: p << (top - d.bit_length()) for j, (p, d) in pairs.items()}


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


class _HubProgram:
    """A primitive matrix as ``_perron`` reads it, with the structure of its solves.

    The n-square matrix M has its entries as 0-based ``rows`` and ``cols``
    and floats ``vals``, each row's in ascending column order, so that each
    row sum of Mv adds in one order, and ``ints`` holds the same entries
    exactly for ``_certificate``.  The solves are (xI - S)y = 1 for S with
    M's pattern.

    Every cycle of the graph meets a hub (the mask ``hub``).  Every other
    vertex, the rest, reads either hubs alone (a root) or exactly one entry,
    from another vertex of the rest (a link), and no cycle runs through the
    rest.  So y_r = (1 + sum_j S_rj y_j)/x is a sum of non-negative
    multiples of 1 and of hub values, c_r + mu_r * sum_h b_h y_h, with the
    b of r's root: b_h = s_e for the root's entry e from h, s_e = S_e/x.  A
    root has c_r = 1/x and mu_r = 1; a link r whose entry e comes from j
    has c_r = 1/x + s_e c_j and mu_r = s_e mu_j.

    ``rest`` orders the rest so that the links form runs: each run (a, b, p)
    is the slice a:b of ``rest``, whose first vertex reads the vertex at
    place p < a and each next vertex the one before it.  ``lead`` is each
    vertex's one entry (a root's is never read) and ``root`` the place of
    its root.  A braid matrix's rest is one run per level, down its chain;
    another matrix's may be a tree, which splits into paths.  The hub rows'
    entries scatter into the |H| x (|H| + 1) system [C | c] with
    (xI - C) y_H = 1 + c: S_e for an entry among hubs, and for an entry e
    from k in the rest, S_e c_k into c and S_e mu_k s_t into C for each
    entry t, from h, of k's root.
    """

    def __init__(self, n, rows, cols, vals, ints, hub, rest, lead, runs, root):
        import numpy as np

        self.size, self.rows, self.cols, self.vals, self.ints = n, rows, cols, vals, ints
        self.hubs = hub.nonzero()[0]
        nh = _check_hubs(len(self.hubs))
        self.rest, self.lead, self.runs, self.root = rest, lead, runs, root
        # a vertex's place among the hubs, or in the rest
        place = np.zeros(n, dtype=np.intp)
        place[self.hubs] = np.arange(nh)
        place[rest] = np.arange(len(rest))
        from_hub, at_hub = hub[cols], hub[rows]
        # the roots' entries, all from hubs, root by root in array order
        own = (from_hub & ~at_hub).nonzero()[0]
        own = own[np.argsort(place[rows[own]], kind="stable")]
        self.owned = np.array((place[rows[own]], own, place[cols[own]]))
        counts = np.bincount(self.owned[0], minlength=len(rest))
        # the hub rows' entries: among hubs, from k in the rest, and from k
        # through each entry t of k's root (the root's run of ``own``)
        width = nh + 1
        self.direct = (at_hub & from_hub).nonzero()[0]
        self.into = into = (at_hub & ~from_hub).nonzero()[0]
        self.k = k = place[cols[into]]
        reach = counts[root[k]]  # the number of entries of k's root
        e = into.repeat(reach)
        t = own[np.arange(len(e)) + (np.cumsum(counts)[root[k]] - np.cumsum(reach)).repeat(reach)]
        self.through = np.array((e, k.repeat(reach), t))
        self.cells = np.concatenate((
            place[rows[self.direct]] * width + place[cols[self.direct]],
            place[rows[into]] * width + nh,
            place[rows[e]] * width + place[cols[t]],
        ))

    @classmethod
    def from_depths(cls, n, entries, depth):
        """The program of the n-square matrix of ``entries``, by its breadth-first ``depth``.

        ``depth`` is along the edges j -> i of the entries (i, j), from
        vertex 0.  Along a cycle the depth fails to increase somewhere, so
        the heads of the edges that do not increase it meet every cycle.
        They are hubs, and so is each vertex whose row holds an entry from a
        vertex that is not such a head beside another entry.  Every other
        vertex has all its in-edges from the depth before its own and no
        self-loop, so the rest holds no cycle.  Its links form a forest
        under the roots, laid out in runs: a run follows the first of a
        vertex's links, and each other link starts a run of its own.
        """
        import numpy as np

        nnz = len(entries)
        ij = np.fromiter(chain.from_iterable(entries), np.intp, 2 * nnz)
        rows, cols = ij[0::2] - 1, ij[1::2] - 1
        vals = np.fromiter(entries.values(), float, nnz)
        ints = np.fromiter(entries.values(), object, nnz)
        dep = np.array(depth)
        hub = np.zeros(n, dtype=bool)
        hub[rows[dep[rows] <= dep[cols]]] = True
        # a row that mixes an entry from the rest with another entry
        hub[rows[~hub[cols] & (np.bincount(rows, minlength=n)[rows] > 1)]] = True
        links = (~hub[rows] & ~hub[cols]).nonzero()[0]  # each link's one entry
        lead = np.zeros(n, dtype=np.intp)
        lead[rows[links]] = links
        kids = [[] for _ in range(n)]
        for r, j in zip(rows[links].tolist(), cols[links].tolist()):
            kids[j].append(r)
        roots = ~hub
        roots[rows[links]] = False
        rest = roots.nonzero()[0].tolist()  # the roots first, then the runs
        root, runs = list(range(len(rest))), []
        todo = [(p, r) for p, j in enumerate(rest) for r in kids[j]]
        while todo:
            p, r = todo.pop()
            a = len(rest)
            while True:
                rest.append(r)
                root.append(root[p])
                todo += [(len(rest) - 1, kid) for kid in kids[r][1:]]
                if not kids[r]:
                    break
                r = kids[r][0]
            runs.append((a, len(rest), p))
        rest = np.array(rest, dtype=np.intp)
        return cls(
            n, rows, cols, vals, ints, hub, rest, lead[rest], runs, np.array(root, dtype=np.intp)
        )


def _check_hubs(count):
    # the hub count of a solve, or ValueError past ``_MAX_HUBS``
    if count > _MAX_HUBS:
        raise ValueError(
            f"the Perron-Frobenius solve would eliminate to {count} hub "
            f"vertices; the limit is {_MAX_HUBS}"
        )
    return count


def _hub_solve(program, scaled, x):
    """y with (xI - S)y = 1, for S with the entries ``scaled`` on ``program``'s pattern.

    One sweep over the runs gives the rest's forms: each run's c and mu in
    one pass down it from its predecessor's, c_r = 1/x + s_e c_j and
    mu_r = s_e mu_j as ``_HubProgram`` states them.  Every form is a sum of
    non-negative terms for x > 0; only the dense hub system
    (xI - C) y_H = 1 + c, by LU with partial pivoting, subtracts.  Raises
    numpy.linalg.LinAlgError when that system is singular.  The rest then
    follows from y_H by its forms, so y is positive wherever y_H is.
    """
    import numpy as np

    s = scaled / x
    inv = 1 / x
    lead = s[program.lead].tolist()
    c, mu = np.full(len(lead), inv), np.ones(len(lead))
    # written into the arrays through memoryviews: a Python step function
    # under itertools.accumulate, or lists turned into arrays, took longer
    cs, ms = memoryview(c), memoryview(mu)
    for a, b, p in program.runs:
        cj, mj = cs[p], ms[p]
        for r in range(a, b):
            se = lead[r]
            cs[r] = cj = inv + se * cj
            ms[r] = mj = se * mj
    nh = len(program.hubs)
    e, k, t = program.through
    weights = np.concatenate((
        scaled[program.direct], scaled[program.into] * c[program.k], scaled[e] * mu[k] * s[t]
    ))
    system = np.bincount(program.cells, -weights, minlength=nh * (nh + 1)).reshape(nh, nh + 1)
    lhs = system[:, :nh]  # -C, then xI - C
    lhs.flat[:: nh + 1] += x
    y = np.empty(program.size)
    y[program.hubs] = y_hub = np.linalg.solve(lhs, 1 - system[:, nh])
    owner, own, h = program.owned
    sums = np.bincount(owner, s[own] * y_hub[h], minlength=len(program.rest))
    y[program.rest] = c + mu * sums[program.root]
    return y


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
