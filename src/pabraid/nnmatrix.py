"""Sparse non-negative integer matrices with a Perron-Frobenius toolkit.

The directed graph of a matrix T has an edge from vertex j to vertex i
exactly when the entry (i, j) is nonzero.  One breadth-first search from
vertex 0, along the edges and against them, decides irreducibility (every
vertex gets a depth both ways) and primitivity: in addition, the gcd over
all edges u -> v of depth(u) + 1 - depth(v), which is the period, is 1.
Characteristic polynomials are computed exactly (fraction-free Bareiss
elimination at integer nodes followed by integer Newton interpolation),
the spectral radius by Noda inverse iteration from the all-ones vector
with an exact Collatz-Wielandt enclosure.  A caller's float just above the
eigenvalue, when there is one, is the first step's shift; the enclosure is
still evaluated on the matrix alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse.linalg
from scipy.sparse import coo_matrix, csc_matrix

from .intpoly import IntPoly, _integer

__all__ = ["NNMatrix", "PFCertificate", "poly_matrix_det"]

_NODA_STEPS = 500  # Noda steps before spectral_radius gives up
_SMALLEST_NORMAL = 2.0**-1022
# relative gap between a caller's float just above lambda and the first Noda
# shift: it covers that float's rounding
_SEED_MARGIN = 1e-13


@dataclass(frozen=True)
class PFCertificate:
    """Outcome of a spectral-radius computation on a primitive matrix.

    ``lower <= lambda <= upper`` holds exactly for the Perron-Frobenius
    eigenvalue lambda, with ``upper - lower <= tol``; ``eigenvalue`` is the
    midpoint.  ``residual`` is max_i |(Mv)_i - eigenvalue*v_i| in floating
    point for the returned eigenvector v.
    """

    irreducible: bool
    primitive: bool
    eigenvalue: float
    lower: float
    upper: float
    right_eigenvector: tuple[float, ...]
    residual: float


class NNMatrix:
    """Square matrix with non-negative integer entries, stored sparsely.

    ``entries`` maps 1-based ``(row, col)`` pairs to strictly positive
    integers; absent pairs are zero.  Instances are immutable values.
    """

    __slots__ = ("size", "entries")

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

    def entry(self, i, j):
        return self.entries.get((i, j), 0)

    def submatrix(self, n):
        """Upper-left n-by-n corner."""
        if not (1 <= n <= self.size):
            raise ValueError("submatrix size out of range")
        return NNMatrix(
            n, {(i, j): v for (i, j), v in self.entries.items() if i <= n and j <= n}
        )

    def __eq__(self, other):
        if not isinstance(other, NNMatrix):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __hash__(self):
        return hash((self.size, frozenset(self.entries.items())))

    def __repr__(self):
        return f"NNMatrix(size={self.size}, nonzeros={len(self.entries)})"

    # -- digraph machinery -------------------------------------------------

    def _depths(self):
        """Breadth-first depths from vertex 0; None unless strongly connected."""
        succ = [[] for _ in range(self.size)]
        pred = [[] for _ in range(self.size)]
        for i, j in self.entries:
            succ[j - 1].append(i - 1)
            pred[i - 1].append(j - 1)
        depth = _bfs_depths(succ)
        if min(depth) < 0 or min(_bfs_depths(pred)) < 0:
            return None
        return depth

    def is_irreducible(self):
        """True iff the directed graph is strongly connected.

        A 1x1 matrix is irreducible only with a self-loop (a positive-length
        closed walk is required).
        """
        if self.size == 1:
            return (1, 1) in self.entries
        return self._depths() is not None

    def is_primitive(self):
        """True iff irreducible with cycle-length gcd (the period) 1."""
        depth = self._depths()
        if depth is None:
            return False
        g = 0
        for i, j in self.entries:
            g = math.gcd(g, depth[j - 1] + 1 - depth[i - 1])
        return g == 1

    # -- numerics ----------------------------------------------------------

    def spectral_radius(self, tol=1e-10, *, _above=None):
        """Certified Perron-Frobenius eigenvalue and eigenvector of a primitive matrix.

        Noda's inverse iteration (Numer. Math. 17, 1971): each step shifts by
        the Collatz-Wielandt upper bound sigma = max_i (Mv)_i/v_i and solves
        with sigma*I - D^-1 M D, D = diag(v), which keeps every iterate
        positive and converges quadratically once sigma is near lambda.  The
        rescaling keeps tiny eigenvector entries relatively accurate.

        The iteration starts from the all-ones vector.  A caller that holds a
        float just above lambda (the formula route's cell, or its float hint)
        passes it as the private ``_above``, and the first step tries the
        shift x = _above*(1 + 1e-13) before sigma: for x > lambda, xI - M is
        a nonsingular M-matrix and (xI - M)y = 1 has a positive solution.
        When the float y is not positive or cannot be factorized, that costs
        one factorization and the step goes on with sigma, exactly as
        without ``_above``.

        The enclosure min_i (Mv)_i/v_i <= lambda <= max_i (Mv)_i/v_i is
        evaluated exactly on the float vector and the matrix alone, then
        rounded outward to ``lower`` and ``upper``, with
        ``upper - lower <= tol``; ``eigenvalue`` is their midpoint.  A wrong
        ``_above`` thus costs steps, never a false enclosure.  The
        eigenvector is normalized to max entry 1.

        Raises RuntimeError when the step cap is reached before the enclosure
        is narrower than tol, when an iterate entry underflows, or when a
        Noda solve is not positive even from the fallback shift.
        """
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be positive and finite, not {tol!r}")
        if not self.is_primitive():
            raise ValueError(
                "spectral_radius requires a primitive matrix "
                "(the Perron-Frobenius certificate is only defined there)"
            )
        splu = scipy.sparse.linalg.splu  # looked up per call, so it can be wrapped
        n = self.size
        # M on a column-major pattern that holds the whole diagonal, so each
        # sigma*I - D^-1 M D is a new data array on a fixed structure
        ij = np.array(list(self.entries)) - 1
        vals = np.array(list(self.entries.values()), dtype=float)
        diag = np.arange(n)
        a = coo_matrix(
            (np.r_[vals, np.zeros(n)], (np.r_[ij[:, 0], diag], np.r_[ij[:, 1], diag])),
            shape=(n, n),
        ).tocsc()
        rows, indptr, vals = a.indices, a.indptr, a.data
        cols = np.repeat(diag, np.diff(indptr))
        diagonal = rows == cols

        v = np.ones(n)
        w = a @ v
        for step in range(_NODA_STEPS):
            ratios = w / v
            lo, sigma = float(ratios.min()), float(ratios.max())
            if sigma - lo <= tol:
                cert = self._certificate(v, w, tol)
                if cert is not None:
                    return cert
            scaled = vals * v[cols] / v[rows]
            # Noda's shift sigma first.  The solve fails (singular factor) or
            # loses positivity when sigma is far closer to lambda than v is to
            # the eigenvector; the step is then retried from above sigma by the
            # current enclosure width.
            shifts = (sigma, 2 * sigma - lo + 4 * math.ulp(sigma))
            if step == 0 and _above is not None and math.isfinite(_above):
                shifts = (_above * (1 + _SEED_MARGIN), *shifts)
            for shift in shifts:
                # y with (shift*I - D^-1 M D) y = 1.  The factor is freed
                # before the next is built: two alive at once fragment the
                # heap, +8 MB peak RSS at N=3360.
                data = -scaled
                data[diagonal] += shift
                try:
                    y = splu(csc_matrix((data, rows, indptr), shape=(n, n))).solve(np.ones(n))
                except RuntimeError:  # shift equals lambda to double precision
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
            w = a @ v
        raise RuntimeError(
            f"spectral radius not certified to tol={tol} within {_NODA_STEPS} Noda steps"
        )

    def _certificate(self, v, w, tol):
        """PFCertificate for the positive vector v, or None if wider than tol.

        The Collatz-Wielandt quotients are compared exactly: v is scaled to
        integers (its entries are dyadic) and Mv is formed in integers.
        """
        pairs = [x.as_integer_ratio() for x in v.tolist()]
        scale = max(d for _, d in pairs)
        ints = [p * (scale // d) for p, d in pairs]
        mv = [0] * self.size
        for (i, j), val in self.entries.items():
            mv[i - 1] += val * ints[j - 1]
        lo = hi = None
        for num, den in zip(mv, ints):
            if lo is None or num * lo[1] < lo[0] * den:
                lo = (num, den)
            if hi is None or num * hi[1] > hi[0] * den:
                hi = (num, den)
        lower = _round_down(Fraction(*lo))
        upper = -_round_down(-Fraction(*hi))
        if Fraction(upper) - Fraction(lower) > Fraction(tol):
            return None
        lam = 0.5 * (lower + upper)
        residual = float(abs(w - lam * v).max())
        return PFCertificate(True, True, lam, lower, upper, tuple(v.tolist()), residual)

    def char_poly(self):
        """Exact monic characteristic polynomial det(tI - M).

        Evaluates the determinant at the integer nodes 0..N with
        fraction-free Bareiss elimination, then integer Newton interpolation.
        """
        n = self.size
        base = [[-v for v in row] for row in self.to_rows()]

        def shifted(x):
            work = [row[:] for row in base]
            for i in range(n):
                work[i][i] += x
            return work

        poly = _det_poly(shifted, n)
        if poly.degree != n or not poly.is_monic():
            raise AssertionError("characteristic polynomial is not monic of degree N")
        return poly


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


def _bareiss_det(a):
    """Fraction-free determinant of a square integer matrix (mutates a)."""
    n = len(a)
    sign = 1
    prev = 1
    for r in range(n - 1):
        ar = a[r]
        piv = ar[r]
        if piv == 0:
            for rr in range(r + 1, n):
                if a[rr][r]:
                    a[r], a[rr] = a[rr], a[r]
                    sign = -sign
                    ar = a[r]
                    piv = ar[r]
                    break
            else:
                return 0
        for i in range(r + 1, n):
            ai = a[i]
            f = ai[r]
            if f:
                for j in range(r + 1, n):
                    ai[j] = (piv * ai[j] - f * ar[j]) // prev
                ai[r] = 0
            elif piv != prev:
                for j in range(r + 1, n):
                    v = ai[j]
                    if v:
                        ai[j] = piv * v // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def _det_poly(matrix_at, degree):
    """The polynomial p of degree <= ``degree`` with p(x) = det(matrix_at(x)).

    Integer Newton interpolation at the nodes x = 0..degree: the j-th
    forward difference of the Bareiss values, divided exactly by j!, is the
    coefficient d_j of the Newton form d_0 + t (d_1 + (t-1) (d_2 + ...)),
    which is expanded in integers by p <- p (t - j) + d_j from j = degree
    down.
    """
    level = [_bareiss_det(matrix_at(x)) for x in range(degree + 1)]
    newton = []
    for j in range(degree + 1):
        d, rem = divmod(level[0], math.factorial(j))
        if rem:
            raise AssertionError("interpolation produced non-integer coefficients")
        newton.append(d)
        level = [b - a for a, b in zip(level, level[1:])]
    coeffs = []
    for j in range(degree, -1, -1):
        coeffs = [a - j * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[j]
    return IntPoly(coeffs)


def poly_matrix_det(rows):
    """Exact determinant of a square matrix of IntPoly entries.

    Works by evaluating the determinant at enough integer nodes and
    integer Newton interpolation; the node count comes from the row-degree
    bound on the determinant degree.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("polynomial matrix must be square")
    if n == 0:
        return IntPoly((1,))
    bound = 0
    for r in rows:
        degs = [p.degree for p in r if not p.is_zero()]
        if degs:
            bound += max(degs)
    return _det_poly(lambda x: [[p(x) for p in r] for r in rows], bound)
