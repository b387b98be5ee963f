"""``NNMatrix.spectral_radius``'s solve of any primitive matrix: hubs found by a search, solved in numpy.

Imported by ``spectral_radius`` alone, so no command compiles it or loads
numpy.  ``_dense_kernel`` gives ``nnmatrix._hub_perron`` its Noda steps.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .nnmatrix import _MAX_HUBS, _SEED_WIDTH, _columns, _Hubs

# the least entry of a plain float iterate, over its greatest
_PLAIN = 2.0**-1000
# the greatest product of link entries down to a vertex of the rest: every
# integer up to 2^53 is a double
_EXACT_COEF = 1 << 53


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


def _seed(hubs, lo, hi):
    # a float above lambda, bisected from lo <= lambda <= hi to _SEED_WIDTH: t
    # is above when ``_dense_solve``'s y with (tI - R(t))y = 1 is positive, as
    # above lambda (an M-matrix), not below (Collatz-Wielandt); errors cost steps
    import numpy as np

    while hi - lo > _SEED_WIDTH * hi:
        t = 0.5 * (lo + hi)
        matrix = _hub_matrix(hubs, np.array([c * t**-n for _, _, c, n in zip(*hubs.chains)]))
        try:
            above = bool(np.all(_dense_solve(matrix, np.ones(len(hubs.hubs)), t) > 0))
        except np.linalg.LinAlgError:
            above = False
        lo, hi = (lo, t) if above else (t, hi)
    return hi


def _dense_kernel(hubs, weights, sparse):
    # ``_noda``'s ratios and solve on a search's hubs: ``_dense_solve`` on
    # D^-1 R(t) D, D = diag(2^e), v plain floats while its least entry stays
    # above _PLAIN times its greatest, else mantissas in [1/2, 1).  From the
    # all-ones start (``sparse``) the ratios use ``_hub_product`` until R(t) is formed
    import numpy as np

    weights, formed = np.array(weights), []

    def scaled(e):
        if not formed:
            formed.append(_hub_matrix(hubs, weights))
        if not any(e):
            return formed[0]
        e = np.array(e)
        return np.ldexp(formed[0], e[None, :] - e[:, None])

    def ratios(v):
        m = np.array(v[0])
        w = _hub_product(hubs, weights, m) if sparse and not formed else scaled(v[1]).dot(m)
        return (w / m).tolist()

    def solve(v, x):
        m = np.array(v[0])
        try:
            y = _dense_solve(scaled(v[1]), m, x)
        except np.linalg.LinAlgError:  # x equals lambda to double precision
            return None
        if not (np.all(y > 0) and np.isfinite(y).all()):
            return None
        y = m * y
        if not any(v[1]) and y.min() >= _PLAIN * y.max():  # the floats of a plain iterate
            v = (y / y.max()).tolist(), v[1]
        else:
            y, e = np.frexp(y)
            e += np.array(v[1], dtype=e.dtype)
            v = y.tolist(), (e - e.max()).tolist()
        return v, ratios(v)

    return ratios, solve


def _dense_solve(matrix, v, x):
    """A search's dense solve, in numpy: y with (xI - D^-1 M D)y = 1, D = diag(v).

    LU with partial pivoting first (numpy.linalg.LinAlgError if singular).
    When its y is not positive (an iterate spanning many decades loses its
    small entries to the pivoting), A = xI - D^-1 M D is eliminated again
    without pivoting, column by column from the last.  For x above the
    Perron root A is an M-matrix, and that elimination subtracts only on the
    diagonal: each row r < k with an entry in column k takes f = a_rk / a_kk
    <= 0 times row k, whose entries left of k are <= 0 as row r's are, and
    the right side only grows.  The lower triangle left is solved forward.
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
