"""Transition matrices for the braid family, built by gluing star blocks.

A parameter tuple (m_1, ..., m_{k+1}) describes a chain of star-shaped
trees; the matrix of the induced graph map is assembled level by level.
Writing n_j = m_1 + ... + m_j + j for the block boundaries, level 0 is the
cyclic rotation matrix of the first star and gluing star i+1 appends rows
and columns n_i+1 .. n_{i+1}:

* rows n_i - 1 and n_i gain an entry 1 in column n_i + 1;
* row n_i + 1 reads 1 in column 1, 2 in every column n_j + 1 with j < i,
  and 1 in columns n_i + 1 and n_i + 2;
* rows n_i + 2 .. n_{i+1} - 1 carry a unit superdiagonal;
* row n_{i+1} reads 1 in column 1, 2 in every column n_j + 1 with j < i,
  and 2 in column n_i + 1.

The upper-left (n_i + 1)-square block is the transition matrix of the
dominant (restricted) map, and a bordered determinant extracts the
recessive polynomial of the family, whose reversal is the dual one; both
are independent of any further parameters (the tests check this).  The
bordered determinant shares all rows but its last, -L, with tI - B for the
dominant block B, so by cofactor expansion along that row it is
-L adj(tI - B) e_{n_i+1}: minus the block's memoized h of L in ``nnmatrix``.
Each build hands its entries to ``NNMatrix`` unchecked: they are positive
ints at indices in 1..N by construction, and the tests check them.

The Perron-Frobenius solve reads its structure from the levels
(``_level_program``).  Along the edges j -> i of the entries (i, j), every
vertex gets a breadth-first depth from vertex 1: 0 at vertex 1, 1 at each
last vertex n_j and hub n_i + 1 (their rows read column 1), and
n_j - r + 1 at a vertex r strictly inside a level's chain, down its
superdiagonal.  Along the edges, every vertex also reaches vertex 1: down
its chain to its hub, then to rows n_i - 1 and n_i of the level before,
and so on.  Each hub has a self-loop, so every transition matrix is
primitive, and so is a dominant block: its depths are the first n_i + 1 of
its extension by 1, whose last vertex feeds only the hub.  This lemma is
why no braid route searches a graph.  The heads of the edges that do not
increase the depth are vertex 1, the last vertices and the hubs, 2(k + 1)
of them (2k + 1 in a dominant block), and they are the solve's hubs.
Every other vertex lies inside a chain and reads only the next one, except
the chain's last, its root, which reads the last vertex n_j and, when a
level follows, its hub n_j + 1.  So each chain is one run of the solve's
elimination, read down from its root.  A hub row and a last row read 2 at
every earlier hub: a ladder, whose exact row sums the certificate adds
from one running sum.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .intpoly import IntPoly, _integer
from .nnmatrix import NNMatrix, _HubProgram

__all__ = [
    "BraidTuple",
    "StructureReport",
    "block_boundaries",
    "transition_matrix",
    "dominant_matrix",
    "recessive_poly",
    "dual_recessive_poly",
    "validate_structure",
]


# name and too-short message of a parameter list, by its minimum length
_KINDS = {
    1: ("prefix", "a prefix needs at least one parameter"),
    2: ("braid tuple", "a braid tuple needs at least two parameters; "
        "a single star does not define a member of the family"),
}


def params(values, minimum):
    """Validated parameter tuple: at least ``minimum`` integers, each >= 1.

    Minimum 2 gives a braid tuple, minimum 1 a prefix.  ``values`` is any
    iterable; an integral value such as 3.0 counts as an integer.  Raises
    ValueError otherwise.  A :class:`BraidTuple`, checked when it was made,
    gives its values back unchecked.
    """
    if isinstance(values, BraidTuple):
        return values.values
    vals = tuple(_integer(v) for v in values)
    if len(vals) < minimum:
        raise ValueError(_KINDS[minimum][1])
    if any(v < 1 for v in vals):
        raise ValueError("every parameter must be >= 1")
    return vals


def parse_params(text, minimum):
    """:func:`params` of comma-separated integers such as ``"4,2"``."""
    try:
        vals = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse {_KINDS[minimum][0]} {text!r}") from None
    return params(vals, minimum)


def closing_sign(length):
    """(-1)^(k+1) for a tuple of ``length`` = k+1 parameters: +1 when even."""
    return 1 if length % 2 == 0 else -1


class BraidTuple:
    """Parameter tuple (m_1, ..., m_{k+1}) selecting one braid of the family.

    Immutable: ``values`` is the checked tuple of ints, and equality and
    hashing go by it.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        object.__setattr__(self, "values", params(values, 2))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.values == other.values if type(other) is BraidTuple else NotImplemented

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"BraidTuple(values={self.values!r})"

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self):
        return ",".join(str(v) for v in self.values)

    @property
    def boundaries(self):
        """The indices n_j = m_1 + ... + m_j + j for j = 1..k+1."""
        return block_boundaries(self.values)

    @property
    def size(self):
        return _size(self.values)

    @property
    def sign(self):
        """(-1)^(k+1): +1 for an even number of parameters, -1 for odd."""
        return closing_sign(len(self.values))

    @property
    def prefix(self):
        return self.values[:-1]


def block_boundaries(values):
    return tuple(total + j for j, total in enumerate(accumulate(values), start=1))


def _size(values):
    # the last boundary, m_1 + ... + m_{k+1} + k + 1
    return sum(values) + len(values)


# the most nonzeros of a transition matrix; building its entries takes
# about 220 bytes per nonzero at its peak
_MAX_NONZEROS = 1_000_000


def transition_matrix(m):
    """Transition matrix of the combined map for the full tuple ``m``.

    A tuple of k+1 parameters gives N + k^2 + 4k nonzeros, k^2 of them in
    the hub rows; above ``_MAX_NONZEROS`` it raises ValueError before
    building anything.
    """
    values = params(m, 2)
    return NNMatrix._of(_size(values), _limited_entries(values))


def _limited_entries(values):
    # the entries of a checked tuple, refused above the limit before building
    _check_nonzeros(values)
    return _entries(values)


def _check_nonzeros(values):
    # ValueError when the checked tuple's matrix would pass the nonzero limit
    size = _size(values)
    k = len(values) - 1
    nonzeros = size + k * k + 4 * k
    if nonzeros > _MAX_NONZEROS:
        raise ValueError(
            f"the transition matrix of size {size} would have {nonzeros} "
            f"nonzeros; the limit is {_MAX_NONZEROS}"
        )


def _entries(values):
    ns = block_boundaries(values)
    e = {}
    first = ns[0]
    for i in range(1, first):
        e[(i, i + 1)] = 1
    e[(first, 1)] = 1
    for level in range(1, len(values)):
        lo = ns[level - 1]
        hi = ns[level]
        e[(lo - 1, lo + 1)] = 1
        e[(lo, lo + 1)] = 1
        row = lo + 1
        e[(row, 1)] = 1
        for j in range(level - 1):
            e[(row, ns[j] + 1)] = 2
        e[(row, lo + 1)] = 1
        e[(row, lo + 2)] = 1
        for r in range(lo + 2, hi):
            e[(r, r + 1)] = 1
        e[(hi, 1)] = 1
        for j in range(level - 1):
            e[(hi, ns[j] + 1)] = 2
        e[(hi, lo + 1)] = 2
    return e


def _level_program(values, size):
    """The Perron-Frobenius solve's ``_HubProgram`` of a braid matrix, from its levels.

    The matrix is the leading size-square block of the transition matrix
    of the tuple ``values``: all of it at size n_{k+1}, or, at size
    n_k + 1, the dominant block of ``values[:-1]``, as ``_extension`` cuts
    it.  Past the nonzero limit of ``values`` it raises ValueError before
    building anything.  The entries are built kind by kind, as the module
    docstring lists them, in arrays with no dict: ``_entries`` builds the
    same entries for ``NNMatrix``, whose commands load no numpy.  Each
    row's entries come in ascending column order, as in ``_entries``.  The
    hubs, the chains and the ladder are read from the levels.
    """
    import numpy as np

    _check_nonzeros(values)
    bounds = block_boundaries(values)
    heads = [b for b in bounds if b < size]  # each level's hub n_i + 1, 0-based
    ends = [b - 1 for b in bounds if b <= size]  # each level's last row n_j, 0-based
    h, l = len(heads), len(ends)
    head, last, line = np.array(heads, np.intp), np.array(ends[1:], np.intp), np.arange(size)
    # the ladder: a level's hub row and last row read 2 at every earlier hub,
    # and a dominant block's last level has no last row
    row, col = (line[:h, None] > line[:h]).nonzero()
    cut = (l - 1) * (l - 2) // 2
    # by kind, each in its rows' column order: column 1, the ladder, each
    # hub's self-loop and each last row's own hub, the superdiagonal, and
    # row n_i - 1 into the hub
    rows = np.concatenate((ends, head, head[row], last[row[:cut]], head, last, line[:-1], head - 2))
    cols = np.concatenate((
        np.zeros(l + h, np.intp), head[col], head[col[:cut]], head, head[: l - 1], line[1:], head
    ))
    ladder = slice(l + h, l + h + len(row) + cut)
    ints = np.repeat([1, 2, 1, 2, 1, 1], [l + h, ladder.stop - ladder.start, h, l - 1, size - 1, h])
    exact = [np.concatenate((x[: ladder.start], x[ladder.stop :])) for x in (rows, cols, ints)]
    hub = np.zeros(size, dtype=bool)
    hub[[0, *ends, *heads]] = True
    # each nonempty chain: its root, the row before its level's last row,
    # and its links, each reading the row after it, down to the row after
    # the level's hub (row 2 on level 0); the roots come first in the rest
    chains = [(end - 1, end - start) for end, start in zip(ends, [1, *(x + 1 for x in heads)])]
    roots = np.array([r for r, n in chains if n], np.intp)
    links = np.array([n - 1 for r, n in chains if n], np.intp)
    firsts = len(roots) + np.cumsum(links) - links  # each run's first place
    runs = [
        (a, a + n, p) for p, (a, n) in enumerate(zip(firsts.tolist(), links.tolist())) if n
    ]
    places = np.arange(len(roots), len(roots) + links.sum())
    rest = np.concatenate((roots, (roots - 1 + firsts).repeat(links) - places))
    root = np.concatenate((np.arange(len(roots)), np.arange(len(roots)).repeat(links)))
    lead = rest + (rows.size - h - (size - 1))  # each chain row's superdiagonal entry
    ladder = (heads, [*heads, *ends[1:]], [*range(h), *range(l - 1)])
    return _HubProgram(
        size, rows, cols, ints.astype(float), exact, ladder, hub, rest, lead, runs, root
    )


def dominant_matrix(prefix):
    """Transition matrix of the dominant map for a parameter prefix.

    This is the upper-left (n_i + 1)-square block of any extension of the
    prefix, here of the prefix extended by 1.
    """
    return _extension(params(prefix, 1))[0]


def _extension(vals):
    """The dominant block of the checked prefix ``vals`` and one more row.

    One build of the prefix extended by 1: its upper-left (n_i + 1)-square
    corner, the block, and its last row n_i + 2 as {column: entry}, all of
    whose columns lie in the block.  The corner is the build less that row
    and the entry (n_i + 1, n_i + 2), taken out in place.
    """
    cut = _size(vals) + 1
    block = _limited_entries(vals + (1,))
    last = {j: v for (i, j), v in block.items() if i > cut}
    for j in last:
        del block[(cut + 1, j)]
    del block[(cut, cut + 1)]
    return NNMatrix._of(cut, block), last


def recessive_poly(prefix):
    """Recessive polynomial of the family extending ``prefix``.

    Determinant of the bordered block: take tI - B for any extension B,
    replace row n_i + 1 by the last row, and keep the upper-left
    (n_i + 1)-square corner.  Independent of the appended parameter.
    Expanded along that last row, it is minus the dominant block's h for
    the row (``_recessive``).
    """
    return _recessive(*_extension(params(prefix, 1)))


def _recessive(block, last):
    """recessive_poly from the block and any last row ({column: entry}).

    The bordered block is tI - B with its last row replaced by -L, L the
    last row; expanding along that row, whose cofactors are those of
    tI - B, gives -L adj(tI - B) e_{n_i+1}.  That is minus the block's h
    for L (``NNMatrix.char_poly``), memoized by the block, whose tuples
    close on the same row.
    """
    return -IntPoly(block._closing(tuple(sorted(last.items()))))


def dual_recessive_poly(prefix):
    """Same bordered determinant applied to I - tB instead of tI - B.

    Each row of I - tB is t times the row of tI - B at 1/t.
    """
    return recessive_poly(prefix).reciprocal(_size(params(prefix, 1)) + 1)


StructureCheck = namedtuple("StructureCheck", "name ok detail")


class StructureReport(namedtuple("StructureReport", "tuple_values checks")):
    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    @property
    def failures(self):
        return tuple(c for c in self.checks if not c.ok)


def validate_structure(m):
    """Check the gluing-pattern entries of the transition matrix of ``m``.

    With l = n_k the checks are: entry (l, l+1) > 0; entry (l+1, l+1) > 0;
    entry (N, l+1) > 1; rows l+1 and N agree on columns 1..l; and the rows
    strictly between them form a unit superdiagonal with nothing else.
    """
    m = BraidTuple(m)
    return _structure_report(m, transition_matrix(m))


def _structure_report(m, matrix):
    # validate_structure on the BraidTuple m's transition matrix, built once;
    # rows l..N, all it reads, are collected in one pass over the nonzeros
    ns = m.boundaries
    l = ns[-2]
    last = ns[-1]
    rows = {r: {} for r in range(l, last + 1)}
    for (i, j), v in matrix.entries.items():
        if i in rows:
            rows[i][j] = v
    hub, final = rows[l + 1], rows[last]
    checks = []

    def record(name, ok, detail):
        checks.append(StructureCheck(name, ok, detail))

    v = rows[l].get(l + 1, 0)
    record("feed_from_previous_block", v > 0, f"entry ({l},{l + 1}) = {v}")
    v = hub.get(l + 1, 0)
    record("hub_self_transition", v > 0, f"entry ({l + 1},{l + 1}) = {v}")
    v = final.get(l + 1, 0)
    record("last_row_hub_weight", v > 1, f"entry ({last},{l + 1}) = {v}")

    mismatch = [j for j in range(1, l + 1) if hub.get(j, 0) != final.get(j, 0)]
    record(
        "hub_and_last_rows_agree",
        not mismatch,
        "columns 1..%d match" % l
        if not mismatch
        else "mismatch at columns %s" % mismatch,
    )

    bad = [(r, dict(sorted(rows[r].items()))) for r in range(l + 2, last) if rows[r] != {r + 1: 1}]
    record(
        "middle_rows_unit_superdiagonal",
        not bad,
        "rows %d..%d" % (l + 2, last - 1) if not bad else f"offending rows {bad}",
    )
    return StructureReport(m.values, tuple(checks))
