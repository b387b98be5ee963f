"""Transition matrices for the braid family, built by gluing star blocks.

A parameter tuple (m_1, ..., m_{k+1}) describes a chain of star-shaped
trees; the matrix of the induced graph map is assembled level by level.
Write n_j = m_1 + ... + m_j + j for the block boundaries, n_0 = 0, and R_i
for the row that reads 1 in column 1 and 2 in every column n_j + 1 with
0 < j < i.  Level 0 is the cyclic rotation matrix of the first star, and
gluing star i+1 appends rows and columns n_i+1 .. n_{i+1}: rows n_i - 1
and n_i gain an entry 1 in column n_i + 1, the hub; the hub row reads R_i
and 1 in columns n_i + 1 and n_i + 2; rows n_i + 2 .. n_{i+1} - 1 carry a
unit superdiagonal; and the last row n_{i+1} reads R_{i+1}.  So a tuple
and a dominant block (below) are built as pieces added to the dominant
block of their prefix (``_tuple_piece``, ``_child_piece``).

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
(``_level_hubs``): the ``nnmatrix._Hubs`` that ``hubsearch._searched_hubs``
would find by a search, as the tests check field by field.  Along the
edges j -> i of the entries (i, j), every vertex gets a breadth-first
depth from vertex 1: 0 at vertex 1, 1 at each last vertex n_j and hub
n_i + 1 (their rows read column 1), and n_j - r + 1 at a vertex r strictly
inside a level's chain, down its superdiagonal.  Along the edges, every
vertex also reaches vertex 1: down its chain to its hub, then to rows
n_i - 1 and n_i of the level before, and so on.  Each hub has a self-loop,
so every transition matrix is primitive, and so is a dominant block: its
depths are the first n_i + 1 of its extension by 1, whose last vertex
feeds only the hub.  This lemma is why no braid route searches a graph.
The heads of the edges that do not increase the depth, vertex 1, the last
vertices and the hubs, are the solve's hubs; every other vertex lies inside
a level's chain (``_level_hubs``).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .intpoly import IntPoly, _integer
from .nnmatrix import NNMatrix, _columns, _Hubs

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
    _check_nonzeros(values)
    return NNMatrix._of(_size(values), _entries(values))


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
    # the checked tuple's entries: its prefix's block, then its tuple piece
    entries, size, row = _block(values[:-1])
    entries.update(_tuple_piece(size, row, values[-1]))
    return entries


def _block(vals):
    # the checked prefix's dominant block entries, size and last row, by the
    # child pieces of its levels from the empty prefix's: vertex 1 alone
    entries, size, row = {}, 1, {1: 1}
    for m in vals:
        entries.update(_child_piece(size, row, m))
        size += m + 1
        row[size] = 2
    return entries, size, row


def _tuple_piece(n, row, m):
    # what the matrix of prefix + (m,) adds to the prefix's n-square block,
    # whose last row is ``row``: the link (n, n + 1), the unit chain up to
    # N = n + m and the last row N, reading ``row``
    piece = {(r, r + 1): 1 for r in range(n, n + m)}
    return piece | {(n + m, j): v for j, v in row.items()}


def _child_piece(n, row, m):
    # what the dominant block of prefix + (m,) adds to the prefix's: the
    # tuple piece, the feeds into hub N + 1 and the hub row
    hub = n + m + 1
    piece = _tuple_piece(n, row, m) | {(hub - 2, hub): 1, (hub - 1, hub): 1}
    return piece | {(hub, j): v for j, v in row.items()} | {(hub, hub): 1}


def _child_extension(block, row, m):
    # _extension of prefix + (m,) from the prefix's: its block and last row
    hub = block.size + m + 1
    return block._joined(hub, _child_piece(block.size, row, m)), {**row, hub: 2}


def _level_hubs(values, size):
    """The braid matrix of ``values`` as a ``nnmatrix._Hubs``, read from its levels.

    The matrix is the leading size-square block of the transition matrix
    of the tuple ``values``: all of it at size n_{k+1}, or, at size
    n_k + 1, the dominant block of ``values[:-1]``, as ``_extension`` builds
    it.  Past the nonzero limit of ``values`` it raises ValueError before
    building anything.  The hubs are H_0 = vertex 1, then each level's last
    row E_i and the next level's hub H_{i+1}, at hub places 2i + 1 and
    2i + 2.  H_i reads the chain of a complete level i, of length
    L_i = m_i - 1, whose root reads E_i and H_{i+1}, when there is one,
    with 1: so H_i reads t^-L_i at both, an entry of 1 when L_i = 0, and
    the chain is one run of the rest, with pi = 1 and d from L_i - 1 to 0.
    """
    _check_nonzeros(values)
    bounds = block_boundaries(values)
    levels = len(values) - (size < bounds[-1])  # those with a last row
    h = 2 * len(values) - (size < bounds[-1])
    hubs = [0, *(x for b in bounds[:levels] for x in (b - 1, b))][:h]
    lengths = [m - 1 for m in values[:levels]]
    # each chain's reads, H_i's own entries when it is empty
    reads = [(i, j, n) for i, n in enumerate(lengths) for j in (2 * i + 1, 2 * i + 2) if j < h]
    # column 1 and each hub's self-loop; each last row's own hub and the
    # next level's hub
    entries = [(2 * i, j, 1) for i in range(1, (h + 1) // 2) for j in (0, 2 * i)]
    for i in range(levels):
        entries += [(2 * i + 1, 0, 1)] + [(2 * i + 1, 2 * i, 2)] * (i > 0)
        entries += [(2 * i + 1, 2 * i + 2, 1)] * (2 * i + 2 < h)
    entries += [(2 * i, j, 1) for i, j, n in reads if not n]
    steps = range(4, h)  # H_i and E_i, i >= 2, read 2 at H_1 .. H_{i-1}
    ladder = [2 * i for i in range(1, (h + 1) // 2)], steps, [i // 2 - 1 for i in steps]
    run = {i: p for p, i in enumerate(i for i, n in enumerate(lengths) if n)}
    rest = _columns([(hubs[2 * i] + 1, p, 1, lengths[i] - 1) for i, p in run.items()], 4)
    roots = _columns([(run[i], j, 1) for i, j, n in reads if n])
    chains = _columns([(2 * i, j, 1, n) for i, j, n in reads if n], 4)
    return _Hubs(size, hubs, _columns(entries), ladder, chains, roots, rest)


def dominant_matrix(prefix):
    """Transition matrix of the dominant map for a parameter prefix.

    This is the upper-left (n_i + 1)-square block of any extension of the prefix.
    """
    return _extension(params(prefix, 1))[0]


def _extension(vals):
    # the dominant block of the checked prefix, built whole, and its last row
    # n_i + 2 ({column: entry}); past the nonzero limit of the prefix
    # extended by 1, ValueError before building anything
    _check_nonzeros(vals + (1,))
    entries, size, row = _block(vals)
    return NNMatrix._of(size, entries), row


def recessive_poly(prefix):
    """Recessive polynomial of the family extending ``prefix``.

    Determinant of the bordered block: take tI - B for any extension B,
    replace row n_i + 1 by the last row, and keep the upper-left
    (n_i + 1)-square corner.  Independent of the appended parameter.
    Expanded along that last row L, it is -L adj(tI - B) e_{n_i+1}: minus
    the dominant block's memoized h for L (``NNMatrix._closing``).
    """
    block, last = _extension(params(prefix, 1))
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
