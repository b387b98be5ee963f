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
are independent of any further parameters (the tests check this).
"""

from __future__ import annotations

from dataclasses import dataclass

from .intpoly import _integer
from .nnmatrix import NNMatrix, _interpolate, _shifted_det

__all__ = [
    "BraidTuple",
    "params",
    "parse_params",
    "closing_sign",
    "StructureCheck",
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
    iterable, a :class:`BraidTuple` included; an integral value such as 3.0
    counts as an integer.  Raises ValueError otherwise.
    """
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


@dataclass(frozen=True)
class BraidTuple:
    """Parameter tuple (m_1, ..., m_{k+1}) selecting one braid of the family."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", params(self.values, 2))

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
        return self.boundaries[-1]

    @property
    def sign(self):
        """(-1)^(k+1): +1 for an even number of parameters, -1 for odd."""
        return closing_sign(len(self.values))

    @property
    def prefix(self):
        return self.values[:-1]


def block_boundaries(values):
    out = []
    total = 0
    for j, m in enumerate(values, start=1):
        total += m
        out.append(total + j)
    return tuple(out)


# the most nonzeros of a transition matrix; building its entries takes
# about 220 bytes per nonzero at its peak
_MAX_NONZEROS = 1_000_000


def transition_matrix(m):
    """Transition matrix of the combined map for the full tuple ``m``.

    A tuple of k+1 parameters gives N + k^2 + 4k nonzeros, k^2 of them in
    the hub rows; above ``_MAX_NONZEROS`` it raises ValueError before
    building anything.
    """
    m = BraidTuple(m)
    k = len(m) - 1
    nonzeros = m.size + k * k + 4 * k
    if nonzeros > _MAX_NONZEROS:
        raise ValueError(
            f"the transition matrix of size {m.size} would have {nonzeros} "
            f"nonzeros; the limit is {_MAX_NONZEROS}"
        )
    return NNMatrix(m.size, _entries(m.values))


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


def dominant_matrix(prefix):
    """Transition matrix of the dominant map for a parameter prefix.

    This is the upper-left (n_i + 1)-square block of any extension of the
    prefix, here of the prefix extended by 1.
    """
    vals = params(prefix, 1)
    cut = block_boundaries(vals)[-1] + 1
    return transition_matrix(vals + (1,)).submatrix(cut)


def recessive_poly(prefix):
    """Recessive polynomial of the family extending ``prefix``.

    Determinant of the bordered block: take tI - B for any extension B,
    replace row n_i + 1 by the last row, and keep the upper-left
    (n_i + 1)-square corner.  Independent of the appended parameter.  Only
    the first n_i diagonal entries carry t, so the degree is at most n_i:
    the Bareiss values at the n_i + 1 integer nodes 0..n_i are interpolated.
    """
    vals = params(prefix, 1)
    rows = transition_matrix(vals + (1,)).to_rows()
    cut = block_boundaries(vals)[-1] + 1
    base = [[-v for v in row[:cut]] for row in rows[: cut - 1] + rows[-1:]]
    return _interpolate([_shifted_det(base, x, cut - 1) for x in range(cut)])


def dual_recessive_poly(prefix):
    """Same bordered determinant applied to I - tB instead of tI - B.

    Each row of I - tB is t times the row of tI - B at 1/t.
    """
    return recessive_poly(prefix).reciprocal(block_boundaries(params(prefix, 1))[-1] + 1)


@dataclass(frozen=True)
class StructureCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class StructureReport:
    tuple_values: tuple[int, ...]
    checks: tuple[StructureCheck, ...]

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
    matrix = transition_matrix(m)
    ns = m.boundaries
    l = ns[-2]
    last = ns[-1]
    checks = []

    def record(name, ok, detail):
        checks.append(StructureCheck(name, ok, detail))

    v = matrix.entry(l, l + 1)
    record("feed_from_previous_block", v > 0, f"entry ({l},{l + 1}) = {v}")
    v = matrix.entry(l + 1, l + 1)
    record("hub_self_transition", v > 0, f"entry ({l + 1},{l + 1}) = {v}")
    v = matrix.entry(last, l + 1)
    record("last_row_hub_weight", v > 1, f"entry ({last},{l + 1}) = {v}")

    mismatch = [
        j
        for j in range(1, l + 1)
        if matrix.entry(l + 1, j) != matrix.entry(last, j)
    ]
    record(
        "hub_and_last_rows_agree",
        not mismatch,
        "columns 1..%d match" % l
        if not mismatch
        else "mismatch at columns %s" % mismatch,
    )

    bad = []
    for r in range(l + 2, last):
        row_entries = {j: matrix.entry(r, j) for j in range(1, last + 1) if matrix.entry(r, j)}
        if row_entries != {r + 1: 1}:
            bad.append((r, row_entries))
    record(
        "middle_rows_unit_superdiagonal",
        not bad,
        "rows %d..%d" % (l + 2, last - 1) if not bad else f"offending rows {bad}",
    )
    return StructureReport(m.values, tuple(checks))
