import contextlib
import io
import itertools
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pabraid import (
    BraidTuple,
    IntPoly,
    NNMatrix,
    block_boundaries,
    braid_char_poly,
    dilatation,
    dominant_chain,
    dominant_matrix,
    dual_recessive_poly,
    limit_dilatation,
    recessive_poly,
    transition_matrix,
    validate_structure,
)
import pabraid.hubsearch as hubsearch
import pabraid.nnmatrix as nnmatrix
import pabraid.treebuilder as treebuilder
from pabraid.cli import main
from pabraid.treebuilder import StructureCheck, StructureReport, params, parse_params

from helpers import (
    GOLDEN_8x8,
    TreeMapSpec,
    berkowitz_starts,
    bordered_det_oracle,
    bordered_rows_oracle,
    corner,
    corpus_parameters,
    glued_entries_oracle,
    grid_tuples,
    krylov_rows,
    schur_hub_matrix,
    searched_hubs,
)


class TestBraidTuple:
    def test_parse_and_str(self):
        bt = BraidTuple(parse_params("4,2", 2))
        assert bt.values == (4, 2) and str(bt) == "4,2"

    def test_derived_quantities(self):
        bt = BraidTuple((2, 2, 3))
        assert bt.boundaries == (3, 6, 10)
        assert bt.size == 10
        assert bt.sign == -1
        assert bt.prefix == (2, 2)
        assert BraidTuple((4, 2)).sign == 1

    def test_rejects_short_tuple(self):
        with pytest.raises(ValueError, match="at least two"):
            BraidTuple((4,))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BraidTuple((1, 0))
        with pytest.raises(ValueError):
            parse_params("1,x", 2)

    def test_block_boundaries(self):
        assert block_boundaries((4,)) == (5,)
        assert block_boundaries((4, 2)) == (5, 8)


_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda values: (v for v in values),
    "BraidTuple": BraidTuple,
}


_ENTRIES = st.one_of(st.integers(-2, 6), st.sampled_from([2.7, 0.5, -1.5, 3.0, 1.0]))


@st.composite
def _given_params(draw):
    """Entries in [-2, 6] or a few floats, integral ones among them, as a
    list, tuple, generator or (when valid) BraidTuple."""
    values = draw(st.lists(_ENTRIES, max_size=5))
    forms = ["list", "tuple", "generator"]
    if len(values) >= 2 and all(v == int(v) >= 1 for v in values):
        forms.append("BraidTuple")
    return values, draw(st.sampled_from(forms))


def _accepts(call, values, form):
    try:
        call(_FORMS[form](values))
    except ValueError:
        return False
    return True


def _cli_exit(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(list(argv))
        except SystemExit as exc:
            return exc.code


class TestParameterPath:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(given_params=_given_params())
    def test_one_rule_for_tuples_and_prefixes(self, given_params):
        values, form = given_params
        # a float counts when integral, but the CLI reads "3.0" as no integer
        is_prefix = len(values) >= 1 and all(v == int(v) >= 1 for v in values)
        is_tuple = is_prefix and len(values) >= 2
        assert _accepts(BraidTuple, values, form) == is_tuple
        for call in (dominant_chain, dominant_matrix, recessive_poly, limit_dilatation):
            assert _accepts(call, values, form) == is_prefix, call.__name__
        as_text = all(isinstance(v, int) for v in values)
        text = ",".join(map(str, values))
        assert _cli_exit("matrix", f"--tuple={text}") == (0 if is_tuple and as_text else 2)
        assert _cli_exit("limit", f"--prefix={text}") == (0 if is_prefix and as_text else 2)

    @pytest.mark.parametrize("values", [(2.7, 3), (3, 2.5), (2, "3")])
    def test_rejects_and_names_non_integral_values(self, values):
        bad = next(v for v in values if not isinstance(v, int))
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            BraidTuple(values)

    # every message for bad input, in full, for both minimums
    @pytest.mark.parametrize(
        "values, minimum, message",
        [
            ((4,), 2, "a braid tuple needs at least two parameters; "
             "a single star does not define a member of the family"),
            ((), 1, "a prefix needs at least one parameter"),
            ((1, 0), 2, "every parameter must be >= 1"),
            ((-2,), 1, "every parameter must be >= 1"),
            ((2.7, 3), 2, "parameter 2.7 is not an integer"),
            ((2, "3"), 1, "parameter '3' is not an integer"),
            ((None,), 1, "parameter None is not an integer"),
        ],
    )
    def test_error_messages(self, values, minimum, message):
        calls = [lambda: params(values, minimum), lambda: params(list(values), minimum)]
        if minimum == 2:
            calls.append(lambda: BraidTuple(values))
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, minimum, message",
        [("1,x", 2, "cannot parse braid tuple '1,x'"), ("", 1, "cannot parse prefix ''"),
         ("4", 2, "a braid tuple needs at least two parameters; "
          "a single star does not define a member of the family")],
    )
    def test_parse_error_messages(self, text, minimum, message):
        with pytest.raises(ValueError) as exc:
            parse_params(text, minimum)
        assert str(exc.value) == message

    def test_a_braid_tuple_is_not_checked_again(self, monkeypatch):
        bt = BraidTuple([4, 2.0, 3])
        checked = []
        integer = treebuilder._integer
        monkeypatch.setattr(
            treebuilder, "_integer", lambda v, *a: checked.append(v) or integer(v, *a)
        )
        assert params(bt, 1) is params(bt, 2) is bt.values == (4, 2, 3)
        assert BraidTuple(bt) == bt
        assert transition_matrix(bt) == transition_matrix((4, 2, 3))
        assert braid_char_poly(bt) == braid_char_poly((4, 2, 3))
        assert checked == [4, 2, 3, 4, 2, 3]  # the two plain tuples only


class TestTransitionMatrix:
    def test_golden_example(self):
        assert transition_matrix((4, 2)).to_rows() == GOLDEN_8x8

    def test_smallest_tuple(self):
        assert transition_matrix((1, 1)).to_rows() == [
            [0, 1, 1, 0],
            [1, 0, 1, 0],
            [1, 0, 1, 1],
            [1, 0, 2, 0],
        ]

    @pytest.mark.parametrize("m1,m2", [(1, 2), (2, 1), (3, 3), (4, 2), (5, 1)])
    def test_last_row_of_two_star_tuples(self, m1, m2):
        mat = transition_matrix((m1, m2))
        n1, n2 = block_boundaries((m1, m2))
        last = {j: v for (i, j), v in mat.entries.items() if i == n2}
        assert last == {1: 1, n1 + 1: 2}

    def test_rejects_single_parameter(self):
        with pytest.raises(ValueError):
            transition_matrix((4,))

    def test_size_matches_boundaries(self):
        for tv in ((1, 1), (4, 2), (2, 2, 3), (1, 2, 3, 4)):
            assert transition_matrix(tv).size == block_boundaries(tv)[-1]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(t=st.lists(st.integers(1, 30), min_size=2, max_size=12).map(tuple))
    def test_the_builds_take_entries_that_need_no_validation(self, t):
        # transition_matrix and the dominant block take _entries' dict as it
        # is, past NNMatrix's validation: positive ints at indices in 1..N,
        # N + k^2 + 4k of them, so that the validated matrix is the same
        size, k = block_boundaries(t)[-1], len(t) - 1
        entries = treebuilder._entries(t)
        assert len(entries) == size + k * k + 4 * k
        for (i, j), v in entries.items():
            assert type(i) is type(j) is type(v) is int
            assert 1 <= i <= size and 1 <= j <= size and v > 0
        assert transition_matrix(t) == NNMatrix(size, dict(entries))
        cut = block_boundaries(t[:-1])[-1] + 1
        block = corner(NNMatrix(size, dict(entries)), cut)
        assert dominant_matrix(t[:-1]) == block
        assert dominant_matrix(t[:-1]).char_poly() == block.char_poly()


class TestMatrixSizeLimit:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 30), min_size=2, max_size=40))
    def test_counted_nonzeros_are_the_entries(self, values):
        # the count the limit reads, N + k^2 + 4k, is exactly what is built
        k = len(values) - 1
        matrix = transition_matrix(values)
        assert len(matrix.entries) == matrix.size + k * k + 4 * k

    @pytest.fixture
    def no_entries(self, monkeypatch):
        # a matrix past the limit must not be built: without the limit these
        # tests would fill gigabytes.  The dict and the solve's arrays are
        # both built from the block boundaries, after the limit's check
        def refuse(vals):
            raise AssertionError("entries built")

        monkeypatch.setattr(treebuilder, "_entries", refuse)
        monkeypatch.setattr(treebuilder, "block_boundaries", refuse)

    @pytest.mark.parametrize(
        "values, nonzeros",
        [((10**7,) * 2, 20000007), ((1,) * 1001, 1006002), ((2 * 10**5,) * 5, 1000037)],
    )
    def test_refused_before_anything_is_built(self, no_entries, values, nonzeros):
        with pytest.raises(ValueError, match=f"{nonzeros} nonzeros; the limit is 1000000$"):
            transition_matrix(values)

    def test_dilatation_refuses_the_matrix_route_only(self, no_entries):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="the limit is 1000000"):
            dilatation((10**7,) * 2, method="both")
        assert time.perf_counter() - start < 0.1
        assert dilatation((10**7,) * 2, method="formula").lambda_formula > 1.0

    @pytest.mark.parametrize(
        "run, size, nonzeros",
        [
            (lambda: dilatation((1,) * 3000, method="both"), 6000, 9011997),
            (lambda: dilatation((1, 10**12), method="both"), 10**12 + 3, 10**12 + 8),
            (lambda: limit_dilatation((1,) * 3000), 6002, 9018002),
        ],
        ids=["both (1,)*3000", "both (1,10^12)", "limit (1,)*3000"],
    )
    def test_refused_before_the_formula_cell(self, no_entries, run, size, nonzeros):
        # the cell of (1,)*3000 took about 0.4 s before its refusal, and
        # (1, 10^12)'s was still running after 8 s
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            run()
        assert time.perf_counter() - start < 0.05
        assert str(refused.value) == (
            f"the transition matrix of size {size} would have {nonzeros} "
            "nonzeros; the limit is 1000000"
        )

    def test_cli_refuses_a_large_entry_at_once(self, no_entries):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            assert main(["dilatation", "--tuple", "1,1000000000000"]) == 1
        assert time.perf_counter() - start < 0.05
        assert err.getvalue() == (
            "error: the transition matrix of size 1000000000003 would have "
            "1000000000008 nonzeros; the limit is 1000000\n"
        )

    def test_cli_prints_one_error_line(self, no_entries):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["dilatation", "--tuple", "10000000,10000000"]) == 1
        assert err.getvalue() == (
            "error: the transition matrix of size 20000002 would have 20000007 "
            "nonzeros; the limit is 1000000\n"
        )


def lemma_depths(values):
    # the module docstring's depths: vertex 1, chain 2..n_1, then hub and chain
    ns = block_boundaries(values)
    depth = [0, *range(ns[0] - 1, 0, -1)]
    for lo, hi in zip(ns, ns[1:]):
        depth += [1, *range(hi - lo - 1, 0, -1)]
    return depth


def among_hubs(hubs):
    # the entries among the hubs as (row, col, entry) triples, sorted, the
    # ladder unrolled into them
    heads, steps, counts = hubs.ladder
    ladder = [(i, heads[t], 2) for i, count in zip(steps, counts) for t in range(count)]
    return sorted([*zip(*hubs.entries), *ladder])


def assert_same_structure(searched, levels):
    """The search builds the levels' structure field by field, the ladder unrolled.

    A search reads the ladder's entries one by one, among the others.
    """
    assert (searched.size, searched.hubs) == (levels.size, levels.hubs)
    assert among_hubs(searched) == among_hubs(levels)
    assert searched.chains == levels.chains
    assert (searched.roots, searched.rest) == (levels.roots, levels.rest)


def assert_level_structure(matrix, levels, depth):
    """The levels give the search's depths, and the search finds the levels' structure.

    The hubs, the entries among them, the chain terms, the roots' entries
    and the runs of the rest with their roots, products and powers: the
    search's equal those that ``_level_hubs`` reads from the levels.
    """
    assert depth == matrix._primitive_depths()
    assert matrix.is_primitive()
    assert_same_structure(hubsearch._searched_hubs(matrix.size, matrix.entries, depth), levels)


def assert_level_depths(values):
    assert_level_structure(
        transition_matrix(values),
        treebuilder._level_hubs(values, block_boundaries(values)[-1]),
        lemma_depths(values),
    )


def assert_block_depths(prefix):
    # a dominant block's depths are the first n_i + 1 of its extension by 1
    block = dominant_matrix(prefix)
    levels = treebuilder._level_hubs(prefix + (1,), block.size)
    assert_level_structure(block, levels, lemma_depths(prefix + (1,))[: block.size])


class TestLevelDepths:
    # the depths and the primitivity lemma of the module docstring, and the
    # hubs and chains that _level_hubs reads from the levels

    @pytest.mark.parametrize(
        "values", [(1, 1), (1, 2), (2, 1), (79,) * 42], ids=["1,1", "1,2", "2,1", "(79,)*42"]
    )
    def test_small_tuples_and_the_witness(self, values):
        assert_level_depths(values)

    def test_tuple_sweep_corpus(self):
        for values in corpus_parameters()[0][1:201]:
            assert_level_depths(values)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 60), min_size=2, max_size=12).map(tuple))
    def test_random_tuples(self, values):
        assert_level_depths(values)

    @pytest.mark.parametrize("prefix", [(1,), (3,) * 300], ids=["(1,)", "(3,)*300"])
    def test_blocks(self, prefix):
        assert_block_depths(prefix)

    def test_limit_scan_blocks(self):
        for prefix in corpus_parameters()[1]:
            assert_block_depths(prefix)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=11).map(tuple))
    def test_random_blocks(self, prefix):
        assert_block_depths(prefix)


def _entries_1_to_80(shortest, longest):
    # tuples with entries 1..80, their length drawn first; entries of 1 are
    # drawn often, for empty chains and for vertex 1 as a chain's root
    entry = st.one_of(st.just(1), st.integers(1, 80))
    return st.integers(shortest, longest).flatmap(lambda n: st.tuples(*[entry] * n))


class TestChainElimination:
    # _hub_matrix's R(t), built from the levels, against the dense Schur
    # complement of the entries dict over the hubs of the breadth-first
    # search, entry by entry in exact arithmetic; the search's structure is
    # the levels' field by field
    TS = (Fraction(1), Fraction(7, 5), Fraction(3))

    def assert_schur(self, matrix, levels):
        searched = searched_hubs(matrix)
        assert_same_structure(searched, levels)
        coefs, lengths = levels.chains[2:]
        for t in self.TS:
            weights = np.array([c * t**-n for c, n in zip(coefs, lengths)], dtype=object)
            built = hubsearch._hub_matrix(levels, weights).tolist()
            assert built == schur_hub_matrix(matrix.entries, searched.hubs, t)
        # the sparse R(t)v, ladder included, sums the same positive terms as
        # the dense product in another order
        v = np.linspace(1.0, 2.0, len(levels.hubs))
        weights = np.array([c * 1.4**-n for c, n in zip(coefs, lengths)])
        dense = hubsearch._hub_matrix(levels, weights) @ v
        np.testing.assert_allclose(hubsearch._hub_product(levels, weights, v), dense, rtol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(values=_entries_1_to_80(2, 30))
    @example(values=(1, 1))
    @example(values=(1, 80))
    @example(values=(80, 1))
    def test_tuples(self, values):
        levels = treebuilder._level_hubs(values, block_boundaries(values)[-1])
        self.assert_schur(transition_matrix(values), levels)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(prefix=_entries_1_to_80(1, 29))
    @example(prefix=(1,))
    @example(prefix=(1, 1))
    def test_dominant_blocks(self, prefix):
        block = dominant_matrix(prefix)
        self.assert_schur(block, treebuilder._level_hubs(prefix + (1,), block.size))


class TestDominantMatrix:
    def test_golden_block(self):
        expected = [row[:6] for row in GOLDEN_8x8[:6]]
        assert dominant_matrix((4,)).to_rows() == expected

    def test_smallest_prefix(self):
        assert dominant_matrix((1,)).to_rows() == [[0, 1, 1], [1, 0, 1], [1, 0, 1]]

    def test_char_poly_examples(self):
        assert dominant_matrix((4,)).char_poly() == IntPoly.parse("t^6 - t^5 - 2*t")
        assert dominant_matrix((1,)).char_poly() == IntPoly.parse("t^3 - t^2 - 2*t")

    def test_matches_chain_polynomials(self):
        for prefix in ((1,), (3,), (1, 1), (2, 2), (4, 1), (2, 1, 2)):
            assert dominant_matrix(prefix).char_poly() == dominant_chain(prefix)[-1]

    @pytest.mark.parametrize("prefix", [(1,), (4,), (1, 1), (2, 3), (2, 2, 1), (3, 1, 4, 1)])
    def test_independent_of_appended_parameter(self, prefix):
        block = dominant_matrix(prefix)
        for appended in (2, 3, 7):
            full = transition_matrix(tuple(prefix) + (appended,))
            assert corner(full, block.size) == block


class TestRecessivePolynomials:
    def test_worked_example(self):
        assert recessive_poly((4,)) == IntPoly.parse("-2*t^5 - t + 1")

    def test_smallest_prefix(self):
        assert recessive_poly((1,)) == IntPoly.parse("-2*t^2 - t + 1")

    def test_dual_examples(self):
        assert dual_recessive_poly((4,)) == IntPoly.parse("t^6 - t^5 - 2*t")
        assert dual_recessive_poly((1,)) == IntPoly.parse("t^3 - t^2 - 2*t")

    @pytest.mark.parametrize("prefix", [(1,), (4,), (1, 1), (2, 3), (2, 2, 1)])
    def test_independent_of_appended_parameter(self, prefix):
        for reciprocal in (False, True):
            one = bordered_det_oracle(prefix, 1, reciprocal)
            two = bordered_det_oracle(prefix, 2, reciprocal)
            three = bordered_det_oracle(prefix, 3, reciprocal)
            assert one == two == three

    # False: the integer-row recessive_poly against the oracle's polynomial
    # matrix; True: its reversal against the rows of I - tB
    @pytest.mark.parametrize("reciprocal", [False, True])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        prefix=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
        appended=st.integers(1, 4),
    )
    def test_dual_is_the_bordered_determinant_of_identity_minus_tb(
        self, reciprocal, prefix, appended
    ):
        poly = dual_recessive_poly if reciprocal else recessive_poly
        assert poly(prefix) == bordered_det_oracle(prefix, appended, reciprocal)

    # the one-row step on blocks of up to 249 rows, against two fresh runs
    # on the bordered rows copied from the whole transition matrix
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        prefix=st.lists(st.integers(1, 30), min_size=1, max_size=8).map(tuple),
        appended=st.integers(1, 4),
    )
    def test_one_row_step_on_long_prefixes(self, prefix, appended):
        expected = bordered_rows_oracle(prefix, appended)
        assert recessive_poly(prefix) == expected
        degree = block_boundaries(prefix)[-1] + 1
        assert dual_recessive_poly(prefix) == expected.reciprocal(degree)

    @pytest.mark.parametrize("prefix", [(1,), (4,), (2, 3), (2, 2, 1), (1,) * 8])
    def test_the_integer_rows_are_the_bordered_determinant(self, prefix):
        for appended in (1, 3):
            assert bordered_rows_oracle(prefix, appended) == bordered_det_oracle(
                prefix, appended, False
            )

    @pytest.mark.parametrize("prefix", [(1,), (4,), (2, 3), (3, 1, 4, 1)])
    def test_recessive_poly_runs_the_block_once_then_closes_from_its_memo(self, prefix):
        # the recessive polynomial is minus the block's h of the last row:
        # recessive_poly runs the block once and forms one Krylov sequence
        # past the run's; after a tuple has closed on that row, _recessive
        # runs nothing and forms none, and any other last row is still the
        # bordered determinant
        cut = block_boundaries(prefix)[-1] + 1
        with krylov_rows() as run:
            dominant_matrix(prefix).char_poly()
        with berkowitz_starts() as starts, krylov_rows() as sequences:
            recessive_poly(prefix)
        assert starts == [None] and sequences == [run[0] + 1]
        block, last = treebuilder._extension(prefix)
        block._joined(cut + 2, treebuilder._tuple_piece(cut, last, 2)).char_poly()
        row = {**last, cut: 3}  # a changed diagonal closes from the same memo entry
        with berkowitz_starts() as starts, krylov_rows() as sequences:
            got = [treebuilder._recessive(block, last), treebuilder._recessive(block, row)]
        assert starts == [] and sequences == [0]
        assert got == [bordered_rows_oracle(prefix, 2), bordered_rows_oracle(prefix, 2, row)]
        row = {**last, 1: last[1] + 1}
        assert treebuilder._recessive(block, row) == bordered_rows_oracle(prefix, 2, row)

    # _recessive by cofactor expansion, on the family's last row, on that
    # row with its diagonal changed and on any row, against the bordered
    # oracles
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        prefix=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
        data=st.data(),
    )
    def test_recessive_identity_against_the_bordered_oracles(self, prefix, data):
        appended = data.draw(st.integers(1, 4))
        cut = block_boundaries(prefix)[-1] + 1
        block, last = treebuilder._extension(prefix)
        assert treebuilder._recessive(block, last) == bordered_det_oracle(prefix, appended, False)
        diagonal = data.draw(st.integers(0, 5))
        row = {j: v for j, v in {**last, cut: diagonal}.items() if v}
        assert treebuilder._recessive(block, row) == bordered_rows_oracle(prefix, appended, row)
        row = data.draw(st.dictionaries(st.integers(1, cut), st.integers(1, 5)))
        assert treebuilder._recessive(block, row) == bordered_rows_oracle(prefix, appended, row)

    @pytest.mark.parametrize("prefix", [(1,), (4,), (1, 1), (3, 2), (1, 2, 1)])
    def test_mirror_identities(self, prefix):
        sign = 1 if len(prefix) % 2 == 1 else -1
        dom = dominant_chain(prefix)[-1]
        assert recessive_poly(prefix) == dom.reciprocal(dom.degree) * sign
        assert dual_recessive_poly(prefix) == dom * sign


class TestValidateStructure:
    @pytest.mark.parametrize("tv", [(4, 2), (1, 1), (2, 2, 3), (1, 2, 3, 1)])
    def test_family_matrices_pass(self, tv):
        report = validate_structure(tv)
        assert report.ok
        assert len(report.checks) == 5
        assert report.failures == ()

    def test_grid_matrices_pass(self):
        # every gluing check on every tuple of the 775-tuple grid
        assert [tv for tv in grid_tuples() if not validate_structure(tv).ok] == []

    # (2,2,3): l = 6, the hub row 7, middle rows 8..9 and the last row 10;
    # each corruption is written over the sound entries, in this order
    @pytest.mark.parametrize(
        "corruption, failures",
        [
            # row 8 gains a column-1 entry after its superdiagonal one
            (
                {(8, 9): 2, (8, 1): 1},
                [("middle_rows_unit_superdiagonal", "offending rows [(8, {1: 1, 9: 2})]")],
            ),
            ({(6, 7): 0}, [("feed_from_previous_block", "entry (6,7) = 0")]),
            ({(10, 7): 1}, [("last_row_hub_weight", "entry (10,7) = 1")]),
            ({(10, 2): 5, (7, 1): 0}, [("hub_and_last_rows_agree", "mismatch at columns [1, 2]")]),
            (
                {(7, 7): 0, (9, 10): 0},
                [
                    ("hub_self_transition", "entry (7,7) = 0"),
                    ("middle_rows_unit_superdiagonal", "offending rows [(9, {})]"),
                ],
            ),
        ],
    )
    def test_corrupted_rows_are_reported_in_full(self, corruption, failures):
        m = BraidTuple((2, 2, 3))
        entries = {**transition_matrix(m).entries, **corruption}
        report = treebuilder._structure_report(m, NNMatrix(m.size, entries))
        assert report.failures == tuple(StructureCheck(name, False, d) for name, d in failures)

    def test_failure_reporting(self):
        bad = StructureCheck("example", False, "entry (2,3) = 0")
        report = StructureReport((1, 1), (bad,))
        assert not report.ok
        assert report.failures == (bad,)


class TestLevelPieces:
    # verify grows each block from its parent's by the child piece, from the
    # empty prefix's (vertex 1 alone) down, and joins each tuple to its block
    # by its tuple piece, with no whole build; every block shares its
    # ancestors' pieces in one flat chain of maps
    @staticmethod
    def _grown(prefix):
        grown = treebuilder._extension(())
        for m in prefix:
            grown = treebuilder._child_extension(*grown, m)
        return grown

    def _check(self, prefix, lasts):
        block, row = self._grown(prefix)
        whole, whole_row = treebuilder._extension(prefix)
        assert block == dominant_matrix(prefix) == whole
        assert row == whole_row and len(block.entries.maps) == len(prefix) + 1
        assert block.char_poly() == whole.char_poly()
        for last in lasts:
            t = prefix + (last,)
            joined = block._joined(block.size + last, treebuilder._tuple_piece(block.size, row, last))
            assert joined == transition_matrix(t) and joined.entries == glued_entries_oracle(t)
            assert joined.char_poly() == braid_char_poly(t)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(prefix=st.lists(st.integers(1, 12), min_size=1, max_size=8).map(tuple))
    def test_a_block_and_its_tuples_grow_from_the_parent(self, prefix):
        self._check(prefix, range(1, 13))

    def test_the_verify_grid(self):
        # the prefixes and tuples of verify --max-k 3 --max-m 5
        for length in (1, 2, 3):
            for prefix in itertools.product(range(1, 6), repeat=length):
                self._check(prefix, range(1, 6))

    def test_the_pieces(self):
        # (2,3): n_1 = 3, n_2 = 7, hubs 4 and 8; its tuple (2,3,2) adds the
        # link (8,9), the unit (9,10) and the last row 10, and its child
        # (2,3,2) that, the feeds (9,11) and (10,11) and the hub row 11
        row = {1: 1, 4: 2, 8: 2}
        piece = {(8, 9): 1, (9, 10): 1, (10, 1): 1, (10, 4): 2, (10, 8): 2}
        assert treebuilder._extension((2, 3))[1] == row
        assert treebuilder._tuple_piece(8, row, 2) == piece
        assert treebuilder._child_piece(8, row, 2) == {
            **piece, (9, 11): 1, (10, 11): 1, (11, 1): 1, (11, 4): 2, (11, 8): 2, (11, 11): 1
        }


class TestGridIdentities:
    TUPLES = [
        tv
        for length in (2, 3)
        for tv in itertools.product(range(1, 4), repeat=length)
    ]

    def test_char_poly_equals_formula(self):
        for tv in self.TUPLES:
            assert transition_matrix(tv).char_poly() == braid_char_poly(tv)

    def test_anti_reciprocity(self):
        for tv in self.TUPLES:
            bt = BraidTuple(tv)
            poly = braid_char_poly(bt)
            mirrored = poly.reciprocal(bt.size)
            assert poly == (mirrored if bt.sign > 0 else -mirrored)
            assert abs(poly.coeffs[0]) == 1

    def test_everything_primitive(self):
        for tv in self.TUPLES:
            assert transition_matrix(tv).is_primitive()
        for prefix in sorted({tv[:-1] for tv in self.TUPLES}):
            assert dominant_matrix(prefix).is_primitive()


class TestTreeMapSpec:
    def test_counts_reproduce_golden_matrix(self):
        golden = NNMatrix.from_rows(GOLDEN_8x8)
        images = {}
        for j in range(1, 9):
            path = []
            for i in range(1, 9):
                path.extend([i] * golden.entries.get((i, j), 0))
            images[j] = tuple(path)
        spec = TreeMapSpec(8, images)
        assert spec.matches(golden)
        assert spec.transition_matrix() == golden

    def test_orientation_sign_is_ignored_in_counts(self):
        spec = TreeMapSpec(2, {1: (2, -2), 2: (1,)})
        assert spec.transition_matrix() == NNMatrix.from_rows([[0, 1], [2, 0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeMapSpec(2, {3: (1,)})
        with pytest.raises(ValueError):
            TreeMapSpec(2, {1: (5,)})
