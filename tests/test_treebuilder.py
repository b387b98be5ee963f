import contextlib
import importlib
import io
import itertools
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

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
from pabraid.cli import main
from pabraid.treebuilder import StructureCheck, StructureReport, parse_params

from helpers import GOLDEN_8x8, TreeMapSpec, bordered_det_oracle


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
        last = {j: mat.entry(n2, j) for j in range(1, n2 + 1) if mat.entry(n2, j)}
        assert last == {1: 1, n1 + 1: 2}

    def test_rejects_single_parameter(self):
        with pytest.raises(ValueError):
            transition_matrix((4,))

    def test_size_matches_boundaries(self):
        for tv in ((1, 1), (4, 2), (2, 2, 3), (1, 2, 3, 4)):
            assert transition_matrix(tv).size == block_boundaries(tv)[-1]


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
        # tests would fill gigabytes
        def refuse(vals):
            raise AssertionError("entries built")

        monkeypatch.setattr(importlib.import_module("pabraid.treebuilder"), "_entries", refuse)

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

    def test_cli_prints_one_error_line(self, no_entries):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["dilatation", "--tuple", "10000000,10000000"]) == 1
        assert err.getvalue() == (
            "error: the transition matrix of size 20000002 would have 20000007 "
            "nonzeros; the limit is 1000000\n"
        )


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
            assert full.submatrix(block.size) == block


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

    def test_failure_reporting(self):
        bad = StructureCheck("example", False, "entry (2,3) = 0")
        report = StructureReport((1, 1), (bad,))
        assert not report.ok
        assert report.failures == (bad,)


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
                path.extend([i] * golden.entry(i, j))
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
