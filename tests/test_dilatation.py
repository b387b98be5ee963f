import importlib
import math
import time
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from pabraid import (
    BraidTuple,
    IntPoly,
    NNMatrix,
    ScanRow,
    braid_char_poly,
    convergence_table,
    dilatation,
    dominant_chain,
    dominant_matrix,
    find_parameters,
    first_real_root_above,
    limit_dilatation,
    monotonicity_check,
    roots_outside_unit_disk,
    transition_matrix,
)

from helpers import (
    HARD_TUPLES,
    bisect_root,
    climb_chain,
    corpus_parameters,
    dominant_chain_oracle,
    float_hint_oracle,
    grid_tuples,
    record_decisions,
    record_rungs,
    seeded_radius,
)

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2

# the package re-exports the function dilatation under the module's name
dilatation_module = importlib.import_module("pabraid.dilatation")
hubsearch = importlib.import_module("pabraid.hubsearch")
nnmatrix = importlib.import_module("pabraid.nnmatrix")


class TestDominantChain:
    def test_base_cases(self):
        assert dominant_chain((1,)) == [IntPoly.parse("t^3 - t^2 - 2*t")]
        assert dominant_chain((4,)) == [IntPoly.parse("t^6 - t^5 - 2*t")]

    def test_two_levels(self):
        chain = dominant_chain((1, 1))
        assert chain[-1] == IntPoly.parse("t^5 - 2*t^4 - 5*t^3 + 2*t")

    def test_monic_with_expected_degrees(self):
        from pabraid import block_boundaries

        prefix = (2, 1, 3, 2)
        chain = dominant_chain(prefix)
        for poly, boundary in zip(chain, block_boundaries(prefix)):
            assert poly.coeffs[-1] == 1
            assert poly.degree == boundary + 1

    def test_matches_dominant_matrix(self):
        from pabraid import dominant_matrix

        for prefix in ((1, 1), (2, 2), (3, 1, 2)):
            assert dominant_chain(prefix)[-1] == dominant_matrix(prefix).char_poly()

    def test_rejects_empty_prefix(self):
        with pytest.raises(ValueError):
            dominant_chain(())


class TestBraidCharPoly:
    def test_worked_example(self):
        assert braid_char_poly((4, 2)) == IntPoly.parse(
            "t^8 - t^7 - 2*t^5 - 2*t^3 - t + 1"
        )

    def test_smallest_tuple(self):
        assert braid_char_poly((1, 1)) == IntPoly.parse("t^4 - t^3 - 4*t^2 - t + 1")

    @pytest.mark.parametrize("m", range(1, 9))
    def test_last_parameter_family(self, m):
        dom = IntPoly.parse("t^6 - t^5 - 2*t")
        rec = IntPoly.parse("-2*t^5 - t + 1")
        assert braid_char_poly((4, m)) == dom.shift(m) + rec

    def test_matches_matrix_route(self):
        for tv in ((1, 1), (4, 2), (2, 2, 3), (1, 2, 1, 2)):
            assert braid_char_poly(tv) == transition_matrix(tv).char_poly()


# tuples as the benchmark's sweep draws them
_SWEEP_TUPLES = st.lists(st.integers(1, 40), min_size=2, max_size=12).map(tuple)
# tuples beyond the grid, and tuples whose matrix has N <= 150
_LONG_TUPLES = st.lists(st.integers(1, 80), min_size=2, max_size=30).map(tuple)
_SMALL_TUPLES = st.integers(2, 30).flatmap(
    lambda n: st.lists(st.integers(1, min(80, 150 // n - 1)), min_size=n, max_size=n)
).map(tuple)


class TestExpansionOracle:
    """The coefficient-list fold against level-by-level ``IntPoly`` arithmetic."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(values=_LONG_TUPLES)
    @example(values=(79,) * 42)
    @example(values=(3,) * 301)
    def test_chain_and_char_poly_match_the_oracle(self, values):
        chain = dominant_chain_oracle(values[:-1])
        assert dominant_chain(values[:-1]) == chain
        dom, sign = chain[-1], (-1) ** len(values)
        closed = dom.shift(values[-1]) + dom.reciprocal(dom.degree) * sign
        assert braid_char_poly(values) == closed

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(values=_SWEEP_TUPLES)
    def test_char_poly_is_sign_reciprocal(self, values):
        # t^last P + σ P* is σ-reciprocal at degree N for any P, so this holds
        # by construction; it is checked here, not at run time
        bt = BraidTuple(values)
        poly = braid_char_poly(bt)
        assert poly == poly.reciprocal(bt.size) * bt.sign

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(values=_SMALL_TUPLES)
    def test_char_poly_matches_the_matrix(self, values):
        assert sum(values) + len(values) <= 150
        assert braid_char_poly(values) == transition_matrix(values).char_poly()


class TestDilatation:
    def test_worked_example_bracket(self):
        report = dilatation((4, 2), method="both")
        assert 1.80 < report.lambda_formula < 1.85
        assert report.agreement <= 1e-9
        assert report.certificate.lower <= report.lambda_matrix <= report.certificate.upper

    def test_smallest_tuple_closed_form(self):
        report = dilatation((1, 1), method="formula")
        assert 2.60 < report.lambda_formula < 2.65
        assert abs(report.lambda_formula - (3 + math.sqrt(5)) / 2) < 1e-10
        assert report.lambda_matrix is None and report.certificate is None

    def test_matrix_only(self):
        report = dilatation((4, 2), method="matrix")
        assert report.lambda_formula is None and report.formula_bracket is None
        assert 1.80 < report.lambda_matrix < 1.85

    def test_agreement_across_methods(self):
        for tv in ((2, 3), (1, 1, 1), (3, 2, 1), (2, 1, 2, 1)):
            assert dilatation(tv, method="both").agreement <= 1e-9

    def test_lambda_exceeds_one(self):
        for tv in ((1, 1), (5, 5), (2, 2, 2, 2)):
            assert dilatation(tv, method="formula").lambda_formula > 1.0

    def test_json_dict(self):
        payload = dilatation((4, 2), method="both").to_json_dict()
        assert payload["tuple"] == [4, 2]
        assert "formula_bracket" not in payload
        assert payload["polynomial"] == "t^8 - t^7 - 2*t^5 - 2*t^3 - t + 1"
        # the flags are constant: every braid matrix is primitive
        assert list(payload["certificate"]) == ["irreducible", "primitive", "eigenvalue", "residual"]
        assert payload["certificate"]["irreducible"] is payload["certificate"]["primitive"] is True

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            dilatation((4, 2), method="magic")

    @pytest.mark.parametrize("method", ["formula", "matrix", "both"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, "x", None])
    def test_rejects_tol_that_is_not_positive_and_finite(self, method, tol):
        with pytest.raises(ValueError, match=r"^tol must be positive and finite, not "):
            dilatation((4, 2), method=method, tol=tol)

    @pytest.mark.parametrize("method", ["formula", "matrix", "both"])
    def test_polynomial_is_expanded_only_when_read(self, monkeypatch, method):
        calls = []

        def spy(m):
            calls.append(m)
            return braid_char_poly(m)

        monkeypatch.setattr(dilatation_module, "braid_char_poly", spy)
        report = dilatation((4, 2, 7), method=method)
        assert calls == []
        assert report.polynomial == report.polynomial == braid_char_poly((4, 2, 7))
        assert calls == [(4, 2, 7)]


def _dyadic(x):
    """(num, shift) with x == num / 2^shift, for a dyadic rational x."""
    x = Fraction(x)
    shift = x.denominator.bit_length() - 1
    assert x.denominator == 1 << shift
    return x.numerator, shift


def _below(values, x):
    return dilatation_module._decide(values[:-1], values[-1], *_dyadic(x))


def _limit_below(prefix, x):
    return dilatation_module._decide(prefix, None, *_dyadic(x))


def _overlaps(bracket, cert):
    lo, hi = bracket
    return lo <= Fraction(cert.upper) and Fraction(cert.lower) <= hi


# the lower end of λ(4,2)'s 2^-48 cell, in units of 2^-48
_CELL_4_2 = 509410410488522


class TestTransferRecurrence:
    @pytest.mark.parametrize("values", [(4, 2), (1, 1), (4, 2, 7), (3, 1, 5, 2), (2, 2, 3, 1)])
    def test_decision_matches_expanded_polynomials(self, values):
        # λ < x exactly when every chain level and the closing polynomial
        # are positive at x; checked against the expanded polynomials
        polys = dominant_chain(values[:-1]) + [braid_char_poly(values)]
        for num in range(1, 64):
            x = Fraction(num, 16)
            expected = x > 1 and all(poly(x) > 0 for poly in polys)
            assert _below(values, x) == expected, x

    def test_false_at_and_below_one(self):
        for x in (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-3)):
            assert not _below((1, 1), x)

    def test_cell_brackets_the_decision(self):
        report = dilatation((4, 2), method="formula")
        lo, hi = report.formula_bracket
        assert hi - lo == Fraction(1, 2**48)
        assert lo < Fraction(report.lambda_formula) < hi
        assert not _below((4, 2), lo) and _below((4, 2), hi)

    @pytest.mark.parametrize(
        "hint",
        [1.0, 1.8097893, 1.9, 7.5, math.inf, math.nan]
        + [(_CELL_4_2 + k) * 2.0**-48 for k in (0, 0.5, 1, -1, 2, -2, 5, -5, 1000, -1000)],
    )
    def test_cell_does_not_depend_on_the_float_hint(self, hint):
        # a hint that misses, by a few units or by far, is widened; one on a
        # grid point, the cell's own lower end (k = 0) or the next cell's
        # (k = 1), is a hint like any other; one that is not finite is
        # replaced by 1
        below = partial(dilatation_module._decide, (4,), 2)
        assert dilatation_module._cell((4,), 2).lo == _CELL_4_2
        assert dilatation_module._formula_cell(below, hint).lo == _CELL_4_2

    @pytest.mark.parametrize(
        "hint", [2.0, 2.0 + 2.0**-49, 2.0 + 2.0**-48, 2.0 - 2.0**-48, 2.0 + 5 * 2.0**-48, 7.5, math.nan]
    )
    def test_limit_on_a_grid_point(self, hint):
        # μ(1) = 2 is a grid point: its cell is [2, 2 + 2^-48) from any hint
        below = partial(dilatation_module._decide, (1,), None)
        assert dilatation_module._cell((1,)).lo == 2 << 48
        assert dilatation_module._formula_cell(below, hint).lo == 2 << 48

    @pytest.mark.parametrize("k, decisions", [(0.5, 2), (1.5, 2), (-0.5, 3), (2.5, 4)])
    def test_decisions_at_the_hint_cell(self, monkeypatch, k, decisions):
        # the hint's own cell costs two decisions, as does the cell above
        # it (the float hint errs upwards); the cell below costs three
        calls = record_decisions(monkeypatch)
        below = partial(dilatation_module._decide, (4,), 2)
        cell = dilatation_module._formula_cell(below, (_CELL_4_2 + k) * 2.0**-48)
        assert (cell.lo, len(calls)) == (_CELL_4_2, decisions)

    def test_matches_root_isolation_on_the_grid(self):
        # climbing the expanded chain with the generic root finders, an
        # independent route, lands in the same 2^-48 cell
        for values in grid_tuples():
            chain = dominant_chain(values[:-1])
            old = first_real_root_above(braid_char_poly(values), climb_chain(chain))
            assert dilatation_module._cell(values[:-1], values[-1]).value() == old, values

    @pytest.mark.parametrize("values", [(1, 1, 28), (4, 200), (2, 2, 40), *HARD_TUPLES])
    def test_former_sign_change_failures(self, values):
        # root isolation found no sign change above the climbed root here
        report = dilatation(values, method="both")
        assert _overlaps(report.formula_bracket, report.certificate)
        assert report.agreement <= 1e-9


class TestFloatHint:
    # the matrix route starts Noda's iteration at the hint: moving it by two
    # ulps changed the printed lambda_matrix of most benchmark tuples.  A
    # reassociated product changes a few hints in a thousand; the examples,
    # found by search, are moved by (down * r) * q -> down * (r * q),
    # (down * r) * q -> (down * q) * r and (2s x r) q -> 2s x (r q)
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @example(prefix=(21, 7, 31, 11, 1, 3, 33), last=35, below=0, above=None)
    @example(prefix=(35, 31, 31, 34, 1, 2, 28), last=15, below=0, above=None)
    @example(prefix=(23, 10, 36, 36, 9, 2, 1, 7, 34, 9, 28), last=None, below=0, above=None)
    @given(
        prefix=st.lists(st.integers(1, 40), min_size=1, max_size=12).map(tuple),
        last=st.one_of(st.none(), st.integers(1, 40)),
        below=st.integers(0, 1 << 44),
        above=st.one_of(st.none(), st.integers(0, 1 << 44)),
    )
    def test_hint_is_the_oracle_bit_for_bit(self, prefix, last, below, above):
        # cold, from μ's hint as a scan's first row starts, and inside warm
        # brackets up to 2^-4 wide on either side of the cold hint
        hint = dilatation_module._float_hint
        cold = float_hint_oracle(prefix, last)
        assert hint(prefix, last).hex() == cold.hex()
        brackets = [(max(1.0, cold - below * 2.0**-48), None if above is None else cold + above * 2.0**-48)]
        if last is not None:
            brackets.append((float_hint_oracle(prefix), None))
        for lo, hi in brackets:
            assert hint(prefix, last, lo, hi).hex() == float_hint_oracle(prefix, last, lo, hi).hex()

    def test_decisions_over_the_grid_and_a_scan(self, monkeypatch):
        # a count, not a timing: every grid tuple's cell is the hint's own
        # cell or the one below it, two decisions each
        calls = record_decisions(monkeypatch)
        for values in grid_tuples():
            dilatation_module._cell(values[:-1], values[-1])
        assert len(calls) == 2 * 775
        calls.clear()
        convergence_table((2, 8, 8), range(1, 41))  # scan --prefix 2,8,8 --m-max 40
        assert len(calls) == 82


# prefixes with an entry of 1000 or more, beside small ones
_PAST_THE_UNITS = st.lists(
    st.one_of(st.integers(1, 40), st.integers(1000, 3000)), min_size=1, max_size=4
).filter(lambda prefix: max(prefix) >= 1000).map(tuple)


def _lift(prefix, last, num, shift, prec):
    # the least lift of x^m over the levels of prefix + (last,) at prec
    ms = [m for m, _ in dilatation_module._levels(prefix)] + [last or 1]
    return min(dilatation_module._power(num, shift, m, prec)[2] for m in ms)


def assert_balls_hold(prefix, num, shift, prec, exact):
    # the rung at prec answers as the exact pair does, and every ball it
    # returns holds the exact pair's value
    pair = dilatation_module._pair(prefix, num, shift, prec)
    if pair is None:
        return
    assert bool(pair) == bool(exact)
    for (mid, rad, exp), (value, _, exact_exp) in zip(pair or (), exact or ()):
        d = exp - exact_exp  # the exact pair is the finer
        assert d >= 0 and abs((mid << d) - value) <= rad << d


class TestPairProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        prefix=st.lists(st.integers(1, 20), min_size=1, max_size=6).map(tuple),
        shift=st.integers(0, 12),
        data=st.data(),
    )
    def test_pair_is_the_scaled_dominant_pair(self, prefix, shift, data):
        # the transfer recurrence carries the chain's last polynomial P and
        # its reciprocal P* as balls: exactly, with radius 0, on the exact
        # rung, and inside the balls on every rung that answers
        num = data.draw(st.integers((1 << shift) + 1, 4 << shift), label="num")
        dom = dominant_chain(prefix)[-1]
        x = Fraction(num, 1 << shift)
        values = (dom(x), dom.reciprocal(dom.degree)(x))
        exact = dilatation_module._pair(prefix, num, shift)
        assert exact is not None
        for prec in (None, 2, 8, shift + 8, shift + 64):
            pair = dilatation_module._pair(prefix, num, shift, prec)
            if pair is None:
                continue
            assert bool(pair) == bool(exact)
            for (mid, rad, exp), value in zip(pair or (), values):
                assert prec is not None or (rad, exp) == (0, -shift * dom.degree)
                assert abs(mid - value / Fraction(2) ** exp) <= rad

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(prefix=_PAST_THE_UNITS, shift=st.integers(0, 12), data=st.data())
    def test_balls_past_the_units_hold_the_exact_pair(self, prefix, shift, data):
        # an entry of 1000 or more puts x^m, for x >= 3/2, past 2^prec on
        # every rung here: its lift is below 0, the q-terms are shifted
        # right, and every ball still holds the exact rung's value
        num = data.draw(st.integers((3 << shift) // 2 + 1, 4 << shift), label="num")
        exact = dilatation_module._pair(prefix, num, shift)
        for prec in (2, 8, shift + 8, shift + 64):
            assert _lift(prefix, None, num, shift, prec) < 0
            assert_balls_hold(prefix, num, shift, prec, exact)

    def test_the_aligned_radius_of_a_q_term_counts(self):
        # found by search: without the radius of (1 - x) P* shifted right
        # by -lift, the last level's P* ball misses its exact value
        prefix, num, shift, prec = (2432, 27, 1), 3487, 10, 26
        assert _lift(prefix, None, num, shift, prec) < 0
        assert_balls_hold(prefix, num, shift, prec, dilatation_module._pair(prefix, num, shift))


class TestBallLadder:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        prefix=st.lists(st.integers(1, 40), min_size=1, max_size=12).map(tuple),
        last=st.one_of(st.none(), st.integers(1, 40)),
        data=st.data(),
    )
    def test_ladder_answers_as_the_exact_rung(self, prefix, last, data):
        # points 2^-4 ... 2^-200 from either end of the root's 2^-48 cell,
        # on grids up to 2^-256: the ladder answers as the exact rung, and
        # no rung of any precision, down to 8 bits, answers otherwise
        cell = dilatation_module._cell(prefix, last)
        decide = partial(dilatation_module._decide, prefix, last)
        end = Fraction(cell.lo + data.draw(st.integers(0, 1), label="end"), 2**48)
        j = data.draw(st.integers(4, 200), label="j")
        x = end + data.draw(st.sampled_from((-1, 1)), label="side") * Fraction(1, 2**j)
        num, shift = _dyadic(x)
        pad = data.draw(st.integers(0, 256 - shift), label="pad")
        num, shift = num << pad, shift + pad
        exact = dilatation_module._decision(prefix, last, num, shift, None)
        assert decide(num, shift) == exact
        for prec in (8, 32, 128, shift + dilatation_module._GUARD_BITS, 4 * shift + 256):
            assert dilatation_module._decision(prefix, last, num, shift, prec) in (None, exact)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        first=st.integers(1, 6),
        rest=_PAST_THE_UNITS,
        last=st.one_of(st.none(), st.integers(1, 3000)),
        data=st.data(),
    )
    def test_ladder_past_the_units_answers_as_the_exact_rung(self, first, rest, last, data):
        # μ(prefix) >= μ(6) > 1.34, so near the root x^m of an entry of 1000
        # or more passes 2^prec on every rung here, down to shift + 8 bits:
        # its lift is below 0, yet each rung's balls hold the exact rung's
        # values and its answers are the exact rung's
        prefix = (first, *rest)
        cell = dilatation_module._cell(prefix, last)
        end = Fraction(cell.lo + data.draw(st.integers(0, 1), label="end"), 2**48)
        j = data.draw(st.integers(4, 60), label="j")
        x = end + data.draw(st.sampled_from((-1, 1)), label="side") * Fraction(1, 2**j)
        num, shift = _dyadic(x)
        pad = data.draw(st.integers(0, 16), label="pad")
        num, shift = num << pad, shift + pad
        exact = dilatation_module._decision(prefix, last, num, shift, None)
        assert dilatation_module._decide(prefix, last, num, shift) == exact
        exact_pair = dilatation_module._pair(prefix, num, shift)
        for prec in (shift + 8, shift + 32, shift + dilatation_module._GUARD_BITS):
            assert _lift(prefix, last, num, shift, prec) < 0
            assert dilatation_module._decision(prefix, last, num, shift, prec) in (None, exact)
            assert_balls_hold(prefix, num, shift, prec, exact_pair)

    @pytest.mark.parametrize(
        "prefix, last, num, prec",
        [((6, 3, 1, 7), None, 881490580989148, 18), ((11, 12), 1, 563358923290302, 14)],
    )
    def test_a_ball_holding_zero_answers_nothing(self, prefix, last, num, prec):
        # found by search: at these points below the root, the last level's
        # (or the closing polynomial's) ball holds 0 with a positive
        # midpoint, so only its radius keeps the rung from answering "below"
        assert dilatation_module._decision(prefix, last, num, 48, None) is False
        assert dilatation_module._decision(prefix, last, num, 48, prec) is None

    @pytest.mark.parametrize("shift", [0, 48, 256])
    def test_a_root_on_the_grid_reaches_the_exact_rung(self, monkeypatch, shift):
        # μ(1) = 2 is a root of the first level t (t - 2) (t + 1): at x = 2
        # the level is 0, which no ball holding 0 can tell from positive
        rungs = record_rungs(monkeypatch)
        assert not dilatation_module._decide((1,), None, 2 << shift, shift)
        assert not dilatation_module._decide((1,), 5, 2 << shift, shift)
        assert rungs == [(None, False)] * 2

    def test_a_root_on_the_grid_below_a_long_prefix(self, monkeypatch):
        # the same zero under eleven more levels climbs the ladder: rounded
        # balls hold 0, and only a rung that rounds nothing may answer
        rungs = record_rungs(monkeypatch)
        assert not dilatation_module._decide((1,) + (40,) * 11, None, 2 << 256, 256)
        assert rungs[0] == (256 + dilatation_module._GUARD_BITS, None)
        assert rungs[-1][1] is False


class TestHugeEntries:
    # x^m is squared up at the rung's precision, its lift below 0 past
    # 2^prec, so a huge entry costs what a small one does; held exactly,
    # x^m of an entry of 10^12 would have about 10^12 bits
    @pytest.mark.parametrize("values", [(1, 10**12), (7, 10**12), (3, 10**12, 5), (2, 3, 10**15)])
    def test_a_huge_entry_decides_at_the_rung_s_cost(self, values):
        start = time.perf_counter()
        report = dilatation(values, method="formula")
        assert time.perf_counter() - start < 0.05
        lo, hi = report.formula_bracket
        assert not _below(values, lo) and _below(values, hi)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @example(prefix=(1,))
    @example(prefix=(7,))
    @given(prefix=st.lists(st.integers(1, 40), min_size=1, max_size=6).map(tuple))
    def test_a_huge_last_entry_shares_the_limit_s_cell(self, prefix):
        # λ(prefix + (m,)) lies above μ(prefix) (the last-coordinate lemma of
        # convergence_table) and, at m = 10^12, far closer to it than 2^-48:
        # its cell is μ's or the next one
        mu = dilatation_module._cell(prefix)
        assert dilatation_module._cell(prefix, 10**12).lo - mu.lo in (0, 1)


class TestFormulaCellProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(values=_SWEEP_TUPLES)
    def test_cell_meets_perron_frobenius_enclosure(self, values):
        cert = transition_matrix(values).spectral_radius()
        report = dilatation(values, method="formula")
        assert _overlaps(report.formula_bracket, cert)
        lower, upper = Fraction(cert.lower), Fraction(cert.upper)
        step = Fraction(1, 2**64)
        assert not _below(values, lower - step)
        assert _below(values, upper + step)
        # further below, a chain level rather than the closing polynomial
        # may be the one that turns negative
        for j in range(1, 8):
            assert not _below(values, 1 + (lower - 1) * j / 8)


class TestLimitDilatation:
    def test_worked_example(self):
        assert abs(limit_dilatation((4,)) - 1.45109) < 5e-5

    def test_factorable_prefix(self):
        # t^3 - t^2 - 2t = t (t - 2) (t + 1)
        assert limit_dilatation((1,)) == pytest.approx(2.0, abs=1e-12)
        # μ = 2 is a grid point, so its cell is [2, 2 + 2^-48)
        assert not _limit_below((1,), Fraction(2))
        assert limit_dilatation((1,)) == 2.0 + 2.0**-49

    def test_two_level_prefix_against_oracle(self):
        poly = dominant_chain((1, 1))[-1]
        assert poly(Fraction(34, 10)) < 0 < poly(Fraction(35, 10))
        oracle = bisect_root(poly, Fraction(34, 10), Fraction(35, 10))
        assert abs(limit_dilatation((1, 1)) - oracle) < 1e-9

    def test_below_every_finite_dilatation(self):
        limit = limit_dilatation((4,))
        for m in (1, 5, 12, 25):
            assert dilatation((4, m), method="formula").lambda_formula > limit

    def test_deep_prefix_with_exact_sign_change(self):
        # a Durand-Kerner cross-check once rejected this value as 2.0050186766
        value = limit_dilatation((5,) * 15)
        assert f"{value:.10f}" == "2.0050186672"
        dom = dominant_chain((5,) * 15)[-1]
        slack = Fraction(1, 10**9)
        assert dom(Fraction(value) - slack) < 0 < dom(Fraction(value) + slack)

    # (3,)*300 once spent 18 s climbing the chain level by level
    @pytest.mark.parametrize("prefix", [(5,) * 25, (2,) * 40, (1,) * 60, (3,) * 300])
    def test_long_prefixes_inside_enclosure(self, prefix):
        assert_in_enclosure(limit_dilatation(prefix), prefix)

    # the names predate the limit cell; the seam patched is now the cell
    @pytest.mark.parametrize("wrong", [-1.0, 2.0 + 1e-8])
    def test_wrong_climbed_root_is_rejected(self, monkeypatch, wrong):
        # (1,) has the dominant polynomial t (t - 2) (t + 1)
        monkeypatch.setattr(dilatation_module, "_cell", lambda prefix: _cell_at(wrong))
        with pytest.raises(AssertionError, match="Perron-Frobenius enclosure"):
            limit_dilatation((1,))
        with pytest.raises(AssertionError, match="Perron-Frobenius enclosure"):
            convergence_table((1,), range(1, 4))

    def test_climbed_root_within_agreement_is_accepted(self, monkeypatch):
        # the cell just below 2 is not μ's, but it touches the enclosure
        # [2, 2] of (1,)
        cert = dominant_matrix((1,)).spectral_radius()
        assert cert.lower == cert.upper == 2.0
        below_two = 2.0 - 2.0**-49
        monkeypatch.setattr(dilatation_module, "_cell", lambda prefix: _cell_at(below_two))
        assert limit_dilatation((1,)) == below_two


def _cell_at(x):
    # the 2^-48 cell holding the float x, with no decision to refine it
    return dilatation_module._Cell(None, math.floor(x * 2**48))


def assert_in_enclosure(value, prefix):
    # the value is the midpoint of μ's cell lo <= μ < hi of width 2^-48; the
    # cell must bracket the decision and meet the exact enclosure
    half = Fraction(1, 2**49)
    lo, hi = Fraction(value) - half, Fraction(value) + half
    assert not _limit_below(prefix, lo) and _limit_below(prefix, hi)
    assert _overlaps((lo, hi), dominant_matrix(prefix).spectral_radius())


_PREFIXES = st.lists(st.integers(1, 8), min_size=1, max_size=4).map(tuple)


class TestLimitCertificateProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(prefix=_PREFIXES)
    # the climbed root of (1,6,1) fell an ulp below the enclosure; (1,) has
    # the grid point μ = 2
    @example(prefix=(1, 6, 1))
    @example(prefix=(1,))
    def test_limit_lies_in_dominant_block_enclosure(self, prefix):
        block = dominant_matrix(prefix)
        assert block.char_poly() == dominant_chain(prefix)[-1]
        assert block.is_primitive()
        assert_in_enclosure(limit_dilatation(prefix), prefix)


def _entries_1_to_80(shortest, longest):
    # tuples with entries 1..80, their length drawn first so that long ones
    # are as likely as short ones
    entry = st.integers(1, 80)
    return st.integers(shortest, longest).flatmap(lambda n: st.tuples(*[entry] * n))


def assert_level_contract(cert, tol, cell, seeded, below, root=lambda x: False):
    """The braid routes' enclosure: exact, at most tol wide, overlapping
    ``seeded_radius``'s enclosure and meeting the formula cell.

    ``below(x)`` is the exact decision "the eigenvalue < x" at a dyadic x,
    and ``root(x)`` whether x is the eigenvalue (a limit may be rational).
    """
    lower, upper = Fraction(cert.lower), Fraction(cert.upper)
    assert not below(lower) and (below(upper) or root(upper))
    assert upper - lower <= Fraction(tol)
    assert lower <= Fraction(seeded.upper) and Fraction(seeded.lower) <= upper
    assert _overlaps(cell.bracket(), cert)


def assert_tuple_routes(values, tol=1e-10):
    # both braid routes of a tuple, against the seeded solve on its NNMatrix
    matrix = transition_matrix(values)
    below = partial(_below, values)
    cell = dilatation_module._cell(values[:-1], values[-1])
    above = dilatation_module._float_hint(values[:-1], values[-1])
    cert = dilatation(values, "matrix", tol=tol).certificate
    assert_level_contract(cert, tol, cell, seeded_radius(matrix, above), below)
    cert = dilatation(values, "both", tol=tol).certificate
    assert_level_contract(cert, tol, cell, seeded_radius(matrix, float(cell.bracket()[1])), below)


def certified_limit(prefix):
    # _certified_limit's cell and the certificate its cross-check certified
    checked, cross_check = [], dilatation_module._cross_check

    def spy(cell, *args):
        checked.append(cross_check(cell, *args))
        return checked[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dilatation_module, "_cross_check", spy)
        cell = dilatation_module._certified_limit(prefix)
    (cert,) = checked
    return cell, cert


def assert_limit_route(prefix):
    cell, cert = certified_limit(prefix)
    seeded = seeded_radius(dominant_matrix(prefix), float(cell.bracket()[1]))
    root = lambda x: dominant_chain(prefix)[-1](x) == 0  # noqa: E731
    assert_level_contract(cert, 1e-10, cell, seeded, partial(_limit_below, prefix), root)


class TestLevelRoute:
    # the braid routes solve on the hubs alone (``_hub_perron`` on
    # ``_level_hubs``) and certify an exact enclosure of width at most tol
    # that overlaps the seeded solve's on the NNMatrix, whose hubs come
    # from its dict and its breadth-first search, and meets the formula cell

    def test_tuple_certificates_overlap_spectral_radius(self):
        for values in corpus_parameters()[0][:201]:
            assert_tuple_routes(values)

    @pytest.mark.parametrize("values", [(300, 1), (1, 300)], ids=["300,1", "1,300"])
    def test_a_long_first_or_last_chain(self, values):
        assert_tuple_routes(values)

    def test_limit_certificates_overlap_spectral_radius(self):
        for prefix in [*corpus_parameters()[1], (1,), (4,), (5,) * 25, (3,) * 300]:
            assert_limit_route(prefix)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(values=_entries_1_to_80(2, 30))
    @example(values=(80,) * 30)
    @example(values=(1,) * 30)
    def test_random_tuple_certificates_overlap_spectral_radius(self, values):
        assert_tuple_routes(values)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(prefix=_entries_1_to_80(1, 29))
    @example(prefix=(80,) * 29)
    @example(prefix=(1,) * 29)
    def test_random_limit_certificates_overlap_spectral_radius(self, prefix):
        assert_limit_route(prefix)

    @pytest.mark.parametrize(
        "run, solves",
        [
            (lambda: dilatation((79,) * 42, "matrix"), 2),
            (lambda: dilatation((79,) * 42, "both"), 2),
            (lambda: limit_dilatation((3,) * 300), 2),
        ],
        ids=["witness matrix", "witness both", "limit (3,)*300"],
    )
    def test_solve_counts(self, monkeypatch, run, solves):
        # one sweep of the hubs per Noda step, and no dense solve; (3,)*300
        # took 165 solves of its whole block before its chains were
        # eliminated
        calls, sweep = [], nnmatrix._sweep
        monkeypatch.setattr(nnmatrix, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        monkeypatch.setattr(hubsearch, "_dense_solve", None)
        run()
        assert len(calls) == solves

    def test_no_matrix_is_validated_and_no_search_is_run(self, monkeypatch):
        # the limit's dominant block is _extension's, built unchecked
        runs = [
            lambda: dilatation((79,) * 42, "both"),
            lambda: dilatation((79,) * 42, "matrix"),
            lambda: find_parameters(1.1, 20),
            lambda: limit_dilatation((4,)),
        ]
        expected = [run() for run in runs]

        def refuse(*args, **kwargs):
            raise AssertionError("the braid route validated an NNMatrix or ran a search")

        monkeypatch.setattr(NNMatrix, "_primitive_depths", refuse)
        monkeypatch.setattr(NNMatrix, "__init__", refuse)
        assert [run() for run in runs] == expected


class TestTightTolerances:
    # every (tuple, tol) that certified while the solve ran on the whole
    # matrix still certifies, by both braid routes: all 213 corpus tuples at
    # 1e-12 and 1e-14 and three small tuples at 1e-15 all did

    @pytest.mark.parametrize("tol", [1e-12, 1e-14])
    def test_corpus_tuples(self, tol):
        for values in corpus_parameters()[0]:
            for method in ("matrix", "both"):
                cert = dilatation(values, method, tol=tol).certificate
                assert Fraction(cert.upper) - Fraction(cert.lower) <= Fraction(tol)

    @pytest.mark.parametrize("values", [(4, 2), (1, 1, 1, 1), (3, 10, 2, 5, 2, 7)])
    def test_small_tuples_at_1e_15(self, values):
        for method in ("matrix", "both"):
            cert = dilatation(values, method, tol=1e-15).certificate
            assert Fraction(cert.upper) - Fraction(cert.lower) <= Fraction(1e-15)

    def test_the_witness_at_1e_15(self):
        # the whole matrix's float vector stopped at a width of about
        # 1.8e-15 and raised after 500 steps; the hubs' vector, with the
        # chain ratio moved past a double, certifies
        cert = dilatation((79,) * 42, "matrix", tol=1e-15).certificate
        assert Fraction(cert.upper) - Fraction(cert.lower) <= Fraction(1e-15)

    @pytest.mark.parametrize("tol", [1e-16, 1e-20])
    def test_an_unreachable_tol_names_the_step_cap(self, monkeypatch, tol):
        # below an ulp of lambda no pair of floats encloses it; the iterate
        # repeats exactly after 72 sweeps, which ends the run before 500
        calls, sweep = [], nnmatrix._sweep
        monkeypatch.setattr(nnmatrix, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        with pytest.raises(RuntimeError, match=f"to tol={tol} within 500 Noda steps$"):
            dilatation((79,) * 42, "matrix", tol=tol)
        assert 0 < len(calls) <= 100


class TestMonotonicity:
    def test_first_coordinate(self):
        result = monotonicity_check((1, 1), 1)
        assert result.strictly_decreasing
        assert result.lambda_before > result.lambda_after

    def test_second_coordinate(self):
        assert monotonicity_check((4, 2), 2).strictly_decreasing

    def test_drop_far_below_float_margins(self):
        # a drop of 5.7e-11 is proved by one exact decision
        result = monotonicity_check((4, 60), 2)
        assert result.strictly_decreasing
        assert 0 < result.lambda_before - result.lambda_after < 1e-10

    def test_drop_inside_one_grid_cell_is_proved(self):
        # both dilatations share a 2^-48 cell; finer grids separate them
        result = monotonicity_check((4, 90), 2)
        assert result.strictly_decreasing
        assert result.lambda_before == result.lambda_after
        before, after = (dilatation_module._cell((4,), v) for v in (90, 91))
        assert not dilatation_module._separate(after, before)

    def test_finest_grid_is_a_named_cap(self, monkeypatch):
        # the two dilatations share a 2^-60 cell; monotonicity_check keeps
        # the cap at an inner slot, where the strict drop is the paper's
        # theorem, not a lemma the code states
        monkeypatch.setattr(dilatation_module, "_FINEST_GRID", 60)
        with pytest.raises(RuntimeError, match=r"finest grid 2\^-60"):
            monotonicity_check((4, 150, 1), 2)

    def test_last_slot_is_the_lemma(self, monkeypatch):
        # λ(1,1,600) - λ(1,1,601) lies below 2^-1024; the last-coordinate
        # lemma of convergence_table proves the drop, so no cell is refined
        def refuse(upper, lower):
            raise AssertionError("cells refined")

        monkeypatch.setattr(dilatation_module, "_separate", refuse)
        result = monotonicity_check((1, 1, 600), 3)
        assert result.strictly_decreasing is True
        assert result.lambda_before >= result.lambda_after

    def test_no_tolerance_option(self):
        with pytest.raises(TypeError):
            monotonicity_check((1, 1), 1, tol=1e-10)

    def test_componentwise_diagonal(self):
        for m in (1, 2, 4):
            before = dilatation((m, m), method="formula").lambda_formula
            after = dilatation((m + 1, m + 1), method="formula").lambda_formula
            assert before > after

    def test_index_validation(self):
        with pytest.raises(ValueError):
            monotonicity_check((1, 1), 3)


class TestConvergence:
    def test_table_for_worked_prefix(self):
        rows = convergence_table((4,), range(1, 31))
        gaps = [r.gap_to_limit for r in rows]
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4
        assert rows[0].tuple_values == (4, 1)
        assert rows[0].poly_degree == 7

    def test_shrinking_root_family(self):
        # q_m = t^m (t - 1) - 2 is the base chain polynomial with the zero
        # root removed; its largest real roots decrease toward 1
        from pabraid import largest_real_root

        roots = []
        for n in (5, 10, 20, 40):
            poly = IntPoly.parse("t - 1").shift(n) - 2
            roots.append(largest_real_root(poly, lower=1.0))
        assert all(b < a for a, b in zip(roots, roots[1:]))
        assert all(r > 1 for r in roots)

    def test_salem_boyd_roots_approach_dominant_root(self):
        base = IntPoly.parse("t^2 - t - 1")
        mirrored = base.reciprocal(2)
        for n in (20, 60):
            family = base.shift(n) + mirrored
            outside = roots_outside_unit_disk(family)
            assert len(outside) == 1
        final = roots_outside_unit_disk(base.shift(60) + mirrored)[0]
        assert abs(final - GOLDEN_RATIO) < 1e-6

    def test_scan_rows_have_no_finest_grid(self, monkeypatch):
        # λ(4,150) - μ(4) is about 2^-75; the lemma of convergence_table,
        # not a refinement, orders scan rows, so the cap never applies
        monkeypatch.setattr(dilatation_module, "_FINEST_GRID", 60)
        (row,) = convergence_table((4,), [150])
        assert row.bracket == dilatation((4, 150), method="formula").formula_bracket
        assert row.bracket[1] - row.bracket[0] == Fraction(1, 2**48)

    def test_rows_past_the_old_cap(self, monkeypatch):
        # λ(1,1,m) - μ passes 2^-1024 near m = 580; every row is certified
        # by its own decisions, and the order by refining cells built here
        # independently of the scan's, on grids down to 2^-2048
        rows = convergence_table((1, 1), range(1, 700))
        assert len(rows) == 699
        for row in rows:
            lo, hi = row.bracket
            assert not _below(row.tuple_values, lo) and _below(row.tuple_values, hi)
        monkeypatch.setattr(dilatation_module, "_FINEST_GRID", 2048)
        lo, hi = assert_rows_fall_toward_the_limit(rows).bracket()
        assert hi - lo < Fraction(1, 2**1024)

    @pytest.mark.parametrize("last_values, decisions", [([4000], 4), ([99999, 100000], 6)])
    def test_deep_rows_cost_two_decisions(self, monkeypatch, last_values, decisions):
        # two decisions for μ's cell and two for each row's; refining a row
        # below the 2^-48 grid would cost one per bit, about m·log2 μ, so
        # the spy stops a scan that refines at its twenty-first decision
        calls = record_decisions(monkeypatch)
        recorded = dilatation_module._decide

        def capped(*args):
            if len(calls) >= 20:
                raise RuntimeError("more than 20 exact decisions")
            return recorded(*args)

        monkeypatch.setattr(dilatation_module, "_decide", capped)
        rows = convergence_table((1, 1), last_values)
        assert (len(rows), len(calls)) == (len(last_values), decisions)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            convergence_table((4,), [])
        with pytest.raises(ValueError):
            convergence_table((4,), [3, 2])

    @pytest.mark.parametrize("last_values", [[0, 1], [-5, 1], [1.5, 2]], ids=str)
    def test_rejects_last_values_that_are_not_parameters(self, last_values):
        with pytest.raises(ValueError):
            convergence_table((4,), last_values)


_SCAN_PREFIXES = st.lists(st.integers(1, 10), min_size=1, max_size=6).map(tuple)


class TestConvergenceProperties:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(prefix=_SCAN_PREFIXES)
    def test_rows_fall_strictly_toward_the_limit(self, prefix):
        rows = convergence_table(prefix, range(1, 41))
        limit = limit_dilatation(prefix)
        for row in rows:
            lo, hi = row.bracket
            assert not _below(row.tuple_values, lo) and _below(row.tuple_values, hi)
            assert row.bracket == dilatation(row.tuple_values, method="formula").formula_bracket
            # the printed float is the midpoint of the 2^-48 cell holding it
            half = Fraction(1, 2**49)
            assert Fraction(row.lam) - half <= lo < hi <= Fraction(row.lam) + half
            assert row.gap_to_limit == row.lam - limit
        assert_rows_fall_toward_the_limit(rows)
        last = transition_matrix(rows[-1].tuple_values).spectral_radius()
        assert _overlaps(rows[-1].bracket, last)


def assert_rows_fall_toward_the_limit(rows):
    # the order the lemma of convergence_table states, decided exactly: μ's
    # cell and each row's, built afresh, are refined until μ lies below
    # each row and each row below the one before; returns the last cell
    prefix = rows[0].tuple_values[:-1]
    mu, above = dilatation_module._cell(prefix), None
    for row in rows:
        cell = dilatation_module._cell(prefix, row.tuple_values[-1])
        assert cell.bracket() == row.bracket
        assert dilatation_module._separate(cell, mu)
        assert above is None or dilatation_module._separate(above, cell)
        above = cell
    return above


class TestScanRow:
    def test_csv_shape(self):
        row = ScanRow((4, 2), 1.5, 0.25, 8)
        assert ScanRow.CSV_HEADER == "tuple;lambda;gap_to_limit;poly_degree"
        assert row.csv_line() == "4,2;1.5;0.25;8"
