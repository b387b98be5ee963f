import importlib
import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from pabraid import (
    IntPoly,
    ScanRow,
    braid_char_poly,
    convergence_table,
    dilatation,
    dominant_chain,
    dominant_matrix,
    first_real_root_above,
    limit_dilatation,
    monotonicity_check,
    roots_outside_unit_disk,
    transition_matrix,
)

from helpers import bisect_root, climb_chain, grid_tuples, record_rungs

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2

# the package re-exports the function dilatation under the module's name
dilatation_module = importlib.import_module("pabraid.dilatation")


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
            assert poly.is_monic()
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


class TestDilatation:
    def test_worked_example_bracket(self):
        report = dilatation((4, 2), method="both")
        assert 1.80 < report.lambda_formula < 1.85
        assert report.agreement <= 1e-9
        assert report.certificate.primitive

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
        assert set(payload["certificate"]) == {
            "irreducible",
            "primitive",
            "eigenvalue",
            "residual",
        }

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            dilatation((4, 2), method="magic")

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
    return dilatation_module._below(values, *_dyadic(x))


def _limit_below(prefix, x):
    return dilatation_module._limit_below(prefix, *_dyadic(x))


def _overlaps(bracket, cert):
    lo, hi = bracket
    return lo <= Fraction(cert.upper) and Fraction(cert.lower) <= hi


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

    @pytest.mark.parametrize("hint", [1.0, 1.8097893, 1.9, 7.5, math.inf, math.nan])
    def test_cell_does_not_depend_on_the_float_hint(self, hint):
        # a hint that misses is widened, one that is not finite is replaced
        # by doubling from 1
        expected = dilatation_module._tuple_cell((4, 2)).lo
        below = partial(dilatation_module._below, (4, 2))
        assert dilatation_module._formula_cell(below, hint).lo == expected

    def test_matches_root_isolation_on_the_grid(self):
        # climbing the expanded chain with the generic root finders, an
        # independent route, lands in the same 2^-48 cell
        for values in grid_tuples():
            chain = dominant_chain(values[:-1])
            old = first_real_root_above(braid_char_poly(values), climb_chain(chain))
            assert dilatation_module._tuple_cell(values).value() == old, values

    @pytest.mark.parametrize("values", [(1, 1, 28), (4, 200), (2, 2, 40)])
    def test_former_sign_change_failures(self, values):
        # root isolation found no sign change above the climbed root here
        report = dilatation(values, method="both")
        assert _overlaps(report.formula_bracket, report.certificate)
        assert report.agreement <= 1e-9


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
        if last is None:
            cell = dilatation_module._limit_cell(prefix)
            decide = partial(dilatation_module._limit_below, prefix)
        else:
            cell = dilatation_module._tuple_cell(prefix + (last,))
            decide = partial(dilatation_module._below, prefix + (last,))
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
        assert not dilatation_module._limit_below((1,), 2 << shift, shift)
        assert not dilatation_module._below((1, 5), 2 << shift, shift)
        assert rungs == [(None, False)] * 2

    def test_a_root_on_the_grid_below_a_long_prefix(self, monkeypatch):
        # the same zero under eleven more levels climbs the ladder: rounded
        # balls hold 0, and only a rung that rounds nothing may answer
        rungs = record_rungs(monkeypatch)
        assert not dilatation_module._limit_below((1,) + (40,) * 11, 2 << 256, 256)
        assert rungs[0] == (256 + dilatation_module._GUARD_BITS, None)
        assert rungs[-1][1] is False


_SWEEP_TUPLES = st.lists(st.integers(1, 40), min_size=2, max_size=12).map(tuple)


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
        monkeypatch.setattr(dilatation_module, "_limit_cell", lambda prefix: _cell_at(wrong))
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
        monkeypatch.setattr(dilatation_module, "_limit_cell", lambda prefix: _cell_at(below_two))
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
        before, after = (dilatation_module._tuple_cell(v) for v in ((4, 90), (4, 91)))
        assert not dilatation_module._separate(after, before)

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

    def test_finest_grid_is_a_named_cap(self, monkeypatch):
        # λ(4,150) - μ(4) is about 2^-80
        monkeypatch.setattr(dilatation_module, "_FINEST_GRID", 60)
        with pytest.raises(RuntimeError, match=r"finest grid 2\^-60"):
            convergence_table((4,), [150])

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
        upper = None
        for row in rows:
            lo, hi = row.bracket
            assert not _below(row.tuple_values, lo) and _below(row.tuple_values, hi)
            assert _limit_below(prefix, lo)  # μ < lo
            assert upper is None or hi <= upper
            upper = lo
            # the printed float is the midpoint of the 2^-48 cell holding it
            half = Fraction(1, 2**49)
            assert Fraction(row.lam) - half <= lo < hi <= Fraction(row.lam) + half
            assert row.gap_to_limit == row.lam - limit
        last = transition_matrix(rows[-1].tuple_values).spectral_radius()
        assert _overlaps(rows[-1].bracket, last)


class TestScanRow:
    def test_csv_shape(self):
        row = ScanRow((4, 2), 1.5, 0.25, 8)
        assert ScanRow.CSV_HEADER == "tuple;lambda;gap_to_limit;poly_degree"
        assert row.csv_line() == "4,2;1.5;0.25;8"
