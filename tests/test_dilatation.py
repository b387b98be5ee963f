import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pabraid import (
    IntPoly,
    ScanRow,
    braid_char_poly,
    convergence_table,
    dilatation,
    dominant_chain,
    dominant_matrix,
    limit_dilatation,
    monotonicity_check,
    roots_outside_unit_disk,
    transition_matrix,
)

from helpers import bisect_root

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
        assert report.lambda_formula is None
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


class TestLimitDilatation:
    def test_worked_example(self):
        assert abs(limit_dilatation((4,)) - 1.45109) < 5e-5

    def test_factorable_prefix(self):
        # t^3 - t^2 - 2t = t (t - 2) (t + 1)
        assert limit_dilatation((1,)) == pytest.approx(2.0, abs=1e-12)

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

    @pytest.mark.parametrize("prefix", [(5,) * 25, (2,) * 40, (1,) * 60])
    def test_long_prefixes_inside_enclosure(self, prefix):
        assert_in_enclosure(limit_dilatation(prefix), prefix)

    @pytest.mark.parametrize("wrong", [-1.0, 2.0 + 1e-8])
    def test_wrong_climbed_root_is_rejected(self, monkeypatch, wrong):
        # (1,) has the dominant polynomial t (t - 2) (t + 1)
        monkeypatch.setattr(dilatation_module, "_climb_chain", lambda chain: wrong)
        with pytest.raises(AssertionError, match="Perron-Frobenius enclosure"):
            limit_dilatation((1,))
        with pytest.raises(AssertionError, match="Perron-Frobenius enclosure"):
            convergence_table((1,), range(1, 4))

    def test_climbed_root_within_agreement_is_accepted(self, monkeypatch):
        monkeypatch.setattr(dilatation_module, "_climb_chain", lambda chain: 2.0 + 5e-10)
        assert limit_dilatation((1,)) == 2.0 + 5e-10


def assert_in_enclosure(value, prefix):
    # the climbed float may sit an ulp outside the outward-rounded enclosure,
    # so allow the climb's accuracy, far below the library's 1e-9 slack
    cert = dominant_matrix(prefix).spectral_radius()
    assert cert.lower - 1e-12 <= value <= cert.upper + 1e-12


_PREFIXES = st.lists(st.integers(1, 8), min_size=1, max_size=4).map(tuple)


class TestLimitCertificateProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(prefix=_PREFIXES)
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

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            convergence_table((4,), [])
        with pytest.raises(ValueError):
            convergence_table((4,), [3, 2])


class TestScanRow:
    def test_csv_shape(self):
        row = ScanRow((4, 2), 1.5, 0.25, 8)
        assert ScanRow.CSV_HEADER == "tuple;lambda;gap_to_limit;poly_degree"
        assert row.csv_line() == "4,2;1.5;0.25;8"
