import json
import math

import pytest

from pabraid import (
    BoundReport,
    braid_char_poly,
    dilatation,
    find_parameters,
    ideal_tetrahedron_volume,
    lobachevsky,
    twist_number,
    volume_lower_bound,
)

from helpers import lobachevsky_by_parts

V3_REFERENCE = 1.0149416064


class TestLobachevsky:
    def test_zero(self):
        assert lobachevsky(0.0) == 0.0
        assert lobachevsky_by_parts(0.0) == 0.0

    @pytest.mark.parametrize("theta", [0.3, math.pi / 6, math.pi / 3, 1.0])
    def test_quadratures_agree(self, theta):
        assert abs(lobachevsky(theta) - lobachevsky_by_parts(theta)) < 1e-10

    def test_odd_symmetry_identity(self):
        # 3 Lob(pi/3) = 2 Lob(pi/6), the duplication identity at pi/6
        lhs = 3 * lobachevsky(math.pi / 3)
        rhs = 2 * lobachevsky_by_parts(math.pi / 6)
        assert abs(lhs - rhs) < 1e-8


class TestTetrahedronVolume:
    def test_reference_digits(self):
        assert abs(ideal_tetrahedron_volume() - V3_REFERENCE) <= 1e-8

    def test_cached_value_is_stable(self):
        assert ideal_tetrahedron_volume() == ideal_tetrahedron_volume()


class TestVolumeLowerBound:
    def test_smallest_index_vanishes(self):
        assert volume_lower_bound(1) == 0.0

    def test_examples(self):
        assert volume_lower_bound(3) == pytest.approx(ideal_tetrahedron_volume(), abs=1e-12)
        assert volume_lower_bound(41) > 20

    def test_constant_increment(self):
        v3 = ideal_tetrahedron_volume()
        for k in range(2, 30):
            diff = volume_lower_bound(k + 1) - volume_lower_bound(k)
            assert abs(diff - v3 / 2) <= 1e-12

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            volume_lower_bound(0)


class TestTwistNumber:
    def test_examples(self):
        assert twist_number((4, 2)) == 2
        assert twist_number((2, 2, 3)) == 3
        assert twist_number((1, 1, 1, 1)) == 4


class TestFindParameters:
    def test_easy_targets(self):
        report = find_parameters(10, 0.1)
        assert (report.k, report.m) == (2, 1)
        assert report.lambda_achieved < 4 < 10
        assert report.volume_bound > 0.1

    def test_easy_target_polynomial_bracket(self):
        # the degree-6 polynomial of (1,1,1) is positive at 4, so its
        # largest root (the dilatation) is below 4
        poly = braid_char_poly((1, 1, 1))
        assert poly.degree == 6
        assert poly(4) > 0
        assert dilatation((1, 1, 1), method="formula").lambda_formula < 4

    def test_report_invariants(self):
        report = find_parameters(3, 1.2)
        assert report.lambda_achieved < report.target_lambda
        assert report.volume_bound > report.target_volume
        assert volume_lower_bound(report.k - 1) <= report.target_volume
        if report.m > 1:
            width = report.k + 1
            worse = dilatation((report.m - 1,) * width, method="formula")
            assert worse.lambda_formula >= report.target_lambda

    def test_json_round_trip(self):
        report = find_parameters(10, 0.1)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert set(payload) == {
            "k",
            "m",
            "lambda_achieved",
            "volume_bound",
            "target_lambda",
            "target_volume",
        }
        assert payload["k"] == 2 and payload["m"] == 1

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            find_parameters(1.0, 5)
        with pytest.raises(ValueError):
            find_parameters(2.0, 0)


class TestBoundReport:
    def test_fields(self):
        report = BoundReport(2, 1, 3.7, 0.5, 10.0, 0.1)
        assert report.to_json_dict()["volume_bound"] == 0.5
