import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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

from helpers import lobachevsky_by_parts, record_rungs

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

    def test_target_is_the_exact_float(self):
        # λ((2,)*5) lies in one 2^-48 cell; a target at either end of that
        # cell is decided exactly, 3.6e-15 apart
        lo, hi = dilatation((2,) * 5, method="formula").formula_bracket
        assert find_parameters(float(hi), 1.2).m == 2
        assert find_parameters(float(lo), 1.2).m == 3

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

    def test_witness_cell_missing_the_enclosure_is_refused(self, monkeypatch):
        volume_module = importlib.import_module("pabraid.volume")
        exact_cell = volume_module._tuple_cell

        def shifted_cell(vals):
            cell = exact_cell(vals)
            cell.lo += 1 << 20  # about 3.7e-9 above the dilatation
            return cell

        monkeypatch.setattr(volume_module, "_tuple_cell", shifted_cell)
        with pytest.raises(AssertionError, match="misses the Perron-Frobenius enclosure"):
            find_parameters(1.5, 3)

    def test_headline_search_settles_on_the_ball_rungs(self, monkeypatch):
        # a count, not a timing: no decision of the headline search falls
        # through the ball rungs to the exact rung.  The exact rung answers
        # only the two narrow decisions m = 1, 2 of the doubling, at once
        rungs = record_rungs(monkeypatch)
        report = find_parameters(1.1, 20)
        assert (report.k, report.m) == (41, 79)
        fell_through = [
            rung for before, rung in zip(rungs, rungs[1:]) if rung[0] is None and before[1] is None
        ]
        assert fell_through == []
        assert [rung for rung in rungs if rung[0] is None] == [(None, False)] * 2
        assert sum(prec is not None and answer is not None for prec, answer in rungs) == 18

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            find_parameters(1.0, 5)
        with pytest.raises(ValueError):
            find_parameters(2.0, 0)

    @pytest.mark.parametrize(
        "target_lambda, target_volume, name",
        [
            (math.inf, 1.0, "target_lambda"),
            (math.nan, 1.0, "target_lambda"),
            (1.5, math.inf, "target_volume"),
            (1.5, math.nan, "target_volume"),
        ],
    )
    def test_rejects_non_finite_targets(self, target_lambda, target_volume, name):
        with pytest.raises(ValueError, match=name):
            find_parameters(target_lambda, target_volume)

    @pytest.mark.parametrize("k", [2, 3, 10, 41])
    def test_volume_bound_must_exceed_the_target(self, k):
        # a target equal to the bound of k is not beaten by k itself
        assert find_parameters(10, volume_lower_bound(k)).k == k + 1

    def test_search_names_its_cap(self):
        volume_module = importlib.import_module("pabraid.volume")
        with pytest.raises(RuntimeError, match="cap 1000000"):
            volume_module._least_below(lambda n: False)

    def test_spot_check_runs_under_python_O(self):
        # the off-diagonal check must not be an assert, which -O strips
        code = (
            "import importlib\n"
            "volume = importlib.import_module('pabraid.volume')\n"
            "below = volume._below\n"
            "volume._below = lambda v, num, shift: len(set(v)) == 1 and below(v, num, shift)\n"
            "try:\n"
            "    volume.find_parameters(10, 0.1)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(importlib.import_module("pabraid").__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (0, "monotonicity spot check failed\n")


class TestBoundReport:
    def test_fields(self):
        report = BoundReport(2, 1, 3.7, 0.5, 10.0, 0.1)
        assert report.to_json_dict()["volume_bound"] == 0.5
