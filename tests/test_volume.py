import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from pabraid import (
    BoundReport,
    braid_char_poly,
    dilatation,
    find_parameters,
    ideal_tetrahedron_volume,
    lobachevsky,
    monotonicity_check,
    volume_lower_bound,
)

from helpers import (
    SIMPSON_BUDGET,
    lobachevsky_by_parts,
    lobachevsky_by_quad,
    record_decisions,
    record_float_passes,
    record_rungs,
)

V3_REFERENCE = 1.0149416064
# v3 = 3/2 Cl_2(2π/3) cut after 50 decimals (OEIS A143298)
V3_DIGITS = Fraction("1.01494160640965362502120255427452028594168930753029")
# π and log(2π/3), cut after 50 decimals
PI_DIGITS = Fraction("3.14159265358979323846264338327950288419716939937510")
LOG_DIGITS = Fraction("0.73926477774123579216541423588870957507530438945281")
SRC = Path(importlib.import_module("pabraid").__file__).parent
# every precision _bound_exceeds asks of the enclosure of v3: 16 bits,
# doubled up to the cap
volume_module = importlib.import_module("pabraid.volume")
V3_BITS_CAP = volume_module._V3_BITS_CAP
V3_BITS = [16 << i for i in range((V3_BITS_CAP // 16).bit_length())]

# (0, π/2], (π/2, π), beyond π and below 0
THETAS = [
    1e-9, 0.1, 0.3, math.pi / 6, math.pi / 3, 1.0, 1.5, math.pi / 2,
    1.6, 2.0, 2.5, 3.0, 3.1,
    math.pi + 0.3, 4.0, 5.5, 7.0, 10.0, 20.0,
    -1e-9, -0.1, -1.0, -2.0, -3.5, -10.0,
]


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

    @pytest.mark.parametrize("theta", THETAS)
    def test_series_matches_both_quadratures(self, theta):
        value = lobachevsky(theta)
        assert abs(value - lobachevsky_by_quad(theta)) <= 1e-12
        # integration by parts holds on (0, π) only; the test's own
        # reduction by oddness and periodicity takes |theta| there
        by_parts = math.copysign(1.0, theta) * lobachevsky_by_parts(abs(theta) % math.pi)
        assert abs(value - by_parts) <= 1e-12

    @pytest.mark.parametrize("theta", [-0.1, math.pi, 4.0, math.nan])
    def test_by_parts_refuses_angles_outside_zero_to_pi(self, theta):
        with pytest.raises(ValueError, match="0 < theta < pi"):
            lobachevsky_by_parts(theta)

    def test_by_parts_ends_near_pi(self):
        # near the pole of u cot u the evaluation budget ends the integral;
        # in a subprocess, so that a missing budget cannot hang the suite
        code = (
            "import math, time\n"
            "from helpers import lobachevsky_by_parts\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    lobachevsky_by_parts(math.pi - 1e-6)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "print(time.perf_counter() - start)\n"
        )
        paths = [str(SRC.parent), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        message, elapsed = proc.stdout.splitlines()
        assert f"budget of {SIMPSON_BUDGET} integrand evaluations" in message
        assert float(elapsed) < 5.0

    @pytest.mark.parametrize("theta", THETAS)
    def test_odd_and_pi_periodic(self, theta):
        assert abs(lobachevsky(theta + math.pi) - lobachevsky(theta)) <= 1e-12
        assert abs(lobachevsky(-theta) + lobachevsky(theta)) <= 1e-12


class TestTetrahedronVolume:
    def test_reference_digits(self):
        assert abs(ideal_tetrahedron_volume() - V3_REFERENCE) <= 1e-8

    def test_cached_value_is_stable(self):
        assert ideal_tetrahedron_volume() == ideal_tetrahedron_volume()

    def test_float_is_correctly_rounded(self):
        assert ideal_tetrahedron_volume() == float(V3_DIGITS) == 1.0149416064096537

    def test_exact_enclosure(self):
        # 1.01494160640965362502 is v3 cut after 20 digits, about 1.2e-21
        # low; the enclosure is narrower than that and lies above it
        lo, hi = importlib.import_module("pabraid.volume")._v3_enclosure(64)
        assert lo < V3_DIGITS < hi
        assert Fraction("1.01494160640965362502") < lo < hi < Fraction("1.01494160640965362503")
        assert hi - lo <= Fraction(1, 2**60)
        # both ends round to the one float ideal_tetrahedron_volume returns
        assert float(lo) == float(hi)

    @pytest.mark.parametrize("bits", V3_BITS)
    def test_enclosure_narrows_with_its_precision(self, bits):
        # it meets the bracket [V3_DIGITS, V3_DIGITS + 1e-50] of v3
        lo, hi = importlib.import_module("pabraid.volume")._v3_enclosure(bits)
        assert lo < V3_DIGITS + Fraction(1, 10**50) and V3_DIGITS < hi
        assert hi - lo <= Fraction(1, 2**bits)

    @pytest.mark.parametrize("scale", [12, 20, 33, 47, 64])
    def test_parts_round_outward(self, scale):
        # at scales this coarse a unit rounded the wrong way shows
        volume = importlib.import_module("pabraid.volume")
        one = 1 << scale
        (a_lo, a_hi), (b_lo, b_hi) = (volume._arctan_inverse(n, one) for n in (5, 239))
        assert 16 * a_lo - 4 * b_hi < PI_DIGITS * one < 16 * a_hi - 4 * b_lo
        pi_lo = math.floor(PI_DIGITS * one)
        pi_hi = pi_lo + 1
        log = LOG_DIGITS * one
        assert volume._log_2pi_over_3(pi_lo, one, False) <= log
        assert log <= volume._log_2pi_over_3(pi_hi, one, True)
        # v3 = π (1 - log(2π/3) + the Clausen sum)
        clausen = (V3_DIGITS / PI_DIGITS - 1 + LOG_DIGITS) * one
        assert volume._clausen_sum(pi_lo, one, False) <= clausen
        assert clausen <= volume._clausen_sum(pi_hi, one, True)

    def test_only_the_tests_integrate(self):
        # the sources never name scipy.integrate, and the CLI leaves it out
        assert [p.name for p in SRC.glob("*.py") if "scipy.integrate" in p.read_text()] == []
        code = "import sys, pabraid.cli; print('scipy.integrate' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(SRC.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")


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


def _below_target(values, x):
    # exactly whether λ(values) < x, the decision find_parameters asks
    target = Fraction(x)
    shift = target.denominator.bit_length() - 1
    return importlib.import_module("pabraid.dilatation")._decide(values[:-1], values[-1], target.numerator, shift)


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
        # the keys in field order, the order `bound` prints them in
        assert list(payload) == [
            "k",
            "m",
            "lambda_achieved",
            "volume_bound",
            "target_lambda",
            "target_volume",
        ]
        assert payload["k"] == 2 and payload["m"] == 1

    def test_witness_cell_missing_the_enclosure_is_refused(self, monkeypatch):
        # bound and dilatation(method="both") run the same cross-check
        module = importlib.import_module("pabraid.dilatation")
        exact_cell = module._cell

        def shifted_cell(*args):
            cell = exact_cell(*args)
            cell.lo += 1 << 20  # about 3.7e-9 above the dilatation
            return cell

        monkeypatch.setattr(module, "_cell", shifted_cell)
        with pytest.raises(AssertionError, match="misses the Perron-Frobenius enclosure"):
            find_parameters(1.5, 3)
        with pytest.raises(AssertionError, match="misses the Perron-Frobenius enclosure"):
            dilatation((4, 2), method="both")

    def test_no_tolerance_option(self):
        # the cross-check is exact at any enclosure width
        with pytest.raises(TypeError):
            find_parameters(1.1, 20, tol=1e-10)

    def test_headline_search_settles_on_the_ball_rungs(self, monkeypatch):
        # a count, not a timing: every decision of the headline search, the
        # two that certify m's guess and the two of the witness's cell, is
        # answered by its first ball rung, and none reaches the exact rung
        rungs = record_rungs(monkeypatch)
        report = find_parameters(1.1, 20)
        assert (report.k, report.m) == (41, 79)
        fell_through = [
            rung for before, rung in zip(rungs, rungs[1:]) if rung[0] is None and before[1] is None
        ]
        assert fell_through == []
        assert [rung for rung in rungs if rung[0] is None] == []
        assert sum(prec is not None and answer is not None for prec, answer in rungs) == 4

    def test_guesses_are_certified_by_two_decisions(self, monkeypatch):
        # k's guess from 2V/v3 and m's from the float pass are both right:
        # the volume bound of k = 40 and 41, and λ of (78,)*42 and (79,)*42
        # against 1.1, each decided once
        calls = record_decisions(monkeypatch)
        passes = record_float_passes(monkeypatch)
        exceeds = []
        bound_exceeds = volume_module._bound_exceeds
        monkeypatch.setattr(
            volume_module, "_bound_exceeds", lambda k, t: exceeds.append(k) or bound_exceeds(k, t)
        )
        report = find_parameters(1.1, 20)
        assert (report.k, report.m) == (41, 79)
        assert exceeds == [40, 41]
        target = Fraction(1.1)
        searched = [(prefix, last) for prefix, last, num, _ in calls if num == target.numerator]
        assert searched == [((78,) * 41, 78), ((79,) * 41, 79)]
        assert [_below_target(values, 1.1) for values in [(78,) * 42, (79,) * 42]] == [False, True]
        # the float search doubles m from 1 to 128 and bisects: 14 passes
        assert [last for _, last, x in passes if x == 1.1] == [1, 2, 4, 8, 16, 32, 64, 128, 96, 80, 72, 76, 78, 79]

    def test_no_float_guess_searches_from_1(self, monkeypatch):
        # at 1e308 the float pass overflows and finds no m, so the search
        # doubles from 1 and stops there, never asking near 2^19, where an
        # exact decision at an integer target is a 10^8-bit power
        calls = record_decisions(monkeypatch)
        recorded = volume_module._decide

        def refuse_large_m(prefix, last, num, shift):
            assert last < 1000, "an exact decision far past the answer"
            return recorded(prefix, last, num, shift)

        monkeypatch.setattr(volume_module, "_decide", refuse_large_m)
        report = find_parameters(1e308, 0.001)
        assert (report.k, report.m) == (2, 1)
        target = Fraction(1e308)
        assert [(prefix, last) for prefix, last, num, _ in calls if num == target.numerator] == [((1, 1), 1)]

    @pytest.mark.parametrize("guess", [0, 1, 40, 10**6, 10**12], ids=["zero", "one", "low", "cap", "far"])
    def test_any_guess_gives_the_same_report(self, monkeypatch, guess):
        # every search of the headline, for k, for m's float guess and for
        # m, starts at the same wrong guess; a miss costs decisions only
        expected = find_parameters(1.1, 20)
        search = volume_module._search
        monkeypatch.setattr(volume_module, "_search", lambda below, _, *bracket: search(below, guess, *bracket))
        assert find_parameters(1.1, 20) == expected
        assert (expected.k, expected.m) == (41, 79)

    @pytest.mark.parametrize("guess", [1, 2, 300_000, 2**19, 10**6, 10**12])
    def test_search_refuses_only_past_what_doubling_reaches(self, guess):
        # from any guess the search finds every n up to 2^19, the last n
        # that doubling from 1 asks within the cap, and refuses past it:
        # from 300 000 the climb to 500 000 would pass 2^19 and asks 2^19
        top = volume_module._SEARCH_TOP
        assert top == 2**19
        for answer in (1, 79, 300_001, 500_000, top):
            assert volume_module._least_below(lambda n: n >= answer, guess) == answer
        with pytest.raises(RuntimeError, match="exceeded the cap 1000000"):
            volume_module._least_below(lambda n: n > top, guess)

    def test_search_from_1_doubles_as_before(self):
        # the questions of the doubling search from 1, which the guesses
        # fall back to: powers of two, then a bisection; refusing, every
        # power of two up to 2^19
        asked = []
        assert volume_module._least_below(lambda n: asked.append(n) or n >= 79) == 79
        assert asked == [1, 2, 4, 8, 16, 32, 64, 128, 96, 80, 72, 76, 78, 79]
        asked.clear()
        with pytest.raises(RuntimeError):
            volume_module._least_below(lambda n: asked.append(n) or False)
        assert asked == [2**j for j in range(20)]

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

    @pytest.mark.parametrize("k", [41, 74, 116])
    def test_k_is_decided_exactly_at_the_target(self, k):
        # the two floats on either side of (k-1)/2 v3.  A float comparison
        # with volume_lower_bound, even of v3 correctly rounded, errs on the
        # lower one at k = 74 and on the upper one at k = 116
        exact = Fraction(k - 1, 2) * V3_DIGITS
        below = float(exact)
        if Fraction(below) > exact:
            below = math.nextafter(below, 0.0)
        above = math.nextafter(below, math.inf)
        assert Fraction(below) < exact < exact + Fraction(1, 10**47) < Fraction(above)
        assert find_parameters(10, below).k == k
        assert find_parameters(10, above).k == k + 1

    def test_undecided_volume_names_its_precision(self, monkeypatch):
        # with the enclosure of v3 capped at 2^-16, 20 v3 rounded to a
        # float lies inside 20 times it
        monkeypatch.setattr(importlib.import_module("pabraid.volume"), "_V3_BITS_CAP", 16)
        with pytest.raises(RuntimeError, match=r"k=41 exceeds .* within 2\^-16$"):
            find_parameters(10, float(20 * V3_DIGITS))

    @pytest.mark.parametrize("k", [2, 3, 10, 41])
    def test_volume_bound_must_exceed_the_target(self, k):
        # a target equal to the bound of k is not beaten by k itself
        assert find_parameters(10, volume_lower_bound(k)).k == k + 1

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(target_lambda=st.floats(1.2, 1.8), target_volume=st.floats(0.1, 5.0))
    def test_parameters_against_independent_routes(self, target_lambda, target_volume):
        # k against the 50 digits of v3, m against the Perron-Frobenius
        # enclosures of the diagonal tuples, and the monotonicity that lets
        # the witness bound every tuple with entries >= m, decided exactly
        report = find_parameters(target_lambda, target_volume)
        k, m, volume = report.k, report.m, Fraction(target_volume)
        assert Fraction(k - 1, 2) * V3_DIGITS > volume
        assert Fraction(k - 2, 2) * (V3_DIGITS + Fraction(1, 10**50)) <= volume
        enclosures = [dilatation((n,) * (k + 1), method="matrix").certificate for n in (m, m - 1) if n]
        assume(not any(c.lower < target_lambda <= c.upper for c in enclosures))
        assert enclosures[0].upper < target_lambda
        assert all(c.lower >= target_lambda for c in enclosures[1:])
        assert monotonicity_check((m,) * (k + 1), 1).strictly_decreasing

    def test_search_names_its_cap(self):
        with pytest.raises(RuntimeError, match="cap 1000000"):
            volume_module._least_below(lambda n: False)


class TestBoundReport:
    def test_fields(self):
        report = BoundReport(2, 1, 3.7, 0.5, 10.0, 0.1)
        assert report.to_json_dict()["volume_bound"] == 0.5
