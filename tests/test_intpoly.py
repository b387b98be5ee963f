import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pabraid import (
    IntPoly,
    NNMatrix,
    first_real_root_above,
    largest_real_root,
    monotonicity_check,
    roots_outside_unit_disk,
    volume_lower_bound,
)

from helpers import bisect_root

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


class TestArithmetic:
    def test_add_identity(self):
        assert IntPoly.parse("t - 1") + 1 == IntPoly.parse("t")

    def test_base_polynomial_assembly(self):
        # t^(m1+1) (t-1) - 2t at m1 = 1
        built = IntPoly.parse("t - 1").shift(2) - IntPoly((0, 2))
        assert built == IntPoly.parse("t^3 - t^2 - 2*t")

    def test_shift(self):
        assert IntPoly.parse("t - 1").shift(1) == IntPoly.parse("t^2 - t")
        with pytest.raises(ValueError):
            IntPoly.parse("t").shift(-1)

    def test_mul_matches_evaluation(self):
        rng = random.Random(7)
        for _ in range(50):
            a = IntPoly(rng.randint(-4, 4) for _ in range(rng.randint(0, 6)))
            b = IntPoly(rng.randint(-4, 4) for _ in range(rng.randint(0, 6)))
            x = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            assert (a * b)(x) == a(x) * b(x)
            assert (a + b)(x) == a(x) + b(x)
            assert (a - b)(x) == a(x) - b(x)

    def test_scale_and_neg(self):
        p = IntPoly.parse("t^2 - 3*t")
        assert -p * 2 == p * -2 == IntPoly.parse("6*t - 2*t^2")

    def test_trailing_zeros_stripped(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).degree == -1
        assert not IntPoly(())

    def test_exact_rational_evaluation(self):
        p = IntPoly.parse("t^3 - t^2 - 2*t")
        assert p(Fraction(1, 2)) == Fraction(1, 8) - Fraction(1, 4) - 1


class TestIntegralInput:
    # one integral check for coefficients, matrices and volume bounds: an
    # integral value of another type counts, any other value is refused
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: NNMatrix.from_rows([[0, 1.5], [1, 0]]), id="matrix-entry"),
            pytest.param(lambda: NNMatrix(2.9, {(1, 2): 1, (2, 1): 1}), id="matrix-size"),
            pytest.param(lambda: NNMatrix(2, {(1.5, 2): 1}), id="matrix-index"),
            pytest.param(lambda: IntPoly([1.7, 2.2]), id="coefficient"),
            pytest.param(lambda: IntPoly.parse("t") - 0.5, id="constant-operand"),
            pytest.param(lambda: volume_lower_bound(2.9), id="volume-k"),
            pytest.param(lambda: IntPoly.parse("t").reciprocal(2.9), id="nominal-degree"),
            pytest.param(lambda: IntPoly.parse("t").reciprocal("3"), id="nominal-degree-text"),
            pytest.param(lambda: IntPoly.parse("t").shift(1.5), id="shift"),
            pytest.param(lambda: monotonicity_check((4, 2), 1.5), id="coordinate-index"),
        ],
    )
    def test_non_integral_input_is_refused(self, call):
        with pytest.raises(ValueError, match="is not an integer"):
            call()

    def test_integral_values_of_other_types_count(self):
        assert IntPoly([1.0, np.int64(2), True]) == IntPoly((1, 2, 1))
        assert NNMatrix(2.0, {(1, 2): 1.0}) == NNMatrix(2, {(1, 2): 1})
        assert volume_lower_bound(3.0) == volume_lower_bound(3)
        p = IntPoly.parse("t^2 - t - 1")
        assert p.reciprocal(3.0) == p.reciprocal(3)
        assert p.shift(2.0) == p.shift(2)
        assert monotonicity_check((4, 2), 2.0) == monotonicity_check((4, 2), 2)


class TestReciprocal:
    def test_cubic(self):
        p = IntPoly.parse("t^3 - t^2 - 2*t")
        assert p.reciprocal(3) == IntPoly.parse("-2*t^2 - t + 1")

    def test_degree_six(self):
        p = IntPoly.parse("t^6 - t^5 - 2*t")
        assert p.reciprocal(6) == IntPoly.parse("-2*t^5 - t + 1")

    def test_palindrome_fixed_point(self):
        p = IntPoly.parse("t^2 + 1")
        assert p.reciprocal(2) == p

    def test_nominal_degree_too_small(self):
        with pytest.raises(ValueError, match="nominal degree"):
            IntPoly.parse("t^3 - 1").reciprocal(2)

    def test_coefficients_read_reversed(self):
        rng = random.Random(23)
        for _ in range(50):
            coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 9))]
            p = IntPoly(coeffs)
            d = p.degree + rng.randint(0, 3)
            if d < 0:
                continue
            mirrored = p.reciprocal(d)
            for i in range(d + 1):
                lhs = mirrored.coeffs[i] if i < len(mirrored.coeffs) else 0
                rhs = p.coeffs[d - i] if d - i < len(p.coeffs) else 0
                assert lhs == rhs

    def test_involution_with_nonzero_constant(self):
        p = IntPoly.parse("3*t^4 - t + 5")
        assert p.reciprocal(4).reciprocal(4) == p


class TestTextFormat:
    def test_rendering(self):
        assert str(IntPoly.parse("t^8-t^7-2*t^5-2*t^3-t+1")) == (
            "t^8 - t^7 - 2*t^5 - 2*t^3 - t + 1"
        )
        assert str(IntPoly()) == "0"
        assert str(IntPoly((-1,))) == "-1"
        assert str(IntPoly((0, -1))) == "-t"

    def test_parse_round_trip(self):
        rng = random.Random(99)
        for _ in range(60):
            p = IntPoly(rng.randint(-9, 9) for _ in range(rng.randint(0, 10)))
            assert IntPoly.parse(str(p)) == p

    def test_parse_rejects_garbage(self):
        for bad in ("", "t^", "2**t", "x^2", "1 +"):
            with pytest.raises(ValueError):
                IntPoly.parse(bad)


class TestLargestRealRoot:
    def test_golden_ratio(self):
        root = largest_real_root(IntPoly.parse("t^2 - t - 1"))
        assert abs(root - GOLDEN_RATIO) < 1e-10

    def test_worked_example_value(self):
        root = largest_real_root(IntPoly.parse("t^6 - t^5 - 2*t"), lower=1.0)
        assert abs(root - 1.45109) < 5e-5

    def test_quartic_bracket_and_oracle(self):
        p = IntPoly.parse("t^4 - t^3 - 4*t^2 - t + 1")
        assert p(Fraction(260, 100)) < 0 < p(Fraction(265, 100))
        oracle = bisect_root(p, Fraction(260, 100), Fraction(265, 100))
        root = largest_real_root(p)
        assert abs(root - oracle) < 1e-9
        # this quartic factors through t^2 - 3t + 1, so the root is closed-form
        assert abs(root - (3 + math.sqrt(5)) / 2) < 1e-10

    def test_exact_integer_root(self):
        assert largest_real_root(IntPoly.parse("t^2 - 5*t + 6")) == 3.0

    def test_no_real_root(self):
        with pytest.raises(ValueError, match="no real root"):
            largest_real_root(IntPoly.parse("t^2 + 1"))

    def test_no_root_above_lower(self):
        with pytest.raises(ValueError):
            largest_real_root(IntPoly.parse("t^2 - 5*t + 6"), lower=4.0)

    def test_nonconstant_required(self):
        with pytest.raises(ValueError):
            largest_real_root(IntPoly((7,)))

    def test_high_degree_sparse(self):
        p = IntPoly.parse("t - 1").shift(10) - 2  # t^10 (t - 1) - 2
        root = largest_real_root(p, lower=1.0)
        assert 1.0 < root < 2.0
        assert abs(root - bisect_root(p, 1, 2)) < 1e-9

    def test_cauchy_bound_property(self):
        rng = random.Random(4)
        found = 0
        while found < 30:
            coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 8))] + [1]
            p = IntPoly(coeffs)
            try:
                root = largest_real_root(p, lower=-10.0)
            except ValueError:
                continue
            found += 1
            bound = 1 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.coeffs[-1])
            assert root <= bound + 1e-9

    def test_residual_property(self):
        for text in ("t^2 - t - 1", "t^6 - t^5 - 2*t", "t^4 - t^3 - 4*t^2 - t + 1"):
            p = IntPoly.parse(text)
            root = largest_real_root(p, lower=0.5)
            slope = sum(i * c * root ** (i - 1) for i, c in enumerate(p.coeffs) if i)
            assert abs(p(root)) <= 1e-10 * abs(slope) + 1e-10

    def test_determinism(self):
        p = IntPoly.parse("t^6 - t^5 - 2*t")
        assert largest_real_root(p, lower=1.0) == largest_real_root(p, lower=1.0)


class TestFirstRealRootAbove:
    def test_picks_first_root(self):
        p = IntPoly.parse("t^2 - 5*t + 6")
        assert abs(first_real_root_above(p, 1.0) - 2.0) < 1e-12
        assert abs(first_real_root_above(p, 2.5) - 3.0) < 1e-12

    def test_matches_largest_when_single_root_above(self):
        p = IntPoly.parse("t^2 - t - 1")
        assert abs(first_real_root_above(p, 1.0) - GOLDEN_RATIO) < 1e-12

    def test_no_root_above(self):
        with pytest.raises(ValueError):
            first_real_root_above(IntPoly.parse("t^2 - 5*t + 6"), 3.5)


def _grid_cell(root):
    # the float a finder must return for a rational root: the root itself
    # on the 2^-48 grid, else the midpoint of its cell (|root| < 16 keeps
    # the midpoint exact in a double)
    scaled = root * 2**48
    if scaled.denominator == 1:
        return root
    return Fraction(2 * math.floor(scaled) + 1, 2**49)


@st.composite
def _rational_roots(draw, closest, clusters):
    # distinct rationals in [-8, 8] plus up to two neighbours, each 2^-13
    # to 2^-closest above a root: of distinct drawn roots, or with
    # ``clusters`` of any root, neighbours included
    roots = set(
        draw(
            st.lists(
                st.fractions(min_value=-8, max_value=8, max_denominator=12),
                min_size=1,
                max_size=5,
            )
        )
    )
    if clusters:
        for _ in range(draw(st.integers(0, 2))):
            root = draw(st.sampled_from(sorted(roots)))
            roots.add(root + Fraction(1, 2 ** draw(st.integers(13, closest))))
    else:
        for root in draw(st.lists(st.sampled_from(sorted(roots)), max_size=2, unique=True)):
            roots.add(root + Fraction(1, 2 ** draw(st.integers(13, closest))))
    return sorted(roots)


def _product(roots, c):
    # (b·t - a) for each root a/b, times t^2 + c, which has no real root
    p = IntPoly((c, 0, 1))
    for root in roots:
        p = p * IntPoly((-root.numerator, root.denominator))
    return p


def _lower_bound(roots, j):
    # a float strictly between roots[j - 1] and roots[j], or below roots[0]
    return float(roots[0] - 1) if j == 0 else float((roots[j - 1] + roots[j]) / 2)


class TestRationalRootProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(roots=_rational_roots(closest=16, clusters=False), c=st.integers(1, 9), data=st.data())
    def test_finders_land_in_the_right_roots_cell(self, roots, c, data):
        p = _product(roots, c)
        j = data.draw(st.integers(0, len(roots) - 1))
        lower = _lower_bound(roots, j)
        assert Fraction(first_real_root_above(p, lower)) == _grid_cell(roots[j])
        assert Fraction(largest_real_root(p, lower)) == _grid_cell(roots[-1])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(roots=_rational_roots(closest=24, clusters=True), c=st.integers(1, 9), data=st.data())
    def test_a_returned_root_is_certified_in_tight_clusters(self, roots, c, data):
        # in a cluster the eigenvalues may misorder the roots or miss them,
        # but whatever is returned is the cell of a root above lower
        p = _product(roots, c)
        j = data.draw(st.integers(0, len(roots) - 1))
        lower = _lower_bound(roots, j)
        cells = {_grid_cell(root) for root in roots[j:]}
        for finder in (first_real_root_above, largest_real_root):
            try:
                root = finder(p, lower)
            except ValueError:
                continue
            assert Fraction(root) in cells


class TestFinderRegressions:
    def test_first_root_above_a_low_bound(self):
        p = IntPoly.parse("t^3 - 6*t^2 + 9")
        root = first_real_root_above(p, -10.0)
        assert abs(root - bisect_root(p, -2, -1)) < 1e-12  # about -1.1240

    def test_largest_root_of_a_degree_nine_polynomial(self):
        p = IntPoly((9, 8, -9, 6, -7, 3, -8, 5, -2, 1))
        root = largest_real_root(p, lower=-10.0)
        assert abs(root - bisect_root(p, Fraction(3, 2), 2)) < 1e-12  # about 1.6908

    def test_roots_on_the_unit_circle_are_not_outside(self):
        # two of the twelve roots have modulus exactly 1
        p = IntPoly((-8, 0, 3, -2, 7, 9, -4, 9, -8, -7, -1, -1, 3))
        assert len(roots_outside_unit_disk(p)) == 6

    def test_even_multiplicity_root_is_not_returned(self):
        # (t - 1)(t - 2)^2 does not change sign at its double root 2
        p = IntPoly.parse("t - 1") * IntPoly.parse("t - 2") * IntPoly.parse("t - 2")
        assert largest_real_root(p, lower=0.0) == 1.0
        with pytest.raises(ValueError, match="no real root above 1.5"):
            largest_real_root(p, lower=1.5)
        with pytest.raises(ValueError):
            first_real_root_above(p, 1.5)


class TestRootsOutsideUnitDisk:
    def test_golden_companion(self):
        roots = roots_outside_unit_disk(IntPoly.parse("t^2 - t - 1"))
        assert len(roots) == 1
        assert abs(roots[0] - GOLDEN_RATIO) < 1e-10

    def test_factored_pair(self):
        roots = roots_outside_unit_disk(IntPoly.parse("t^2 - 5*t + 6"))
        assert len(roots) == 2
        assert abs(roots[0] - 3) < 1e-9 and abs(roots[1] - 2) < 1e-9

    def test_sparse_degree_eleven(self):
        # all eleven roots of t^10 (t - 1) - 2 lie just outside the unit
        # circle (their moduli multiply to the constant term 2); the only
        # real one is the largest
        p = IntPoly.parse("t - 1").shift(10) - 2
        roots = roots_outside_unit_disk(p)
        assert len(roots) == 11
        top = roots[0]
        assert abs(top.imag) < 1e-9 and 1.0 < top.real < 2.0
        assert abs(top.real - bisect_root(p, 1, 2)) < 1e-9
        assert sum(1 for z in roots if abs(z.imag) < 1e-9) == 1

    def test_empty_result(self):
        assert roots_outside_unit_disk(IntPoly.parse("4*t^2 - 1")) == []

    def test_multiplicity(self):
        p = IntPoly.parse("t - 2") * IntPoly.parse("t - 2") * IntPoly.parse("t - 3")
        roots = roots_outside_unit_disk(p)
        assert len(roots) == 3
        assert abs(roots[0] - 3) < 1e-6
        assert abs(roots[1] - 2) < 1e-6 and abs(roots[2] - 2) < 1e-6

    def test_mahler_bound_property(self):
        rng = random.Random(11)
        for _ in range(30):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 8))] + [1]
            p = IntPoly(coeffs)
            roots = roots_outside_unit_disk(p)
            product = 1.0
            for z in roots:
                product *= abs(z)
            assert product <= max(1, sum(abs(c) for c in p.coeffs)) + 1e-6

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError):
            roots_outside_unit_disk(IntPoly())

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, "x", None])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            roots_outside_unit_disk(IntPoly.parse("t^2 - t - 1"), tol=tol)

    def test_determinism(self):
        p = IntPoly.parse("t^5 - t^3 - 2*t - 7")
        assert roots_outside_unit_disk(p) == roots_outside_unit_disk(p)
