import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pabraid.nnmatrix as nnmatrix
from pabraid import (
    IntPoly,
    NNMatrix,
    braid_char_poly,
    largest_real_root,
    poly_matrix_det,
    transition_matrix,
)

from helpers import (
    GOLDEN_8x8,
    char_poly_oracle,
    cofactor_det,
    det_identity_minus_tm,
    random_nn_matrix,
    random_primitive_matrix,
    subinvariance_bound,
    wielandt_positive,
)

FIB = NNMatrix.from_rows([[1, 1], [1, 0]])
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2

# Tuples whose leading eigenvalues nearly coincide, so power iteration crawls;
# the formula route also fails on all three ("no sign change above mu").
HARD_TUPLES = [
    (38, 28, 3, 23, 30, 1, 13, 20, 1, 35, 8),
    (10, 18, 19, 39, 1, 35, 1, 9, 25, 36, 7),
    (9, 5, 33, 24, 37, 20, 28, 33, 23, 34, 21, 1),
]


def assert_certified(cert, poly, tol):
    """The enclosure is exact, narrower than tol, and brackets a root of poly."""
    lower, upper = Fraction(cert.lower), Fraction(cert.upper)
    assert cert.lower <= cert.eigenvalue <= cert.upper
    assert upper - lower <= Fraction(tol)
    assert poly(lower) <= 0 <= poly(upper)


class TestConstruction:
    def test_from_rows_round_trip(self):
        m = NNMatrix.from_rows(GOLDEN_8x8)
        assert m.to_rows() == GOLDEN_8x8
        assert m.entry(8, 6) == 2 and m.entry(1, 1) == 0

    def test_text_round_trip(self):
        m = NNMatrix.from_rows(GOLDEN_8x8)
        size, *lines = m.text().splitlines()
        entries = {}
        for line in lines:
            i, j, v = map(int, line.split())
            entries[(i, j)] = v
        assert size == "8"
        assert NNMatrix(int(size), entries) == m

    def test_pretty(self):
        assert NNMatrix.from_rows([[0, 1], [2, 0]]).pretty() == "0 1\n2 0"

    def test_validation(self):
        with pytest.raises(ValueError):
            NNMatrix(2, {(3, 1): 1})
        with pytest.raises(ValueError):
            NNMatrix(2, {(1, 1): -1})
        with pytest.raises(ValueError):
            NNMatrix.from_rows([[1, 2], [3]])

    def test_submatrix(self):
        m = NNMatrix.from_rows(GOLDEN_8x8)
        assert m.submatrix(2).to_rows() == [[0, 1], [0, 0]]


class TestIrreducible:
    def test_three_cycle(self):
        m = NNMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert m.is_irreducible()

    def test_identity_is_not(self):
        assert not NNMatrix.from_rows([[1, 0], [0, 1]]).is_irreducible()

    def test_golden_matrix(self):
        assert NNMatrix.from_rows(GOLDEN_8x8).is_irreducible()

    def test_one_by_one(self):
        assert NNMatrix.from_rows([[2]]).is_irreducible()
        assert not NNMatrix.from_rows([[0]]).is_irreducible()


class TestPrimitive:
    def test_swap_is_periodic(self):
        assert not NNMatrix.from_rows([[0, 1], [1, 0]]).is_primitive()

    def test_fibonacci(self):
        assert FIB.is_primitive()

    def test_golden_matrix(self):
        assert NNMatrix.from_rows(GOLDEN_8x8).is_primitive()

    def test_agrees_with_wielandt_power(self):
        rng = random.Random(17)
        for _ in range(120):
            m = random_nn_matrix(rng, max_size=8)
            assert m.is_primitive() == wielandt_positive(m)


class TestSpectralRadius:
    def test_one_by_one(self):
        cert = NNMatrix.from_rows([[2]]).spectral_radius()
        assert cert.lower == cert.eigenvalue == cert.upper == 2.0
        assert cert.right_eigenvector == (1.0,)

    def test_fibonacci_golden_ratio(self):
        cert = FIB.spectral_radius()
        assert abs(cert.eigenvalue - GOLDEN_RATIO) < 1e-10
        assert cert.residual <= 1e-10
        assert all(v > 0 for v in cert.right_eigenvector)
        assert max(cert.right_eigenvector) == 1.0

    def test_golden_matrix_bracket(self):
        cert = NNMatrix.from_rows(GOLDEN_8x8).spectral_radius()
        assert 1.80 < cert.eigenvalue < 1.85

    def test_requires_primitive(self):
        with pytest.raises(ValueError, match="primitive"):
            NNMatrix.from_rows([[0, 1], [1, 0]]).spectral_radius()

    def test_matches_char_poly_root(self):
        rng = random.Random(5)
        for _ in range(25):
            m = random_primitive_matrix(rng, max_size=7)
            cert = m.spectral_radius()
            root = largest_real_root(m.char_poly(), lower=0.0)
            assert abs(cert.eigenvalue - root) <= 1e-9

    @pytest.mark.parametrize(
        "values", [(60, 60), (20,) * 6, (63, 63), (30, 33, 64)], ids=str
    )
    def test_matches_char_poly_root_either_side_of_128(self, values):
        # sizes 122, 126, 128 and 130 all run the same sparse solver
        m = transition_matrix(values)
        root = largest_real_root(braid_char_poly(values), lower=1.0)
        assert abs(m.spectral_radius().eigenvalue - root) <= 1e-9

    @pytest.mark.parametrize("values", HARD_TUPLES, ids=str)
    def test_hard_tuples_certified(self, values):
        cert = transition_matrix(values).spectral_radius()
        assert_certified(cert, braid_char_poly(values), 1e-10)

    def test_retries_a_shift_that_loses_positivity(self):
        # after the warm-up, sigma is within 1e-10 of lambda while other
        # quotients lag, and the first Noda solve returns negative entries
        values = (10, 19, 29, 36, 39, 29, 22, 1, 4)
        cert = transition_matrix(values).spectral_radius()
        assert_certified(cert, braid_char_poly(values), 1e-10)

    def test_retries_an_exactly_singular_shift(self, monkeypatch):
        # a 300-step warm-up leaves sigma equal to lambda in double precision
        monkeypatch.setattr(nnmatrix, "_POWER_WARMUP", 300)
        values = HARD_TUPLES[2]
        cert = transition_matrix(values).spectral_radius()
        assert_certified(cert, braid_char_poly(values), 1e-10)

    def test_bounds_round_outward(self):
        # 1/10 rounds up to the nearest double and 2/3 rounds down
        assert Fraction(nnmatrix._round_down(Fraction(1, 10))) < Fraction(1, 10)
        assert Fraction(-nnmatrix._round_down(-Fraction(2, 3))) > Fraction(2, 3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            FIB.spectral_radius(tol=tol)

    def test_unreachable_tol_names_the_step_cap(self):
        with pytest.raises(RuntimeError, match="within 64 power and 500 Noda steps"):
            FIB.spectral_radius(tol=1e-16)


_CERT_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_TOLS = st.sampled_from([1e-6, 1e-10, 1e-12])


class TestCertificateProperties:
    @_CERT_SETTINGS
    @given(rng=st.randoms(use_true_random=False), tol=_TOLS)
    def test_random_primitive_matrix(self, rng, tol):
        m = random_primitive_matrix(rng)
        assert_certified(m.spectral_radius(tol=tol), m.char_poly(), tol)

    @_CERT_SETTINGS
    @given(
        values=st.lists(st.integers(1, 12), min_size=2, max_size=6).map(tuple),
        tol=_TOLS,
    )
    def test_random_braid_tuple(self, values, tol):
        cert = transition_matrix(values).spectral_radius(tol=tol)
        assert_certified(cert, braid_char_poly(values), tol)


class TestCharPoly:
    def test_swap(self):
        assert NNMatrix.from_rows([[0, 1], [1, 0]]).char_poly() == IntPoly.parse(
            "t^2 - 1"
        )

    def test_dominant_block_of_golden(self):
        block = NNMatrix.from_rows(GOLDEN_8x8).submatrix(6)
        assert block.char_poly() == IntPoly.parse("t^6 - t^5 - 2*t")

    def test_golden_matrix(self):
        m = NNMatrix.from_rows(GOLDEN_8x8)
        expected = IntPoly.parse("t^8 - t^7 - 2*t^5 - 2*t^3 - t + 1")
        assert m.char_poly() == expected
        assert char_poly_oracle(m) == expected

    def test_against_cofactor_oracle(self):
        rng = random.Random(2)
        for _ in range(40):
            m = random_nn_matrix(rng, max_size=6)
            assert m.char_poly() == char_poly_oracle(m)

    def test_reciprocal_is_det_identity_minus_tm(self):
        rng = random.Random(12)
        mats = [random_nn_matrix(rng, max_size=6) for _ in range(25)]
        mats.append(NNMatrix.from_rows(GOLDEN_8x8))
        for m in mats:
            assert m.char_poly().reciprocal(m.size) == det_identity_minus_tm(m)


class TestSubinvariance:
    # the Perron-Frobenius certificate against the tests' Collatz-Wielandt
    # lower bound
    def test_all_ones_bound(self):
        assert subinvariance_bound(FIB, [1, 1]) == pytest.approx(1.0)

    def test_eigenvector_attains_lambda(self):
        cert = FIB.spectral_radius()
        s = subinvariance_bound(FIB, cert.right_eigenvector)
        assert abs(s - cert.eigenvalue) <= 1e-8

    def test_golden_matrix_row_sums(self):
        m = NNMatrix.from_rows(GOLDEN_8x8)
        assert subinvariance_bound(m, [1] * 8) == pytest.approx(1.0)
        assert m.spectral_radius().eigenvalue >= 1.0

    def test_randomized_lower_bound(self):
        rng = random.Random(77)
        for _ in range(100):
            m = random_primitive_matrix(rng, max_size=8)
            lam = m.spectral_radius().eigenvalue
            y = [rng.randint(1, 9) for _ in range(m.size)]
            assert lam >= subinvariance_bound(m, y) - 1e-12


class TestPolyMatrixDet:
    def test_against_cofactor(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [
                [
                    IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            assert poly_matrix_det(rows) == cofactor_det(rows)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            poly_matrix_det([[IntPoly((1,))], [IntPoly((1,)), IntPoly((1,))]])

    def test_values_of_a_non_integer_polynomial_are_refused(self):
        # 0, 1, 1 at t = 0, 1, 2 interpolate t (3 - t) / 2
        with pytest.raises(AssertionError, match="non-integer coefficients"):
            nnmatrix._det_poly(lambda x: [[(0, 1, 1)[x]]], 2)


# entries of degree 0-12 with large coefficients, beyond the grid's polynomials
_ENTRIES = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=13).map(IntPoly)
_DET_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestPolyMatrixDetProperties:
    @_DET_SETTINGS
    @given(p=_ENTRIES)
    def test_one_by_one(self, p):
        assert poly_matrix_det([[p]]) == p

    @_DET_SETTINGS
    @given(p=_ENTRIES, q=_ENTRIES, r=_ENTRIES, s=_ENTRIES)
    def test_two_by_two(self, p, q, r, s):
        assert poly_matrix_det([[p, q], [r, s]]) == p * s - q * r
