import importlib
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
    dilatation,
    find_parameters,
    largest_real_root,
    limit_dilatation,
    poly_matrix_det,
    transition_matrix,
)

from helpers import (
    GOLDEN_8x8,
    HARD_TUPLES,
    char_poly_oracle,
    cofactor_det,
    det_identity_minus_tm,
    random_nn_matrix,
    random_primitive_matrix,
    strongly_connected,
    subinvariance_bound,
    wielandt_positive,
)

dilatation_module = importlib.import_module("pabraid.dilatation")

FIB = NNMatrix.from_rows([[1, 1], [1, 0]])
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 10))
    cell = st.tuples(st.integers(1, n), st.integers(1, n))
    return NNMatrix(n, draw(st.dictionaries(cell, st.integers(1, 3), max_size=2 * n)))


@st.composite
def block_cyclic_matrices(draw):
    # vertex v lies in class v mod p and every edge u -> w steps to the next
    # class, so each cycle length is a multiple of p.  The cycle through all
    # vertices makes the graph strongly connected unless one of its edges is
    # dropped; an optional chord may break the cyclic structure.
    p = draw(st.integers(2, 4))
    n = p * draw(st.integers(1, 3))
    edges = [(v, (v + 1) % n) for v in range(n)]
    if draw(st.booleans()):
        edges.pop(draw(st.integers(0, n - 1)))
    step = st.tuples(st.integers(0, n - 1), st.integers(0, n // p - 1))
    edges += [(u, (u + 1) % p + p * q) for u, q in draw(st.lists(step, max_size=n))]
    if draw(st.booleans()):
        edges.append(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    label = draw(st.permutations(range(1, n + 1)))
    return NNMatrix(n, {(label[w], label[u]): draw(st.integers(1, 3)) for u, w in edges})


def scaled_value(poly, x):
    """poly(x)·2^(s·deg) exactly, in integers, for the float x = num / 2^s."""
    num, den = x.as_integer_ratio()
    s = den.bit_length() - 1
    value = 0
    for k, c in enumerate(reversed(poly.coeffs)):
        value = value * num + (c << s * k)
    return value


def assert_certified(cert, poly, tol):
    """The enclosure is exact, narrower than tol, and brackets a root of poly."""
    lower, upper = Fraction(cert.lower), Fraction(cert.upper)
    assert cert.lower <= cert.eigenvalue <= cert.upper
    assert upper - lower <= Fraction(tol)
    assert scaled_value(poly, cert.lower) <= 0 <= scaled_value(poly, cert.upper)


@pytest.fixture
def factorizations(monkeypatch):
    # a spy on splu where spectral_radius imports it: one entry per
    # factorization, False where the factor was singular
    import scipy.sparse.linalg

    calls = []
    splu = scipy.sparse.linalg.splu

    def spy(*args, **kwargs):
        try:
            lu = splu(*args, **kwargs)
        except RuntimeError:
            calls.append(False)
            raise
        calls.append(True)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    return calls


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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(m=st.one_of(sparse_matrices(), block_cyclic_matrices()))
    def test_graph_search_agrees_with_boolean_powers(self, m):
        assert m.is_irreducible() == strongly_connected(m)
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
        # from the all-ones vector, the seventh shift sigma is within 1e-10 of
        # lambda while other quotients lag, and its solve returns negative
        # entries
        values = (14, 1, 17)
        cert = transition_matrix(values).spectral_radius()
        assert_certified(cert, braid_char_poly(values), 1e-10)

    def test_retries_an_exactly_singular_shift(self, factorizations):
        # from the all-ones vector, the seventh shift sigma equals lambda in
        # double precision and its factor is singular
        values = (35, 1)
        cert = transition_matrix(values).spectral_radius()
        assert_certified(cert, braid_char_poly(values), 1e-10)
        assert factorizations.count(False) == 1

    def test_bounds_round_outward(self):
        # 1/10 rounds up to the nearest double and 2/3 rounds down
        assert Fraction(nnmatrix._round_down(Fraction(1, 10))) < Fraction(1, 10)
        assert Fraction(-nnmatrix._round_down(-Fraction(2, 3))) > Fraction(2, 3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            FIB.spectral_radius(tol=tol)

    def test_unreachable_tol_names_the_step_cap(self):
        # seeded or not, the same cap
        for above in (None, GOLDEN_RATIO):
            with pytest.raises(RuntimeError, match=r"to tol=1e-16 within 500 Noda steps$"):
                FIB.spectral_radius(tol=1e-16, _above=above)


def adjacent_floats(poly, lo, hi):
    """The adjacent floats around the one root of poly in [lo, hi], where it rises."""
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        if scaled_value(poly, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestSeededStart:
    # the private ``_above`` shift starts Noda's iteration; the callers pass
    # the upper end of the formula route's cell

    @pytest.mark.parametrize(
        "source",
        [FIB, NNMatrix.from_rows(GOLDEN_8x8), *HARD_TUPLES, (79,) * 42],
        ids=["FIB", "GOLDEN_8x8", "hard0", "hard1", "hard2", "(79,)*42"],
    )
    def test_any_start_shift_is_certified(self, source):
        # below lambda, on either side of it by one ulp, and far above
        if isinstance(source, NNMatrix):
            m, poly = source, source.char_poly()
        else:
            m, poly = transition_matrix(source), braid_char_poly(source)
        cert = m.spectral_radius()
        below, above = adjacent_floats(poly, cert.lower, cert.upper)
        for shift in (1.0, below - 1e-6, below, above, 2 * above, 10 * above):
            assert_certified(m.spectral_radius(_above=shift), poly, 1e-10)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: find_parameters(1.1, 20),
            lambda: limit_dilatation((24,) * 40),
            lambda: dilatation((79,) * 42),
            lambda: dilatation((79,) * 42, method="matrix"),
        ],
        ids=[
            "find_parameters(1.1, 20)",
            "limit_dilatation((24,)*40)",
            "dilatation((79,)*42)",
            "matrix route (79,)*42",
        ],
    )
    def test_a_start_just_above_lambda_needs_few_factorizations(self, factorizations, run):
        # from the all-ones vector these make 103, 73, 103 and 103
        run()
        assert 1 <= len(factorizations) <= 3

    @pytest.mark.parametrize(
        "source", [FIB, (19, 40, 2, 27, 2, 28, 34, 7, 23)], ids=["FIB", "(19,40,...,23)"]
    )
    def test_a_failed_seed_costs_one_factorization(self, factorizations, source):
        # FIB is seeded at 1.0, below lambda, where the solve cannot be
        # positive (Collatz-Wielandt); the tuple at its formula cell's upper
        # end, where rounding makes the float solve lose positivity
        if isinstance(source, NNMatrix):
            matrix, above = source, 1.0
        else:
            matrix = transition_matrix(source)
            above = float(dilatation_module._tuple_cell(source).bracket()[1])
        unseeded = matrix.spectral_radius()
        count = len(factorizations)
        assert count > 0  # Noda steps from the start, with no power steps
        assert matrix.spectral_radius(_above=above) == unseeded
        assert len(factorizations) == 2 * count + 1


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
        # unseeded, and seeded at the formula route's cell
        for cert in (
            transition_matrix(values).spectral_radius(tol=tol),
            dilatation(values, tol=tol).certificate,
        ):
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
        mats = [random_nn_matrix(rng, max_size=6) for _ in range(40)]
        mats += [NNMatrix(1, {}), NNMatrix(3, {}), NNMatrix.from_rows([[10**6] * 2] * 2)]
        for m in mats:
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
            nnmatrix._interpolate([0, 1, 1])


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
