import importlib
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from scipy.sparse import csc_matrix, identity
from scipy.sparse.linalg import splu

import pabraid.hubsearch as hubsearch
import pabraid.nnmatrix as nnmatrix
from pabraid import (
    IntPoly,
    NNMatrix,
    braid_char_poly,
    dilatation,
    dominant_chain,
    dominant_matrix,
    find_parameters,
    largest_real_root,
    limit_dilatation,
    poly_matrix_det,
    transition_matrix,
)

from helpers import (
    GOLDEN_8x8,
    HARD_TUPLES,
    berkowitz_starts,
    char_poly_oracle,
    corner,
    corpus_parameters,
    cofactor_det,
    det_identity_minus_tm,
    hub_row_follows,
    krylov_rows,
    random_nn_matrix,
    random_primitive_matrix,
    schur_hub_matrix,
    searched_hubs,
    seeded_radius,
    split_at_corner,
    strongly_connected,
    subinvariance_bound,
    unit_chain_end,
    wielandt_positive,
)

dilatation_module = importlib.import_module("pabraid.dilatation")
level_hubs = importlib.import_module("pabraid.treebuilder")._level_hubs

FIB = NNMatrix.from_rows([[1, 1], [1, 0]])
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
# the places, among 300 random tuples, of the 17 whose float hub vector
# underflowed (TestSweep)
UNDERFLOWED = [3, 25, 26, 46, 66, 70, 81, 99, 160, 161, 168, 173, 184, 196, 283, 291, 296]


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


@st.composite
def cycles_with_chords(draw):
    # a cycle through every vertex makes the graph strongly connected, and
    # its chords give rows that mix an entry from a vertex off the hubs
    # with another entry
    n = draw(st.integers(2, 30))
    label = draw(st.permutations(range(1, n + 1)))
    entries = {(label[(i + 1) % n], label[i]): draw(st.integers(1, 4)) for i in range(n)}
    cell = st.tuples(st.integers(1, n), st.integers(1, n))
    entries.update(draw(st.dictionaries(cell, st.integers(1, 4), min_size=1, max_size=n)))
    return NNMatrix(n, entries)


@st.composite
def forests_under_a_hub(draw):
    # vertex 1 has a self-loop and reads every leaf; every other vertex reads
    # one earlier vertex, its parent.  So vertex 1 is the one hub, and the
    # rest is a forest under its children that branches wherever a vertex
    # has two children
    n = draw(st.integers(2, 30))
    weight = st.integers(1, 4)
    parents = {v: draw(st.integers(1, v - 1)) for v in range(2, n + 1)}
    entries = {(v, p): draw(weight) for v, p in parents.items()}
    entries.update({(1, v): draw(weight) for v in parents if v not in parents.values()})
    entries[(1, 1)] = draw(weight)
    return NNMatrix(n, entries)


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
    # a spy on numpy's dense solve, which the hub solve calls once per Noda
    # solve and spectral_radius's bisection once per trial: one entry per LU
    # of a hub system, False where it was singular
    calls = []
    solve = np.linalg.solve

    def spy(*args):
        try:
            y = solve(*args)
        except np.linalg.LinAlgError:
            calls.append(False)
            raise
        calls.append(True)
        return y

    monkeypatch.setattr(np.linalg, "solve", spy)
    return calls


@pytest.fixture
def solves(monkeypatch):
    # a spy on the dense solves of Noda's steps, not those of the seed's
    # bisection: (shift, whether the solve came back positive) per solve
    calls, solve, seed, seeding = [], hubsearch._dense_solve, hubsearch._seed, []

    def spy(r, v, x):
        y = solve(r, v, x)
        if not seeding:
            calls.append((x, bool(np.all(y > 0))))
        return y

    def unspied(*args):
        seeding.append(True)
        try:
            return seed(*args)
        finally:
            seeding.pop()

    monkeypatch.setattr(hubsearch, "_dense_solve", spy)
    monkeypatch.setattr(hubsearch, "_seed", unspied)
    return calls


class TestConstruction:
    def test_from_rows_round_trip(self):
        m = NNMatrix.from_rows(GOLDEN_8x8)
        assert m.to_rows() == GOLDEN_8x8
        assert m.entries.get((8, 6), 0) == 2 and m.entries.get((1, 1), 0) == 0

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
        assert corner(m, 2).to_rows() == [[0, 1], [0, 0]]


class TestIrreducible:
    """The strong-connectivity oracle that criterion 5 checks braid matrices with."""

    def test_three_cycle(self):
        m = NNMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert strongly_connected(m)

    def test_identity_is_not(self):
        assert not strongly_connected(NNMatrix.from_rows([[1, 0], [0, 1]]))

    def test_golden_matrix(self):
        assert strongly_connected(NNMatrix.from_rows(GOLDEN_8x8))

    def test_one_by_one(self):
        assert strongly_connected(NNMatrix.from_rows([[2]]))
        assert not strongly_connected(NNMatrix.from_rows([[0]]))


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

    def test_retries_a_shift_that_loses_positivity(self, solves):
        # the fourth Noda shift sigma lies within 1e-14 of the hub matrix's
        # Perron root while other quotients lag: its solve is not positive,
        # and the step goes on from the fallback shift above it
        values = (15, 34, 29, 15, 34, 2, 26, 37, 21, 28)
        cert = transition_matrix(values).spectral_radius()
        assert_certified(cert, braid_char_poly(values), 1e-10)
        positive = [ok for _, ok in solves]
        assert positive.count(False) == 1
        (at,) = [i for i, ok in enumerate(positive) if not ok]
        assert positive[at + 1] and solves[at + 1][0] > solves[at][0]

    def test_a_non_positive_solve_retries_at_the_fallback_shift(self, monkeypatch):
        # every vertex is a hub, so the solve starts unseeded: the first
        # solve, at Noda's own shift sigma, comes back with one entry negated
        # and the step retries at 2 sigma - lo + 4 ulp(sigma), from the
        # all-ones vector's row sums, and the enclosure stays exact
        matrix = NNMatrix.from_rows([[1, 2], [1, 1]])
        assert searched_hubs(matrix).hubs == [0, 1]
        shifts, solve = [], hubsearch._dense_solve

        def first_negated(r, v, x):
            y = solve(r, v, x)
            shifts.append(x)
            if len(shifts) == 1:
                y[0] = -y[0]
            return y

        monkeypatch.setattr(hubsearch, "_dense_solve", first_negated)
        cert = matrix.spectral_radius()
        sigma, lo = 3, 2  # the row sums
        assert shifts[:2] == [sigma, 2 * sigma - lo + 4 * math.ulp(sigma)]
        assert_certified(cert, matrix.char_poly(), 1e-10)

    def test_retries_an_exactly_singular_shift(self, factorizations):
        # three Noda shifts sigma equal the hub matrix's Perron root in
        # double precision, and their hub systems are singular
        values = (40, 12, 8, 37, 1)
        cert = transition_matrix(values).spectral_radius()
        assert_certified(cert, braid_char_poly(values), 1e-10)
        assert factorizations.count(False) == 3

    def test_equal_row_sums_need_no_bisection(self, factorizations):
        # lambda is the common row sum 2, which seeds the solve and its chain
        # ratio exactly: no bisection step and no Noda solve
        matrix = NNMatrix.from_rows([[1, 1], [2, 0]])
        assert searched_hubs(matrix).chains == ((0,), (0,), (2,), (1,))
        cert = matrix.spectral_radius()
        assert cert.lower == cert.upper == 2.0
        assert factorizations == []

    def test_a_start_that_certifies_forms_no_hub_matrix(self, monkeypatch):
        # a cycle of 2000 with a self-loop at every vertex: every vertex is a
        # hub, and the all-ones vector is the Perron vector, so the enclosure
        # certifies on the sparse product before any solve would need R dense
        n = 2000
        entries = {(i, i): 1 for i in range(1, n + 1)}
        entries.update({(i % n + 1, i): 1 for i in range(1, n + 1)})

        def refuse(*args):
            raise AssertionError("the hub matrix was formed densely")

        monkeypatch.setattr(hubsearch, "_hub_matrix", refuse)
        cert = NNMatrix(n, entries).spectral_radius()
        assert cert.lower == cert.upper == 2.0 and cert.right_eigenvector == (1.0,) * n

    def test_bounds_round_outward(self):
        # 1/10 rounds up to the nearest double and 2/3 rounds down
        assert Fraction(nnmatrix._round_down(1, 10)) < Fraction(1, 10)
        assert Fraction(-nnmatrix._round_down(-2, 3)) > Fraction(2, 3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, "x", None])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            FIB.spectral_radius(tol=tol)

    def test_unreachable_tol_names_the_step_cap(self, solves):
        # seeded at the golden ratio or by spectral_radius's bisection, the
        # same cap; the iterate soon repeats exactly, which ends the run
        # long before the cap's 500 steps
        for above in (None, GOLDEN_RATIO):
            solves.clear()
            with pytest.raises(RuntimeError, match=r"to tol=1e-16 within 500 Noda steps$"):
                seeded_radius(FIB, above, tol=1e-16)
            assert 0 < len(solves) <= 20

    @pytest.mark.parametrize(
        "values", [(3, 1, 1), (9, 5, 33, 24, 37, 20, 28, 33, 23, 34, 21, 1)], ids=str
    )
    def test_a_float_cycle_near_two_ulps_still_certifies(self, values):
        # at 1e-15 the float quotients of these once cycled 2-3 ulps wide
        # until the step cap: the power step of the enclosure certifies them
        assert_certified(transition_matrix(values).spectral_radius(1e-15), braid_char_poly(values), 1e-15)

    def test_a_hub_vector_past_the_doubles_certifies(self):
        # fourteen 79s then 1: the dense iterate's entries pass 2^-1000 of
        # its greatest and take exponents; a float iterate underflowed
        values = (79,) * 14 + (1,)
        assert_certified(transition_matrix(values).spectral_radius(), braid_char_poly(values), 1e-10)

    def test_takes_no_seed(self):
        # only the braid routes pass a seed, through _hub_perron
        with pytest.raises(TypeError):
            FIB.spectral_radius(_above=GOLDEN_RATIO)


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
    # ``_hub_perron``'s ``above`` is Noda's first shift and the first chain
    # ratio t; the braid routes pass the upper end of the formula route's
    # cell, and spectral_radius the upper end of its bisection

    @pytest.mark.parametrize(
        "source",
        [FIB, NNMatrix.from_rows(GOLDEN_8x8), *HARD_TUPLES, (79,) * 42],
        ids=["FIB", "GOLDEN_8x8", "hard0", "hard1", "hard2", "(79,)*42"],
    )
    def test_any_start_shift_is_certified(self, source):
        # below lambda, on either side of it by one ulp, and far above.  Far
        # from lambda, R(t)'s hub vector spans more than the doubles (the
        # witness's hubs fall by about t^-78 per level): the solve starts
        # again from its bisection
        if isinstance(source, NNMatrix):
            m, poly = source, source.char_poly()
        else:
            m, poly = transition_matrix(source), braid_char_poly(source)
        cert = m.spectral_radius()
        below, above = adjacent_floats(poly, cert.lower, cert.upper)
        for shift in (1.0, below - 1e-6, below, above, 2 * above, 10 * above):
            assert_certified(seeded_radius(m, shift), poly, 1e-10)

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
    def test_a_start_just_above_lambda_needs_few_sweeps(self, monkeypatch, run):
        # from the all-ones vector these made 103, 73, 103 and 103 dense
        # solves; the braid routes sweep their hubs and factor no matrix
        calls, sweep = [], nnmatrix._sweep
        monkeypatch.setattr(nnmatrix, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        monkeypatch.setattr(hubsearch, "_dense_solve", None)
        run()
        assert 1 <= len(calls) <= 3

    def test_a_failed_seed_costs_one_factorization(self, factorizations):
        # every vertex is a hub, so the seed moves no chain ratio: seeded at
        # 1.0, below lambda, where the solve cannot be positive
        # (Collatz-Wielandt), the solve goes on as the unseeded one does
        matrix = NNMatrix.from_rows([[1, 2], [1, 1]])
        unseeded = matrix.spectral_radius()
        count = len(factorizations)
        assert count > 0  # Noda steps from the start, with no power steps
        assert seeded_radius(matrix, 1.0) == unseeded
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

    @settings(
        max_examples=100, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(m=block_cyclic_matrices(), tol=_TOLS)
    def test_primitive_block_cyclic_matrix(self, m, tol):
        # a chord that breaks the cyclic classes: rows that mix an entry
        # from the rest with another are hubs
        assume(m.is_primitive())
        assert_certified(m.spectral_radius(tol=tol), m.char_poly(), tol)


@st.composite
def hub_rows(draw):
    # 0-based (rows, cols, vals) with every row nonempty: mostly one entry of
    # 1, 2 or 3, anywhere (the diagonal included), else two or three entries
    n = draw(st.integers(1, 12))
    rows, cols, vals = [], [], []
    for i in range(n):
        heads = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        if draw(st.integers(0, 2)):
            heads = heads[:1]
        for j in heads:
            rows.append(i)
            cols.append(j)
            vals.append(draw(st.sampled_from([1, 1, 1, 2, 3])))
    return n, rows, cols, vals


# a vector entry: a few shared values, so quotients tie, or one spanning
# 2^-996 (about 1.5e-300) to 1
_VECTOR_ENTRY = st.one_of(
    st.sampled_from([1.0, 0.75, 0.5, 0.25]),
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-995, 0)),
)


def float_below(q):
    """Largest float <= the rational q."""
    x = float(q)  # correctly rounded
    return x if Fraction(x) <= q else math.nextafter(x, -math.inf)


def enclosure_and_oracle(rows, cols, vals, v, tol):
    """``_hub_enclosure``'s (lower, upper, eigenvalue), or None, and the exact pass's.

    Every vertex is a hub, so there is no rest and no chain term, and the
    enclosure is the hub rows' alone.  The oracle takes every row's quotient
    (Mv)_i / v_i as a Fraction and rounds the extremes outward to floats;
    wider than tol, it does the same for the vector Mv, up to
    ``_POWER_STEPS`` times.
    """
    n = len(v)
    hubs = nnmatrix._Hubs(
        n, list(range(n)), (tuple(rows), tuple(cols), tuple(vals)), ((), (), ()),
        ((), (), (), ()), ((), (), ()), ((),) * 4,
    )
    cert = nnmatrix._hub_enclosure(hubs, 1 << nnmatrix._RHO_BITS, {}, tol, (v, [0] * n))
    found = None if cert is None else (cert.lower, cert.upper, cert.eigenvalue)
    vector = [Fraction(x) for x in v]
    for _ in range(1 + nnmatrix._POWER_STEPS):
        mv = [Fraction(0)] * n
        for i, j, a in zip(rows, cols, vals):
            mv[i] += a * vector[j]
        quotients = [x / vi for x, vi in zip(mv, vector)]
        lower, upper = float_below(min(quotients)), -float_below(-max(quotients))
        if Fraction(upper) - Fraction(lower) <= Fraction(tol):
            return found, (lower, upper, 0.5 * (lower + upper))
        vector = mv
    return found, None


class TestExactEnclosure:
    # ``_hub_enclosure`` compares the hub rows' quotients exactly, on v
    # scaled to integers, and rounds only the extremes: rows whose float
    # quotients tie, or round past one another, give the exact least and
    # greatest

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), tol=st.sampled_from([1e-10, 1.0, 1e300]))
    def test_random_rows_and_vectors_match_the_exact_pass(self, data, tol):
        n, rows, cols, vals = data.draw(hub_rows())
        v = data.draw(st.lists(_VECTOR_ENTRY, min_size=n, max_size=n))
        found, oracle = enclosure_and_oracle(rows, cols, vals, v, tol)
        assert found == oracle

    @pytest.mark.parametrize("n, shift", [(2, 0), (5, 1), (40, 3), (200, 5)])
    def test_every_quotient_ties(self, n, shift):
        # a chain of 1s, row i reading column i + 1, closed by the last row
        # reading 1 in column 0 and 2 in its own; v_i = 2^(-shift i), so every
        # chain row has the same quotient 2^-shift in floats and exactly
        rows = [*range(n - 1), n - 1, n - 1]
        cols = [*range(1, n), 0, n - 1]
        v = [2.0 ** (-shift * i) for i in range(n)]
        found, oracle = enclosure_and_oracle(rows, cols, [1] * n + [2], v, 1e300)
        assert found == oracle
        assert oracle[0] == 2.0**-shift  # the closing row's quotient exceeds 2

    def test_the_least_of_rows_tied_in_floats_is_exact(self):
        # rows 0 and 1 read 1 in columns 3 and 2; their float quotients tie
        # at v_3 = fl(0.701 / 0.75), above the exact quotient of row 1
        v2 = 0.701
        v = [1.0, 0.75, v2, v2 / 0.75]
        assert Fraction(v2) / Fraction(0.75) < Fraction(v[3])
        rows, cols, vals = [0, 1, 2, 2, 3, 3], [3, 2, 2, 0, 3, 1], [1, 1, 4, 1, 4, 1]
        found, oracle = enclosure_and_oracle(rows, cols, vals, v, 1e300)
        assert found == oracle
        assert oracle[0] < v[3]

    def test_a_single_entry_of_3_is_compared_exactly(self):
        # row 0 reads 3 in column 2, whose float quotient rounds twice: it
        # lies above row 1's quotient x = v_3 / v_1, while the exact one lies
        # below it and is the least
        va, vj = float.fromhex("0x1.3f1f65ac2f2b4p-1"), float.fromhex("0x1.7814e8bbca4e2p-1")
        x = float.fromhex("0x1.c489ebac06194p+1")
        assert Fraction(3) * Fraction(vj) / Fraction(va) < Fraction(x) < 3.0 * vj / va
        rows, cols, vals = [0, 1, 2, 3, 3], [2, 3, 3, 3, 0], [3, 1, 1, 4, 1]
        found, oracle = enclosure_and_oracle(rows, cols, vals, [va, 1.0, vj, x], 1e300)
        assert found == oracle
        assert oracle[0] < x


def corpus_matrices():
    """The matrices the benchmark's corpora solve: each tuple's, then each prefix's block."""
    tuples, prefixes = corpus_parameters()
    return [transition_matrix(t) for t in tuples] + [dominant_matrix(p) for p in prefixes]


def corpus_polynomials():
    """The characteristic polynomial of each of ``corpus_matrices``, from the formula route."""
    tuples, prefixes = corpus_parameters()
    return [braid_char_poly(t) for t in tuples] + [dominant_chain(p)[-1] for p in prefixes]


def hub_matrix_at(hubs, t, dtype):
    """``_hub_matrix`` of the ``_Hubs`` ``hubs`` at the chain ratio t, in floats or exactly."""
    coefs, lengths = hubs.chains[2:]
    return hubsearch._hub_matrix(hubs, np.array([c * t**-n for c, n in zip(coefs, lengths)], dtype))


def assert_solve_matches_splu(m):
    """At x = 1.5 lambda and lambda (1 + 1e-6) the hub solve is positive and equals splu.

    The solve is ``_dense_solve`` on R = R(lambda), the hub matrix that
    spectral_radius's search gives, and S = D^-1 R D at D = diag of the
    Perron vector on the hubs, the matrix Noda's last steps solve with, and
    at D = I, the first step's, where the system is well conditioned only
    far above lambda.
    """
    cert = m.spectral_radius()
    lam = cert.eigenvalue
    hubs = searched_hubs(m)
    r = hub_matrix_at(hubs, lam, float)
    h = len(hubs.hubs)
    perron = np.array(cert.right_eigenvector)[hubs.hubs]
    cases = [(perron, 1.5 * lam), (perron, lam * (1 + 1e-6)), (np.ones(h), 1.5 * lam)]
    for v, x in cases:
        y = hubsearch._dense_solve(r, v, x)
        a = x * identity(h, format="csc") - csc_matrix(r * v / v[:, None])
        oracle = splu(a.tocsc()).solve(np.ones(h))
        assert np.all(y > 0)
        assert np.max(np.abs(y - oracle) / oracle) <= 1e-8


def assert_hub_matrix_is_the_schur_complement(m):
    # the search's R(t) entry by entry against the dense exact Schur
    # complement over its hubs
    hubs = searched_hubs(m)
    for t in (Fraction(1), Fraction(7, 5), Fraction(3)):
        assert hub_matrix_at(hubs, t, object).tolist() == schur_hub_matrix(m.entries, hubs.hubs, t)
    # the sparse R(t)v sums the same positive terms as the dense product in
    # another order
    v = np.linspace(1.0, 2.0, len(hubs.hubs))
    weights = np.array([c * 1.4**-n for _, _, c, n in zip(*hubs.chains)])
    dense = hubsearch._hub_matrix(hubs, weights) @ v
    np.testing.assert_allclose(hubsearch._hub_product(hubs, weights, v), dense, rtol=1e-12)


class TestTightTolerances:
    # every corpus matrix certifies at 1e-12 and 1e-14 on the hubs its
    # search finds, as on the whole matrix before the search built a hub
    # structure.  At 1e-15, about two ulps of lambda, 223 of the 225 do
    # with the enclosure's two power steps (218 with one, 195 with none,
    # 128 on the whole matrix)

    @pytest.mark.parametrize("tol", [1e-12, 1e-14])
    def test_corpus_matrices(self, tol):
        for m, poly in zip(corpus_matrices(), corpus_polynomials()):
            assert_certified(m.spectral_radius(tol), poly, tol)

    def test_the_seed_lies_just_above_lambda(self):
        # spectral_radius's bisection from the row sums stops above lambda,
        # and within _SEED_WIDTH of it, on every corpus matrix: on the
        # witness a trial's LAPACK solve just above lambda loses signs, which
        # the elimination without pivoting restores
        for m in corpus_matrices():
            hubs = searched_hubs(m)
            sums = [sum(row) for row in m.to_rows()]
            seed = hubsearch._seed(hubs, min(sums), max(sums))
            cert = m.spectral_radius()
            assert hubs.chains[0]
            assert cert.upper < seed <= cert.upper * (1 + nnmatrix._SEED_WIDTH)


@st.composite
def braid_solves(draw):
    # a braid's hubs (a whole tuple's, or a prefix's dominant block), their
    # R(lambda) in floats, a shift x just above lambda and a positive vector
    # v in exponent form, its exponents equal within each level as the
    # iterates' are
    values = tuple(draw(st.lists(st.integers(1, 80), min_size=2, max_size=12)))
    if draw(st.booleans()):
        hubs, lam = level_hubs(values, sum(values) + len(values)), dilatation(values, "formula").lambda_formula
    else:
        prefix = values[:-1]
        hubs, lam = level_hubs(prefix + (1,), sum(prefix) + len(prefix) + 1), limit_dilatation(prefix)
    coefs, lengths = hubs.chains[2:]
    weights = [c * lam**-n for c, n in zip(coefs, lengths)]
    x = lam * (1 + draw(st.sampled_from([1e-6, 1e-3, 0.1])))
    h = len(hubs.hubs)
    scales = [draw(st.integers(-8, 0)) for _ in range((h + 1) // 2)]
    v = ([draw(st.floats(0.5, 1.0)) for _ in range(h)], [scales[i // 2] for i in range(h)])
    return hubs, weights, lam, x, v


def exact_solve(a, b):
    """z with a z = b, a a square list of Fraction rows, by Gaussian elimination."""
    n = len(a)
    a = [row[:] + [y] for row, y in zip(a, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    z = [Fraction(0)] * n
    for i in reversed(range(n)):
        z[i] = (a[i][n] - sum(a[i][j] * z[j] for j in range(i + 1, n))) / a[i][i]
    return z


class TestSweep:
    # the braid routes' O(h) sweep of (xI - R)z = v, level by level, against
    # an exact solve of the same float system and the dense solve

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=braid_solves())
    def test_the_sweep_matches_the_exact_and_dense_solves(self, case):
        hubs, weights, lam, x, (m, e) = case
        levels = nnmatrix._levels(hubs, weights)
        zm, ze = nnmatrix._sweep(levels, (m, e), x)
        assert min(zm) > 0
        r = hubsearch._hub_matrix(hubs, np.array(weights))
        if len(m) <= 12:
            v = [Fraction(a) * Fraction(2) ** b for a, b in zip(m, e)]
            a = [[Fraction(x) * (i == j) - Fraction(c) for j, c in enumerate(row)] for i, row in enumerate(r.tolist())]
            exact = exact_solve(a, v)
            z = [Fraction(a) * Fraction(2) ** b for a, b in zip(zm, ze)]
            # only the pivots subtract, so the error grows as x nears lambda
            assert max(abs(a - b) / b for a, b in zip(z, exact)) <= 1e-15 * x / (x - lam)
        else:
            # y with (xI - D^-1 R D)y = 1, D = diag(v), is z / v; the pivoted
            # LU's own error reaches 2e-10 at x = 1.1 lambda on these
            v = np.ldexp(m, e)
            dense = v * hubsearch._dense_solve(r, v, x)
            np.testing.assert_allclose(np.ldexp(zm, ze), dense, rtol=1e-9 * x / (x - lam))
        # the sweep reads only exponent differences: v by 2^-2000, outside
        # the doubles, gives z by 2^-2000
        assert nnmatrix._sweep(levels, (m, [q - 2000 for q in e]), x) == (zm, [q - 2000 for q in ze])

    def test_below_lambda_a_pivot_fails(self):
        hubs = level_hubs((4, 2), 8)
        weights = [c * 1.8**-n for c, n in zip(*hubs.chains[2:])]
        assert nnmatrix._sweep(nnmatrix._levels(hubs, weights), ([1.0] * 4, [0] * 4), 1.7) is None

    def test_an_entry_off_the_levels_is_refused(self):
        hubs = level_hubs((4, 2), 8)
        rows, cols, ints = hubs.entries
        broken = hubs._replace(entries=(rows + (1,), cols + (1,), ints + (1,)))  # E_0 reads itself
        with pytest.raises(KeyError):
            nnmatrix._levels(broken, [1.0] * len(hubs.chains[0]))

    @pytest.mark.parametrize(
        "values, most",
        [((79,) * 14 + (1,), 50), ((2,) * 600, 2), ((79,) * 200, 4)],
        ids=["fourteen 79s then 1", "(2,)*600", "(79,)*200"],
    )
    def test_a_hub_vector_past_the_doubles_certifies(self, monkeypatch, values, most):
        # each hub vector spans more than 2^1074: the float iterate of the
        # dense solve underflowed on all three
        calls, sweep = [], nnmatrix._sweep
        monkeypatch.setattr(nnmatrix, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        for method in ("matrix", "both"):
            calls.clear()
            report = dilatation(values, method)
            assert Fraction(report.certificate.upper) - Fraction(report.certificate.lower) <= Fraction(1e-10)
            assert len(calls) <= most
        cell = dilatation_module._cell(values[:-1], values[-1]).bracket()
        assert cell[0] <= Fraction(report.certificate.upper) and Fraction(report.certificate.lower) <= cell[1]

    def test_the_random_tuples_that_underflowed_certify(self):
        # the 17 of 300 random tuples (random.Random(5), length 2-30, entries
        # 1-80) whose matrix route ended in the underflow error
        rng = random.Random(5)
        tuples = [tuple(rng.randint(1, 80) for _ in range(rng.randint(2, 30))) for _ in range(300)]
        for values in [tuples[i] for i in UNDERFLOWED]:
            lo, hi = dilatation_module._cell(values[:-1], values[-1]).bracket()
            for method in ("matrix", "both"):
                cert = dilatation(values, method).certificate
                lower, upper = Fraction(cert.lower), Fraction(cert.upper)
                assert upper - lower <= Fraction(1e-10) and lo <= upper and lower <= hi


class TestHubSolve:
    # the shared dense hub solve against scipy's sparse LU, and the hub
    # matrix against the exact Schur complement, which the tests keep as the
    # oracles only

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(rng=st.randoms(use_true_random=False), size=st.integers(1, 30))
    def test_random_primitive_matrix_matches_splu(self, rng, size):
        assert_solve_matches_splu(random_primitive_matrix(rng, max_size=size, max_entry=5))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(m=cycles_with_chords())
    def test_sparse_primitive_matrix_matches_splu(self, m):
        assume(m.is_primitive())
        assert_solve_matches_splu(m)
        assert_hub_matrix_is_the_schur_complement(m)
        assert_certified(m.spectral_radius(), m.char_poly(), 1e-10)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(m=forests_under_a_hub())
    def test_a_forest_under_the_hubs_matches_splu(self, m):
        assert_solve_matches_splu(m)
        assert_hub_matrix_is_the_schur_complement(m)
        assert_certified(m.spectral_radius(), m.char_poly(), 1e-10)

    def test_a_tree_of_links_reads_through_its_root(self):
        # 0-based: 1 reads the hub 0, 2 reads 1 with 2, and 3 and 4 both
        # read 2, with 1 and 3, then 5 reads 4; the hub reads the leaves 3
        # and 5, with 1 and 2.  Every vertex of the rest has the root 1, so
        # the hub reads itself through 3 with 1·2·1 t^-3 and through 5 with
        # 2·6·1 t^-4
        m = NNMatrix(6, {(1, 1): 1, (2, 1): 1, (3, 2): 2, (4, 3): 1, (5, 3): 3, (6, 5): 1,
                         (1, 4): 1, (1, 6): 2})
        hubs = searched_hubs(m)
        assert hubs.hubs == [0]
        # each vertex of the rest is a run of its own: from 2 to 3 d rises
        assert hubs.rest == ((1, 2, 3, 4, 5), (0,) * 5, (1, 2, 2, 6, 6), (0, 1, 2, 2, 3))
        assert hubs.roots == ((0,), (0,), (1,))
        assert hubs.chains == ((0, 0), (0, 0), (2, 12), (3, 4))
        assert_solve_matches_splu(m)
        assert_hub_matrix_is_the_schur_complement(m)
        assert_certified(m.spectral_radius(), m.char_poly(), 1e-10)

    @pytest.mark.parametrize("n", [60, 1100])
    def test_a_product_past_2_to_the_53_makes_a_hub(self, n):
        # a cycle of n vertices, each reading the one before with 2, and a
        # self-loop at 0: each link whose product of entries would pass 2^53
        # is a hub, and the rest below it roots there.  Without the rule the
        # last vertex of 1100 would carry 2^1098, past the doubles
        entries = {(i % n + 1, i): 2 for i in range(1, n + 1)}
        entries[(1, 1)] = 1
        m = NNMatrix(n, entries)
        hubs = searched_hubs(m)
        assert hubs.hubs == [0, *range(55, n, 55)]
        assert max(hubs.rest[2]) == 2**53
        assert_solve_matches_splu(m)
        assert_hub_matrix_is_the_schur_complement(m)
        poly = IntPoly([-(2**n), *[0] * (n - 2), -1, 1])  # t^(n-1) (t - 1) - 2^n
        assert n > 100 or m.char_poly() == poly
        assert_certified(m.spectral_radius(), poly, 1e-10)

    def test_corpus_matrices_match_splu(self):
        for m in corpus_matrices():
            assert_solve_matches_splu(m)

    def test_a_tuple_of_k_plus_1_parameters_has_2k_plus_2_hubs(self):
        # the heads of the edges that do not increase depth alone: no braid
        # matrix has a row that mixes an entry from the rest with another
        # entry, the matrices the benchmark solves included
        rng = random.Random(21)
        for _ in range(60):
            prefix = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 12)))
            assert len(searched_hubs(dominant_matrix(prefix)).hubs) == 2 * len(prefix) + 1
            values = prefix + (rng.randint(1, 6),)
            assert len(searched_hubs(transition_matrix(values)).hubs) == 2 * len(values)
        tuples, prefixes = corpus_parameters()
        assert (len(tuples), len(prefixes)) == (213, 12)
        for values in tuples:
            assert len(searched_hubs(transition_matrix(values)).hubs) == 2 * len(values)
        for prefix in prefixes:
            assert len(searched_hubs(dominant_matrix(prefix)).hubs) == 2 * len(prefix) + 1

    def test_a_row_mixing_the_rest_with_another_entry_is_a_hub(self):
        # 0-based vertex 3 has entries from 1 and 2, neither a head of an
        # edge that does not increase depth
        m = NNMatrix(4, {(2, 1): 1, (3, 1): 2, (4, 2): 1, (4, 3): 3, (1, 4): 1, (1, 1): 1})
        assert 3 in searched_hubs(m).hubs
        assert_solve_matches_splu(m)
        cert = m.spectral_radius()
        assert_certified(cert, m.char_poly(), 1e-10)
        assert cert.eigenvalue == pytest.approx(2.3108521634588, abs=1e-12)

    def test_the_hub_cap_admits_every_matrix_the_tuples_build(self):
        # the most parameters k + 1 under the nonzero limit, at N = 2(k + 1)
        # (every parameter 1), is also the most hubs, 2(k + 1)
        treebuilder = importlib.import_module("pabraid.treebuilder")
        limit = treebuilder._MAX_NONZEROS
        k = max(k for k in range(2000) if 2 * (k + 1) + k * k + 4 * k <= limit)
        assert 2 * (k + 1) <= nnmatrix._MAX_HUBS
        m = transition_matrix((1,) * 40)
        assert len(searched_hubs(m).hubs) == m.size
        # so the level build, which checks no hub count, stays under the cap
        assert len(treebuilder._level_hubs((1,) * (k + 1), 2 * (k + 1)).hubs) == 2 * (k + 1)

    def test_more_hubs_than_the_cap_is_one_error_line(self):
        # a cycle with a self-loop at every vertex: every vertex is a hub, and
        # the all-ones vector is the Perron vector, so no step solves
        def cycle(n):
            entries = {(i, i): 1 for i in range(1, n + 1)}
            entries.update({(i % n + 1, i): 1 for i in range(1, n + 1)})
            return NNMatrix(n, entries)

        cap = nnmatrix._MAX_HUBS
        assert cycle(cap).spectral_radius().eigenvalue == 2.0
        message = f"^the Perron-Frobenius solve would eliminate to {cap + 1} hub vertices; "
        with pytest.raises(ValueError, match=message + f"the limit is {cap}$"):
            cycle(cap + 1).spectral_radius()

    def test_no_scipy_at_run_time(self):
        src = Path(nnmatrix.__file__).parent
        assert [p.name for p in src.glob("*.py") if "scipy" in p.read_text()] == []
        code = "import sys, pabraid.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        env = dict(os.environ, PYTHONPATH=str(src.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_no_command_loads_numpy(self):
        # the braid routes solve by the sweep in plain Python: only a
        # search's dense solve, NNMatrix.spectral_radius, imports numpy
        src = Path(nnmatrix.__file__).parent
        top_level = re.compile(r"^(import numpy|from numpy)", re.MULTILINE)
        assert [p.name for p in src.glob("*.py") if top_level.search(p.read_text())] == []
        code = "\n".join([
            "import contextlib, io, sys",
            "import pabraid.cli as cli",
            "def run(*argv):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.main(list(argv)) == 0, argv",
            "    return 'numpy' in sys.modules",
            "print(run('polynomial', '--tuple', '4,2', '--chain'),",
            "      run('matrix', '--tuple', '4,2'),",
            "      run('dilatation', '--tuple', '4,2', '--method', 'formula'),",
            "      run('verify', '--max-k', '2', '--max-m', '3'),",
            "      run('dilatation', '--tuple', '4,2'),",
            "      run('dilatation', '--tuple', '4,2', '--method', 'matrix'),",
            "      run('limit', '--prefix', '4'),",
            "      run('scan', '--prefix', '4', '--m-max', '3'),",
            "      run('bound', '--lambda', '1.1', '--volume', '20'))",
            "cli.transition_matrix((4, 2)).spectral_radius()",
            "print('numpy' in sys.modules)",
        ])
        env = dict(os.environ, PYTHONPATH=str(src.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False " * 8 + "False\nTrue\n", "")

    def test_no_dataclasses_at_start_up(self):
        # the records are named tuples and one slots class: no import-time
        # code generation, so neither dataclasses nor its inspect is loaded
        src = Path(nnmatrix.__file__).parent
        imports = re.compile(r"^\s*(import dataclasses|from dataclasses)", re.MULTILINE)
        assert [p.name for p in src.glob("*.py") if imports.search(p.read_text())] == []
        code = "import sys, pabraid.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(src.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False False\n", "")


class TestCharPoly:
    def test_swap(self):
        assert NNMatrix.from_rows([[0, 1], [1, 0]]).char_poly() == IntPoly.parse(
            "t^2 - 1"
        )

    def test_dominant_block_of_golden(self):
        block = corner(NNMatrix.from_rows(GOLDEN_8x8), 6)
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

    # all-zero diagonals, where every proper leading block is singular
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 40])
    def test_cycle_and_nilpotent_shift(self, n):
        shift = {(i, i + 1): 1 for i in range(1, n)}
        t_n = IntPoly((0,) * n + (1,))
        assert NNMatrix(n, shift).char_poly() == t_n
        assert NNMatrix(n, {**shift, (n, 1): 1}).char_poly() == t_n - 1

    def test_matches_the_chain_at_size_132(self):
        values = (10,) * 12
        assert transition_matrix(values).char_poly() == braid_char_poly(values)

    def test_reciprocal_is_det_identity_minus_tm(self):
        rng = random.Random(12)
        mats = [random_nn_matrix(rng, max_size=6) for _ in range(25)]
        mats.append(NNMatrix.from_rows(GOLDEN_8x8))
        for m in mats:
            assert m.char_poly().reciprocal(m.size) == det_identity_minus_tm(m)


@st.composite
def square_matrices(draw, max_size=14):
    n = draw(st.integers(1, max_size))
    cell = st.tuples(st.integers(1, n), st.integers(1, n))
    return NNMatrix(n, draw(st.dictionaries(cell, st.integers(1, 9), max_size=n * n)))


_SEED_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestSeededCharPoly:
    # B._joined(size, past), the matrix M of B's entries and past's, finishes
    # M's pair from B's run, with no run of Berkowitz's recurrence, when M
    # ends at B's row n, at the row where a unit chain after B closes
    # (helpers.unit_chain_end), or at the hub row after it
    # (helpers.hub_row_follows); B's memo is filled by a Krylov sequence,
    # not by a run.  Any other M runs the recurrence in full ([None]) and
    # asks B's memo nothing, so the seed never changes the polynomial.
    # helpers.split_at_corner splits a whole M into its corner B and past

    @_SEED_SETTINGS
    @given(m=square_matrices())
    def test_every_leading_block_gives_the_same_polynomial(self, m):
        expected = m.char_poly()
        for n in range(1, m.size + 1):
            block, past = split_at_corner(m, n)
            block.char_poly()
            end = unit_chain_end(m, n)
            with berkowitz_starts() as starts:
                assert block._joined(m.size, past).char_poly() == expected
            if n == m.size:
                assert starts == []
            elif end is None:
                assert starts == [None]
            else:  # finished when M ends at the chain's last row or the hub row
                seed = end + hub_row_follows(m, n, end)
                assert starts == [None][: seed < m.size]

    @_SEED_SETTINGS
    @given(block=square_matrices(), data=st.data())
    def test_a_unit_chain_closes_from_the_block(self, block, data):
        # chains of two or more lengths after one block B, closed on one last
        # row R with one entry s at (n, n+1): the first fills B's memo and
        # the others hit it.  Entries past the chain's last row N, in any
        # row, lie outside the leading N-square
        n = block.size
        cells = st.dictionaries(st.integers(1, n), st.integers(1, 9), min_size=1)
        last, s = data.draw(cells), data.draw(st.integers(0, 9))
        block.char_poly()

        def extended(chain):
            end = n + chain
            size = end + data.draw(st.integers(0, 2))
            entries = {(r, r + 1): 1 for r in range(n, end)}
            entries.update({**block.entries, (n, n + 1): s})
            entries.update(((end, j), v) for j, v in last.items())
            if size > end:
                cell = st.tuples(st.integers(1, size), st.integers(end + 1, size))
                entries.update(data.draw(st.dictionaries(cell, st.integers(1, 9), max_size=6)))
                cell = st.tuples(st.integers(end + 1, size), st.integers(1, end))
                entries.update(data.draw(st.dictionaries(cell, st.integers(1, 9), max_size=6)))
            return end, size, entries

        def seeded(size, entries):
            matrix = NNMatrix(size, entries)
            expected = matrix.char_poly()
            leading, past = split_at_corner(matrix, n)
            assert leading == block
            with berkowitz_starts() as starts, krylov_rows() as sequences:
                assert block._joined(size, past).char_poly() == expected
            return starts, sequences[0]

        memo = set()  # B's memo: each closing row, and that row less its column-n entry

        def expected(end, size, entries, row):
            # a matrix that ends at the chain's last row or its hub row runs
            # nothing, and B's memo forms one Krylov sequence for closing on
            # ``row`` unless the row less its column-n entry is memoized; any
            # other runs in full, one sequence at each row with an entry left
            # of the diagonal while its column has one above
            matrix = NNMatrix(size, entries)
            if end + hub_row_follows(matrix, n, end) < size:
                cells = matrix.entries
                rows = {i for i, j in cells if j < i} & {j for i, j in cells if i < j}
                return [None], len(rows)
            key = tuple(sorted(row.items()))
            base = key[:-1] if key[-1][0] == n else key
            new = base not in memo
            memo.update((key, base))
            return [], int(new)

        for chain in data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)):
            end, size, entries = extended(chain)
            assert unit_chain_end(NNMatrix(size, entries), n) == end
            assert seeded(size, entries) == expected(end, size, entries, last)
            assert len(block._closings) == len(memo)

        end, size, entries = extended(data.draw(st.integers(2, 6)))
        # a last row that differs from the memoized one fills the memo
        # again, unless it differs only in column n
        other = data.draw(cells.filter(lambda row: row != last))
        moved = {**{(end, j): 0 for j in last}, **{(end, j): v for j, v in other.items()}}
        moved = {ij: v for ij, v in {**entries, **moved}.items() if v}
        assert seeded(size, moved) == expected(end, size, moved, other)
        assert len(block._closings) == len(memo)
        value = st.integers(1, 9)
        r = data.draw(st.integers(n + 1, end - 1))
        perturbations = [
            # a second entry in a chain row
            {(r, data.draw(st.integers(1, end).filter(lambda j: j != r + 1))): data.draw(value)},
            # a diagonal on the last row
            {(end, end): data.draw(value)},
            # a last-row entry in a chain column
            {(end, data.draw(st.integers(n + 1, end - 1))): data.draw(value)},
            # a second entry into column n + 1
            {(data.draw(st.integers(1, end).filter(lambda i: i != n)), n + 1): data.draw(value)},
        ]
        for change in perturbations:
            seeded(size, {**entries, **change})

    @_SEED_SETTINGS
    @given(block=square_matrices(), data=st.data())
    def test_a_hub_row_closes_from_the_block(self, block, data):
        # a chain of L >= 1 rows after B closed on R at row N, then the hub
        # row N + 1: R left of its diagonal a, fed from B's row n by sigma
        # and from rows n+1..N by S.  At L = 1 sigma sits at (n, n + 2), two
        # columns after s at (n, n + 1).  The block C that ends at the hub
        # row takes X h under R into its memo, its lift, so its h for R plus
        # c in column N + 1 is X h + c Q by the cofactor identity
        n = block.size
        value = st.integers(1, 9)
        last = data.draw(st.dictionaries(st.integers(1, n), value, min_size=1))
        s, sigma, a = (data.draw(st.integers(0, 9)) for _ in range(3))
        block.char_poly()

        def hub(chain):
            end = n + chain
            entries = {(r, r + 1): 1 for r in range(n, end)}
            entries.update({**block.entries, (n, n + 1): s, (n, end + 1): sigma})
            feed = data.draw(st.dictionaries(st.integers(n + 1, end), value))
            entries.update(((p, end + 1), v) for p, v in feed.items())
            entries.update(((r, j), v) for r in (end, end + 1) for j, v in last.items())
            entries[end + 1, end + 1] = a
            return end, {ij: v for ij, v in entries.items() if v}

        def joined(size, entries):
            # B joined to the entries of M past its corner, which must be B
            leading, past = split_at_corner(NNMatrix(size, entries), n)
            assert leading == block
            return block._joined(size, past)

        def seeded(size, entries):
            expected = NNMatrix(size, entries).char_poly()
            with berkowitz_starts() as starts:
                assert joined(size, entries).char_poly() == expected
            return starts

        def after(hub_block, row):
            # a unit chain after the hub block C, closed on ``row``: the
            # starts and Krylov sequences of its seeded run
            size = hub_block.size + data.draw(st.integers(1, 4))
            past = {(r, r + 1): 1 for r in range(hub_block.size, size)}
            past.update(((size, j), v) for j, v in row.items() if v)
            expected = NNMatrix(size, {**hub_block.entries, **past}).char_poly()
            with berkowitz_starts() as starts, krylov_rows() as sequences:
                assert hub_block._joined(size, past).char_poly() == expected
            return starts, sequences[0]

        for chain in [1, *data.draw(st.lists(st.integers(2, 6), max_size=2))]:
            end, entries = hub(chain)
            matrix = NNMatrix(end + 1, entries)
            assert unit_chain_end(matrix, n) == end and hub_row_follows(matrix, n, end)
            assert seeded(end + 1, entries) == []
            # one more row after the hub row runs in full
            row = data.draw(st.dictionaries(st.integers(1, end + 2), value, min_size=1))
            longer = {**entries, **{(end + 2, j): v for j, v in row.items()}}
            assert seeded(end + 2, longer) == [None]
            # the hub block's lift: a row that reads R and c in column N + 1
            # takes its h from the memo, any other row from a Krylov sequence
            hub_block = joined(end + 1, entries)
            assert after(hub_block, {**last, end + 1: data.draw(st.integers(0, 9))}) == ([], 0)
            column = data.draw(st.integers(n + 1, end))
            assert after(hub_block, {**last, column: data.draw(value)}) == ([], 1)
            # a block that goes on past the hub row takes no lift
            longer = joined(end + 2, longer)
            longer.char_poly()
            assert after(longer, {**last, end + 2: data.draw(value)}) == ([], 1)

        end, entries = hub(data.draw(st.integers(1, 6)))
        column = data.draw(st.integers(1, n))
        other = data.draw(st.integers(0, 9).filter(lambda v: v != last.get(column, 0)))
        perturbations = [
            # row N + 1 differs from R in one column
            {(end + 1, column): other},
            # a row N + 1 entry in a chain column or in column N
            {(end + 1, data.draw(st.integers(n + 1, end))): data.draw(value)},
        ]
        if n > 1:  # a feed from a row of B other than n
            i = data.draw(st.integers(1, n - 1))
            perturbations.append({(i, end + 1): data.draw(value)})
        for change in perturbations:
            changed = {ij: v for ij, v in {**entries, **change}.items() if v}
            assert not hub_row_follows(NNMatrix(end + 1, changed), n, end)
            assert seeded(end + 1, changed) == [None]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(block=square_matrices(7), data=st.data())
    def test_the_cofactor_identity_closes_a_row_from_the_row_less_column_n(self, block, data):
        # h(R + c e_n) = h(R) + c p, p = det(tI - B_{n-1}) the (n, n)
        # cofactor of tI - B; both are q - det(tI - (B + e_n R)) by the
        # matrix determinant lemma, for R empty, drawn, or with c alone
        n = block.size
        value = st.integers(1, 9)
        p = IntPoly(block._leading_pair()[0])

        def lemma(matrix, row):
            # q - det(tI - (M + e_N R)) for the N-square M, by cofactor expansion
            size, bumped = matrix.size, dict(matrix.entries)
            for j, v in row:
                bumped[size, j] = bumped.get((size, j), 0) + v
            return char_poly_oracle(matrix) - char_poly_oracle(NNMatrix(size, bumped))

        rows = st.dictionaries(st.integers(1, n - 1), value) if n > 1 else st.just({})
        for row in ({}, data.draw(rows)):
            key = tuple(sorted(row.items()))
            c = data.draw(value)
            full = key + ((n, c),)
            fresh = NNMatrix(n, block.entries)
            closed = IntPoly(fresh._closing(full))
            assert closed == IntPoly(block._closing(key)) + p * c == lemma(block, full)
            assert IntPoly(block._closing(key)) == lemma(block, key)
            assert fresh._closings.keys() == {key, full}

        # the hub block C after a chain of L rows closed on a row R (any
        # columns of B): its hub row stores X h under R in C's memo, C's h
        # for R by the lemma
        last = data.draw(st.dictionaries(st.integers(1, n), value, min_size=1))
        key, end = tuple(sorted(last.items())), n + data.draw(st.integers(1, 2))
        s, sigma, a = (data.draw(st.integers(0, 9)) for _ in range(3))
        entries = {(r, r + 1): 1 for r in range(n, end)}
        entries.update({**block.entries, (n, n + 1): s, (n, end + 1): sigma})
        feed = data.draw(st.dictionaries(st.integers(n + 1, end), value))
        entries.update(((i, end + 1), v) for i, v in feed.items())
        entries.update(((r, j), v) for r in (end, end + 1) for j, v in last.items())
        entries[end + 1, end + 1] = a
        _, past = split_at_corner(NNMatrix(end + 1, {ij: v for ij, v in entries.items() if v}), n)
        with berkowitz_starts() as starts:
            hub = block._joined(end + 1, past)
        assert starts == [] and hub._closings.keys() == {key}
        assert IntPoly(hub._closings[key]) == lemma(hub, key)

    @_SEED_SETTINGS
    @given(m=square_matrices())
    def test_a_block_that_is_not_the_corner_is_ignored(self, m):
        # a block larger than the matrix is refused before its memo is asked
        expected, larger = m.char_poly(), NNMatrix(m.size + 1, m.entries)
        with berkowitz_starts() as starts:
            assert larger._joined(m.size, {}).char_poly() == expected
        assert starts == [None]

    @_SEED_SETTINGS
    @given(m=square_matrices(), data=st.data())
    def test_entries_past_the_corner_are_taken_as_given_but_none_inside_it(self, m, data):
        # no pass over M tests the corner: the joined matrix is M, and holds
        # the piece and B's entries themselves, not copies.  An entry of the
        # piece inside the corner, which overwrites B's in M, runs the
        # recurrence in full, at n = size too
        n = data.draw(st.integers(1, m.size))
        block, past = split_at_corner(m, n)
        joined = block._joined(m.size, past)
        assert joined == m and joined.char_poly() == m.char_poly()
        assert list(map(id, joined.entries.maps)) == [id(past), id(block.entries)]
        cell = data.draw(st.tuples(st.integers(1, n), st.integers(1, n)))
        inside = {**past, cell: block.entries.get(cell, 0) + 1}
        unseeded = NNMatrix(m.size, {**block.entries, **inside}).char_poly()
        with berkowitz_starts() as starts:
            assert block._joined(m.size, inside).char_poly() == unseeded
        assert starts == [None]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(t=st.lists(st.integers(1, 30), min_size=2, max_size=10).map(tuple))
    def test_tuple_matrix_seeded_by_its_dominant_block(self, t):
        # the tuple's chain closes from the block: its first tuple fills the
        # block's memo by one Krylov sequence, and neither runs a row
        block = dominant_matrix(t[:-1])
        block.char_poly()
        sibling = t[:-1] + (t[-1] + 1,)
        expected = [braid_char_poly(t), braid_char_poly(sibling)]
        matrices = [transition_matrix(u) for u in (t, sibling)]
        pasts = [split_at_corner(m, block.size)[1] for m in matrices]
        with berkowitz_starts() as starts, krylov_rows() as sequences:
            got = [block._joined(m.size, past).char_poly() for m, past in zip(matrices, pasts)]
        assert got == expected
        assert starts == [] and sequences == [1]

    def test_the_polynomial_is_memoized(self):
        # and a joined matrix's pair, finished when it is joined, runs nothing
        m = NNMatrix.from_rows(GOLDEN_8x8)
        block, past = split_at_corner(m, 6)
        block.char_poly()
        with berkowitz_starts() as starts:
            assert m.char_poly() is m.char_poly()
            joined = block._joined(m.size, past)
            assert joined.char_poly() is joined.char_poly() == m.char_poly()
        assert starts == [None]


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

    def test_empty_matrix_has_determinant_one(self):
        assert poly_matrix_det([]) == IntPoly((1,))


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
