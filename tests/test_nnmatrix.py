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
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse import csc_matrix, identity
from scipy.sparse.linalg import splu

import pabraid.nnmatrix as nnmatrix
from pabraid import (
    IntPoly,
    NNMatrix,
    braid_char_poly,
    dilatation,
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
    all_rows_certificate,
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
    seeded_radius,
    strongly_connected,
    subinvariance_bound,
    unit_chain_end,
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
    # a spy on numpy's dense solve, which both the eliminating solve of
    # spectral_radius and the braid routes' hub solve call once per Noda
    # solve: one entry per LU of a hub system, False where it was singular
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

    def test_retries_a_shift_that_loses_positivity(self):
        # from the all-ones vector, the seventh shift sigma is within 1e-10 of
        # lambda while other quotients lag
        values = (14, 1, 17)
        cert = transition_matrix(values).spectral_radius()
        assert_certified(cert, braid_char_poly(values), 1e-10)

    def test_a_non_positive_solve_retries_at_the_fallback_shift(self, monkeypatch):
        # the first unseeded solve, at Noda's own shift sigma, comes back with
        # one entry negated: the step retries at 2 sigma - lo + 4 ulp(sigma),
        # from the all-ones vector's row sums, and the enclosure stays exact
        values = (4, 2)
        matrix = transition_matrix(values)
        shifts, solve = [], nnmatrix._hub_solve

        def first_negated(program, scaled, x):
            y = solve(program, scaled, x)
            shifts.append(x)
            if len(shifts) == 1:
                y[0] = -y[0]
            return y

        monkeypatch.setattr(nnmatrix, "_hub_solve", first_negated)
        cert = matrix.spectral_radius()
        sums = [sum(row) for row in matrix.to_rows()]
        sigma, lo = max(sums), min(sums)
        assert sigma > lo
        assert shifts[:2] == [sigma, 2 * sigma - lo + 4 * math.ulp(sigma)]
        assert_certified(cert, braid_char_poly(values), 1e-10)

    def test_retries_an_exactly_singular_shift(self, factorizations):
        # from the all-ones vector, the seventh shift sigma equals lambda in
        # double precision and its hub system is singular
        values = (35, 1)
        cert = transition_matrix(values).spectral_radius()
        assert_certified(cert, braid_char_poly(values), 1e-10)
        assert factorizations.count(False) == 1

    def test_bounds_round_outward(self):
        # 1/10 rounds up to the nearest double and 2/3 rounds down
        assert Fraction(nnmatrix._round_down(Fraction(1, 10))) < Fraction(1, 10)
        assert Fraction(-nnmatrix._round_down(-Fraction(2, 3))) > Fraction(2, 3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, "x", None])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            FIB.spectral_radius(tol=tol)

    def test_unreachable_tol_names_the_step_cap(self):
        # seeded or not, the same cap
        for above in (None, GOLDEN_RATIO):
            with pytest.raises(RuntimeError, match=r"to tol=1e-16 within 500 Noda steps$"):
                seeded_radius(FIB, above, tol=1e-16)

    def test_takes_no_seed(self):
        # only the braid routes seed the solve, through _perron
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
    # ``_perron``'s ``above`` shift starts Noda's iteration; the braid
    # routes pass the upper end of the formula route's cell

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
    def test_a_start_just_above_lambda_needs_few_factorizations(self, factorizations, run):
        # from the all-ones vector these make 103, 73, 103 and 103
        run()
        assert 1 <= len(factorizations) <= 3

    @pytest.mark.parametrize(
        "source", [FIB, (12, 17, 36, 14, 9, 3, 26, 36, 1)], ids=["FIB", "(12,17,...,1)"]
    )
    def test_a_failed_seed_costs_one_factorization(self, factorizations, source):
        # FIB is seeded at 1.0, below lambda, where the solve cannot be
        # positive (Collatz-Wielandt); the tuple at its formula cell's upper
        # end, where rounding makes the float solve lose positivity
        if isinstance(source, NNMatrix):
            matrix, above = source, 1.0
        else:
            matrix = transition_matrix(source)
            above = float(dilatation_module._cell(source[:-1], source[-1]).bracket()[1])
        unseeded = matrix.spectral_radius()
        count = len(factorizations)
        assert count > 0  # Noda steps from the start, with no power steps
        assert seeded_radius(matrix, above) == unseeded
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


@st.composite
def screened_matrices(draw):
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


def screened_and_oracle(rows, cols, vals, v, tol):
    """``_certificate``'s (lower, upper, eigenvalue), or None, and the all-rows oracle's."""
    v, fvals = np.array(v), np.array(vals, dtype=float)
    rows, cols = np.array(rows), np.array(cols)
    w = np.bincount(rows, fvals * v[cols], minlength=len(v))  # as Noda's loop forms Mv
    cert = nnmatrix._certificate(rows, cols, fvals, np.array(vals), v, w, tol)
    screened = None if cert is None else (cert.lower, cert.upper, cert.eigenvalue)
    return screened, all_rows_certificate(rows.tolist(), cols.tolist(), vals, v.tolist(), tol)


class TestScreenedCertificate:
    # the float screen skips the exact quotient of a row whose only entry
    # is 1 unless it ties a float extreme; the extremes stay those of the
    # exact pass over every row, kept in the tests as the oracle

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), tol=st.sampled_from([1e-10, 1.0, 1e300]))
    def test_random_rows_and_vectors_match_the_all_rows_pass(self, data, tol):
        n, rows, cols, vals = data.draw(screened_matrices())
        v = data.draw(st.lists(_VECTOR_ENTRY, min_size=n, max_size=n))
        screened, oracle = screened_and_oracle(rows, cols, vals, v, tol)
        assert screened == oracle

    @pytest.mark.parametrize("n, shift", [(2, 0), (5, 1), (40, 3), (200, 5)])
    def test_every_screened_quotient_ties(self, n, shift):
        # a chain of 1s, row i reading column i + 1, closed by the last row
        # reading 1 in column 0 and 2 in its own; v_i = 2^(-shift i), so every
        # chain row has the same quotient 2^-shift in floats and exactly
        rows = [*range(n - 1), n - 1, n - 1]
        cols = [*range(1, n), 0, n - 1]
        v = [2.0 ** (-shift * i) for i in range(n)]
        screened, oracle = screened_and_oracle(rows, cols, [1] * n + [2], v, 1e300)
        assert screened == oracle
        assert oracle[0] == 2.0**-shift  # the closing row's quotient exceeds 2

    def test_the_least_of_rows_tied_in_floats_is_exact(self):
        # rows 0 and 1 read 1 in columns 3 and 2; their float quotients tie
        # at v_3 = fl(0.701 / 0.75), above the exact quotient of row 1
        v2 = 0.701
        v = [1.0, 0.75, v2, v2 / 0.75]
        assert Fraction(v2) / Fraction(0.75) < Fraction(v[3])
        rows, cols, vals = [0, 1, 2, 2, 3, 3], [3, 2, 2, 0, 3, 1], [1, 1, 4, 1, 4, 1]
        screened, oracle = screened_and_oracle(rows, cols, vals, v, 1e300)
        assert screened == oracle
        assert oracle[0] < v[3]

    def test_a_single_entry_of_3_is_not_screened(self):
        # row 0 reads 3 in column 2, whose float quotient rounds twice: it
        # lies above row 1's quotient x = v_3 / v_1, while the exact one lies
        # below it and is the least
        va, vj = float.fromhex("0x1.3f1f65ac2f2b4p-1"), float.fromhex("0x1.7814e8bbca4e2p-1")
        x = float.fromhex("0x1.c489ebac06194p+1")
        assert Fraction(3) * Fraction(vj) / Fraction(va) < Fraction(x) < 3.0 * vj / va
        rows, cols, vals = [0, 1, 2, 3, 3], [2, 3, 3, 3, 0], [3, 1, 1, 4, 1]
        screened, oracle = screened_and_oracle(rows, cols, vals, [va, 1.0, vj, x], 1e300)
        assert screened == oracle
        assert oracle[0] < x

    def test_braid_certificates_match_the_all_rows_pass(self):
        # the last vector of each corpus solve, re-certified row by row
        for t in corpus_parameters()[0][:40]:
            m = transition_matrix(t)
            cert = m.spectral_radius()
            (rows, cols), vals = zip(*m.entries), list(m.entries.values())
            rows, cols = [i - 1 for i in rows], [j - 1 for j in cols]
            assert all_rows_certificate(
                rows, cols, vals, cert.right_eigenvector, 1e-10
            ) == (cert.lower, cert.upper, cert.eigenvalue)


def hub_program(m):
    """The elimination's structure for m, built as spectral_radius builds it."""
    return nnmatrix._HubProgram.from_depths(m.size, m.entries, m._primitive_depths())


def corpus_matrices():
    """The matrices the benchmark's corpora solve: each tuple's, then each prefix's block."""
    tuples, prefixes = corpus_parameters()
    return [transition_matrix(t) for t in tuples] + [dominant_matrix(p) for p in prefixes]


def assert_solve_matches_splu(m):
    """At x = 1.5 lambda and lambda (1 + 1e-6) the elimination is positive and equals splu.

    S = D^-1 M D at D = diag of the Perron vector, the matrix Noda's last
    steps solve with, and at D = I, the first step's, where the system is
    well conditioned only far above lambda.
    """
    cert = m.spectral_radius()
    lam = cert.eigenvalue
    program = hub_program(m)
    ij = np.array(list(m.entries)) - 1
    rows, cols = ij[:, 0], ij[:, 1]
    vals = np.array(list(m.entries.values()), dtype=float)
    perron = np.array(cert.right_eigenvector)
    cases = [(perron, 1.5 * lam), (perron, lam * (1 + 1e-6)), (np.ones(m.size), 1.5 * lam)]
    for v, x in cases:
        scaled = vals * v[cols] / v[rows]
        y = nnmatrix._hub_solve(program, scaled, x)
        a = x * identity(m.size, format="csc") - csc_matrix((scaled, (rows, cols)), (m.size,) * 2)
        oracle = splu(a.tocsc()).solve(np.ones(m.size))
        assert np.all(y > 0)
        assert np.max(np.abs(y - oracle) / oracle) <= 1e-8


class TestHubSolve:
    # the elimination against scipy's sparse LU, which the tests keep as the
    # oracle only

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(rng=st.randoms(use_true_random=False), size=st.integers(1, 30))
    def test_random_primitive_matrix_matches_splu(self, rng, size):
        assert_solve_matches_splu(random_primitive_matrix(rng, max_size=size, max_entry=5))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(m=cycles_with_chords())
    def test_sparse_primitive_matrix_matches_splu(self, m):
        assume(m.is_primitive())
        assert_solve_matches_splu(m)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(m=forests_under_a_hub())
    def test_a_forest_under_the_hubs_matches_splu(self, m):
        assert_solve_matches_splu(m)
        assert_certified(m.spectral_radius(), m.char_poly(), 1e-10)

    def test_a_tree_splits_into_paths(self):
        # 0-based: 1 reads the hub 0, 2 reads 1, and 3 and 4 both read 2,
        # then 5 reads 4; the hub reads the leaves 3 and 5.  The root 1
        # starts the run 2, 3 (2's first child), and 4 starts a run of its
        # own from the link 2
        m = NNMatrix(6, {(1, 1): 1, (2, 1): 1, (3, 2): 2, (4, 3): 1, (5, 3): 3, (6, 5): 1,
                         (1, 4): 1, (1, 6): 2})
        program = hub_program(m)
        rest = program.rest.tolist()
        assert program.hubs.tolist() == [0]
        runs = {(rest[p], tuple(rest[a:b])) for a, b, p in program.runs}
        assert runs == {(1, (2, 3)), (2, (4, 5))}
        assert program.root.tolist() == [0] * 5
        assert_solve_matches_splu(m)
        assert_certified(m.spectral_radius(), m.char_poly(), 1e-10)

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
            assert len(hub_program(dominant_matrix(prefix)).hubs) == 2 * len(prefix) + 1
            values = prefix + (rng.randint(1, 6),)
            assert len(hub_program(transition_matrix(values)).hubs) == 2 * len(values)
        tuples, prefixes = corpus_parameters()
        assert (len(tuples), len(prefixes)) == (213, 12)
        for values in tuples:
            assert len(hub_program(transition_matrix(values)).hubs) == 2 * len(values)
        for prefix in prefixes:
            assert len(hub_program(dominant_matrix(prefix)).hubs) == 2 * len(prefix) + 1

    def test_a_row_mixing_the_rest_with_another_entry_is_a_hub(self):
        # 0-based vertex 3 has entries from 1 and 2, neither a head of an
        # edge that does not increase depth
        m = NNMatrix(4, {(2, 1): 1, (3, 1): 2, (4, 2): 1, (4, 3): 3, (1, 4): 1, (1, 1): 1})
        assert 3 in hub_program(m).hubs
        assert_solve_matches_splu(m)
        cert = m.spectral_radius()
        assert_certified(cert, m.char_poly(), 1e-10)
        assert cert.eigenvalue == pytest.approx(2.3108521634588, abs=1e-12)

    def test_the_hub_cap_admits_every_matrix_the_tuples_build(self):
        # the most parameters k + 1 under the nonzero limit, at N = 2(k + 1)
        # (every parameter 1), is also the most hubs, 2(k + 1)
        limit = importlib.import_module("pabraid.treebuilder")._MAX_NONZEROS
        k = max(k for k in range(2000) if 2 * (k + 1) + k * k + 4 * k <= limit)
        assert 2 * (k + 1) <= nnmatrix._MAX_HUBS
        m = transition_matrix((1,) * 40)
        assert len(hub_program(m).hubs) == m.size

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

    def test_numpy_only_on_the_matrix_route(self):
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
            "      run('dilatation', '--tuple', '4,2'))",
        ])
        env = dict(os.environ, PYTHONPATH=str(src.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "False False False False True\n", ""
        )

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
    # char_poly(_block=B) finishes M's pair from B's run, with no run of
    # Berkowitz's recurrence, when B is M's leading corner and M ends at
    # B's row n, at the row where a unit chain after B closes
    # (helpers.unit_chain_end), or at the hub row after it
    # (helpers.hub_row_follows); B's memo is filled by a Krylov sequence,
    # not by a run.  Any other M runs the recurrence in full ([None]) and
    # asks B's memo nothing, so the seed never changes the polynomial.
    # Each seeded call is on a fresh copy of M, because char_poly is
    # memoized.

    @_SEED_SETTINGS
    @given(m=square_matrices())
    def test_every_leading_block_gives_the_same_polynomial(self, m):
        expected = m.char_poly()
        for n in range(1, m.size + 1):
            fresh, block = NNMatrix(m.size, m.entries), corner(m, n)
            block.char_poly()
            end = unit_chain_end(m, n)
            with berkowitz_starts() as starts:
                assert fresh.char_poly(_block=block) == expected
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
            expected = NNMatrix(size, entries).char_poly()
            with berkowitz_starts() as starts, krylov_rows() as sequences:
                assert NNMatrix(size, entries).char_poly(_block=block) == expected
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

        def seeded(size, entries):
            expected = NNMatrix(size, entries).char_poly()
            with berkowitz_starts() as starts:
                assert NNMatrix(size, entries).char_poly(_block=block) == expected
            return starts

        def after(hub_block, row):
            # a unit chain after the hub block C, closed on ``row``: the
            # starts and Krylov sequences of its seeded run
            size = hub_block.size + data.draw(st.integers(1, 4))
            chain = {(r, r + 1): 1 for r in range(hub_block.size, size)}
            entries = {**hub_block.entries, **chain}
            entries.update(((size, j), v) for j, v in row.items() if v)
            expected = NNMatrix(size, entries).char_poly()
            with berkowitz_starts() as starts, krylov_rows() as sequences:
                assert NNMatrix(size, entries).char_poly(_block=hub_block) == expected
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
            hub_block = NNMatrix(end + 1, entries)
            hub_block.char_poly(_block=block)
            assert after(hub_block, {**last, end + 1: data.draw(st.integers(0, 9))}) == ([], 0)
            column = data.draw(st.integers(n + 1, end))
            assert after(hub_block, {**last, column: data.draw(value)}) == ([], 1)
            # a block that goes on past the hub row takes no lift
            longer = NNMatrix(end + 2, longer)
            longer.char_poly(_block=block)
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
        hub = NNMatrix(end + 1, {ij: v for ij, v in entries.items() if v})
        with berkowitz_starts() as starts:
            hub.char_poly(_block=block)
        assert starts == [] and hub._closings.keys() == {key}
        assert IntPoly(hub._closings[key]) == lemma(hub, key)

    @_SEED_SETTINGS
    @given(m=square_matrices(), data=st.data())
    def test_a_block_that_is_not_the_corner_is_ignored(self, m, data):
        expected = m.char_poly()
        n = data.draw(st.integers(1, m.size))
        leading = corner(m, n).entries
        cell = data.draw(st.tuples(st.integers(1, n), st.integers(1, n)))
        wrong = NNMatrix(n, {**leading, cell: leading.get(cell, 0) + 1})
        larger = NNMatrix(m.size + 1, m.entries)
        for block in (wrong, larger):
            with berkowitz_starts() as starts:
                assert NNMatrix(m.size, m.entries).char_poly(_block=block) == expected
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
        with berkowitz_starts() as starts, krylov_rows() as sequences:
            got = [transition_matrix(u).char_poly(_block=block) for u in (t, sibling)]
        assert got == expected
        assert starts == [] and sequences == [1]

    def test_the_polynomial_is_memoized(self):
        m = NNMatrix.from_rows(GOLDEN_8x8)
        with berkowitz_starts() as starts:
            assert m.char_poly() is m.char_poly(_block=corner(m, 6))
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
