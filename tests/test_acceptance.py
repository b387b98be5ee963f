"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Known red: criterion 8 pins the dilatation of the tuple (80, 80) below
1.05, but its exact value is 1.05503866... (proved by exact rational sign
changes of the characteristic polynomial and confirmed by the certified
Perron-Frobenius enclosure); the stated bound is kept and the test fails
with the measured value.
"""

import math
import random
import time

import pabraid as pb
from pabraid import IntPoly

from helpers import (
    GOLDEN_8x8,
    grid_tuples,
    lobachevsky_by_parts,
    random_primitive_matrix,
    subinvariance_bound,
    wielandt_positive,
)

_grid_cache = {}


def grid_data():
    """Matrices, polynomials and roots for the full grid, built once."""
    if not _grid_cache:
        t0 = time.monotonic()
        rows = {}
        for tv in grid_tuples():
            matrix = pb.transition_matrix(tv)
            rows[tv] = {
                "matrix": matrix,
                "char": matrix.char_poly(),
                "formula": pb.braid_char_poly(tv),
            }
        for tv, data in rows.items():
            data["root"] = pb.largest_real_root(data["formula"], lower=1.0)
            data["pf"] = data["matrix"].spectral_radius()
        _grid_cache["rows"] = rows
        _grid_cache["elapsed"] = time.monotonic() - t0
    return _grid_cache


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_01_golden_matrix():
    t0 = time.monotonic()
    matrix = pb.transition_matrix((4, 2))
    elapsed = time.monotonic() - t0
    ok = matrix.to_rows() == GOLDEN_8x8 and elapsed < 1.0
    assert _report(1, ok, f"printed 8x8 reproduced, {elapsed * 1000:.1f} ms")


def test_criterion_02_golden_polynomials():
    dominant = pb.dominant_matrix((4,)).char_poly()
    recessive = pb.recessive_poly((4,))
    root = pb.largest_real_root(IntPoly.parse("t^6 - t^5 - 2*t"), lower=1.0)
    ok = (
        dominant == IntPoly.parse("t^6 - t^5 - 2*t")
        and recessive == IntPoly.parse("-2*t^5 - t + 1")
        and abs(root - 1.45109) <= 5e-5
    )
    assert _report(2, ok, f"dominant/recessive exact, root={root:.7f}")


def test_criterion_03_formula_matrix_equivalence():
    data = grid_data()
    rows = data["rows"]
    exact = all(d["char"] == d["formula"] for d in rows.values())
    worst = max(abs(d["pf"].eigenvalue - d["root"]) for d in rows.values())
    elapsed = data["elapsed"]
    ok = exact and worst <= 1e-9 and len(rows) == 775 and elapsed < 120.0
    assert _report(
        3,
        ok,
        f"775 tuples exact, max |pf - root| = {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_04_reciprocity_suite():
    rows = grid_data()["rows"]
    ok = True
    for tv, d in rows.items():
        bt = pb.BraidTuple(tv)
        mirrored = d["formula"].reciprocal(bt.size)
        if d["formula"] != (mirrored if bt.sign > 0 else -mirrored):
            ok = False
    prefixes = sorted({tv[:-1] for tv in rows})
    for prefix in prefixes:
        sign = 1 if len(prefix) % 2 == 1 else -1
        dom = pb.dominant_chain(prefix)[-1]
        if pb.recessive_poly(prefix) != dom.reciprocal(dom.degree) * sign:
            ok = False
        if pb.dual_recessive_poly(prefix) != dom * sign:
            ok = False
    assert _report(4, ok, f"{len(rows)} tuples and {len(prefixes)} prefixes exact")


def test_criterion_05_perron_frobenius_suite():
    rows = grid_data()["rows"]
    ok = all(
        d["matrix"].is_irreducible() and d["matrix"].is_primitive()
        for d in rows.values()
    )
    prefixes = sorted({tv[:-1] for tv in rows})
    for prefix in prefixes:
        block = pb.dominant_matrix(prefix)
        if not (block.is_irreducible() and block.is_primitive()):
            ok = False
    checked = 0
    for d in rows.values():
        if d["matrix"].size <= 8:
            checked += 1
            if d["matrix"].is_primitive() != wielandt_positive(d["matrix"]):
                ok = False
    assert _report(5, ok, f"all primitive; {checked} Wielandt cross-checks")


def test_criterion_06_monotonicity():
    rows = grid_data()["rows"]
    lam_cache = {tv: d["root"] for tv, d in rows.items()}

    def lam(tv):
        if tv not in lam_cache:
            lam_cache[tv] = pb.dilatation(tv, method="formula").lambda_formula
        return lam_cache[tv]

    smallest_gap = math.inf
    for tv in rows:
        for i in range(len(tv)):
            bumped = tv[:i] + (tv[i] + 1,) + tv[i + 1 :]
            smallest_gap = min(smallest_gap, lam(tv) - lam(bumped))
    ok = smallest_gap > 1e-6
    assert _report(6, ok, f"smallest single-step drop = {smallest_gap:.3e}")


def test_criterion_07_convergence_to_limit():
    rows = pb.convergence_table((4,), range(1, 31))
    lams = [r.lam for r in rows]
    strictly_down = all(b < a for a, b in zip(lams, lams[1:]))
    final_gap = rows[-1].gap_to_limit
    ok = strictly_down and 0 < final_gap < 1e-4
    assert _report(7, ok, f"strictly decreasing, gap at m=30 is {final_gap:.2e}")


def test_criterion_08_shrinking_dilatation():
    roots = []
    for n in (10, 100, 1000):
        poly = IntPoly.parse("t - 1").shift(n) - 2
        roots.append(pb.largest_real_root(poly, lower=1.0))
    family_ok = all(b < a for a, b in zip(roots, roots[1:])) and roots[-1] < 1.01
    lam = pb.dilatation((80, 80), method="formula").lambda_formula
    pair_ok = lam < 1.05
    ok = family_ok and pair_ok
    assert _report(
        8,
        ok,
        f"roots {[f'{r:.5f}' for r in roots]}, lambda(80,80) = {lam:.8f} "
        "(stated bound 1.05)",
    ), (
        "the stated bound lambda(80,80) < 1.05 is unattainable: the exact "
        f"value is {lam:.10f} (certified by exact sign changes and the "
        "Perron-Frobenius enclosure)"
    )


def test_criterion_09_salem_boyd_convergence():
    base = IntPoly.parse("t^2 - t - 1")
    mirrored = base.reciprocal(2)
    target = (1 + math.sqrt(5)) / 2
    worst = 0.0
    ok = True
    for n in (60, 75, 90):
        outside = pb.roots_outside_unit_disk(base.shift(n) + mirrored)
        if len(outside) != 1 or abs(outside[0].imag) > 1e-9:
            ok = False
            continue
        worst = max(worst, abs(outside[0] - target))
    ok = ok and worst <= 1e-6
    assert _report(9, ok, f"unique outside root, worst |root - phi| = {worst:.2e}")


def test_criterion_10_subinvariance():
    rng = random.Random(20260810)
    ok = True
    eigen_worst = 0.0
    for _ in range(100):
        matrix = random_primitive_matrix(rng, max_size=8)
        cert = matrix.spectral_radius(tol=1e-11)
        y = [rng.randint(1, 9) for _ in range(matrix.size)]
        if cert.eigenvalue < subinvariance_bound(matrix, y) - 1e-12:
            ok = False
        bound = subinvariance_bound(matrix, cert.right_eigenvector)
        eigen_worst = max(eigen_worst, abs(cert.eigenvalue - bound))
    ok = ok and eigen_worst <= 1e-8
    assert _report(10, ok, f"100 matrices, worst eigenvector slack = {eigen_worst:.2e}")


def test_criterion_11_parameter_search():
    t0 = time.monotonic()
    report = pb.find_parameters(1.1, 20)
    recomputed = pb.dilatation(
        (report.m,) * (report.k + 1), method="formula"
    ).lambda_formula
    minimality = True
    if report.m > 1:
        previous = pb.dilatation(
            (report.m - 1,) * (report.k + 1), method="formula"
        ).lambda_formula
        minimality = previous >= 1.1
    easy = pb.find_parameters(10, 0.1)
    elapsed = time.monotonic() - t0
    ok = (
        report.k == 41
        and recomputed < 1.1
        and minimality
        and pb.volume_lower_bound(41) > 20
        and pb.volume_lower_bound(40) <= 20
        and (easy.k, easy.m) == (2, 1)
        and elapsed < 60.0
    )
    assert _report(
        11,
        ok,
        f"k=41, m={report.m}, lambda={recomputed:.6f}, easy=(2,1), {elapsed:.1f} s",
    )


def test_criterion_12_tetrahedron_constant():
    v3 = pb.ideal_tetrahedron_volume()
    lhs = 3 * pb.lobachevsky(math.pi / 3)
    rhs = 2 * lobachevsky_by_parts(math.pi / 6)
    ok = abs(v3 - 1.0149416064) <= 1e-8 and abs(lhs - rhs) <= 1e-8
    assert _report(12, ok, f"v3 = {v3:.12f}, quadrature split = {abs(lhs - rhs):.2e}")
