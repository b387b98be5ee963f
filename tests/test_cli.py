import argparse
import ast
import collections
import doctest
import importlib.util
import itertools
import json
import math
import pkgutil
import sys
import time
from pathlib import Path

import pytest

import pabraid
import pabraid.cli
import pabraid.hubsearch as hubsearch
import pabraid.nnmatrix as nnmatrix
import pabraid.treebuilder as treebuilder
from pabraid import IntPoly, NNMatrix, monotonicity_check
from pabraid.cli import build_parser, main

from helpers import GOLDEN_8x8, berkowitz_starts, krylov_rows, record_decisions

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestDilatationCommand:
    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, "dilatation", "--tuple", "4,2", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["polynomial"] == "t^8 - t^7 - 2*t^5 - 2*t^3 - t + 1"
        assert payload["tuple"] == [4, 2]
        assert abs(payload["lambda_formula"] - payload["lambda_matrix"]) <= 1e-9

    def test_text_report_with_matrix(self, capsys):
        rc, out, _ = run(capsys, "dilatation", "--tuple", "4,2", "--dump-matrix")
        assert rc == 0
        assert "polynomial: t^8 - t^7 - 2*t^5 - 2*t^3 - t + 1" in out
        assert NNMatrix.from_rows(GOLDEN_8x8).pretty() in out

    def test_formula_only(self, capsys):
        rc, out, _ = run(capsys, "dilatation", "--tuple", "1,1", "--method", "formula")
        assert rc == 0
        assert "lambda (formula):" in out and "lambda (matrix):" not in out

    # The shortest tuple known to have reached the matrix route's underflow:
    # N = 1122 with 1374 nonzeros, far inside the size limit, but lambda is
    # about 2 + 2e-15, so the Perron vector spans about 2^-N and a float
    # eigenvector cannot hold it.  The hub solve carries an exponent per
    # entry, and both routes certify it.
    UNDERFLOWING = ",".join(["79"] * 14 + ["1"])

    @pytest.mark.parametrize("method", ["both", "matrix"])
    def test_matrix_route_certifies_the_once_underflowing_tuple(self, capsys, method):
        rc, out, err = run(capsys, "dilatation", "--tuple", self.UNDERFLOWING, "--method", method)
        assert (rc, err) == (0, "")
        lam = float(out.split("lambda (matrix): ", 1)[1].split()[0])
        assert abs(lam - 2.0000000000000018) <= 1e-9

    def test_formula_route_certifies_the_underflowing_tuple(self, capsys):
        argv = ("dilatation", "--tuple", self.UNDERFLOWING, "--method", "formula")
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert out.endswith("\nlambda (formula): 2.0000000000000018\n")


    @pytest.mark.parametrize(
        "values, degree",
        [("1000000000000,1", 1000000000003), ("1000000000,3,1000000000", 2000000006)],
        ids=["10^12,1", "10^9,3,10^9"],
    )
    def test_formula_route_refuses_the_degree_before_the_cell(self, capsys, monkeypatch, values, degree):
        # the printed polynomial's limit comes first: the formula cell of
        # these was still running after 10 s
        module = importlib.import_module("pabraid.dilatation")

        def refuse(*args):
            raise AssertionError("the formula cell ran")

        monkeypatch.setattr(module, "_cell", refuse)
        start = time.perf_counter()
        rc, out, err = run(capsys, "dilatation", "--tuple", values, "--method", "formula")
        assert time.perf_counter() - start < 1
        assert (rc, out) == (1, "")
        assert err == f"error: the polynomial would have degree {degree}; the limit is 10000000\n"
        # the matrix routes keep their nonzero limit, which comes first
        for method in ("matrix", "both"):
            rc, _, err = run(capsys, "dilatation", "--tuple", values, "--method", method)
            assert rc == 1 and err.endswith("nonzeros; the limit is 1000000\n")


class TestPolynomialCommand:
    def test_chain_output(self, capsys):
        rc, out, _ = run(capsys, "polynomial", "--tuple", "4,2", "--chain")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "chain[1]: t^6 - t^5 - 2*t"
        assert lines[-1] == "char_poly: t^8 - t^7 - 2*t^5 - 2*t^3 - t + 1"

    @pytest.mark.parametrize(
        "argv, degree",
        [
            (("polynomial", "--tuple", "1,1000000000000"), 1000000000003),
            (("dilatation", "--tuple", "1,1000000000000", "--method", "formula"), 1000000000003),
            (("polynomial", "--chain", "--tuple", "1000000000000,1"), 1000000000002),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
    )
    def test_past_the_degree_limit_is_one_error_line(self, capsys, argv, degree):
        # the polynomial's padded coefficient list, 8 TB, ended in an
        # uncaught MemoryError
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == f"error: the polynomial would have degree {degree}; the limit is 10000000\n"

    def test_the_degree_limit_admits_its_own_degree(self, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("pabraid.dilatation"), "_MAX_DEGREE", 8)
        assert run(capsys, "polynomial", "--tuple", "4,2", "--chain")[0] == 0
        rc, _, err = run(capsys, "polynomial", "--tuple", "4,3")
        assert (rc, err) == (1, "error: the polynomial would have degree 9; the limit is 8\n")

    def test_a_degree_of_a_million_prints(self, capsys):
        rc, out, _ = run(capsys, "polynomial", "--tuple", "1,1000000")
        assert (rc, out) == (0, "char_poly: t^1000003 - t^1000002 - 2*t^1000001 - 2*t^2 - t + 1\n")


class TestMatrixCommand:
    def test_dense_rows(self, capsys):
        rc, out, _ = run(capsys, "matrix", "--tuple", "4,2")
        assert rc == 0
        assert out == NNMatrix.from_rows(GOLDEN_8x8).pretty() + "\n"

    def test_sparse_round_trip(self, capsys):
        rc, out, _ = run(capsys, "matrix", "--tuple", "4,2", "--sparse")
        assert rc == 0
        assert out == NNMatrix.from_rows(GOLDEN_8x8).text()

    # 12000,1 and 3160,1 give N = 12003 and 3163: far inside the nonzero
    # limit, but 144 and 10 million cells
    @pytest.mark.parametrize(
        "argv, cells",
        [
            (("matrix", "--tuple", "12000,1"), 144072009),
            (
                ("dilatation", "--tuple", "3160,1", "--method", "formula", "--dump-matrix", "--json"),
                10004569,
            ),
            (("dilatation", "--tuple", "3160,1", "--dump-matrix"), 10004569),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
    )
    def test_a_dense_print_past_the_limit_is_refused_before_any_work(
        self, capsys, monkeypatch, argv, cells
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("work done")

        monkeypatch.setattr(NNMatrix, "to_rows", refuse)
        monkeypatch.setattr(treebuilder, "_entries", refuse)
        monkeypatch.setattr(pabraid.cli, "dilatation", refuse)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == (
            f"error: a dense print of the transition matrix has {cells} cells; the limit "
            "is 1000000; pabraid matrix --sparse prints its nonzeros\n"
        )

    def test_the_dense_limit_admits_10_to_the_6_cells(self, capsys, monkeypatch):
        # 997,1 gives N = 1000, and 998,1 one row and column more
        shown = []
        monkeypatch.setattr(NNMatrix, "to_rows", lambda m: shown.append(m.size) or [[0]])
        assert run(capsys, "matrix", "--tuple", "997,1")[:2] == (0, "0\n")
        assert run(capsys, "matrix", "--tuple", "998,1")[0] == 1
        assert shown == [1000]


class TestLimitCommand:
    def test_five_decimals(self, capsys):
        rc, out, _ = run(capsys, "limit", "--prefix", "4")
        assert rc == 0
        assert round(float(out.strip()), 5) == 1.45109

    def test_deep_prefix(self, capsys):
        rc, out, err = run(capsys, "limit", "--prefix", ",".join(["5"] * 15))
        assert (rc, out, err) == (0, "2.0050186672\n", "")


GOLDEN_COMMANDS = [
    (("scan", "--prefix", "2,8,8", "--m-max", "40"), "scan-2-8-8.csv"),
    (("scan", "--prefix", "9,4,6,4", "--m-max", "40"), "scan-9-4-6-4.csv"),
    # μ(1) = 2 is a grid point, and rows from m = 49 on share its 2^-48
    # cell: the lemma of convergence_table brackets each such row in that
    # one cell, so the row is the cell with no decision
    (("scan", "--prefix", "1", "--m-max", "60"), "scan-1.csv"),
    # rows from m = 25 on lie in μ's cell; the second scan starts deep,
    # where its first row has no upper end but μ's cell is its lower one
    (("scan", "--prefix", "4,10,2,6,1,1", "--m-max", "60"), "scan-4-10-2-6-1-1.csv"),
    (("scan", "--prefix", "1,1", "--m-min", "30", "--m-max", "90"), "scan-1-1-from-30.csv"),
    (("limit", "--prefix", "4"), "limit-4.txt"),
    (("bound", "--lambda", "1.1", "--volume", "20"), "bound-1.1-20.json"),
    (("bound", "--lambda", "1.02", "--volume", "20"), "bound-1.02-20.json"),
    (("verify", "--max-k", "6", "--max-m", "3"), "verify-6-3.txt"),
    (("verify", "--max-k", "2", "--max-m", "9"), "verify-2-9.txt"),
    (("verify", "--max-k", "60", "--max-m", "1"), "verify-60-1.txt"),
]


@pytest.mark.parametrize("argv, golden", GOLDEN_COMMANDS)
def test_golden_stdout(capsys, argv, golden):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


class TestScanCommand:
    def test_csv_columns(self, capsys):
        rc, out, _ = run(capsys, "scan", "--prefix", "4", "--m-max", "5")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tuple;lambda;gap_to_limit;poly_degree"
        assert len(lines) == 6
        first = lines[1].split(";")
        assert first[0] == "4,1" and first[3] == "7"
        gaps = [float(ln.split(";")[2]) for ln in lines[1:]]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_rows_inside_the_limits_cell(self, capsys):
        # from m = 33 on λ shares the limit's 2^-48 cell, so the printed
        # gap is 0.0; the order is the last-coordinate lemma's, which
        # test_dilatation checks by refining the cells
        rc, out, err = run(capsys, "scan", "--prefix", "7,4,2,8", "--m-max", "40")
        assert (rc, err) == (0, "")
        rows = [line.split(";") for line in out.splitlines()[1:]]
        assert len(rows) == 40 and rows[-1][2] == "0.0"
        assert rows[-1][1] == "2.4141496116083605"

    def test_rows_past_the_old_cap(self, capsys):
        # λ(2,3,m) - μ passes 2^-1024 near m = 910; no grid depth stops a scan
        rc, out, err = run(capsys, "scan", "--prefix", "2,3", "--m-max", "1200")
        assert (rc, err) == (0, "")
        assert len(out.splitlines()) == 1 + 1200

    def test_rows_at_a_huge_last_entry(self, capsys):
        # x^m costs the rung's precision at any m, and λ(7, 10^12) lies far
        # closer than 2^-48 to μ(7): each row prints μ's cell
        start = time.perf_counter()
        rc, out, err = run(
            capsys, "scan", "--prefix", "7", "--m-min", "1000000000000", "--m-max", "1000000000002"
        )
        assert time.perf_counter() - start < 1
        assert (rc, err) == (0, "")
        mu = repr(pabraid.limit_dilatation((7,)))
        rows = [line.split(";")[:3] for line in out.splitlines()[1:]]
        assert rows == [[f"7,{10**12 + k}", mu, "0.0"] for k in range(3)]

    def test_the_order_is_not_decided_again(self, capsys, monkeypatch):
        # the last-coordinate lemma orders the rows, so no decision checks
        # the order and no cell is refined below the 2^-48 grid.  It also
        # brackets each row between μ's cell and the previous row's: rows
        # from m = 21 on lie in μ's cell, so m = 21 costs one decision and
        # each later row, bracketed in that one cell, none.  With two for
        # μ's cell and two for each of the first 20 rows, 43
        calls = record_decisions(monkeypatch)
        rc, _, _ = run(capsys, "scan", "--prefix", "10,1,8,5", "--m-max", "40")
        assert (rc, len(calls)) == (0, 43)

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "scan", "--prefix", "2", "--m-max", "4")
        _, second, _ = run(capsys, "scan", "--prefix", "2", "--m-max", "4")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        rc, out, _ = run(capsys, "scan", "--prefix", "4", "--m-max", "3", "--out", str(target))
        assert rc == 0 and out == ""
        content = target.read_text()
        assert content.startswith("tuple;lambda;gap_to_limit;poly_degree\n")

    def test_unwritable_out_path(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "scan", "--prefix", "4", "--m-max", "3",
            "--out", str(tmp_path / "missing" / "scan.csv"),
        )
        assert rc == 1 and "error:" in err


class TestBoundCommand:
    def test_easy_targets(self, capsys):
        rc, out, _ = run(capsys, "bound", "--lambda", "10", "--volume", "0.1")
        assert rc == 0
        payload = json.loads(out)
        assert payload["k"] == 2 and payload["m"] == 1
        assert payload["lambda_achieved"] < 10

    def test_invalid_targets_fail_computationally(self, capsys):
        rc, _, err = run(capsys, "bound", "--lambda", "0.9", "--volume", "1")
        assert rc == 1 and "error:" in err

    def test_a_volume_past_the_nonzero_limit_is_refused_before_the_search(self, capsys, monkeypatch):
        # k = 22 462 for volume 10^4: even the least witness, every entry 1,
        # passes the limit, so the search for m (12.9 s before) never starts
        volume = importlib.import_module("pabraid.volume")

        def refuse(*args):
            raise AssertionError("the search for m ran")

        monkeypatch.setattr(volume, "_decide", refuse)
        start = time.perf_counter()
        rc, out, err = run(capsys, "bound", "--lambda", "1.1", "--volume", "10000")
        assert time.perf_counter() - start < 1
        assert (rc, out) == (1, "")
        assert err == (
            "error: the transition matrix of size 39416 would have 388484093 "
            "nonzeros; the limit is 1000000\n"
        )

    def test_a_target_too_close_to_1_names_the_cap(self, capsys):
        # λ(m, m, m, m) < 1 + 2^-52 needs m far past 2^19, the last m that
        # doubling from 1 asks within the cap
        rc, out, err = run(capsys, "bound", "--lambda", "1.0000000000000002", "--volume", "1")
        assert (rc, out, err) == (1, "", "error: parameter search exceeded the cap 1000000\n")

    def test_volume_100_is_certified(self, capsys):
        # the witness (79,)*200, whose hub vector spans more than the
        # doubles, is cross-checked by its matrix route
        rc, out, err = run(capsys, "bound", "--lambda", "1.1", "--volume", "100")
        assert (rc, err) == (0, "")
        payload = json.loads(out)
        assert (payload["k"], payload["m"]) == (199, 79)


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--lambda", "1.1", "--volume", "20"),
        ("dilatation", "--tuple", ",".join(["79"] * 42), "--method", "matrix"),
    ],
    ids=["bound 1.1 20", "dilatation (79,)*42 matrix"],
)
def test_the_solve_is_built_from_the_levels_alone(capsys, monkeypatch, argv):
    # the braid route's Perron-Frobenius solve builds no entries dict and
    # finds no hubs by a search, and prints the same
    expected = run(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("entries dict or hub search used")

    monkeypatch.setattr(treebuilder, "_entries", refuse)
    monkeypatch.setattr(hubsearch, "_searched_hubs", refuse)
    assert expected[0] == 0
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--prefix", "4", "--m-max", "3", "--m-min", "0"),
        ("scan", "--prefix", "4", "--m-max", "3", "--m-min", "-5"),
        ("bound", "--lambda", "inf", "--volume", "1"),
        ("bound", "--lambda", "nan", "--volume", "1"),
        ("bound", "--lambda", "1.5", "--volume", "inf"),
        ("dilatation", "--tuple", "4,2", "--tol", "inf"),
        ("dilatation", "--tuple", "4,2", "--tol", "nan"),
        ("dilatation", "--tuple", "1,2", "--tol", "1e-16"),
        ("dilatation", "--tuple", "4,2", "--method", "formula", "--tol", "-1"),
        ("dilatation", "--tuple", "4,2", "--method", "formula", "--tol", "0"),
        ("dilatation", "--tuple", "4,2", "--method", "formula", "--tol", "nan"),
        ("dilatation", "--tuple", "4,2", "--method", "formula", "--tol", "inf"),
        ("scan", "--prefix", "4", "--m-max", "100000000000000000000000"),
        ("verify", "--max-k", "12", "--max-m", "9"),
    ],
    ids=" ".join,
)
def test_rejected_inputs_exit_1_with_an_error_line(capsys, argv):
    # an uncaught exception would escape main and fail the test
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, asks",
    [
        (("scan", "--prefix", "4", "--m-max", "100001"), "100001 rows"),
        (("scan", "--prefix", "4", "--m-max", "9" * 30), "9" * 30 + " rows"),
        # 9^2 + 9^3 + ... + 9^13
        (("verify", "--max-k", "12", "--max-m", "9"), "2859599056860 tuples"),
        (("verify", "--max-k", "1000000000", "--max-m", "1"), "1000000000 tuples"),
        (("verify", "--max-k", "1000000000", "--max-m", "2"), "more than 2^4096 tuples"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_ranges_beyond_the_limit_are_refused_before_they_are_built(capsys, argv, asks):
    rc, _, err = run(capsys, *argv)
    assert (rc, err) == (1, f"error: {argv[0]} asks for {asks}; the limit is 100000\n")


def _spied(build, calls, key=None):
    # ``build``, appending each call's arguments, or their ``key``, to ``calls``
    def spied(*args):
        calls.append(args if key is None else key(args))
        return build(*args)

    return spied


def _written(build, sizes):
    # the piece builder ``build``, appending each piece's entry count to ``sizes``
    def spied(*args):
        piece = build(*args)
        sizes.append(len(piece))
        return piece

    return spied


def _piece_tuple(args):
    # the tuple, or the prefix, whose piece _tuple_piece or _child_piece
    # builds from (n, row, m): the row's columns are 1 and the prefix's hubs
    # n_j + 1, so consecutive columns lie m_j + 1 apart
    _, row, m = args
    columns = list(row)
    return tuple(b - a - 1 for a, b in zip(columns, columns[1:])) + (m,)


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--max-k", "1", "--max-m", "2")
        assert rc == 0
        assert "tuples checked: 4" in out
        assert "failures: 0" in out

    def test_each_matrix_is_built_once(self, capsys, monkeypatch):
        # the empty prefix's block, vertex 1 alone, is the only whole build;
        # every other block is its parent's entries and its child piece, and
        # every tuple is its block and its tuple piece.  So each prefix's
        # child piece is built once and each tuple's piece once
        built = collections.defaultdict(list)
        for module, name, key in [
            (treebuilder, "_entries", None), (treebuilder, "_block", None),
            (treebuilder, "_child_piece", _piece_tuple), (pabraid.cli, "_tuple_piece", _piece_tuple),
        ]:
            monkeypatch.setattr(module, name, _spied(getattr(module, name), built[name], key))
        rc, out, _ = run(capsys, "verify", "--max-k", "3", "--max-m", "5")
        assert rc == 0 and out.startswith("tuples checked: 775\nprefixes checked: 155\n")
        prefixes = [p for n in (1, 2, 3) for p in itertools.product(range(1, 6), repeat=n)]
        tuples = [p + (last,) for p in prefixes for last in range(1, 6)]
        assert built["_entries"] == []
        assert built["_block"] == [((),)]
        assert len(built["_child_piece"]) == 155 and len(built["_tuple_piece"]) == 775
        assert collections.Counter(built["_child_piece"]) == collections.Counter(prefixes)
        assert collections.Counter(built["_tuple_piece"]) == collections.Counter(tuples)

    def test_no_tuple_builds_a_matrix_or_a_polynomial(self, capsys, monkeypatch):
        # the empty prefix's block and the 155 prefixes' blocks are the only
        # matrices, 156, and every check compares coefficient lists: each
        # tuple's pair is finished from its block's by its tuple piece, and
        # nothing builds an IntPoly, so neither count grows with the tuples
        made = collections.defaultdict(list)
        of = NNMatrix._of.__func__
        monkeypatch.setattr(NNMatrix, "_of", classmethod(_spied(of, made["NNMatrix"], len)))
        for cls in (NNMatrix, IntPoly):
            monkeypatch.setattr(cls, "__init__", _spied(cls.__init__, made[cls.__name__], len))
        rc, out, err = run(capsys, "verify", "--max-k", "3", "--max-m", "5")
        assert (rc, out, err) == (0, "tuples checked: 775\nprefixes checked: 155\nfailures: 0\n", "")
        assert len(made["NNMatrix"]) == 156
        assert made["IntPoly"] == []

    def test_the_pieces_write_quadratically_many_entries(self, capsys, monkeypatch):
        # verify --max-k K --max-m 1 builds no block whole but the empty
        # prefix's, vertex 1 alone, which holds no entry, and writes every
        # entry as pieces.  The prefix of i ones has a last row of i + 1
        # entries, so its tuple piece writes i + 2: the link and that row.
        # The child piece of a prefix of i >= 1 ones is the tuple piece of
        # its parent, i + 1 entries, the two feeds and the hub row, i + 1
        # entries.  Summed, 3K(K + 5)/2 entries, while the matrices hold
        # about K^3/3.  Each block shares its ancestors' pieces in one flat
        # chain of maps, one per level and the empty prefix's
        k = 200
        built = collections.defaultdict(list)
        monkeypatch.setattr(treebuilder, "_entries", _spied(treebuilder._entries, built["_entries"]))
        monkeypatch.setattr(treebuilder, "_block", _spied(treebuilder._block, built["_block"]))
        for module, name in [(pabraid.cli, "_tuple_piece"), (treebuilder, "_child_piece")]:
            monkeypatch.setattr(module, name, _written(getattr(module, name), built["written"]))
        child_extension = pabraid.cli._child_extension

        def flat(block, row, m):
            child, last = child_extension(block, row, m)
            prefix = _piece_tuple((block.size, row, m))
            built["maps"].append(len(child.entries.maps) - len(prefix))
            return child, last

        monkeypatch.setattr(pabraid.cli, "_child_extension", flat)
        rc, out, err = run(capsys, "verify", "--max-k", str(k), "--max-m", "1")
        assert (rc, out, err) == (0, "tuples checked: 200\nprefixes checked: 200\nfailures: 0\n", "")
        assert built["_entries"] == [] and built["_block"] == [((),)]
        assert sum(built["written"]) == 3 * k * (k + 5) // 2
        assert built["maps"] == [1] * k

    def test_each_prefix_runs_its_block_once(self, capsys):
        # only the empty prefix's 1-square block runs the recurrence, and
        # fills its memo by one Krylov sequence, for the empty row, since
        # its last row reads only its own column.  Per prefix, the block
        # closes its level's chain and its hub row from its parent block's
        # memo, with no run; the recessive polynomial comes from the
        # block's pair, with no run; and every tuple's chain closes from the
        # block's memo, with no run.  Every block's memo but the root's comes
        # from its lift
        with berkowitz_starts() as starts, krylov_rows() as sequences:
            rc, _, _ = run(capsys, "verify", "--max-k", "3", "--max-m", "3")
        assert rc == 0
        assert starts == [None]
        assert sequences == [1]

    def test_the_grid_forms_krylov_sequences_only_in_its_root(self, capsys):
        # 1 240 Krylov rows before the chains closed from their block's
        # memo, and 315 before the hub rows did, and 15 while the five
        # first-level blocks were built whole.  Now the empty prefix's
        # block runs the recurrence, on its one row, and forms the grid's
        # one Krylov sequence; the 155 blocks take their memos from their
        # lifts
        with berkowitz_starts() as starts, krylov_rows() as sequences:
            rc, _, _ = run(capsys, "verify", "--max-k", "3", "--max-m", "5")
        assert rc == 0
        assert starts == [None]
        assert sequences == [1]

    def test_a_grid_whose_largest_matrix_passes_the_limit_is_refused_before_it_is_built(
        self, capsys, monkeypatch
    ):
        # 100 000 tuples pass the grid's limit, but (1,)*100001 has 10^10
        # nonzeros, and the grid's prefixes alone would fill gigabytes
        def refuse(*args):
            raise AssertionError("entries built")

        for name in ("_entries", "_block", "_child_piece", "_tuple_piece"):
            monkeypatch.setattr(treebuilder, name, refuse)
        monkeypatch.setattr(pabraid.cli, "_tuple_piece", refuse)
        start = time.perf_counter()
        rc, out, err = run(capsys, "verify", "--max-k", "100000", "--max-m", "1")
        assert time.perf_counter() - start < 1
        assert (rc, out) == (1, "")
        assert err == (
            "error: the transition matrix of size 200002 would have 10000600002 "
            "nonzeros; the limit is 1000000\n"
        )

    def test_runs_no_graph_search(self, capsys, monkeypatch):
        # every transition matrix and dominant block is primitive by the
        # lemma in treebuilder's docstring (criterion 5 checks it on this
        # grid), so verify checks only the polynomial identities
        def refuse(self):
            raise AssertionError("graph searched")

        monkeypatch.setattr(NNMatrix, "_primitive_depths", refuse)
        rc, out, err = run(capsys, "verify", "--max-k", "3", "--max-m", "5")
        assert (rc, out, err) == (
            0, "tuples checked: 775\nprefixes checked: 155\nfailures: 0\n", ""
        )

    def test_corrupted_entries_fail_loudly(self, capsys, monkeypatch):
        # Three corruptions, each through a piece: the entry (1,2), inside
        # the leading 8-square block of (2,3), in the tuple piece of (2,3,4)
        # alone, so that its block is no longer the corner and the seed must
        # be refused; the last row of (3,1,4); and (1,2) in the child piece of
        # the prefix (1,2), inside its parent's 3-square corner.  Were an
        # entry inside the corner taken as part of a piece, 2,3,4 would pass
        # and the block of (1,2) would have the right polynomial.  The block
        # of (1,2) is the matrix of its tuples less their tuple pieces, so all
        # four of them differ
        child_piece, tuple_piece = treebuilder._child_piece, pabraid.cli._tuple_piece

        def corrupted_child(*args):
            piece = child_piece(*args)
            if _piece_tuple(args) == (1, 2):
                piece[(1, 2)] = 2
            return piece

        def corrupted_tuple(*args):
            piece = tuple_piece(*args)
            n, _, last = args
            if _piece_tuple(args) == (2, 3, 4):
                piece[(1, 2)] = 2
            elif _piece_tuple(args) == (3, 1, 4):
                piece[(n + last, 1)] += 1
            return piece

        monkeypatch.setattr(treebuilder, "_child_piece", corrupted_child)
        monkeypatch.setattr(pabraid.cli, "_tuple_piece", corrupted_tuple)
        rc, out, err = run(capsys, "verify", "--max-k", "2", "--max-m", "4")
        assert (rc, err) == (1, "")
        assert out == (
            "tuples checked: 80\n"
            "prefixes checked: 20\n"
            "failures: 8\n"
            "1,2,1: formula and matrix polynomials differ\n"
            "1,2,2: formula and matrix polynomials differ\n"
            "1,2,3: formula and matrix polynomials differ\n"
            "1,2,4: formula and matrix polynomials differ\n"
            "2,3,4: formula and matrix polynomials differ\n"
            "3,1,4: formula and matrix polynomials differ\n"
            "prefix (1, 2): dominant block has the wrong polynomial\n"
            "prefix (1, 2): recessive polynomial mismatch\n"
        )

    def test_failures_come_in_grid_order(self, capsys, monkeypatch):
        # the tuple pieces of (1,1,2) and (2,3) read 2 at (1,2), inside their
        # blocks, and the child piece of the prefix (3,), which grows its
        # block from the empty prefix's, reads 2 there on its link: so the
        # block of (3,) and every block and tuple built on it are wrong.  The
        # walk meets (1,1,2) first, but the grid lists tuples by length:
        # length 2, then length 3, then the prefix failures in sorted order
        child_piece, tuple_piece = treebuilder._child_piece, pabraid.cli._tuple_piece

        def corrupted(build, tuples):
            def corrupted_build(*args):
                piece = build(*args)
                if _piece_tuple(args) in tuples:
                    piece[(1, 2)] = 2
                return piece

            return corrupted_build

        monkeypatch.setattr(treebuilder, "_child_piece", corrupted(child_piece, [(3,)]))
        monkeypatch.setattr(pabraid.cli, "_tuple_piece", corrupted(tuple_piece, [(1, 1, 2), (2, 3)]))
        rc, out, err = run(capsys, "verify", "--max-k", "2", "--max-m", "3")
        assert (rc, err) == (1, "")
        below = [f"3,{a}" for a in (1, 2, 3)]
        assert out == "".join(
            line + "\n"
            for line in [
                "tuples checked: 36",
                "prefixes checked: 12",
                "failures: 22",
                *[f"{t}: formula and matrix polynomials differ" for t in ["2,3", *below]],
                *[
                    f"{t}: formula and matrix polynomials differ"
                    for t in ["1,1,2", *[f"{p},{b}" for p in below for b in (1, 2, 3)]]
                ],
                *[
                    f"prefix {p}: {failure}"
                    for p in [(3,), (3, 1), (3, 2), (3, 3)]
                    for failure in [
                        "dominant block has the wrong polynomial",
                        "recessive polynomial mismatch",
                    ]
                ],
            ]
        )

    @pytest.mark.parametrize("k, m", [(6, 3), (3, 5)])
    def test_only_the_ancestors_blocks_are_kept(self, capsys, monkeypatch, k, m):
        # the blocks alive at once: the current prefix's and its ancestors',
        # at most k, and the next one while it is built.  A walk length by
        # length that kept one length's blocks until the next was done kept
        # 324 at once at --max-k 6 --max-m 3.  Each block is counted by a
        # subclass whose __del__ counts it down
        alive, peak = [0], [0]

        class Counted(NNMatrix):
            __slots__ = ()

            def __del__(self):
                alive[0] -= 1

        def counting(extension):
            def counted(*args):
                block, last = extension(*args)
                block.__class__ = Counted
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
                return block, last

            return counted

        # every block but the empty prefix's comes from _child_extension
        monkeypatch.setattr(pabraid.cli, "_child_extension", counting(pabraid.cli._child_extension))
        rc, out, _ = run(capsys, "verify", "--max-k", str(k), "--max-m", str(m))
        assert rc == 0 and out.endswith("failures: 0\n")
        assert 1 < peak[0] <= k + 1
        assert alive == [0]


class TestRepeatedCalls:
    # main reuses one parser; each call must still start from the defaults
    def test_flags_do_not_leak_into_the_next_call(self, capsys):
        _, first, _ = run(capsys, "dilatation", "--tuple", "4,2", "--json")
        _, second, _ = run(capsys, "dilatation", "--tuple", "4,2")
        assert json.loads(first)["tuple"] == [4, 2]
        assert second.startswith("tuple: ")

    def test_options_do_not_change_later_defaults(self, capsys):
        _, narrow, _ = run(capsys, "scan", "--prefix", "4", "--m-max", "5", "--m-min", "3")
        _, full, _ = run(capsys, "scan", "--prefix", "4", "--m-max", "5")
        assert len(narrow.splitlines()) == 4
        assert len(full.splitlines()) == 6


class _RootFinderCalled(Exception):
    pass


@pytest.fixture
def refuse_root_finders(monkeypatch):
    # rebind the generic root finders in every pabraid namespace, as the
    # benchmark's tracer does, so a call through any imported name raises
    def refuse(*args, **kwargs):
        raise _RootFinderCalled

    for name, module in list(sys.modules.items()):
        if name == "pabraid" or name.startswith("pabraid."):
            for finder in ("largest_real_root", "first_real_root_above", "roots_outside_unit_disk"):
                if hasattr(module, finder):
                    monkeypatch.setattr(module, finder, refuse)


class TestNoGenericRootFinder:
    @pytest.mark.parametrize(
        "argv",
        [
            ("dilatation", "--tuple", "4,2,7", "--method", "both"),
            ("limit", "--prefix", "4,2"),
            ("scan", "--prefix", "4,2", "--m-max", "10"),
            ("bound", "--lambda", "1.5", "--volume", "3"),
            ("verify", "--max-k", "1", "--max-m", "3"),
        ],
    )
    def test_commands(self, capsys, refuse_root_finders, argv):
        rc, _, err = run(capsys, *argv)
        assert (rc, err) == (0, "")

    def test_monotonicity_check(self, refuse_root_finders):
        assert monotonicity_check((4, 2, 7), 2).strictly_decreasing


def _tracer_module():
    # read, not changed: the benchmark's tracer as it is committed
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPublicNames:
    # the benchmark tracer binds library functions by name, so deleting
    # one breaks `bench/run.py --trace 1`; this fails first
    @pytest.mark.parametrize(
        "name", [f"{layer}.{n}" for layer, ns in _tracer_module().TRACED.items() for n in ns]
    )
    def test_every_traced_name_resolves(self, name):
        layer, *path = name.split(".")
        owner = importlib.import_module(f"pabraid.{layer}")
        for attr in path:
            owner = getattr(owner, attr)
        assert callable(owner)

    def test_every_exported_name_resolves(self):
        missing = [n for n in pabraid.__all__ if not hasattr(pabraid, n)]
        assert missing == []


EXPORTED = [
    "BoundReport", "BraidTuple", "DilatationReport", "IntPoly", "MonotonicityCheck", "NNMatrix",
    "PFCertificate", "ScanRow", "StructureReport", "__version__", "block_boundaries",
    "braid_char_poly", "convergence_table", "dilatation", "dominant_chain", "dominant_matrix",
    "dual_recessive_poly", "find_parameters", "first_real_root_above", "ideal_tetrahedron_volume",
    "largest_real_root", "limit_dilatation", "lobachevsky", "monotonicity_check", "poly_matrix_det",
    "recessive_poly", "roots_outside_unit_disk", "transition_matrix", "validate_structure",
    "volume_lower_bound",
]


class TestExportedNames:
    # the package republishes each module's __all__, its only list of names
    def test_the_exported_names(self):
        assert sorted(pabraid.__all__) == EXPORTED

    @pytest.mark.parametrize("name", [n for n in EXPORTED if n != "__version__"])
    def test_each_name_is_its_module_s_object(self, name):
        value = getattr(pabraid, name)
        assert value.__module__.startswith("pabraid.")
        assert value is getattr(sys.modules[value.__module__], name)

    @pytest.mark.parametrize("name", ["params", "parse_params", "closing_sign", "StructureCheck"])
    def test_treebuilder_helpers_stay_unexported(self, name):
        assert hasattr(treebuilder, name) and not hasattr(pabraid, name)


# the public attributes of the two value classes: a method that only tests
# call does not come back unnoticed
PUBLIC_ATTRIBUTES = {
    "NNMatrix": [
        "char_poly", "entries", "from_rows", "is_primitive", "pretty", "size",
        "spectral_radius", "text", "to_rows",
    ],
    "IntPoly": ["coeffs", "degree", "parse", "reciprocal", "shift"],
}


@pytest.mark.parametrize("name", sorted(PUBLIC_ATTRIBUTES))
def test_the_public_attributes(name):
    cls = getattr(pabraid, name)
    assert sorted(a for a in dir(cls) if not a.startswith("_")) == PUBLIC_ATTRIBUTES[name]


# each record's fields, its repr from them, and a field changed; the fields
# leave out the defaults of formula_bracket and bracket, which the reprs show
RECORDS = [
    ("BraidTuple", ((4, 2),), "BraidTuple(values=(4, 2))", ((4, 3),)),
    (
        "PFCertificate",
        (1.5, 1.25, 1.75, (1.0, 0.5), 0.0),
        "PFCertificate(eigenvalue=1.5, lower=1.25, upper=1.75, right_eigenvector=(1.0, 0.5), "
        "residual=0.0)",
        (1.5, 1.25, 1.75, (1.0, 0.25), 0.0),
    ),
    (
        "StructureCheck",
        ("hub_self_transition", True, "entry (7,7) = 1"),
        "StructureCheck(name='hub_self_transition', ok=True, detail='entry (7,7) = 1')",
        ("hub_self_transition", False, "entry (7,7) = 1"),
    ),
    (
        "StructureReport",
        ((4, 2), ()),
        "StructureReport(tuple_values=(4, 2), checks=())",
        ((4, 3), ()),
    ),
    (
        "DilatationReport",
        ((4, 2), 1.5, None, None, None),
        "DilatationReport(tuple_values=(4, 2), lambda_formula=1.5, lambda_matrix=None, "
        "agreement=None, certificate=None, formula_bracket=None)",
        ((4, 2), 1.5, None, None, None, (1, 2)),
    ),
    (
        "MonotonicityCheck",
        (1.5, 1.25, True),
        "MonotonicityCheck(lambda_before=1.5, lambda_after=1.25, strictly_decreasing=True)",
        (1.5, 1.25, False),
    ),
    (
        "ScanRow",
        ((4, 2), 1.5, 0.25, 8),
        "ScanRow(tuple_values=(4, 2), lam=1.5, gap_to_limit=0.25, poly_degree=8, bracket=None)",
        ((4, 2), 1.5, 0.25, 8, (1, 2)),
    ),
    (
        "BoundReport",
        (2, 1, 3.7, 0.5, 10.0, 0.1),
        "BoundReport(k=2, m=1, lambda_achieved=3.7, volume_bound=0.5, target_lambda=10.0, "
        "target_volume=0.1)",
        (2, 1, 3.7, 0.5, 10.0, 0.2),
    ),
]


class TestRecords:
    @pytest.mark.parametrize("name, fields, shown, changed", RECORDS, ids=[r[0] for r in RECORDS])
    def test_immutable_values(self, name, fields, shown, changed):
        # repr, equality and hashing by fields, and no assignment to a field
        cls = getattr(treebuilder, name, None) or getattr(pabraid, name)
        record = cls(*fields)
        assert repr(record) == shown
        assert record == cls(*fields) and hash(record) == hash(cls(*fields))
        assert record != cls(*changed)
        field = shown.split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(cls(*changed), field))
        assert record == cls(*fields)


class TestReadme:
    def test_library_block_shows_what_it_computes(self):
        # each commented line of the README's Library block evaluates to
        # what its comment shows: the repr, its leading fields before
        # "...", or after "~" a float of the same decimal order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace, shown = {}, []
        for line in block.splitlines():
            code, _, comment = (part.strip() for part in line.partition("#"))
            if not comment:
                exec(code, namespace)
                continue
            value = eval(code, namespace)
            if comment.startswith("~"):
                order = math.floor(math.log10(float(comment[1:])))
                assert 10.0**order <= value < 10.0 ** (order + 1), line
            elif comment.endswith("...)"):
                assert repr(value).startswith(comment[:-4]), line
            else:
                assert repr(value) == comment, line
            shown.append(comment)
        assert shown == [
            "IntPoly('t^8 - t^7 - 2*t^5 - 2*t^3 - t + 1')",
            "1.809789333465952",
            "~2.54e-13",
            "1.4510850920547202",
            "BoundReport(k=41, m=79, ...)",
        ]

    def test_limits_table_prints_each_limit_as_its_error_does(self, capsys):
        # a changed limit fails here until the README's table says so
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Limits", 1)[1].split("\n\n", 3)[2]
        rows = [line.split(" | ")[1:3] for line in section.splitlines()[2:]]
        names = ("nnmatrix", "volume", "dilatation")
        nnmatrix, volume, formula = (importlib.import_module(f"pabraid.{n}") for n in names)
        printed = {
            "`_MAX_NONZEROS`": str(treebuilder._MAX_NONZEROS),
            "`_MAX_DEGREE`": str(formula._MAX_DEGREE),
            "`_MAX_HUBS`": str(nnmatrix._MAX_HUBS),
            "`_NODA_STEPS`": str(nnmatrix._NODA_STEPS),
            "`_MAX_ITEMS`": str(pabraid.cli._MAX_ITEMS),
            "`_SEARCH_CAP`": str(volume._SEARCH_CAP),
            "`_V3_BITS_CAP`": f"2^-{volume._V3_BITS_CAP}",
            "`_FINEST_GRID`": f"2^-{formula._FINEST_GRID}",
        }
        assert len(rows) == 11
        assert {constant for _, constant in rows} == set(printed) | {"–"}
        for value, constant in rows:
            if constant != "–":
                assert value == f"`{printed[constant]}`", constant
        # the one limit without a constant, as verify's error prints it
        (value,) = [value for value, constant in rows if constant == "–"]
        rc, _, err = run(capsys, "verify", "--max-k", "4096", "--max-m", "2")
        assert rc == 1 and f"more than {value.strip('`')} tuples" in err


class TestDocstringExamples:
    @pytest.mark.parametrize(
        "name", ["pabraid"] + [f"pabraid.{m.name}" for m in pkgutil.iter_modules(pabraid.__path__)]
    )
    def test_examples_pass(self, name):
        assert doctest.testmod(importlib.import_module(name)).failed == 0


class TestDecisionLadder:
    # every decision wider than one rung climbs the ladder, and the ball
    # rungs either answer what they can or are made to answer nothing, so
    # that the exact rung answers everything
    @pytest.mark.parametrize("ball_rungs", ["answering", "undecided"])
    def test_stdout_does_not_depend_on_the_rungs(self, capsys, monkeypatch, ball_rungs):
        commands = [
            ("bound", "--lambda", "1.5", "--volume", "3"),
            ("dilatation", "--tuple", "4,2,7", "--method", "formula", "--json"),
        ]
        expected = [(GOLDEN / golden).read_text() for _, golden in GOLDEN_COMMANDS]
        expected += [run(capsys, *argv)[1] for argv in commands]
        module = importlib.import_module("pabraid.dilatation")
        monkeypatch.setattr(module, "_EXACT_RATIO", 1)
        if ball_rungs == "undecided":
            decision = module._decision

            def undecided(prefix, last, num, shift, prec):
                return None if prec is not None else decision(prefix, last, num, shift, prec)

            monkeypatch.setattr(module, "_decision", undecided)
        argvs = [argv for argv, _ in GOLDEN_COMMANDS] + commands
        assert [run(capsys, *argv) for argv in argvs] == [(0, out, "") for out in expected]


def test_help_texts(capsys, monkeypatch):
    # pabraid --help and each command's --help, built whole or one command
    # at a time (main builds only the command it parses), at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for argv in [["--help"]] + [[name, "--help"] for name in pabraid.cli._COMMANDS]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append("$ pabraid " + " ".join(argv) + "\n" + capsys.readouterr().out)
    assert "".join(texts) == (GOLDEN / "help.txt").read_text()


class TestUsageErrors:
    def test_malformed_tuple(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dilatation", "--tuple", "4;2"])
        assert exc.value.code == 2

    def test_nonpositive_entry(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--tuple", "0,2"])
        assert exc.value.code == 2

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "--prefix", "4", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["polynomial", "--tuple", "4,2"],
            ["matrix", "--tuple", "4,2"],
            ["verify", "--max-k", "1", "--max-m", "2"],
            ["limit", "--prefix", "4"],
            ["scan", "--prefix", "4", "--m-max", "3"],
            ["bound", "--lambda", "1.1", "--volume", "20"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_unknown_where_accuracy_is_fixed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-12"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["dilatation", "--tuple", "4,2", "--method", "matrix"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_kept_for_the_matrix_route(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--tol", "1e-12")
        assert (rc, err) == (0, "") and out


def test_option_inventory():
    # every long flag of every subcommand: a new option must be added here
    # on purpose
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: [
            flag
            for action in p._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        ]
        for name, p in sub.choices.items()
    }
    assert flags == {
        "dilatation": ["--tuple", "--method", "--json", "--dump-matrix", "--tol", "--out"],
        "polynomial": ["--tuple", "--chain", "--out"],
        "matrix": ["--tuple", "--sparse", "--out"],
        "verify": ["--max-k", "--max-m", "--out"],
        "scan": ["--prefix", "--m-max", "--m-min", "--out"],
        "limit": ["--prefix"],
        "bound": ["--lambda", "--volume", "--out"],
    }
    assert sum(map(len, flags.values())) == 23


def test_private_imports():
    # the library's private names the CLI reaches into: a new one must be
    # added here on purpose
    tree = ast.parse(Path(pabraid.cli.__file__).read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert names == {
        "_MAX_NONZEROS", "_check_degree", "_check_nonzeros", "_child_extension", "_closed",
        "_extension", "_next_level", "_tuple_piece",
    }


@pytest.mark.parametrize(
    "path", sorted(Path(pabraid.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_every_module_level_import_is_read(path):
    # a name imported at module level and never read is dead code; star
    # imports and lines marked "# noqa: F401" (imported for effect) are kept
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
        if alias.name != "*"
    ]
    assert [name for name in unread if name not in read] == []


def test_every_private_module_name_is_read():
    # a module-level private function, class or constant that no module of
    # the library reads is dead code, even when a test still calls it; the
    # modules import the names they share, so a read is a load of the name
    trees = [ast.parse(path.read_text()) for path in Path(pabraid.__file__).parent.glob("*.py")]
    defined = set()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {
        node.id
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert len(private) > 50 and sorted(private - read) == []
