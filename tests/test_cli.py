import importlib.util
import json
import sys
from pathlib import Path

import pytest

import pabraid
from pabraid import NNMatrix, monotonicity_check
from pabraid.cli import main

from helpers import GOLDEN_8x8

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


class TestPolynomialCommand:
    def test_chain_output(self, capsys):
        rc, out, _ = run(capsys, "polynomial", "--tuple", "4,2", "--chain")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "chain[1]: t^6 - t^5 - 2*t"
        assert lines[-1] == "char_poly: t^8 - t^7 - 2*t^5 - 2*t^3 - t + 1"


class TestMatrixCommand:
    def test_dense_rows(self, capsys):
        rc, out, _ = run(capsys, "matrix", "--tuple", "4,2")
        assert rc == 0
        assert out == NNMatrix.from_rows(GOLDEN_8x8).pretty() + "\n"

    def test_sparse_round_trip(self, capsys):
        rc, out, _ = run(capsys, "matrix", "--tuple", "4,2", "--sparse")
        assert rc == 0
        assert out == NNMatrix.from_rows(GOLDEN_8x8).text()


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
    (("limit", "--prefix", "4"), "limit-4.txt"),
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
        # gap is 0.0; the order is certified on the exact brackets
        rc, out, err = run(capsys, "scan", "--prefix", "7,4,2,8", "--m-max", "40")
        assert (rc, err) == (0, "")
        rows = [line.split(";") for line in out.splitlines()[1:]]
        assert len(rows) == 40 and rows[-1][2] == "0.0"
        assert rows[-1][1] == "2.4141496116083605"

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

    @pytest.mark.parametrize("tol", ["1e-3", "1e-5"])
    def test_loose_tol_certifies_the_same_witness(self, capsys, tol):
        # a wide matrix-route enclosure still overlaps the witness's cell
        rc, loose, err = run(capsys, "bound", "--lambda", "1.5", "--volume", "3", "--tol", tol)
        assert (rc, err) == (0, "")
        _, tight, _ = run(capsys, "bound", "--lambda", "1.5", "--volume", "3", "--tol", "1e-7")
        assert loose == tight


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--prefix", "4", "--m-max", "3", "--m-min", "0"),
        ("scan", "--prefix", "4", "--m-max", "3", "--m-min", "-5"),
        ("bound", "--lambda", "inf", "--volume", "1"),
        ("bound", "--lambda", "nan", "--volume", "1"),
        ("bound", "--lambda", "1.5", "--volume", "inf"),
        ("bound", "--lambda", "1.5", "--volume", "3", "--tol", "inf"),
        ("dilatation", "--tuple", "4,2", "--tol", "inf"),
        ("dilatation", "--tuple", "4,2", "--tol", "nan"),
    ],
    ids=" ".join,
)
def test_rejected_inputs_exit_1_with_an_error_line(capsys, argv):
    # an uncaught exception would escape main and fail the test
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--max-k", "1", "--max-m", "2")
        assert rc == 0
        assert "tuples checked: 4" in out
        assert "failures: 0" in out


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
            ["bound", "--lambda", "10", "--volume", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_kept_for_the_matrix_route(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--tol", "1e-12")
        assert (rc, err) == (0, "") and out
