import json
from pathlib import Path

import pytest

from pabraid import NNMatrix
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
        assert NNMatrix.from_text(out) == NNMatrix.from_rows(GOLDEN_8x8)


class TestLimitCommand:
    def test_five_decimals(self, capsys):
        rc, out, _ = run(capsys, "limit", "--prefix", "4")
        assert rc == 0
        assert round(float(out.strip()), 5) == 1.45109

    def test_deep_prefix(self, capsys):
        rc, out, err = run(capsys, "limit", "--prefix", ",".join(["5"] * 15))
        assert (rc, out, err) == (0, "2.0050186672\n", "")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("scan", "--prefix", "2,8,8", "--m-max", "40"), "scan-2-8-8.csv"),
        (("scan", "--prefix", "9,4,6,4", "--m-max", "40"), "scan-9-4-6-4.csv"),
        (("limit", "--prefix", "4"), "limit-4.txt"),
    ],
)
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


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--max-k", "1", "--max-m", "2")
        assert rc == 0
        assert "tuples checked: 4" in out
        assert "failures: 0" in out


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
