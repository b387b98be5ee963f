"""Smoke test of the benchmark itself (not of pabraid).

    python3 bench/smoke.py

Runs every workload at minimal size, untraced and traced, and asserts that
each run's last line names every metric of BENCHMARK.json with its unit;
checks that the output checkers count a perturbed dilatation as wrong;
checks that the worker's host clock samples and enforces a deadline; and
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark.  Exits nonzero
on the first failed assertion.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, BoundWitness, LimitScan, TupleSweep, VerifyGrid  # noqa: E402

PERTURB = 1e-6


def run_bench(cwd, *args):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=200)


def check_metrics(spec):
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", name, "--seed", "1", "--seconds", "0",
                             "--trace", str(trace), "--max-items", "2")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (name, trace, set(want) ^ set(got))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok  {name} trace {trace}: {len(got)} metrics, {result['attempted']} item(s)")


def cli_output(argv):
    from pabraid import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def check_checkers():
    witness = {"k": 41, "m": 79, "lambda_achieved": 1.0993306653752608,
               "volume_bound": 20.298832128193034, "target_lambda": 1.1, "target_volume": 20.0}
    bound = BoundWitness()
    assert bound.check(0, bound.ARGV, json.dumps(witness)) is None
    witness["lambda_achieved"] += PERTURB
    assert bound.check(0, bound.ARGV, json.dumps(witness))

    grid = VerifyGrid()
    assert grid.check(0, grid.ARGV, grid.EXPECTED) is None
    assert grid.check(0, grid.ARGV, grid.EXPECTED.replace("failures: 0", "failures: 1"))

    sweep = TupleSweep()
    formula, matrix = (("dilatation", "--tuple", "4,2", "--method", m, "--json")
                       for m in ("formula", "matrix"))
    matrix_out = json.loads(cli_output(list(matrix)))
    assert sweep.check(0, formula, cli_output(list(formula))) is None
    assert sweep.check(1, matrix, json.dumps(matrix_out)) is None
    assert sweep.check(2, formula, cli_output(list(formula))) is None
    matrix_out["lambda_matrix"] += PERTURB
    assert sweep.check(3, matrix, json.dumps(matrix_out))

    from pabraid import dilatation

    argv = ("scan", "--prefix", "4", "--m-max", "40")
    text = cli_output(list(argv))
    reference = lambda values: dilatation(values, method="matrix").lambda_matrix  # noqa: E731
    scan = LimitScan()
    assert scan.check(0, argv, text) is None
    assert scan.finish(reference) == ({}, [])
    last = text.splitlines()[-1].split(";")
    last[1] = repr(float(last[1]) + PERTURB)
    perturbed = "\n".join(text.splitlines()[:-1] + [";".join(last)]) + "\n"
    scan = LimitScan()
    assert scan.check(0, argv, perturbed) is None
    assert 0 in scan.finish(reference)[0]
    print("ok  every checker counts a dilatation perturbed by 1e-6 as wrong")


def check_host_clock():
    from worker import SAMPLE_EVERY_S, DeadlineExceeded, HostClock

    clock = HostClock()
    clock.start()
    start = time.perf_counter()
    try:
        with clock.limit(SAMPLE_EVERY_S):
            while time.perf_counter() - start < 20 * SAMPLE_EVERY_S:
                pass
        raise AssertionError("the deadline did not interrupt the call")
    except DeadlineExceeded:
        end = time.perf_counter()
    finally:
        clock.stop()
    assert end - start < 4 * SAMPLE_EVERY_S, end - start
    assert 0 < clock.sampling_s(start, end) < end - start
    assert all(s > 0 for s in clock.near(start, end))
    print(f"ok  the host clock sampled {len(clock.samples)} times and enforced a deadline")


def check_refuses_without_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run_bench(bare, "--workload", "verify-grid", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok  without the program the benchmark exits", proc.returncode, "and prints no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checkers()
    check_host_clock()
    check_refuses_without_program()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
