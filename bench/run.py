"""pabraid benchmark: one seeded, timed run of one workload.

    python3 bench/run.py --workload tuple-sweep --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The run first starts ``SETUP_RUNS`` fresh interpreters that only
import ``pabraid.cli``, then one worker interpreter that imports it too and
runs the workload as a closed loop of CLI calls: the fixed number of whole
passes that fit in ``--seconds`` at the workload's nominal pass time, at
least one (see ``workloads.py`` and ``worker.py``).  Set-up time is
the median over all of these imports.  Set-up time, item latency and
throughput are host-scaled: measured against a reference loop timed next
to them (``reference.py``), so that the shared host's drifting speed
cancels out; the raw readings are printed beside them.  With ``--trace 1``
it starts two workers instead, untraced and then traced, and reports the
traced one's per-layer table and the ratio of their summed item times.
Every child has its BLAS/OpenMP threads pinned to 1 and is started from
this process, one at a time.

It prints a readable summary, then as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` the per-layer ones, from a traced run.  The full record
(provenance, every item, failures by cause, spans) goes to ``bench/out/``.
Exits 2 without a result when the program's sources are missing.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from reference import scaled  # noqa: E402
from tracing import WORK_UNIT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 4
RUN_BUDGET_S = 175
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, env, deadline):
    """Run ``worker.py args`` to completion: ((raw, scaled) set-up seconds, its result).

    Set-up runs from starting the interpreter until ``pabraid.cli`` is
    imported, less the reference times the worker took before the import.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - start),
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    setup = result["ready"] - start - result["before_import_s"]
    return (setup, scaled(setup, result["setup_reference_s"])), result


def provenance():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": len(os.sched_getaffinity(0))}


def smoothed_median(values):
    """The median of ``values``, as the mean of their middle fifth.

    A plain median jumps between clusters of item times when one cluster
    holds exactly half the items, as the fast failing scans of limit-scan do.
    With fewer than ten values this is the plain median.
    """
    values = sorted(values)
    k = len(values) // 10
    return statistics.fmean(values[(len(values) - 1) // 2 - k : len(values) // 2 + 1 + k])


def end_to_end(worker, setups):
    """Every end-to-end figure of the run: name -> (value, unit).

    Set-up, item times and throughput are host-scaled (see ``reference.py``);
    the ``raw_`` figures and ``wall_s`` are as the clock read them.
    """
    records = worker["records"]
    ms = [r["scaled_s"] * 1000 for r in records]
    ok = sum(r["status"] == "ok" for r in records)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "raw_setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_s": (worker["wall_s"], "s"),
        "ok_per_s": (ok / worker["scaled_wall_s"], "1/s"),
        "item_p50_ms": (smoothed_median(ms), "ms"),
        "raw_ok_per_s": (ok / sum(r["s"] for r in records), "1/s"),
        "raw_item_p50_ms": (smoothed_median(r["s"] * 1000 for r in records), "ms"),
        "reference_ms": (statistics.median(s for _, s in worker["samples"]) * 1000, "ms"),
        "fail_ratio": (1 - ok / len(records), "ratio"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }
    if len(ms) >= 200:  # ten samples beyond the 95th percentile
        metrics["item_p95_ms"] = (statistics.quantiles(ms, n=20)[-1], "ms")
    return metrics


def per_layer(worker, untraced):
    overhead = worker["scaled_wall_s"] / untraced["scaled_wall_s"] - 1
    metrics = {"trace.overhead_ratio": (overhead, "ratio")}
    for name, row in worker["layers"].items():
        layer = name.split(".")[0]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.errors"] = (row["errors"], "count")
        if layer in WORK_UNIT:
            metrics[f"{name}.work"] = (row["work"], WORK_UNIT[layer])
    return metrics


def failure_causes(records):
    """(status, raising span, first words of the error) -> count."""
    causes = collections.Counter()
    for r in records:
        if r["status"] != "ok":
            words = " ".join(re.sub(r"[-+0-9.e]*[0-9][-+0-9.e]*", "#", r["error"]).split()[:8])
            causes[(r["status"], r.get("span", "-"), words)] += 1
    return causes


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="pabraid benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-items", type=int, help="cut each pass short (smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "pabraid" / "cli.py").is_file():
        print(f"bench: no pabraid sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env()

    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    worker_args += ["--seconds", repr(args.seconds)]
    if args.max_items:
        worker_args += ["--max-items", str(args.max_items)]
    if args.trace:
        setups = []
        _, untraced = start_worker(worker_args, env, deadline)
        worker_args += ["--trace", "1", "--spans", str(OUT / f"spans-{tag}.jsonl")]
        _, worker = start_worker(worker_args, env, deadline)
        checked = untraced["records"] + worker["records"]
    else:
        setups = [start_worker(["--setup-only"], env, deadline)[0] for _ in range(SETUP_RUNS)]
        ready, worker = start_worker(worker_args, env, deadline)
        setups.append(ready)
        checked = worker["records"]

    records = worker["records"]
    measured = per_layer(worker, untraced) if args.trace else end_to_end(worker, setups)
    result = {
        "correct": all(r["status"] != "wrong" for r in checked),
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "metrics": {
            name: {"value": measured[name][0], "unit": measured[name][1]}
            for name in declared_metrics(args.trace)
        },
    }
    causes = failure_causes(records)
    record = dict(
        provenance(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_runs_s=setups,
        measured={k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
        failures=[
            {"status": s, "span": span, "error": words, "count": n}
            for (s, span, words), n in sorted(causes.items())
        ],
        result=result,
        **{k: v for k, v in worker.items() if k not in ("ready", "before_import_s")},
    )
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  items {len(records)}")
    if not args.trace:
        for name, (value, unit) in measured.items():
            print(f"  {name:14} {value:12.6g} {unit}")
    print(f"  unverified     {worker['unverified']:12d} item(s) without a reference value")
    for (status, span, words), n in sorted(causes.items()):
        print(f"  {status:6} {n:4}  {span}: {words}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
