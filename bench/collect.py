"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 bench/collect.py --runs 10 --out bench/results/baseline.json

Runs ``bench/run.py`` once per (seed, workload) for every workload of
BENCHMARK.json, interleaving the workloads so that slow drifts of the
machine spread over all of them, then one traced run per workload.  For every workload and end-to-end metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound; figures the
run prints but BENCHMARK.json does not bound are summarised the same way.
Exits 1 if a run was incorrect or a bounded spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else (0.0 if q3 == q1 else None)
    return {"median": median, "q1": q1, "q3": q3, "spread": share}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary to this JSON file")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs = {w: [] for w in workloads}
    provenance = {}
    for seed in seeds:
        for w in workloads:
            result, record = one_run(w, seed, spec["run_seconds"], 0)
            runs[w].append((result, record))
            provenance = {k: record[k] for k in ("git_sha", "src_sha256", "nproc", "versions")}
            values = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
            print(f"{w:14} seed {seed:3}  correct {result['correct']}  {values}", flush=True)

    summary = dict(provenance, run_seconds=spec["run_seconds"], seeds=seeds, workloads={})
    ok = True
    for w in workloads:
        entry = {
            "correct": all(result["correct"] for result, _ in runs[w]),
            "attempted": [result["attempted"] for result, _ in runs[w]],
            "failed": [result["failed"] for result, _ in runs[w]],
            "unverified": [record["unverified"] for _, record in runs[w]],
            "end_to_end": {},
        }
        ok &= entry["correct"]
        for name, first in runs[w][0][1]["measured"].items():
            values = [record["measured"][name]["value"] for _, record in runs[w]]
            stats = dict(spread(values), unit=first["unit"], values=values)
            metric = bounds.get(name)
            mark = "not in BENCHMARK.json"
            if metric is not None:
                stats["bound"] = metric["bound"]
                mark = "ok" if (stats["spread"] or 0) < metric["bound"] / 3 else "wide"
                if not stats["spread"] <= metric["bound"]:
                    mark, ok = "OVER BOUND", False
            entry["end_to_end"][name] = stats
            print(
                f"{w:14} {name:12} median {stats['median']:10.5g} {first['unit']:5}"
                f" q1 {stats['q1']:10.5g} q3 {stats['q3']:10.5g}"
                f" spread {stats['spread'] if stats['spread'] is None else round(stats['spread'], 3)}"
                f"  {mark}"
            )
        result, record = one_run(w, args.first_seed, spec["run_seconds"], 1)
        layers = {k: m["value"] for k, m in result["metrics"].items()}
        entry["traced"] = {
            "seed": args.first_seed,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "unverified": record["unverified"],
            "failures": record["failures"],
            "per_layer": layers,
        }
        ok &= result["correct"]
        self_s = {k: v for k, v in layers.items() if k.endswith(".self_s")}
        top = max(self_s, key=self_s.get)
        print(f"{w:14} traced: largest self time {top} {self_s[top]:.3f} s")
        summary["workloads"][w] = entry

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
