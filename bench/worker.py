"""One benchmark run inside a fresh interpreter: import the CLI, then a closed loop.

Run by ``bench/run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON
line with the raw measurements.  With ``--setup-only`` it only imports the
CLI and reports when it was ready, with the reference times taken just
before and after the import (see ``reference.py``).

It runs the number of whole passes that ``Workload.passes`` fixes for
``--seconds``, so every run does the same work.  Each item is one
``pabraid.cli.main(argv)`` call with stdout and stderr captured, timed
alone; the next item starts only after it returns.  An item still running
at its workload's deadline is interrupted and counts as failed at its
measured time.

A ``HostClock`` runs the reference loop every ``SAMPLE_EVERY_S`` from a
timer signal, also in the middle of an item.  Each item's time, with the
sampling taken out, is also reported scaled by the mean reference time
measured within ``SPEED_WINDOW_S`` of the item.
"""

import time

from reference import reference_times, scaled

EDGE_SAMPLES = 4
BEFORE_IMPORT = reference_times(EDGE_SAMPLES)

import pabraid.cli as cli  # noqa: E402  the import is the set-up being timed

READY = time.monotonic()
SETUP_REFERENCE = BEFORE_IMPORT + reference_times(EDGE_SAMPLES)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SPAN_FIELDS, Tracer, layer_table, raising_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# no new pass starts after this long, so a run that regressed badly still ends
MAX_RUN_S = 90.0
REFERENCE_DEADLINE_S = 5.0
SAMPLE_EVERY_S = 0.25
# a short item follows the host's speed only over a fraction of a second
SPEED_WINDOW_S = 0.3


class DeadlineExceeded(BaseException):
    """Raised into a running call at its deadline; the CLI does not catch it."""


class HostClock:
    """Samples the host's speed during the run and enforces call deadlines.

    A SIGALRM every ``SAMPLE_EVERY_S`` runs the reference loop and records
    when it started and how long it took; if the current deadline has
    passed, it then raises ``DeadlineExceeded`` into the running call.
    """

    def __init__(self):
        self.samples = []  # (start, seconds), in time order
        self.deadline = None
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.edge()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def edge(self):
        """Samples back to back before the first item and after the last, so every item has some near it."""
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def sample(self):
        if self._busy:  # a tick that arrives while a sample runs is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.samples.append((start, reference_times(1)[0]))
        finally:
            self._busy = False

    def _tick(self, signum, frame):
        self.sample()
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            self.deadline = None
            raise DeadlineExceeded

    @contextlib.contextmanager
    def limit(self, seconds):
        self.deadline = time.perf_counter() + seconds
        try:
            yield
        finally:
            self.deadline = None

    def sampling_s(self, start, end):
        """Seconds spent sampling between ``start`` and ``end``."""
        return sum(s for t, s in self.samples if start <= t < end)

    def near(self, start, end):
        """Reference times sampled within ``SPEED_WINDOW_S`` of [start, end], else the nearest one.

        They are averaged, not reduced to a median: the host switches speed
        many times within a long item, and the item pays the average.
        """
        near = [s for t, s in self.samples if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        return near or [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]


def call_cli(argv, deadline_s, clock):
    """(exit code or None, stdout, error text, start, end) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    start = time.perf_counter()
    try:
        with clock.limit(deadline_s), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except DeadlineExceeded:
        code, error = None, f"deadline: still running after {deadline_s:g} s"
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # a crash is recorded as this item's failure
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if code not in (0, None):
        error = err.getvalue().strip().removeprefix("error: ")
    return code, out.getvalue(), error, start, end


def run_items(workload, argvs, clock, tracer=None, first_index=0):
    """Run every argv in turn; one record each, with its start and end times."""
    records = []
    for index, argv in enumerate(argvs, start=first_index):
        if tracer is not None:
            tracer.item = index
        code, out, error, start, end = call_cli(argv, workload.deadline_s, clock)
        status = "ok"
        if code != 0:
            status = "wrong" if workload.expects_success else "failed"
        else:
            try:
                error = workload.check(index, argv, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error:
                status = "wrong"
        records.append({"argv": list(argv), "start": start, "end": end, "status": status, "error": error})
    return records


def run_passes(workload, rng, passes, clock, tracer=None, max_items=None):
    """``passes`` whole passes over the corpus (or its first ``max_items``).

    Returns the records, each tagged with its pass number, and the wall time.
    """
    records = []
    start = time.perf_counter()
    for number in range(passes):
        if time.perf_counter() - start >= MAX_RUN_S:
            break
        argvs = workload.pass_argvs(rng)[:max_items]
        for record in run_items(workload, argvs, clock, tracer, len(records)):
            records.append(dict(record, **{"pass": number}))
    return records, time.perf_counter() - start


def timings(records, clock):
    """Give each record its time without sampling, ``s``, and that time scaled, ``scaled_s``."""
    for record in records:
        start, end = record["start"], record["end"]
        record["s"] = end - start - clock.sampling_s(start, end)
        record["scaled_s"] = scaled(record["s"], clock.near(start, end))


def matrix_lambda(values, clock):
    """Matrix-route dilatation from the library, or None if it fails."""
    dilatation = sys.modules["pabraid.dilatation"].dilatation
    try:
        with clock.limit(REFERENCE_DEADLINE_S):
            return dilatation(values, method="matrix").lambda_matrix
    except (DeadlineExceeded, ValueError, RuntimeError, AssertionError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-items", type=int, help="cut each pass to this many items")
    parser.add_argument("--spans", help="write the traced spans to this JSON-lines file")
    args = parser.parse_args(argv)
    setup = {"ready": READY, "before_import_s": sum(BEFORE_IMPORT), "setup_reference_s": SETUP_REFERENCE}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import numpy
    import scipy

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    rng = random.Random(args.seed)
    passes = workload.passes(args.seconds)
    clock = HostClock()
    clock.start()
    try:
        records, wall = run_passes(workload, rng, passes, clock, tracer, args.max_items)
        clock.edge()
        if tracer is not None:
            tracer.uninstall()
        wrong, unverified = workload.finish(lambda values: matrix_lambda(values, clock))
    finally:
        clock.stop()
    timings(records, clock)
    result = dict(
        setup,
        wall_s=wall,
        scaled_wall_s=sum(r["scaled_s"] for r in records),
        passes=passes,
        samples=clock.samples,
    )
    if tracer is not None:
        raised = raising_spans(tracer.spans)
        for index, record in enumerate(records):
            if record["status"] != "ok":
                record["span"] = raised.get(index, "cli.main")
        result["layers"] = layer_table(tracer.spans)
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")

    for index, reason in wrong.items():
        records[index]["status"], records[index]["error"] = "wrong", reason
    result.update(
        records=records,
        unverified=len(unverified),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
