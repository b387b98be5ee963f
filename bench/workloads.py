"""The benchmark's workloads: fixed CLI argument lists and their output checks.

Each workload is a closed loop of items; an item is one ``pabraid.cli.main``
call.  A pass is the workload's whole corpus of items, in an order drawn
from the run's seed.  A run makes a fixed number of whole passes, set by
``passes`` from the run's length alone, so every run measures the same
work however fast the machine is at the moment.  The random corpora are drawn once from ``CORPUS_SEED`` with a
fixed count: one scan costs 0.02 s or 1-2 s depending on whether the
Durand-Kerner iteration converges, and rare tuples take 5-120 s in the
power iteration, so a fresh draw per run would move medians and
throughput by more than any bound the benchmark could hold.

``check`` judges each completed call; ``finish`` runs the checks that need
an independent reference computation, outside the timed section.  This
module imports nothing from ``pabraid``, so the launcher can read the
workload names without loading the program.
"""

import json
import math
import random

BOUND_K = 41
BOUND_M = 79
BOUND_LAMBDA = 1.0993306653752608
AGREEMENT = 1e-9
SCAN_M_MAX = 40
SCAN_HEADER = "tuple;lambda;gap_to_limit;poly_degree"
CORPUS_SEED = 1


def _finite_above_one(value):
    return isinstance(value, float) and math.isfinite(value) and value > 1.0


class Workload:
    name = ""
    why = ""
    # an item that fails is a wrong answer when the workload expects success
    expects_success = False
    # per-item latency limit; a call still running then counts as failed
    deadline_s = 40.0
    # seconds one pass took at the commit that defined the benchmark (2 vCPUs)
    pass_s = 1.0

    def passes(self, seconds):
        """Whole passes in a run of ``seconds``: as many as fit at ``pass_s``, at least one."""
        return max(1, int(seconds // self.pass_s))

    def units(self):
        """The corpus: a list of units, each a list of argv run back to back."""
        raise NotImplementedError

    def pass_argvs(self, rng):
        """One pass over the corpus, units in an order drawn from ``rng``."""
        units = self.units()
        rng.shuffle(units)
        return [argv for unit in units for argv in unit]

    def check(self, index, argv, out):
        """None when the output of a successful call is right, else why not."""
        raise NotImplementedError

    def finish(self, matrix_lambda):
        """Checks against the matrix route, ``matrix_lambda(values)``.

        Returns ``({item index: reason}, [item index])``: the items found
        wrong, and those whose reference could not be computed (the callable
        returned None).
        """
        return {}, []


class BoundWitness(Workload):
    name = "bound-witness"
    why = (
        "the paper's headline search: root isolation leads, then one PF solve "
        "at N=3360 and 21 chain rebuilds"
    )
    expects_success = True
    deadline_s = 60.0
    pass_s = 14.0
    ARGV = ("bound", "--lambda", "1.1", "--volume", "20")

    def units(self):
        return [[self.ARGV]]

    def check(self, index, argv, out):
        report = json.loads(out)
        lam = report["lambda_achieved"]
        if (report["k"], report["m"]) != (BOUND_K, BOUND_M):
            return f"witness (k, m) = ({report['k']}, {report['m']})"
        if not abs(lam - BOUND_LAMBDA) <= AGREEMENT or not lam < 1.1:
            return f"lambda_achieved = {lam!r}"
        if not report["volume_bound"] > 20:
            return f"volume_bound = {report['volume_bound']!r}"
        return None


class VerifyGrid(Workload):
    name = "verify-grid"
    why = (
        "exact characteristic polynomials over the 775-tuple grid; makes no "
        "root-isolation, PF or Durand-Kerner call"
    )
    expects_success = True
    deadline_s = 30.0
    pass_s = 4.2
    ARGV = ("verify", "--max-k", "3", "--max-m", "5")
    EXPECTED = "tuples checked: 775\nprefixes checked: 155\nfailures: 0\n"

    def units(self):
        return [[self.ARGV]]

    def check(self, index, argv, out):
        if out != self.EXPECTED:
            return "verify report differs: " + " / ".join(out.splitlines()[:3])
        return None


class TupleSweep(Workload):
    """Random tuples, each run as a formula item and then a matrix item.

    The two routes are separate items so that a failing formula call cannot
    skip the matrix work.  When both succeed on a tuple, each is the other's
    independent reference.
    """

    name = "tuple-sweep"
    why = (
        "random tuples (length 2-12, entries 1-40), formula and matrix routes "
        "as separate items; many small and medium PF solves"
    )
    pass_s = 36.5

    TUPLES = 200

    def __init__(self):
        self._formula = {}

    def units(self):
        rng = random.Random(CORPUS_SEED)
        units = []
        for _ in range(self.TUPLES):
            values = [rng.randint(1, 40) for _ in range(rng.randint(2, 12))]
            text = ",".join(map(str, values))
            units.append([
                ("dilatation", "--tuple", text, "--method", method, "--json")
                for method in ("formula", "matrix")
            ])
        return units

    def check(self, index, argv, out):
        text, method = argv[2], argv[4]
        report = json.loads(out)
        if report["tuple"] != [int(v) for v in text.split(",")]:
            return f"report is for tuple {report['tuple']}"
        lam = report[f"lambda_{method}"]
        if not _finite_above_one(lam):
            return f"lambda_{method} = {lam!r}"
        if method == "formula":
            self._formula[text] = lam
            return None
        if not report["certificate"]["primitive"]:
            return "certificate does not state primitivity"
        other = self._formula.pop(text, None)
        if other is not None and not abs(lam - other) <= AGREEMENT:
            return f"lambda_matrix {lam!r} vs lambda_formula {other!r}"
        return None


class LimitScan(Workload):
    """Random prefixes, each swept by ``scan`` over the last entry 1..40.

    The last row's lambda is compared, after the timed section, with the
    matrix-route dilatation of the same tuple.
    """

    name = "limit-scan"
    why = (
        "random prefixes (length 1-6, entries 1-10) scanned to m=40; the only "
        "workload reaching the Durand-Kerner check and convergence_table"
    )
    deadline_s = 10.0
    pass_s = 5.8

    PREFIXES = 12

    def __init__(self):
        self._last_rows = []  # (item index, last tuple, lambda)

    def units(self):
        rng = random.Random(CORPUS_SEED)
        units = []
        for _ in range(self.PREFIXES):
            values = [rng.randint(1, 10) for _ in range(rng.randint(1, 6))]
            text = ",".join(map(str, values))
            units.append([("scan", "--prefix", text, "--m-max", str(SCAN_M_MAX))])
        return units

    def check(self, index, argv, out):
        lines = out.splitlines()
        if not lines or lines[0] != SCAN_HEADER:
            return "scan header missing"
        rows = [line.split(";") for line in lines[1:]]
        if len(rows) != SCAN_M_MAX:
            return f"{len(rows)} scan rows"
        prefix = argv[2]
        for m, row in enumerate(rows, start=1):
            if len(row) != 4 or row[0] != f"{prefix},{m}":
                return f"row {m} is {';'.join(row)!r}"
            if not _finite_above_one(float(row[1])):
                return f"row {m} lambda {row[1]}"
        last = tuple(int(v) for v in rows[-1][0].split(","))
        self._last_rows.append((index, last, float(rows[-1][1])))
        return None

    def finish(self, matrix_lambda):
        wrong, unverified = {}, []
        refs = {}
        for index, values, lam in self._last_rows:
            if values not in refs:
                refs[values] = matrix_lambda(values)
            ref = refs[values]
            if ref is None:
                unverified.append(index)
            elif not abs(lam - ref) <= AGREEMENT:
                wrong[index] = f"last row lambda {lam!r} vs matrix route {ref!r}"
        return wrong, unverified


WORKLOADS = {w.name: w for w in (BoundWitness, VerifyGrid, TupleSweep, LimitScan)}
