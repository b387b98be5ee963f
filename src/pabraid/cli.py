"""Command-line front end: construction, computation, verification, scans.

Output is deterministic for identical invocations (no timestamps).  Exit
codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dilatation import (
    ScanRow,
    braid_char_poly,
    convergence_table,
    dilatation,
    dominant_chain,
    limit_dilatation,
)
from .treebuilder import (
    BraidTuple,
    closing_sign,
    dominant_matrix,
    dual_recessive_poly,
    parse_params,
    recessive_poly,
    transition_matrix,
    validate_structure,
)
from .volume import find_parameters, volume_lower_bound


def _params_arg(text, minimum=1):
    try:
        return parse_params(text, minimum)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tuple_arg(text):
    return BraidTuple(_params_arg(text, 2))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pabraid",
        description=(
            "Transition matrices, characteristic polynomials, dilatations and "
            "volume bounds for a family of pseudo-Anosov braids indexed by "
            "tuples m1,m2,..."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=False):
        if tol:
            p.add_argument("--tol", type=float, default=1e-10, help="matrix-route enclosure width")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    p = sub.add_parser("dilatation", help="dilatation of one tuple, one or both routes")
    p.add_argument("--tuple", required=True, type=_tuple_arg, dest="braid")
    p.add_argument("--method", choices=("formula", "matrix", "both"), default="both")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--dump-matrix", action="store_true", help="include the transition matrix")
    common(p, tol=True)

    p = sub.add_parser("polynomial", help="characteristic polynomial of one tuple")
    p.add_argument("--tuple", required=True, type=_tuple_arg, dest="braid")
    p.add_argument("--chain", action="store_true", help="also print the dominant chain")
    common(p)

    p = sub.add_parser("matrix", help="transition matrix of one tuple")
    p.add_argument("--tuple", required=True, type=_tuple_arg, dest="braid")
    p.add_argument("--sparse", action="store_true", help="sparse 'row col value' format")
    common(p)

    p = sub.add_parser("verify", help="run the structural identity suite over a grid")
    p.add_argument("--max-k", type=int, default=3, help="largest k (tuple length - 1)")
    p.add_argument("--max-m", type=int, default=5, help="largest parameter value")
    common(p)

    p = sub.add_parser("scan", help="sweep the last parameter, CSV output")
    p.add_argument("--prefix", required=True, type=_params_arg)
    p.add_argument("--m-max", required=True, type=int)
    p.add_argument("--m-min", type=int, default=1)
    common(p)

    p = sub.add_parser("limit", help="limit dilatation of a prefix")
    p.add_argument("--prefix", required=True, type=_params_arg)

    p = sub.add_parser("bound", help="witness parameters for dilatation/volume targets")
    p.add_argument("--lambda", required=True, type=float, dest="target_lambda")
    p.add_argument("--volume", required=True, type=float, dest="target_volume")
    common(p, tol=True)

    return parser


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_dilatation(args):
    report = dilatation(args.braid, method=args.method, tol=args.tol)
    if args.json:
        payload = report.to_json_dict()
        if args.dump_matrix:
            payload["matrix"] = transition_matrix(args.braid).to_rows()
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"tuple: {args.braid}", f"polynomial: {report.polynomial}"]
    if report.lambda_formula is not None:
        lines.append(f"lambda (formula): {report.lambda_formula!r}")
    if report.lambda_matrix is not None:
        lines.append(f"lambda (matrix): {report.lambda_matrix!r}")
    if report.agreement is not None:
        lines.append(f"agreement: {report.agreement!r}")
    if args.dump_matrix:
        lines.append("matrix:")
        lines.append(transition_matrix(args.braid).pretty())
    return "\n".join(lines) + "\n"


def _run_polynomial(args):
    lines = []
    if args.chain:
        for step, poly in enumerate(dominant_chain(args.braid.prefix), start=1):
            lines.append(f"chain[{step}]: {poly}")
    lines.append(f"char_poly: {braid_char_poly(args.braid)}")
    return "\n".join(lines) + "\n"


def _run_matrix(args):
    matrix = transition_matrix(args.braid)
    return matrix.text() if args.sparse else matrix.pretty() + "\n"


def _run_scan(args):
    if args.m_max < args.m_min:
        raise ValueError("--m-max must be >= --m-min")
    rows = convergence_table(args.prefix, range(args.m_min, args.m_max + 1))
    lines = [ScanRow.CSV_HEADER] + [r.csv_line() for r in rows]
    return "\n".join(lines) + "\n"


def _run_limit(args):
    value = limit_dilatation(args.prefix)
    return f"{value:.10f}\n"


def _run_bound(args):
    report = find_parameters(args.target_lambda, args.target_volume, tol=args.tol)
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def _run_verify(args):
    if args.max_k < 1 or args.max_m < 1:
        raise ValueError("--max-k and --max-m must be >= 1")
    tuples = []
    for length in range(2, args.max_k + 2):
        grid = [()]
        for _ in range(length):
            grid = [g + (v,) for g in grid for v in range(1, args.max_m + 1)]
        tuples.extend(grid)

    failures = []
    for values in tuples:
        bt = BraidTuple(values)
        matrix = transition_matrix(bt)
        poly = braid_char_poly(bt)
        if matrix.char_poly() != poly:
            failures.append(f"{bt}: formula and matrix polynomials differ")
        mirrored = poly.reciprocal(bt.size)
        if poly != (mirrored if bt.sign > 0 else -mirrored):
            failures.append(f"{bt}: polynomial is not (anti)reciprocal")
        if not matrix.is_primitive():
            failures.append(f"{bt}: transition matrix is not primitive")
        report = validate_structure(bt)
        if not report.ok:
            failures.append(f"{bt}: {len(report.failures)} structure checks failed")

    prefixes = sorted({values[:-1] for values in tuples})
    for prefix in prefixes:
        chain = dominant_chain(prefix)
        dom = chain[-1]
        sign = closing_sign(len(prefix) + 1)
        block = dominant_matrix(prefix)
        if block.char_poly() != dom:
            failures.append(f"prefix {prefix}: dominant block has the wrong polynomial")
        if recessive_poly(prefix) != dom.reciprocal(dom.degree) * sign:
            failures.append(f"prefix {prefix}: recessive polynomial mismatch")
        if dual_recessive_poly(prefix) != dom * sign:
            failures.append(f"prefix {prefix}: dual recessive polynomial mismatch")
        if not block.is_primitive():
            failures.append(f"prefix {prefix}: dominant block of size {block.size} not primitive")

    lines = [
        f"tuples checked: {len(tuples)}",
        f"prefixes checked: {len(prefixes)}",
        f"failures: {len(failures)}",
    ]
    lines.extend(failures)
    text = "\n".join(lines) + "\n"
    return text, not failures


_RUNNERS = {
    "dilatation": _run_dilatation,
    "polynomial": _run_polynomial,
    "matrix": _run_matrix,
    "scan": _run_scan,
    "limit": _run_limit,
    "bound": _run_bound,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            text, ok = _run_verify(args)
            _emit(text, args.out)
            return 0 if ok else 1
        text = _RUNNERS[args.command](args)
        _emit(text, getattr(args, "out", None))
        return 0
    except (ValueError, RuntimeError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
