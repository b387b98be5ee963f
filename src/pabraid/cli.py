"""Command-line front end: construction, computation, verification, scans.

Output is deterministic for identical invocations (no timestamps).  Exit
codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
# argparse's messages go through gettext, whose first lookup imports locale:
# imported here, that is start-up work, not part of the first command
import locale  # noqa: F401
import sys

from .dilatation import (
    ScanRow,
    _check_degree,
    _closed,
    _next_level,
    braid_char_poly,
    convergence_table,
    dilatation,
    dominant_chain,
    limit_dilatation,
)
from .intpoly import IntPoly
from .treebuilder import (
    _MAX_NONZEROS,
    BraidTuple,
    _check_nonzeros,
    _child_extension,
    _extension,
    _recessive,
    _tuple_piece,
    closing_sign,
    parse_params,
    transition_matrix,
)
from .volume import find_parameters

# The import-time heap (about 13k objects) lives as long as the process.
# Frozen, no full collection scans it again.  `bound`, `verify` and `scan`
# run none before exit, but the interpreter's collections at exit do: a
# fresh `bound --lambda 1.1 --volume 20` took 261-307 ms with the freeze and
# 281-332 ms without it (two batches, medians of 21, 2 vCPUs), and the same
# time both ways when it ended by os._exit.
gc.freeze()

# the most rows of a scan or tuples of a verify grid
_MAX_ITEMS = 100_000


def _params_arg(text, minimum=1):
    try:
        return parse_params(text, minimum)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tuple_arg(text):
    return BraidTuple(_params_arg(text, 2))


@functools.cache
def build_parser(command=None):
    # the parser of every subcommand, or of ``command`` alone, which ``main``
    # parses: built on the first call, not at import, and shared by every
    # later call, since parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="pabraid",
        description=(
            "Transition matrices, characteristic polynomials, dilatations and "
            "volume bounds for a family of pseudo-Anosov braids indexed by "
            "tuples m1,m2,..."
        ),
    )
    # a parser of one command still names every command in its usage line
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, *arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            for names, options in arguments:
                p.add_argument(*names, **options)
    return parser


def _arg(*names, **options):
    return names, options


_TUPLE = _arg("--tuple", required=True, type=_tuple_arg, dest="braid")
_OUT = _arg("--out", help="write the report to this path instead of stdout")
# each subcommand: its help line, then its arguments
_COMMANDS = {
    "dilatation": (
        "dilatation of one tuple, one or both routes", _TUPLE,
        _arg("--method", choices=("formula", "matrix", "both"), default="both"),
        _arg("--json", action="store_true", help="emit a JSON report"),
        _arg("--dump-matrix", action="store_true", help="include the transition matrix"),
        _arg("--tol", type=float, default=1e-10, help="matrix-route enclosure width"), _OUT,
    ),
    "polynomial": (
        "characteristic polynomial of one tuple", _TUPLE,
        _arg("--chain", action="store_true", help="also print the dominant chain"), _OUT,
    ),
    "matrix": (
        "transition matrix of one tuple", _TUPLE,
        _arg("--sparse", action="store_true", help="sparse 'row col value' format"), _OUT,
    ),
    "verify": (
        "check the formula/matrix identities over a grid",
        _arg("--max-k", type=int, default=3, help="largest k (tuple length - 1)"),
        _arg("--max-m", type=int, default=5, help="largest parameter value"), _OUT,
    ),
    "scan": (
        "sweep the last parameter, CSV output", _arg("--prefix", required=True, type=_params_arg),
        _arg("--m-max", required=True, type=int), _arg("--m-min", type=int, default=1), _OUT,
    ),
    "limit": ("limit dilatation of a prefix", _arg("--prefix", required=True, type=_params_arg)),
    "bound": (
        "witness parameters for dilatation/volume targets",
        _arg("--lambda", required=True, type=float, dest="target_lambda"),
        _arg("--volume", required=True, type=float, dest="target_volume"), _OUT,
    ),
}


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_dense(braid):
    # a dense print holds all N^2 cells of the matrix: past as many cells as
    # the nonzero limit allows, it is refused before any work
    cells = braid.size**2
    if cells > _MAX_NONZEROS:
        raise ValueError(
            f"a dense print of the transition matrix has {cells} cells; the limit "
            f"is {_MAX_NONZEROS}; pabraid matrix --sparse prints its nonzeros"
        )


def _run_dilatation(args):
    if args.dump_matrix:
        _check_dense(args.braid)
    if args.method == "formula":
        # the printed polynomial's degree limit, before the cell
        _check_degree(args.braid.size)
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
    if not args.sparse:
        _check_dense(args.braid)
    matrix = transition_matrix(args.braid)
    return matrix.text() if args.sparse else matrix.pretty() + "\n"


def _run_scan(args):
    if args.m_max < args.m_min:
        raise ValueError("--m-max must be >= --m-min")
    if args.m_max - args.m_min >= _MAX_ITEMS:
        count = args.m_max - args.m_min + 1
        raise ValueError(f"scan asks for {count} rows; the limit is {_MAX_ITEMS}")
    rows = convergence_table(args.prefix, range(args.m_min, args.m_max + 1))
    lines = [ScanRow.CSV_HEADER] + [r.csv_line() for r in rows]
    return "\n".join(lines) + "\n"


def _run_limit(args):
    value = limit_dilatation(args.prefix)
    return f"{value:.10f}\n"


def _run_bound(args):
    report = find_parameters(args.target_lambda, args.target_volume)
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def _run_verify(args):
    if args.max_k < 1 or args.max_m < 1:
        raise ValueError("--max-k and --max-m must be >= 1")
    # tuples of lengths 2..k+1 with entries 1..m: more than m^(k+1), which
    # is at least 2^((bits(m) - 1)(k + 1))
    k, m = args.max_k, args.max_m
    if (m.bit_length() - 1) * (k + 1) > 4096:
        raise ValueError(f"verify asks for more than 2^4096 tuples; the limit is {_MAX_ITEMS}")
    count = k if m == 1 else (m ** (k + 2) - m * m) // (m - 1)
    if count > _MAX_ITEMS:
        raise ValueError(f"verify asks for {count} tuples; the limit is {_MAX_ITEMS}")
    # and the grid's largest matrix, of (m, ..., m), within the nonzero limit
    _check_nonzeros((m,) * (k + 1))
    # depth first over the prefix tree, on a stack of (prefix, parent's
    # block and last row, parent chain level), keeping only the blocks of
    # the current prefix's ancestors: each block grows from its parent's,
    # the empty prefix's at the first level, by its child piece, and each
    # tuple from its block by its tuple piece.  The walk meets the prefixes
    # in sorted order; a stable sort by length puts the tuples in grid order
    tuple_failures, prefix_failures = [], []
    root = _extension(())
    stack = [((first,), root, [1]) for first in range(m, 0, -1)]
    while stack:
        prefix, parent, parent_chain = stack.pop()
        chain = _next_level(parent_chain, prefix[-1], len(prefix))
        dom = IntPoly(chain)
        sign = closing_sign(len(prefix) + 1)
        block, last_row = _child_extension(*parent, prefix[-1])
        if len(prefix) < k:  # a parent of longer prefixes
            stack += [(prefix + (last,), (block, last_row), chain) for last in range(m, 0, -1)]
        if block.char_poly() != dom:
            prefix_failures.append(f"prefix {prefix}: dominant block has the wrong polynomial")
        # the dual identity follows from this one and the block's: the dual
        # recessive polynomial is this one reversed at degree block.size
        if _recessive(block, last_row) != dom.reciprocal(dom.degree) * sign:
            prefix_failures.append(f"prefix {prefix}: recessive polynomial mismatch")
        for last in range(1, m + 1):
            piece = _tuple_piece(block.size, last_row, last)
            if block._joined(block.size + last, piece).char_poly() != _closed(chain, last, sign):
                bt = BraidTuple(prefix + (last,))
                tuple_failures.append((len(bt), f"{bt}: formula and matrix polynomials differ"))
    failures = [line for _, line in sorted(tuple_failures, key=lambda f: f[0])] + prefix_failures

    lines = [
        f"tuples checked: {count}",
        f"prefixes checked: {count // m}",
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
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
