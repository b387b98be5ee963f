"""Span tracing of pabraid's public functions, from outside the library.

``Tracer.install`` wraps each traced function and rebinds the wrapper in
every ``pabraid.*`` module namespace that holds the original (so calls made
through an imported name are seen too); the three ``NNMatrix`` methods are
rebound on the class.  Submodules are reached through ``sys.modules``
because the package attribute ``pabraid.dilatation`` is the function, which
shadows the submodule.  ``uninstall`` restores every original.

Spans stay in memory as ``[id, parent, item, name, start, end, error, work]``
and are written out by the caller when the run ends.
"""

import functools
import sys
import time

# layer (module) -> traced public functions; "Class.method" names a method
TRACED = {
    "cli": ("main",),
    "volume": ("find_parameters",),
    "dilatation": (
        "dilatation",
        "dominant_chain",
        "braid_char_poly",
        "limit_dilatation",
        "convergence_table",
    ),
    "treebuilder": (
        "transition_matrix",
        "dominant_matrix",
        "recessive_poly",
        "dual_recessive_poly",
        "validate_structure",
    ),
    "nnmatrix": (
        "NNMatrix.spectral_radius",
        "NNMatrix.char_poly",
        "NNMatrix.is_primitive",
        "poly_matrix_det",
    ),
    "intpoly": ("largest_real_root", "first_real_root_above", "roots_outside_unit_disk"),
}


def _degree(f, *args, **kwargs):
    return f.degree if hasattr(f, "degree") else len(f) - 1


def _matrix_size(matrix, *args, **kwargs):
    return matrix.size


def _row_count(rows, *args, **kwargs):
    return len(rows)


# work counted per call: input polynomial degree, or matrix size N
WORK = {"intpoly": _degree, "nnmatrix": _matrix_size}
WORK_OVERRIDE = {"nnmatrix.poly_matrix_det": _row_count}
WORK_UNIT = {"intpoly": "degree", "nnmatrix": "rows"}

SPAN_FIELDS = ("id", "parent", "item", "name", "start", "end", "error", "work")


def traced_names():
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.item, name, 0.0, 0.0, 0, 0]
            if work is not None:
                span[7] = work(*args, **kwargs)
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = 1
                raise
            finally:
                span[5] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "pabraid" or key.startswith("pabraid."))
        ]
        for layer, names in TRACED.items():
            module = sys.modules[f"pabraid.{layer}"]
            for name in names:
                full = f"{layer}.{name}"
                work = WORK_OVERRIDE.get(full, WORK.get(layer))
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._rebind(cls, meth, orig, self._wrap(full, orig, work))
                    continue
                orig = getattr(module, name)
                wrapper = self._wrap(full, orig, work)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._rebind(m, attr, orig, wrapper)

    def _rebind(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def layer_table(spans):
    """Per traced function: calls, self time, errors and summed work."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[1] is not None:
            child[span[1]] += span[5] - span[4]
    table = {
        name: {"calls": 0, "self_s": 0.0, "errors": 0, "work": 0} for name in traced_names()
    }
    for span, inner in zip(spans, child):
        row = table[span[3]]
        row["calls"] += 1
        row["self_s"] += span[5] - span[4] - inner
        row["errors"] += span[6]
        row["work"] += span[7]
    return table


def raising_spans(spans):
    """Item -> name of the span that raised first in it (the innermost one)."""
    first = {}
    for span in spans:
        if span[6] and (span[2] not in first or span[5] < first[span[2]][5]):
            first[span[2]] = span
    return {item: span[3] for item, span in first.items()}
