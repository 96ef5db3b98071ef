"""In-memory spans and counters around the program's layer functions.

`install` replaces every public function of the layer modules (plus the
private functions named in PRIVATE) by a timing wrapper, in every momang
module that holds a reference to it, so calls made through a name
imported with `from ... import` are caught where the caller looks them up.
Nothing in the program is edited; the wrappers live only in this process.
"""

import functools
import inspect
from time import perf_counter_ns

LAYERS = ("cli", "combinatorics", "intlat", "charpair", "moment_angle",
          "cohomology", "bundles", "classify")
# private functions worth a span, and the metric prefix each one reports under
PRIVATE = {("cohomology", "_build_component"): "cohomology.component",
           ("classify", "_certificate_search"): "classify.certificate_search",
           ("classify", "_functors_match"): "classify.functors_match"}


def _cells(result, args):
    return {"moment_angle.cells": sum(len(v) for v in result.cells.values()),
            "moment_angle.boundary_entries": sum(
                len(mat) * (len(mat[0]) if mat else 0)
                for mat in result.boundaries.values())}


def _snf_entries(result, args):
    mat = args[0]
    return {"intlat.smith_normal_form.entries": len(mat) * (len(mat[0]) if mat else 0)}


def _found(result, args):
    return {"combinatorics.isomorphisms.found": len(result)}


def _monomials(result, args):
    return {"cohomology.component.monomials": len(result.monomials)}


COUNTERS = {"moment_angle.build_cell_model": _cells,
            "intlat.smith_normal_form": _snf_entries,
            "combinatorics.isomorphisms": _found,
            "cohomology.component": _monomials}


class Tracer:
    """Aggregates calls, exceptions, inclusive and self time per span name,
    and, while `recording` is set, keeps the first `per_op` raw spans of
    each operation (an exhaustive search makes hundreds of thousands)."""

    def __init__(self, per_op):
        self.per_op = per_op
        self.recording = True
        self.op = -1
        self.op_spans = 0
        self.spans = []          # [op, name, start_ns, end_ns, parent index]
        self.dropped = 0
        self._stack = []         # [child_ns, span index] per open span
        self.reset()

    def start_op(self, op):
        self.op = op
        self.op_spans = 0

    def reset(self):
        self.stats = {}          # name -> [calls, raised, incl_ns, self_ns]
        self.counts = {}

    def snapshot(self):
        """Per-pass totals, then start a new pass."""
        out = {"stats": self.stats, "counts": self.counts}
        self.reset()
        return out

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = -1
            if self.recording:
                if self.op_spans < self.per_op:
                    self.op_spans += 1
                    index = len(self.spans)
                    parent = self._stack[-1][1] if self._stack else -1
                    self.spans.append([self.op, name, 0, 0, parent])
                else:
                    self.dropped += 1
            frame = [0, index]
            self._stack.append(frame)
            raised = 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                took = end - start
                if self._stack:
                    self._stack[-1][0] += took
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0, 0, 0]
                st[0] += 1
                st[1] += raised
                st[2] += took
                st[3] += took - frame[0]
                if index >= 0:
                    self.spans[index][2] = start
                    self.spans[index][3] = end
            if counter is not None:
                for key, value in counter(result, args).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper


def install(tracer, package):
    """Wrap the layer functions of `package` (the imported momang) in place."""
    modules = {name: getattr(package, name) for name in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            label = PRIVATE.get((layer, attr))
            if label is None and attr.startswith("_"):
                continue
            wrapped[obj] = tracer.wrap(label or f"{layer}.{attr}", obj)
    for module in list(modules.values()) + [package]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
