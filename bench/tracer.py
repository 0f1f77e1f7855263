"""Span tracing of polydisc from outside the package.

Every public function of the seven polydisc modules is wrapped at each
module attribute that holds it, so a caller that looks the name up at call
time (``kkt.active_set`` inside ``optimize``, or ``log_delta_bar`` imported by
name into ``optimize``) runs the wrapper.  Private ``_`` names are never
wrapped.  Spans (name, start, end, parent, op id) are kept in compact arrays
in memory and written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import math
import types
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("geometry", "diamgraph", "constructions", "optimize", "kkt",
           "asymptotics", "cli")

# Call sites named in the benchmark's documentation; a site a later change
# removes is reported as absent instead of failing the run.
EXPECTED_SITES = (
    "kkt.active_set",
    "optimize.log_delta_bar",
    "optimize.pairwise_distances",
    "optimize.complex_gradient",
    "diamgraph.is_convex_position",
)

_MAXIMIZERS = ("optimize.maximize_free", "optimize.maximize_with_graph")


def _n_pairs(n: int) -> int:
    return n * (n - 1) // 2


def _count_pair_evals(tr, args, result):
    tr.counters["geometry.pair_evals"] += _n_pairs(len(args[0]))


def _count_active_pairs(tr, args, result):
    tr.counters["kkt.active_pairs"] += len(result)


def _count_segment_pairs(tr, args, result):
    tr.counters["diamgraph.segment_pairs"] += _n_pairs(len(args[1].edges))


def _count_starts(tr, args, result):
    # a maximizer nested in another (maximize_free delegating with a graph)
    # returns the same starts, so only the outermost call counts
    if any(tr.names[tr.name[i]] in _MAXIMIZERS for i in tr.stack):
        return
    for s in result.starts:
        tr.counters["optimize.starts"] += 1
        tr.counters["optimize.iterations"] += s.iterations
        tr.counters["optimize.converged"] += s.termination == "gradient-converged"
        tr.counters[f"optimize.term.{s.termination}"] += 1


HOOKS = {
    "geometry.pairwise_distances": _count_pair_evals,
    "geometry.complex_gradient": _count_pair_evals,
    "kkt.active_set": _count_active_pairs,
    "diamgraph.check_pairwise_intersection": _count_segment_pairs,
    "optimize.maximize_free": _count_starts,
    "optimize.maximize_with_graph": _count_starts,
}

# functions whose span name carries their first argument
LABEL_BY_ARG = ("asymptotics.constant",)


class Tracer:
    """Records a span per wrapped call while ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.op_id = -1
        self.counters: Counter = Counter()
        self.absent_sites: list[str] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        import importlib
        wrappers: dict[int, types.FunctionType] = {}
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in MODULES]
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                owner = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith(package.__name__ + ".") \
                        or owner not in MODULES:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{owner}.{fn.__name__}", fn)
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        short = {m.__name__.rpartition(".")[2]: m for m in modules[1:]}
        self.absent_sites = [site for site in EXPECTED_SITES
                             if not hasattr(short[site.split(".")[0]],
                                            site.split(".")[1])]

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _id(self, label: str) -> int:
        idx = self._ids.get(label)
        if idx is None:
            idx = self._ids[label] = len(self.names)
            self.names.append(label)
        return idx

    def _wrap(self, label: str, fn):
        hook = HOOKS.get(label)
        by_arg = label in LABEL_BY_ARG
        fixed_id = self._id(label)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name_id = self._id(f"{label}.{args[0]}") if by_arg and args else fixed_id
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(math.nan)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; a pass covers the spans between two marks."""
        return len(self.start)

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Calls, busy and self seconds of the spans in [lo, hi).

        Busy time counts only the outermost span of a name, so recursion is
        not double counted; a module's self time is the sum over its spans
        of the span minus the time its child spans cover.
        """
        child = [0.0] * (hi - lo)
        dur = [0.0] * (hi - lo)
        for k in range(lo, hi):
            d = self.end[k] - self.start[k]
            dur[k - lo] = d
            p = self.parent[k]
            if p >= lo:
                child[p - lo] += d
        out: Counter = Counter()
        for k in range(lo, hi):
            label = self.names[self.name[k]]
            out[label + ".calls"] += 1
            out[label.split(".")[0] + ".self_s"] += dur[k - lo] - child[k - lo]
            p = self.parent[k]
            outer = True
            while p >= lo:
                if self.name[p] == self.name[k]:
                    outer = False
                    break
                p = self.parent[p]
            if outer:
                out[label + ".busy_s"] += dur[k - lo]
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span, gzip-compressed, as one JSON document."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [[self.name[k], self.start[k], self.end[k], self.parent[k],
                       self.op[k]] for k in range(len(self.start))],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
