"""The benchmark's three workloads: inputs made from a seed, the timed
operations, and the checks of every output against references.

Each workload is a list of operations run back to back by one client in one
process.  An operation returns its timed seconds and what the checks found;
the checks run outside the timed region, with span recording paused.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from polydisc import asymptotics, cli, constructions, diamgraph, geometry, kkt, optimize

REFS_PATH = Path(__file__).with_name("references.json")

SQRT3 = math.sqrt(3.0)
CLOSED = {
    "kite4": math.log(16.0 * (7.0 - 4.0 * SQRT3)),
    "hexagon6": math.log((2.0 * SQRT3 - 2.0) ** 18 / 3.0 ** 6),
}

# certification threshold for optimizer output
KKT_TOL = 1e-6
# log Delta-bar agreement, relative to max(1, |reference|)
LOG_TOL = 1e-9

SEARCH_ORDERS = (8, 10, 12, 18)
SEARCH_STARTS = 16
SWEEP_ORDER = 6
SWEEP_STARTS = 2
GRAPH_ORDERS = (6, 8, 12)
GRAPH_STARTS = 4
CONSTRUCTIONS = ("kite4", "hexagon6", "dodecagon12", "arc:10", "arc:50", "arc:100",
                 "triwave:256", "triwave:1000", "regular:1000", "regular:1001")


@dataclass
class OpResult:
    name: str
    seconds: float = 0.0
    failed: bool = False
    # a failure other than a documented miss: the op raised, or the
    # program's output contradicts itself
    unexpected: bool = False
    reasons: list = field(default_factory=list)
    starts: int = 0
    iterations: int = 0
    certify_s: float = 0.0
    pairs: int = 0
    record_gap: float | None = None

    def fail(self, reason: str, unexpected: bool = False) -> None:
        self.failed = True
        self.unexpected |= unexpected
        self.reasons.append(reason)


def _log_reference(text: str) -> tuple[float, float]:
    """log of a reference Delta-bar given as text, with the slack in log
    space that its printed digits allow."""
    if text.startswith("closed:"):
        return CLOSED[text[len("closed:"):]], 0.0
    digits = len(text.partition(".")[2])
    value = float(text)
    return math.log(value), 0.5 * 10.0 ** -digits / value


def certify(config):
    """Diameter-2 rescale, log Delta-bar, KKT report and structure screen."""
    normalized = geometry.normalize_to_diameter(config, 2.0)
    ldb = geometry.log_delta_bar(normalized)
    report = kkt.verify(normalized)
    structure = diamgraph.maximizer_structure_report(normalized)
    return ldb, report, structure


class Workload:
    """A named list of operations whose inputs come from one seed."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.refs = json.loads(REFS_PATH.read_text())
        self.known = set(self.refs["known_defects"].get(self.name, ()))
        self.tracer = None

    def ops(self) -> list:
        """(name, callable returning an OpResult) per operation of one pass."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, name, fn) -> OpResult:
        """Run one operation; an exception is an unexpected failure."""
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            res = OpResult(name)
            res.fail("raised " + traceback.format_exc(limit=0).strip(), unexpected=True)
            return res

    def _seed(self) -> int:
        return self.rng.randrange(2 ** 31)

    def _check_optimum(self, res: OpResult, n: int, ldb, report, structure) -> None:
        """A returned optimum must certify; its shortfall below the order's
        record is the record gap, not a failure."""
        if report.stationarity_residual > KKT_TOL:
            res.fail(f"kkt residual {report.stationarity_residual:.3g}")
        if report.min_multiplier < 0.0:
            res.fail(f"negative multiplier {report.min_multiplier:.3g}")
        if not structure.all_ok:
            res.fail("structure screen failed")
        ref_log, slack = _log_reference(self.refs["orders"][str(n)])
        res.record_gap = max(0.0, ref_log - max(slack, LOG_TOL) - ldb)
        res.pairs = n * (n - 1) // 2

    @contextlib.contextmanager
    def _untraced(self):
        """Suspend span recording around the benchmark's own work."""
        tracer = self.tracer
        if tracer is None or not tracer.active:
            yield
            return
        tracer.active = False
        try:
            yield
        finally:
            tracer.active = True


class Search(Workload):
    name = "search"

    def __init__(self, seed, workdir, orders=SEARCH_ORDERS, starts=SEARCH_STARTS):
        super().__init__(seed, workdir)
        self.starts = starts
        self.plan = [(n, self._seed()) for n in orders]

    def ops(self):
        return [(f"search:{n}", lambda n=n, s=s: self._optimize(n, s, self.starts))
                for n, s in self.plan]

    def warm_up(self):
        self._optimize(4, 0, 1)

    def _optimize(self, n, opt_seed, starts) -> OpResult:
        res = OpResult(f"search:{n}", starts=starts)
        path = os.path.join(self.workdir, f"search-{n}.json")
        argv = ["optimize", "--n", str(n), "--starts", str(starts),
                "--seed", str(opt_seed), "--out", path]
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        t1 = perf_counter()
        if code != 0:
            res.seconds = t1 - t0
            res.fail(f"cli exit code {code}", unexpected=True)
            return res
        # the read-back is the benchmark's own step, so it records no span
        with self._untraced():
            config, meta = cli.read_config(path)
        t2 = perf_counter()
        ldb, report, structure = certify(config)
        t3 = perf_counter()
        res.seconds, res.certify_s = t3 - t0, t3 - t2
        res.iterations = int(meta["iterations"])
        if abs(meta["log_delta_bar"] - ldb) > LOG_TOL * max(1.0, abs(ldb)):
            res.fail("stored log_delta_bar disagrees with the stored points",
                     unexpected=True)
        if str(n) in self.refs["orders"]:
            self._check_optimum(res, n, ldb, report, structure)
        return res


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed, workdir, sweep_starts=SWEEP_STARTS,
                 graph_orders=GRAPH_ORDERS, graph_starts=GRAPH_STARTS):
        super().__init__(seed, workdir)
        self.sweep_starts = sweep_starts
        self.graph_starts = graph_starts
        self.sweep_seed = self._seed()
        self.graphs = [(n, self._seed()) for n in graph_orders]
        self.admissible = (len(diamgraph.enumerate_caterpillars(SWEEP_ORDER))
                           + len(diamgraph.enumerate_unicyclic_candidates(SWEEP_ORDER)))

    def ops(self):
        out = [(f"sweep:{SWEEP_ORDER}", self._sweep)]
        out += [(f"graph:{n}", lambda n=n, s=s: self._graph(n, s)) for n, s in self.graphs]
        return out

    def warm_up(self):
        ranked = optimize.sweep_graphs(4, optimize.OptimizeOptions(seed=0, starts=1))
        certify(ranked[0][1].config)

    def _sweep(self) -> OpResult:
        n = SWEEP_ORDER
        res = OpResult(f"sweep:{n}")
        opts = optimize.OptimizeOptions(seed=self.sweep_seed, starts=self.sweep_starts)
        t0 = perf_counter()
        ranked = optimize.sweep_graphs(n, opts)
        t1 = perf_counter()
        ldb, report, structure = certify(ranked[0][1].config)
        t2 = perf_counter()
        res.seconds, res.certify_s = t2 - t0, t2 - t1
        res.starts = self.sweep_starts * len(ranked)
        res.iterations = sum(r.iterations for _, r in ranked)
        if len(ranked) != self.admissible:
            res.fail(f"swept {len(ranked)} graphs, expected {self.admissible}",
                     unexpected=True)
        self._check_optimum(res, n, ldb, report, structure)
        return res

    def _graph(self, n, opt_seed) -> OpResult:
        res = OpResult(f"graph:{n}", starts=self.graph_starts)
        opts = optimize.OptimizeOptions(seed=opt_seed, starts=self.graph_starts)
        t0 = perf_counter()
        result = optimize.maximize_with_graph(n, diamgraph.conjectured_even_graph(n), opts)
        t1 = perf_counter()
        ldb, report, structure = certify(result.config)
        t2 = perf_counter()
        res.seconds, res.certify_s = t2 - t0, t2 - t1
        res.iterations = result.iterations
        self._check_optimum(res, n, ldb, report, structure)
        return res


def _order(name: str) -> int:
    family, _, size = name.partition(":")
    if family == "arc":
        return 6 * int(size)
    return int(size) if size else int("".join(filter(str.isdigit, family)))


def _build(name: str):
    family, _, size = name.partition(":")
    if family == "kite4":
        return constructions.kite4()
    if family == "hexagon6":
        return constructions.hexagon6()
    if family == "dodecagon12":
        return constructions.dodecagon12()[1]
    if family == "arc":
        return constructions.arc_polygon(int(size)).P
    if family == "triwave":
        return constructions.triwave(int(size)).config
    if family == "regular":
        return constructions.regular_ngon(int(size))
    raise ValueError(f"unknown construction {name!r}")


class Certify(Workload):
    name = "certify"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # one seeded rotation, shift, scale, reflection and relabeling each
        self.moves = {}
        for k, name in enumerate(CONSTRUCTIONS):
            rng = np.random.default_rng([seed, k])
            self.moves[name] = (rng.uniform(0.0, 2.0 * math.pi),
                                complex(*rng.normal(size=2)),
                                rng.uniform(0.5, 2.0),
                                bool(rng.integers(2)),
                                rng.permutation(_order(name)))

    def ops(self):
        out = [(name, lambda name=name: self._construction(name)) for name in CONSTRUCTIONS]
        out += [(f"constant:{c}", lambda c=c: self._constant(c))
                for c in asymptotics.CONSTANT_NAMES]
        return out

    def warm_up(self):
        certify(constructions.kite4())
        constructions.dodecagon12()
        asymptotics.constant("J")

    def _move(self, name, config):
        angle, shift, scale, reflect, perm = self.moves[name]
        z = config.as_complex[perm]
        if reflect:
            z = np.conj(z)
        return geometry.PointConfig.from_complex(z * (scale * np.exp(1j * angle)) + shift)

    def _construction(self, name) -> OpResult:
        res = OpResult(name)
        t0 = perf_counter()
        config = _build(name)
        t1 = perf_counter()
        with self._untraced():
            moved = self._move(name, config)
        t2 = perf_counter()
        ldb, report, structure = certify(moved)
        t3 = perf_counter()
        res.seconds, res.certify_s = (t1 - t0) + (t3 - t2), t3 - t2
        res.pairs = config.n * (config.n - 1) // 2
        with self._untraced():
            own = geometry.log_delta_bar(config)
        ref = self.refs["constructions"][name]
        want = ref["log_delta_bar"]
        if isinstance(want, str):
            want = _log_reference(want)[0]
        if abs(ldb - own) > LOG_TOL * max(1.0, abs(own)):
            res.fail(f"log_delta_bar not invariant: {ldb!r} vs {own!r}")
        if abs(ldb - want) > LOG_TOL * max(1.0, abs(want)):
            res.fail(f"log_delta_bar {ldb!r} differs from reference {want!r}")
        if len(report.active_set) != ref["active"]:
            res.fail(f"active set {len(report.active_set)}, expected {ref['active']}")
        if structure.all_ok != ref["all_ok"]:
            res.fail(f"all_ok {structure.all_ok}, expected {ref['all_ok']}")
        return res

    def _constant(self, name) -> OpResult:
        res = OpResult(f"constant:{name}")
        t0 = perf_counter()
        report = asymptotics.constant(name)
        res.seconds = perf_counter() - t0
        if not report.within_tolerance:
            res.fail(f"discrepancy {report.abs_discrepancy:.3g} above tolerance "
                     f"{report.tolerance:.3g}")
        return res


WORKLOADS = {w.name: w for w in (Search, Sweep, Certify)}
