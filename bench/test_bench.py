"""The benchmark's own checks, at reduced size.

    python3 -m pytest -q bench/test_bench.py

Two runs of one seed must give identical counts (starts, iterations,
terminations, traced call counts, computed pair counts), record gap and
failed fraction; the certify verdicts must not depend on the seed.
"""

import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import polydisc  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "search": dict(orders=(8, 18), starts=2),
    "sweep": dict(sweep_starts=1, graph_orders=(8,), graph_starts=1),
}


def _traced_pass(name, seed):
    """One traced pass of a reduced workload: its op results and counts."""
    tr = tracing.Tracer()
    tr.install(polydisc)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            wl = workloads.WORKLOADS[name](seed, workdir, **SMALL[name])
            wl.tracer = tr
            tr.active = True
            results = [wl.run(op, fn) for op, fn in wl.ops()]
            tr.active = False
    finally:
        tr.uninstall()
    layers = tr.layer_metrics(0, tr.mark())
    calls = {k: v for k, v in layers.items() if k.endswith(".calls")}
    return results, calls, dict(tr.counters)


def _summary(results):
    gaps = [r.record_gap for r in results if r.record_gap is not None]
    return {
        "ops": [(r.name, r.starts, r.iterations, r.failed, r.unexpected, r.pairs)
                for r in results],
        "record_gap": max(gaps),
        "failed_frac": sum(r.failed for r in results) / len(results),
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_counts(name):
    first = _traced_pass(name, 3)
    second = _traced_pass(name, 3)
    assert _summary(first[0]) == _summary(second[0])
    assert first[1:] == second[1:]
    results, calls, counters = first
    assert counters["optimize.starts"] == sum(r.starts for r in results)
    assert counters["optimize.iterations"] == sum(r.iterations for r in results)
    terms = {k: v for k, v in counters.items() if k.startswith("optimize.term.")}
    assert sum(terms.values()) == counters["optimize.starts"]
    assert calls["geometry.complex_gradient.calls"] > 0
    assert counters["geometry.pair_evals"] > 0


def test_known_defects_fail_without_making_the_run_incorrect():
    results = _traced_pass("search", 3)[0] + _traced_pass("sweep", 3)[0]
    failed = {r.name for r in results if r.failed}
    assert failed == {"search:18", "graph:8"}
    assert not any(r.unexpected for r in results)


def test_certify_verdicts_do_not_depend_on_seed():
    verdicts = []
    for seed in (1, 2):
        with tempfile.TemporaryDirectory() as workdir:
            wl = workloads.Certify(seed, workdir)
            results = [wl.run(op, fn) for op, fn in wl.ops()]
        assert [r.reasons for r in results if r.failed] == []
        verdicts.append([(r.name, r.failed, r.pairs) for r in results])
    assert verdicts[0] == verdicts[1]


def test_tracer_wraps_the_sites_callers_look_up():
    tr = tracing.Tracer()
    tr.install(polydisc)
    try:
        for site in tracing.EXPECTED_SITES:
            if site in tr.absent_sites:
                continue
            module, name = site.split(".")
            fn = getattr(getattr(polydisc, module), name)
            assert hasattr(fn, "__wrapped__"), site
        assert not any(attr.startswith("_") for _, attr, _ in tr._patches)
    finally:
        tr.uninstall()
    assert not hasattr(polydisc.kkt.active_set, "__wrapped__")


def test_a_removed_site_is_reported_absent(monkeypatch):
    monkeypatch.delattr(polydisc.optimize, "complex_gradient")
    tr = tracing.Tracer()
    tr.install(polydisc)
    tr.uninstall()
    assert "optimize.complex_gradient" in tr.absent_sites
