#!/usr/bin/env python3
"""polydisc benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload search --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # search, sweep, certify

Each workload is a closed loop: one client in one single-threaded process
runs the workload's operations back to back, pass after pass, for
``--seconds``; every pass uses the same inputs, made from ``--seed``.  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json, and
with ``--trace 1`` untraced and traced passes alternate and the run reports
the per-layer metrics.

On a shared host the speed of one process can drift by up to 2x over
seconds to minutes, with CPU time equal to wall time.  So a short
calibration loop runs before and after every timed interval.  End-to-end times are reported in reference seconds: each
interval times CALIB_REF_S over the mean of its two calibrations, the
seconds it would have taken with the loop at its reference speed.  The raw
seconds are reported next to them.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric by name with its unit.  A manifest (versions, thread settings,
seed, counts, calibration times, per-operation results) and, when traced,
all spans are written under ``bench/out/``.  bench/README.md says what each
workload and metric covers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("search", "sweep", "certify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
# numpy asks for transparent huge pages on large arrays; whether the host has
# them free varies, and with them the peak memory of one run (100 or 115 MB
# on certify), so the workload processes do without
HUGEPAGE_VAR = "NUMPY_MADVISE_HUGEPAGE"
# terminations BENCHMARK.json lists by name; the rest count as optimize.term.other
TERMINATIONS = ("gradient-converged", "stalled", "iteration-cap")
# fresh processes per run that stop once ready; set-up time is their median
SETUP_PROBES = 5
# a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0
# seconds calibrate() takes on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest
CALIB_REF_S = 0.010


class BenchError(Exception):
    pass


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("parent", "setup", "measure"), default="parent",
                   help=argparse.SUPPRESS)
    p.add_argument("--result", default=None, help=argparse.SUPPRESS)
    return p


def _median(values):
    return statistics.median(values) if values else 0.0


def calibrate() -> float:
    """Seconds for a fixed mix of the work polydisc does: interpreter loops,
    Python calls on array rows, and small- and mid-size numpy kernels, all
    small enough not to raise the peak memory.  It probes the host's speed."""
    import numpy as np
    pts = np.random.default_rng(0).normal(size=(200, 2))
    small = np.exp(1j * np.arange(64.0))
    large = np.exp(1j * np.arange(300.0))

    def turn(a, b):
        return (a[0] - b[0]) * (a[1] + b[1]) > 0

    t0 = time.perf_counter()
    acc = 0
    for i in range(12_500):
        acc += i * i % 7
    for _ in range(150):
        np.abs(small[:, None] - small[None, :]).sum()
    for i in range(1500):
        acc += turn(pts[i % 200], pts[i * 7 % 200])
    for _ in range(5):
        np.abs(large[:, None] - large[None, :]).sum()
    return time.perf_counter() - t0


def to_reference(seconds: float, calib_before: float, calib_after: float) -> float:
    return seconds * CALIB_REF_S / (0.5 * (calib_before + calib_after))


# ---------------------------------------------------------------------------
# workload process
# ---------------------------------------------------------------------------

def _run_pass(wl, ops, tracer) -> dict:
    """One pass over the ops; traced when a tracer is given, which is
    installed for this pass only, so untraced passes run the bare program."""
    import polydisc
    traced = tracer is not None
    if traced:
        tracer.install(polydisc)
        lo, before = tracer.mark(), Counter(tracer.counters)
    wl.tracer = tracer
    results, calib = [], [calibrate()]
    try:
        for op_id, (name, fn) in enumerate(ops):
            if traced:
                tracer.op_id = op_id
                tracer.active = True
            try:
                results.append(wl.run(name, fn))
            finally:
                if traced:
                    tracer.active = False
            calib.append(calibrate())
    finally:
        if traced:
            tracer.uninstall()
    ref = [to_reference(r.seconds, calib[k], calib[k + 1]) for k, r in enumerate(results)]
    record = {"traced": traced, "ops": results, "calib": calib, "ref": ref,
              "wall": sum(ref)}
    if traced:
        record["layers"] = tracer.layer_metrics(lo, tracer.mark())
        record["counts"] = dict(tracer.counters - before)
    return record


def _per_layer(passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    keys = set().union(*(p["layers"] for p in traced), *(p["counts"] for p in traced))
    out = {k: _median([p["layers"].get(k, p["counts"].get(k, 0)) for p in traced])
           for k in keys}
    starts = out.get("optimize.starts", 0)
    out["optimize.iters_per_start"] = out.get("optimize.iterations", 0) / starts if starts else 0.0
    out["optimize.converged_frac"] = out.get("optimize.converged", 0) / starts if starts else 0.0
    out["optimize.term.other"] = sum(v for k, v in out.items() if k.startswith("optimize.term.")
                                     and k[len("optimize.term."):] not in TERMINATIONS)
    plain = _median([p["wall"] for p in passes if not p["traced"]])
    out["trace.overhead_frac"] = _median([p["wall"] for p in traced]) / plain - 1.0
    return out


def _summarize(wl, passes: list, trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"]]
    first = plain[0]["ops"]
    per_op = {}
    for k, res in enumerate(first):
        calib = [p["calib"][k:k + 2] for p in plain]
        per_op[res.name] = {
            "seconds": _median([p["ref"][k] for p in plain]),
            "raw_seconds": _median([p["ops"][k].seconds for p in plain]),
            "certify_s": _median([to_reference(p["ops"][k].certify_s, *c)
                                  for p, c in zip(plain, calib)]),
            "pass_raw_seconds": [p["ops"][k].seconds for p in plain],
            "pass_calib_s": calib,
            "failed": res.failed,
            "known_defect": res.failed and not res.unexpected and res.name in wl.known,
            "reasons": res.reasons,
            "starts": res.starts,
            "iterations": res.iterations,
            "record_gap": res.record_gap,
        }
    every = [r for p in passes for r in p["ops"]]
    wrong = sorted({r.name for r in every
                    if r.failed and (r.unexpected or r.name not in wl.known)})
    wall = sum(v["seconds"] for v in per_op.values())
    starts = sum(v["starts"] for v in per_op.values())
    pairs = sum(r.pairs for r in first)
    gaps = [r.record_gap for r in every if r.record_gap is not None]
    failed = sum(r.failed for r in every)
    extra = {"raw_wall_s": ("s", sum(v["raw_seconds"] for v in per_op.values())),
             "failed_frac": ("ratio", failed / len(every))}
    if starts:
        extra["starts_per_s"] = ("1/s", starts / wall)
    if gaps:
        extra["record_gap"] = ("log", max(gaps))
    if wl.name == "certify":
        extra["pairs_per_s"] = ("1/s", pairs / sum(v["certify_s"] for v in per_op.values()))
    out = {
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "attempted": len(every),
        "failed": failed,
        "correct": not wrong,
        "unexpected_failures": wrong,
        "wall_s": wall,
        "extra": extra,
        "calib_s": _median([c for p in passes for c in p["calib"]]),
        "per_op": per_op,
        "counts_per_pass": {
            "ops": len(first),
            "starts": starts,
            "iterations": sum(v["iterations"] for v in per_op.values()),
            "certified_pairs": pairs,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        out["per_layer"] = _per_layer(passes)
    return out


def workload_process(args) -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy
    import polydisc
    if Path(polydisc.__file__).resolve().parent != (SRC / "polydisc").resolve():
        print(f"error: imported polydisc from {polydisc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = wl.ops()
        wl.warm_up()
        print("ready", flush=True)
        if args.role == "setup":
            return 0
        tr = tracing.Tracer() if args.trace else None
        passes = []
        t_start = time.perf_counter()
        while True:
            traced = tr is not None and len(passes) % 2 == 1
            passes.append(_run_pass(wl, ops, tr if traced else None))
            elapsed = time.perf_counter() - t_start
            pass_s = elapsed / len(passes)
            if args.trace and len(passes) < 2:
                continue
            if elapsed + 0.5 * pass_s >= args.seconds:
                break
        measured_s = time.perf_counter() - t_start
    result = _summarize(wl, passes, bool(args.trace))
    result.update(measured_s=measured_s, numpy=numpy.__version__)
    if tr is not None:
        result["absent_sites"] = tr.absent_sites
        tr.dump(str(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"))
    Path(args.result).write_text(json.dumps(result, indent=1, default=str))
    return 0


# ---------------------------------------------------------------------------
# parent process
# ---------------------------------------------------------------------------

def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("POLYDISC_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env[HUGEPAGE_VAR] = "0"
    return env


def _spawn(argv, env, deadline) -> tuple[float, float]:
    """Run this script in a fresh process; return the seconds until it was
    ready, raw and in reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv]
    calib_before = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"workload process {' '.join(argv[:4])} failed with code {code}")
    return ready, to_reference(ready, calib_before, calibrate())


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "polydisc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, args, spec: dict, started: float) -> dict:
    env = pinned_env()
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"result-{tag}.json"
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    setups = [_spawn(["--role", "setup", *common], env, deadline)
              for _ in range(0 if args.trace else SETUP_PROBES)]
    _spawn(["--role", "measure", "--result", str(result_path), *common], env, deadline)
    result = json.loads(result_path.read_text())
    result_path.unlink()

    if args.trace:
        layers = result["per_layer"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        report = metrics
    else:
        values = {"setup_s": _median([s[1] for s in setups]), "wall_s": result["wall_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        report = dict(metrics)
        result["extra"]["raw_setup_s"] = ("s", _median([s[0] for s in setups]))
        report.update({k: {"value": v, "unit": u} for k, (u, v) in result["extra"].items()})
    manifest = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "thread_vars": {var: env[var] for var in THREAD_VARS},
        HUGEPAGE_VAR: env[HUGEPAGE_VAR],
        "calib_ref_s": CALIB_REF_S,
        "setup_samples_s": setups,
        "metrics": report,
        **{k: v for k, v in result.items() if k not in ("numpy", "extra")},
    }
    (OUT / f"manifest-{tag}.json").write_text(json.dumps(manifest, indent=1) + "\n")

    for key, m in report.items():
        print(f"{name:8s} {key:44s} {m['value']:.6g} {m['unit']}")
    print(f"{name:8s} {'calib_s':44s} {result['calib_s']:.6g} s")
    print(f"{name:8s} passes {result['passes']}, ops {result['attempted']}, "
          f"failed {result['failed']}, unexpected {result['unexpected_failures']}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.role != "parent":
        return workload_process(args)
    started = time.monotonic()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "polydisc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no polydisc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            line = run_workload(name, args, spec, started)
            print(json.dumps(line), flush=True)
            started = time.monotonic()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
