"""Command-line surface: construct, evaluate, optimize, table, asym.

Configurations persist as JSON ({schema_version, n, points, meta}) with
full-precision decimal floats; tables as CSV; optional SVG renderings show
the points, convex hull, unit-circle guide, and highlighted diameter edges.

Exit codes: 0 success, 2 usage/validation or a request too large for memory,
3 I/O failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import asymptotics, constructions, diamgraph, geometry, kkt, optimize
from .errors import InvalidConfigError, PolydiscError
from .geometry import PointConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_config(path: str, config: PointConfig, meta: dict) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": config.n,
        "points": [[float(x), float(y)] for x, y in config.points],
        "meta": meta,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def read_config(path: str) -> tuple[PointConfig, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise _UsageError(f"{path} does not hold a configuration object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise _UsageError(f"unsupported schema_version in {path}")
    points = doc.get("points", [])
    if not isinstance(points, list) or len(points) != doc.get("n"):
        raise _UsageError("point count does not match n")
    if not all(isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
               for p in points):
        raise _UsageError("points must be [x, y] pairs of numbers")
    try:
        arr = np.asarray(points, dtype=float)
    except (OverflowError, ValueError):
        raise _UsageError("points must be [x, y] pairs of numbers") from None
    if arr.size and not np.isfinite(arr).all():
        raise _UsageError("non-finite coordinates in file")
    return PointConfig(arr.reshape(-1, 2)), doc.get("meta", {})


def write_svg(path: str, config: PointConfig) -> None:
    """800x800 viewport, 5% margin: unit-circle guide, light hull, bold
    diameter edges, one marker per point."""
    pts = config.points
    center = pts.mean(axis=0)
    xs = np.append(pts[:, 0], [center[0] - 1.0, center[0] + 1.0])
    ys = np.append(pts[:, 1], [center[1] - 1.0, center[1] + 1.0])
    lo = np.array([xs.min(), ys.min()])
    hi = np.array([xs.max(), ys.max()])
    span = float(max(hi - lo)) or 1.0
    size = 800.0
    margin = 0.05 * size
    scale = (size - 2 * margin) / span
    mid = 0.5 * (lo + hi)

    def to_px(p):
        x = margin + (size - 2 * margin) / 2 + (p[0] - mid[0]) * scale
        y = margin + (size - 2 * margin) / 2 - (p[1] - mid[1]) * scale
        return x, y

    graph = diamgraph.extract(config, 1e-9) if config.n >= 2 else None
    hull_idx = geometry.hull_indices(pts, 0.0)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
    ]
    cx, cy = to_px(center)
    lines.append(f'<circle class="guide" cx="{cx:.2f}" cy="{cy:.2f}" '
                 f'r="{scale:.2f}" fill="none" stroke="#bbbbbb" stroke-width="1"/>')
    if len(hull_idx) >= 2:
        path_pts = " ".join("{:.2f},{:.2f}".format(*to_px(pts[i])) for i in hull_idx)
        lines.append(f'<polygon class="hull" points="{path_pts}" fill="none" '
                     'stroke="#99ccee" stroke-width="1.5"/>')
    if graph is not None:
        for a, b in sorted(graph.edges):
            xa, ya = to_px(pts[a])
            xb, yb = to_px(pts[b])
            lines.append(f'<line class="diameter" x1="{xa:.2f}" y1="{ya:.2f}" '
                         f'x2="{xb:.2f}" y2="{yb:.2f}" stroke="#222222" '
                         'stroke-width="3"/>')
    for x, y in pts:
        px, py = to_px((x, y))
        lines.append(f'<circle class="point" cx="{px:.2f}" cy="{py:.2f}" r="5" '
                     'fill="#cc3333"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _build_family(args) -> tuple[PointConfig, dict]:
    family = args.family
    meta: dict = {"family": family}
    if family == "regular":
        if args.n is None or args.n < 2:
            raise _UsageError("regular requires --n >= 2")
        cfg = constructions.regular_ngon(args.n)
    elif family == "kite4":
        cfg = constructions.kite4()
    elif family == "hexagon6":
        cfg = constructions.hexagon6()
    elif family == "dodecagon12":
        alpha, cfg = constructions.dodecagon12()
        meta["alpha"] = alpha
    elif family == "arc":
        if args.n is None or args.n % 6 != 0 or args.n < 6:
            raise _UsageError("arc requires --n divisible by 6")
        cfg = constructions.arc_polygon(args.n // 6).P
    elif family == "sparse-arc":
        if args.n is None or args.n % 2 != 0 or args.n < 4:
            raise _UsageError("sparse-arc requires even --n >= 4")
        cfg = constructions.sparse_arc(args.n)
    elif family == "triwave":
        if args.n is None or args.n % 2 != 0 or args.n < 8:
            raise _UsageError("triwave requires --n even and >= 8 (n must be even >= 8)")
        tw = constructions.triwave(args.n, m_frequency=args.m_frequency,
                                   amplitude=args.amplitude)
        meta["m_frequency"] = tw.m_frequency
        meta["amplitude"] = tw.amplitude
        cfg = tw.config
    else:
        raise _UsageError(f"unknown family {family!r}")
    ldb = geometry.log_delta_bar(cfg)
    meta["log_delta_bar"] = ldb
    meta["delta_bar"] = math.exp(ldb)
    return cfg, meta


def cmd_construct(args) -> int:
    cfg, meta = _build_family(args)
    try:
        write_config(args.out, cfg, meta)
        if args.svg:
            write_svg(args.svg, cfg)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}: n={cfg.n} delta_bar={meta['delta_bar']:.9f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg, _meta = read_config(args.path)
    if cfg.n < 2:
        raise _UsageError("need at least 2 points to evaluate")
    report = geometry.evaluate(cfg)
    delta_bar = geometry.normalized_discriminant(cfg, rescale_to_diameter=True)
    normalized = geometry.normalize_to_diameter(cfg, 2.0)
    structure = diamgraph.maximizer_structure_report(normalized, args.rel_tol)
    kreport = kkt.verify(normalized, args.rel_tol)
    print(f"n            = {report.n}")
    print(f"diameter     = {report.diameter:.17g}")
    print(f"log_delta    = {report.log_delta:.17g}")
    print(f"delta_bar    = {delta_bar:.17g}")
    print(f"graph        = {structure.graph.to_text()}")
    print(f"class        = {structure.graph_class.kind.value}")
    if cfg.n >= 3:
        flags = " ".join(f"{k}={'T' if v else 'F'}" for k, v in structure.flags().items())
        print(f"structure    = {flags}")
    print(f"kkt_residual = {kreport.stationarity_residual:.3e}")
    print(f"min_lambda   = {kreport.min_multiplier:.3e}")
    return EXIT_OK


def _parse_graph_arg(text: str) -> diamgraph.DiameterGraph:
    try:
        return diamgraph.parse_graph_text(text)
    except InvalidConfigError as exc:
        raise _UsageError(f"bad --graph value: {exc}")


def cmd_optimize(args) -> int:
    opts = optimize.OptimizeOptions(
        seed=args.seed, starts=args.starts, record_trace=bool(args.trace_csv))
    if args.graph:
        graph = _parse_graph_arg(args.graph)
        if graph.n != args.n:
            raise _UsageError("graph order does not match --n")
        result = optimize.maximize_with_graph(args.n, graph, opts)
    else:
        result = optimize.maximize_free(args.n, opts)
    meta = {
        "n": args.n,
        "seed": args.seed,
        "starts": args.starts,
        "log_delta_bar": result.log_delta_bar,
        "delta_bar": result.delta_bar,
        "termination": result.termination,
        "kkt_residual": result.kkt_residual,
        "iterations": result.iterations,
        "active_set": [f"{a + 1}-{b + 1}" for a, b in result.active_set],
    }
    if result.requested_graph is not None:
        meta["requested_graph"] = result.requested_graph.to_text()
        meta["achieved_matches_request"] = result.achieved_matches_request
        meta["graph_infeasible"] = result.graph_infeasible
    try:
        write_config(args.out, result.config, meta)
        if args.trace_csv:
            with open(args.trace_csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["start", "round", "step", "merit", "log_delta_bar"])
                for summary in result.starts:
                    for rnd, step, merit, ldb in summary.trace:
                        writer.writerow([summary.index, rnd, step,
                                         repr(merit), repr(ldb)])
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"n={args.n} delta_bar={result.delta_bar:.9f} "
          f"termination={result.termination} residual={result.kkt_residual:.2e}")
    return EXIT_OK


def cmd_table(args) -> int:
    try:
        n_list = [int(tok) for tok in args.n.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--n must list integers, got {args.n!r}") from None
    if not n_list:
        raise _UsageError("empty n list")
    families = [tok.strip() for tok in args.families.split(",") if tok.strip()]
    if not families:
        raise _UsageError("no families selected")
    for fam in families:
        if fam not in ("optimize", "arc", "triwave"):
            raise _UsageError(f"unknown table family {fam!r}")
    rows = []
    for n in n_list:
        best_ld = None
        section4 = ""
        for fam in families:
            ld = None
            if fam == "optimize":
                opts = optimize.OptimizeOptions(seed=args.seed, starts=args.starts)
                ld = optimize.maximize_free(n, opts).log_delta_bar + n * math.log(n)
            elif fam == "arc" and n % 6 == 0:
                cfg = constructions.arc_polygon(n // 6).P
                ld = geometry.log_delta_bar(cfg) + n * math.log(n)
                section4 = repr(math.exp(ld - n * math.log(n)))
            elif fam == "triwave" and n % 2 == 0 and n >= 8:
                cfg = constructions.triwave(n).config
                ld = geometry.log_delta_bar(cfg) + n * math.log(n)
            if ld is not None and (best_ld is None or ld > best_ld):
                best_ld = ld
        if best_ld is None:
            raise _UsageError(f"no selected family applies to n={n}")
        rows.append([n, repr(best_ld), repr(math.exp(best_ld - n * math.log(n))),
                     section4])
    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "log_delta", "delta_bar", "delta_bar_section4"])
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_kkt(args) -> int:
    cfg, _meta = read_config(args.path)
    if cfg.n < 2:
        raise _UsageError("need at least 2 points")
    normalized = geometry.normalize_to_diameter(cfg, 2.0)
    report = kkt.verify(normalized, args.rel_tol)
    doc = {
        "n": report.n,
        "active_set": [f"{a + 1}-{b + 1}" for a, b in report.active_set],
        "multipliers": {f"{a + 1}-{b + 1}": lam
                        for (a, b), lam in sorted(report.multipliers.items())},
        "stationarity_residual": report.stationarity_residual,
        "residual_norm2": report.residual_norm2,
        "min_multiplier": report.min_multiplier,
        "complementarity_violation": report.complementarity_violation,
        "zero_degree_points": [k + 1 for k in report.zero_degree_points],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_asym(args) -> int:
    if args.converge:
        regime, k = args.converge
        value = asymptotics.regime_product(regime, k)
        target = math.exp(-asymptotics.regime_integral_closed(regime))
        print(f"regime {regime} product at k={k}: {value:.12f}")
        print(f"limit constant:               {target:.12f}")
        print(f"difference:                   {abs(value - target):.3e}")
        return EXIT_OK
    if args.rk:
        k, l = args.rk
        value = asymptotics.rk_integral_check(k, l)
        expected = float(1 - abs(k - 1)) if k + l == 2 else 0.0
        print(f"torus average of R_{k} R_{l}: {value:.12f} (expected {expected})")
        return EXIT_OK
    name = args.name
    if name is None:
        raise _UsageError("asym needs a constant name, --converge, or --rk")
    if name not in asymptotics.CONSTANT_NAMES:
        raise _UsageError(
            f"unknown constant {name!r}; choose from {', '.join(asymptotics.CONSTANT_NAMES)}")
    report = asymptotics.constant(name)
    if args.json:
        print(json.dumps({
            "name": report.name,
            "closed_form_value": report.closed_form_value,
            "alt_route_value": report.alt_route_value,
            "alt_route": report.alt_route,
            "abs_discrepancy": report.abs_discrepancy,
            "tolerance": report.tolerance,
        }, indent=2))
    else:
        print(f"{report.name}:")
        print(f"  closed form = {report.closed_form_value:.12f}")
        print(f"  alt route   = {report.alt_route_value:.12f} ({report.alt_route})")
        print(f"  |difference| = {report.abs_discrepancy:.3e} "
              f"(tolerance {report.tolerance:.1e})")
    return EXIT_OK if report.within_tolerance else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydisc",
        description="Configurations maximizing the product of pairwise "
                    "distances under a diameter constraint.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named configuration family")
    p.add_argument("--family", required=True,
                   choices=["regular", "kite4", "hexagon6", "dodecagon12",
                            "arc", "sparse-arc", "triwave"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m-frequency", type=int, default=3)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("evaluate", help="report on a stored configuration")
    p.add_argument("path")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", help="multi-start constrained maximization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graph", default=None,
                   help='target diameter graph, e.g. "n=4; edges=1-2,2-3,2-4"')
    p.add_argument("--trace-csv", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("table", help="tabulate values over a list of orders")
    p.add_argument("--n", required=True, help="comma-separated list, e.g. 12,18,24")
    p.add_argument("--families", default="optimize,arc")
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("kkt", help="first-order report for a stored configuration")
    p.add_argument("path")
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_kkt)

    p = sub.add_parser("asym", help="asymptotic constants and convergence checks")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--converge", nargs=2, type=int, metavar=("REGIME", "K"),
                   default=None)
    p.add_argument("--rk", nargs=2, type=int, metavar=("K", "L"), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_asym)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (_UsageError, InvalidConfigError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: request too large for memory: {str(exc) or 'no detail'}",
              file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PolydiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
