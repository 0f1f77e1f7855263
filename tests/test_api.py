"""The public surface: the names the package exports and the CLI exit codes.

Both are promised stable; a change to either has to edit these pins.
"""

import types

import polydisc
from polydisc import cli

PUBLIC_NAMES = {
    "ArcPolygon", "CONSTANT_NAMES", "ConstantReport", "DiameterGraph", "DihedralParams",
    "EvalReport", "GraphClass", "GraphKind", "InfeasibleError", "InvalidConfigError",
    "KKTReport", "OptimizeOptions", "OptimizeResult", "PointConfig", "PolydiscError",
    "QuadratureError", "SingularConfigError", "StructureReport", "TriwaveConfig",
    "active_set", "arc_polygon", "caterpillar_count", "check_pairwise_intersection",
    "classify", "congruent", "conjectured_even_graph", "constant", "diameter",
    "dihedral_delta", "discriminant", "dodecagon12", "enumerate_caterpillars",
    "enumerate_unicyclic_candidates", "evaluate", "extract", "gauge_fix", "hexagon6",
    "is_convex_position", "j_riemann", "j_series", "kite4", "log_delta_bar",
    "maximize_free", "maximize_with_graph", "maximizer_structure_report",
    "normalize_to_diameter", "normalized_discriminant", "objective_gradient",
    "parse_graph_text", "recover_multipliers", "regime_integral", "regime_product",
    "regular_ngon", "rk_integral_check", "sparse_arc", "sweep_graphs", "triwave",
    "triwave_prediction", "verify", "zeta3",
}
# bound on the package by its own imports; importing another submodule (such
# as polydisc.cli) binds that one too, so these are pinned as a subset
SUBMODULES = {"asymptotics", "constructions", "diamgraph", "errors", "geometry", "kkt",
              "optimize"}


def test_public_names_are_pinned():
    public = {name: value for name, value in vars(polydisc).items()
              if not name.startswith("_")}
    modules = {name for name, value in public.items() if isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) + len(SUBMODULES) == 67
    assert set(public) - modules == PUBLIC_NAMES
    assert SUBMODULES <= modules


def test_exit_codes_are_pinned():
    codes = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert codes == {"EXIT_OK": 0, "EXIT_USAGE": 2, "EXIT_IO": 3, "EXIT_NUMERIC": 4}
