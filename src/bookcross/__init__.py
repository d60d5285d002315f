"""Exact k-page book drawings of complete bipartite graphs.

Construct drawing families with known crossing counts, enumerate circular
layouts up to symmetry, certify pagenumber facts by exact graph coloring,
evaluate closed-form bounds, and cross-check everything against a brute-force
oracle at desk scale.

Importing the package loads none of its modules.  Each public name imports
its module on first access (PEP 562) and is then kept as a package global,
so later lookups cost what a plain attribute does.  The value is read from
the module at that first access, so a name rebound in its module before
then (as ``perfbench/tracing.py`` does) is the one the package hands out.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines; the only list of them
_EXPORTS = {
    "bounds": (
        "BoundQuery",
        "BoundValue",
        "asymptotic_bounds",
        "block_cyclic_bound",
        "consistency_scan",
        "exact_crossing_number",
        "general_lower",
        "multiplanar_lower_even",
        "nonembeddable_width",
        "riskin_value",
        "turan_lower",
        "zarankiewicz",
    ),
    "coloring": (
        "ColoringResult",
        "ConflictGraph",
        "LayoutLog",
        "PipelineResult",
        "clique_lower_bound",
        "coloring_to_drawing",
        "conflict_graph",
        "export_cnf",
        "is_k_colorable",
        "solve_dimacs",
        "verify_positive_crossing",
    ),
    "constructions": (
        "BalancedParams",
        "ConstructionError",
        "balanced_embedding",
        "balanced_parameters",
        "block_cyclic",
        "block_cyclic_crossing_count",
        "blowup",
        "blowup_crossing_count",
        "riskin_crossing_count",
        "riskin_drawing",
    ),
    "drawings": (
        "BookDrawing",
        "CircularLayout",
        "CrossingReport",
        "DrawingFormatError",
        "count_crossings",
        "edges_cross",
        "from_json",
        "is_balanced_embedding",
        "page_loads",
        "to_json",
    ),
    "enumeration": (
        "NecklaceClass",
        "canonical_form",
        "count_formula",
        "enumerate_layouts",
        "layout_from_string",
        "necklace_classes",
    ),
    "oracle": (
        "OracleLimitError",
        "OracleLimits",
        "OracleRun",
        "brute_force_nu",
        "brute_force_pagenumber",
        "brute_force_run",
    ),
    "render": ("render_svg",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
