"""Exact combinatorial models for decorated Higgs-type objects on curves.

The package stores an object as a list of formal line-bundle summands with
a pairing involution, a sparse matrix of named sections, and optional
extension terms.  Every exported computation (section counts, stability
verdicts, graded limits, component censuses, dimension counts) is integer
or symbolic, with assumptions surfaced in the result types rather than
buried in defaults.

Importing the package loads none of its modules.  A name exported here is
imported from its module on first access (PEP 562), so a command-line
process pays only for the modules its verb uses.
"""

import importlib

__version__ = "0.1.0"

# Exported names, by the module that defines them.
_EXPORTS = {
    "curve": ("EXACT", "GENERIC", "Curve", "SectionCount", "h0", "riemann_roch_chi"),
    "errors": (
        "BoundError",
        "BudgetError",
        "ContradictionError",
        "DimensionMismatchError",
        "HiggsAtlasError",
        "MissingSpinError",
        "ModelInvariantError",
        "ParityViolationError",
        "ParseError",
        "PreconditionError",
        "UnrecognizedShapeError",
        "UnresolvedActionError",
        "UnresolvedDegreeError",
        "UnsupportedGroupError",
        "WrongGroupError",
    ),
    "f2cohomology": (
        "DoubleCover",
        "F2Class",
        "InvolutionAction",
        "PrymDescriptor",
        "SurjectivityReport",
        "SWPair",
        "all_classes",
        "cup",
        "minimal_realizing_n",
        "prym_membership",
        "sw_surjectivity_witnesses",
        "total_sw_of_sum",
    ),
    "linebundle": (
        "KIND_DIVISOR",
        "KIND_SPIN",
        "KIND_TORSION",
        "KIND_VARIABLE",
        "DegreeContext",
        "LineBundleExpr",
        "K_power",
        "divisor_twist",
        "parse_expr",
        "spin",
        "tensor_all",
        "torsion",
        "trivial",
        "variable",
    ),
    "higgsmodel": (
        "DolbeaultTerm",
        "GradedHiggsBundle",
        "GroupTag",
        "HiggsEntry",
        "PrymW0",
        "SectionSymbol",
        "SplitW0",
        "Summand",
        "TrivialW0",
        "make_bundle",
        "named_section",
        "unit_section",
        "validate",
        "append_trivial_w",
        "arrow_pattern",
        "associated_sl",
        "build_degree_zero_chain",
        "build_exotic_so",
        "build_extension_deformed_so35",
        "build_fuchsian",
        "build_hitchin_sl",
        "build_hitchin_so",
        "build_hitchin_so_nn",
        "build_hitchin_sp",
        "build_maximal_so23",
        "build_maximal_so2n",
        "build_so12",
        "build_twisted_fuchsian_sp",
        "bundle_from_dict",
        "bundle_to_dict",
        "canonical_json",
        "canonical_key",
        "embed_so23_to_so2n",
        "embed_so23_to_so33",
        "gauge_orbit_key",
        "permute_summands",
        "so2n_sw_label",
        "structurally_equal",
        "summand_degree_multiset",
        "switchable",
        "switched",
    ),
    "stability": (
        "InvariantSubobject",
        "StabilityVerdict",
        "check_polystability",
        "components",
        "enumerate_invariant_subobjects",
        "gauge_equivalent",
        "milnor_wood_bound",
    ),
    "deformation": (
        "DEFORMED_SO35_RETRACTION",
        "DEFORMED_SO35_STABLE_BRANCH",
        "DIRECTION_TO_INFINITY",
        "DIRECTION_TO_ZERO",
        "ExponentRow",
        "ExponentTable",
        "LimitResult",
        "NDescriptor",
        "WeightAssignment",
        "compose_weights",
        "exponent_table",
        "graded_limit",
        "limit_destabilized_branch",
        "search_admissible_weights",
        "zero_weights",
    ),
    "catalog": (
        "Census",
        "ComponentDescriptor",
        "Parameterization",
        "census",
        "character_variety_dimension",
        "dimension_consistency",
        "extra_factor_dimension",
        "group_dim",
        "half_dimension",
        "parameterization",
        "resolve_extra_factor_reading",
    ),
    "verification": ("CheckResult", "all_check_names", "run_checks"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
