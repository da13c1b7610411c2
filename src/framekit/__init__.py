"""framekit: finite frames, duals, excess, and Parseval-dual construction.

The package computes the standard objects of finite frame theory
(analysis/synthesis/frame operators, optimal bounds, excess), grades
dual pairs (exact / approximate / pseudo), realizes the two equivalent
parametrizations of all duals of a frame, decides and constructs
Parseval duals, and evaluates the two-sided subset identity with its
[3/4, 1] spectral bounds.

Every public name below is importable from the package itself, and
this table alone says which submodule holds it; the CLI reads its
names here too.  `import framekit` loads no submodule: a name's
submodule is imported the first time it is looked up (PEP 562), and
the name is then stored here, so later lookups cost a dict hit.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "errors": (
        "BadParametersError", "DimensionMismatchError", "FrameFileError",
        "FramekitError", "IllConditionedError", "NoParsevalDualError",
        "NotAFrameError", "NotAProjectionError", "NotComplementaryError",
        "NotDualError", "NotLeftInverseError", "NotParsevalError",
        "NotPseudoDualError", "NotSurjectiveError", "NotUnitError",
        "PrefixNotContainedError", "TooLargeError", "WrongRangeError",
        "ZeroEntryError", "ZeroVectorError"),
    "frames": (
        "COMPLEX", "KINDS", "REAL", "Decision", "ExcessReport", "Frame",
        "FrameBounds", "ToleranceConfig", "analysis_matrix", "decide",
        "derived_frame", "excess", "excess_from_norms", "frame_bounds",
        "frame_operator", "gram_matrix", "is_frame", "is_parseval",
        "kernel_of_synthesis", "synthesis_matrix"),
    "duals": (
        "DualityReport", "LemmaReport", "canonical_dual", "check_duality",
        "dual_from_free_operator", "dual_from_projection", "oblique_projection",
        "projection_from_dual_pair", "pseudo_dual_to_exact", "transform_frame",
        "verify_excess_equality", "verify_lemma_decomposition"),
    "parseval": (
        "ParsevalDualReport", "best_parseval_dual_residual",
        "construct_parseval_dual", "deviation_dimension", "nonexistence_reasons",
        "parseval_dual_exists", "rescale_to_admissible", "verify_parseval_dual"),
    "identity": (
        "GLOBAL_SWEEP_LIMIT", "IndexSet", "NuBounds", "TailReport",
        "identity_residual", "identity_sides", "nu_bounds", "nu_in_range",
        "nu_minus_global", "quantity_matrix", "tail_threshold", "verify_tail_bound"),
    "generators": (
        "generate", "near_riesz_frame", "parseval_projection_frame",
        "projected_basis_frame", "random_frame", "random_unit_alpha"),
    "io": ("canonical_json", "dumps_frame", "loads_frame", "read_frame", "write_frame"),
    "cli": ("run_command",),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
