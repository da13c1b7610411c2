"""framekit: finite frames, duals, excess, and Parseval-dual construction.

The package computes the standard objects of finite frame theory
(analysis/synthesis/frame operators, optimal bounds, excess), grades
dual pairs (exact / approximate / pseudo), realizes the two equivalent
parametrizations of all duals of a frame, decides and constructs
Parseval duals, and evaluates the two-sided subset identity with its
[3/4, 1] spectral bounds.
"""

from .errors import (
    BadParametersError,
    DimensionMismatchError,
    FrameFileError,
    FramekitError,
    IllConditionedError,
    NoParsevalDualError,
    NotAFrameError,
    NotAProjectionError,
    NotComplementaryError,
    NotDualError,
    NotLeftInverseError,
    NotParsevalError,
    NotPseudoDualError,
    NotSurjectiveError,
    NotUnitError,
    PrefixNotContainedError,
    TooLargeError,
    WrongRangeError,
    ZeroEntryError,
    ZeroVectorError,
)
from .frames import (
    COMPLEX,
    REAL,
    ExcessReport,
    Frame,
    FrameBounds,
    ToleranceConfig,
    analysis_matrix,
    derived_frame,
    excess,
    excess_from_norms,
    frame_bounds,
    frame_operator,
    gram_matrix,
    is_frame,
    is_parseval,
    kernel_of_synthesis,
    synthesis_matrix,
)
from .duals import (
    DualityReport,
    LemmaReport,
    canonical_dual,
    check_duality,
    dual_from_free_operator,
    dual_from_projection,
    oblique_projection,
    projection_from_dual_pair,
    pseudo_dual_to_exact,
    transform_frame,
    verify_excess_equality,
    verify_lemma_decomposition,
)
from .parseval import (
    ParsevalDualReport,
    best_parseval_dual_residual,
    construct_parseval_dual,
    deviation_dimension,
    nonexistence_reasons,
    parseval_dual_exists,
    rescale_to_admissible,
)
from .identity import (
    GLOBAL_SWEEP_LIMIT,
    IndexSet,
    NuBounds,
    identity_sides,
    nu_bounds,
    nu_minus_global,
    projected_basis_frame,
    quantity_matrix,
    tail_threshold,
    verify_tail_bound,
)
from .generators import (
    KINDS,
    generate,
    near_riesz_frame,
    parseval_projection_frame,
    random_frame,
    random_unit_alpha,
)
from .io import (
    Report,
    canonical_json,
    dumps_frame,
    frame_to_obj,
    loads_frame,
    parse_frame_obj,
    read_frame,
    read_matrix,
    write_frame,
)
from .cli import run_command

__version__ = "0.1.0"

__all__ = [
    "BadParametersError", "DimensionMismatchError", "FrameFileError",
    "FramekitError", "IllConditionedError", "NoParsevalDualError",
    "NotAFrameError", "NotAProjectionError", "NotComplementaryError",
    "NotDualError", "NotLeftInverseError", "NotParsevalError",
    "NotPseudoDualError", "NotSurjectiveError", "NotUnitError",
    "PrefixNotContainedError", "TooLargeError", "WrongRangeError",
    "ZeroEntryError", "ZeroVectorError",
    "COMPLEX", "REAL", "ExcessReport", "Frame", "FrameBounds",
    "ToleranceConfig", "analysis_matrix", "derived_frame", "excess",
    "excess_from_norms", "frame_bounds", "frame_operator", "gram_matrix",
    "is_frame", "is_parseval", "kernel_of_synthesis", "synthesis_matrix",
    "DualityReport", "LemmaReport", "canonical_dual", "check_duality",
    "dual_from_free_operator", "dual_from_projection", "oblique_projection",
    "projection_from_dual_pair", "pseudo_dual_to_exact", "transform_frame",
    "verify_excess_equality", "verify_lemma_decomposition",
    "ParsevalDualReport", "best_parseval_dual_residual",
    "construct_parseval_dual", "deviation_dimension", "nonexistence_reasons",
    "parseval_dual_exists", "rescale_to_admissible",
    "GLOBAL_SWEEP_LIMIT", "IndexSet", "NuBounds", "identity_sides",
    "nu_bounds", "nu_minus_global", "projected_basis_frame",
    "quantity_matrix", "tail_threshold", "verify_tail_bound",
    "KINDS", "generate", "near_riesz_frame", "parseval_projection_frame",
    "random_frame", "random_unit_alpha",
    "Report", "canonical_json", "dumps_frame", "frame_to_obj", "loads_frame",
    "parse_frame_obj", "read_frame", "read_matrix", "write_frame",
    "run_command",
]
