"""Flat-lattice matroid toolkit.

Represents finite matroids by their graded lattice of flats, decides
modularity and hypermodularity, and — for loopless rank-4 hypermodular
matroids — performs the single-element extensions that strictly shrink
the total modular defect, iterating them to a modular completion.
Point configurations over prime fields up to 3037000500 (exact int64
arithmetic) supply realizable fixtures such as PG(3,q) for prime q <= 7.
"""

from .core import (
    EXHAUSTIVE_LIMIT,
    ISO_GROUND_LIMIT,
    AxiomReport,
    ComponentPartition,
    ElementSet,
    Matroid,
    Profile,
    Violation,
    circuits_up_to,
    closure,
    components,
    contract,
    delete,
    flat_key,
    flats_of_rank,
    is_inseparable,
    is_isomorphic,
    is_nondegenerate,
    pair_key,
    profile,
    rank_of,
    restrict,
    verify_flat_axioms,
    verify_rank_axioms,
)
from .modularity import (
    DefectReport,
    disjoint_rank32_pairs,
    hypermodularity_witness,
    is_hypermodular,
    is_modular,
    is_modular_flat,
    is_modular_pair,
    modular_defect,
    total_modular_defect,
)
from .extension import (
    CompletionOutcome,
    CompletionStep,
    CriterionResult,
    ExtensionContext,
    ExtensionResult,
    FlagFailure,
    InternalConsistencyError,
    StepBudgetExhausted,
    build_context,
    complete_to_modular,
    criterion_holds,
    extend_once,
    first_extendable_flag,
    join_spectrum,
    verify_star_structure,
)
from .realize import (
    PointConfig,
    is_prime,
    matroid_from_points,
    pg3,
    pg3_points,
    uniform,
    vamos,
)
from .arrangement import (
    LabeledHyperplane,
    Subspace,
    check_line_connectivity,
    classify,
    labeled_hyperplanes,
    meet_at_point,
    plane_cover_check,
    subspace_census,
    subspace_of,
)
from .matio import (
    MatroidDocument,
    ParseError,
    parse_matroid,
    parse_matroid_document,
    parse_points,
    serialize_matroid,
    serialize_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]
