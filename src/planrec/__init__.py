"""Incremental plan recognition: the PHATT baseline and the semi-lazy SLIM
engine over probabilistic, partially ordered plan libraries, with a synthetic
AND/OR domain generator and a benchmark harness."""

from .domains import DomainParams, DomainStats, generate_domain, library_stats, simulate_agent
from .grammar import (
    LibraryError,
    LibraryParseError,
    PlanLibrary,
    Rule,
    Symbol,
    ValidationReport,
    build_library,
    parse_library,
    serialize_library,
    validate_library,
)
from .metrics import CombinationCounter, RunRecord, StepMetrics, drive, predicted_bound
from .phatt import (
    HypothesisSet,
    LeftmostTree,
    PhattConfig,
    PhattEngine,
    RecognitionFailure,
    default_max_depth,
    hypothesis_probability,
    leftmost_trees,
    phatt_recognize,
)
from .runner import emit_hypotheses, run_benchmark, run_recognition
from .slim import (
    Fragment,
    SlimEngine,
    TopDownConfig,
    combine_as_child,
    combine_as_sibling,
    combine_directly,
    combine_independently,
    create_fragments,
    k_best,
    slim_recognize,
)
from .trees import (
    EMPTY_HYPOTHESIS,
    FusionError,
    Hypothesis,
    NotOpenFrontier,
    OrderingViolation,
    PlanNode,
    SymbolMismatch,
    check_temporal_consistency,
    enabled_frontier,
    fuse,
    node_at,
    open_node,
    parse_hypothesis,
    parse_plan,
    realized_leaf,
    try_fuse,
    verify_hypothesis,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
