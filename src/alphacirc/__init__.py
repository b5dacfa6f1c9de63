"""Self-dual double and bordered alpha-circulant codes over chain rings Z_{p^m}."""

from .chainring import ChainRing, ChainRingError
from .circulant import (
    CircVec,
    CodeSpec,
    cir,
    format_vector,
    generator_matrix,
    is_self_dual,
    parse_vector,
)
from .distance import is_doubly_even, min_hamming_distance, min_lee_distance
from .equivalence import canonical_form, necklaces
from .lifting import (
    BaseNotSelfDual,
    LiftSolutionSet,
    LiftSystem,
    build_lift_system,
    enumerate_lifts,
    nested_lift,
    self_dual_lifts,
    solve_lift_system,
)
from .search import (
    ConfigurationError,
    SearchConfig,
    SearchRecord,
    SearchResult,
    enumerate_base_codes,
    run_search,
    verify_record,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
