"""Gap-shift combinatorics, entropy solving, and non-integer-base expansions."""

__version__ = "0.1.0"

from .sgap import (  # noqa: F401
    Classification,
    EmptySetError,
    SGapSpec,
    SpecSyntaxError,
    classify,
    cofinite_gaps,
    explicit_gaps,
    parse_sgap_spec,
    periodic_gaps,
)
from .blocks import (  # noqa: F401
    BlockCountTable,
    EmptyShiftError,
    ShiftAutomaton,
    SizeGuardError,
    automaton_count_table,
    build_sft_automaton,
    sgap_count_table,
)
from .entropy import (  # noqa: F401
    EntropyResult,
    EntropySolveError,
    solve_sgap_entropy,
)
from .props import (  # noqa: F401
    GibbsDiagnostics,
    PropertyReport,
    balanced_estimate,
    bsm_estimate,
    gibbs_diagnostics,
)
from .beta import (  # noqa: F401
    BetaContext,
    ExpansionPrefix,
    LeafBudgetError,
    enumerate_expansions_of_one,
    expansion_from_sgap,
    greedy_expansion,
    komornik_loreti_constant,
    lazy_expansion,
    max_zero_run_bound,
    sgap_from_expansion,
    specified_gap_set,
    thue_morse,
)
