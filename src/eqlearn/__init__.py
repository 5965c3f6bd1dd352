"""Exact query learning for finite concept classes.

Core objects: universes, concepts, partial concepts, concept classes and
hypothesis classes; combinatorial dimensions; interchangeable learning
strategies and teacher models; an exact minimax oracle; the randomized
counterexample model with exact rational weights; sample compression; and
binary-DFA concept classes.
"""

from .core import (
    AllTotals,
    ClassFormatError,
    Concept,
    ConceptClass,
    Distribution,
    InvariantViolation,
    PartialConcept,
    Universe,
    format_class,
    is_n_consistent,
    parse_class,
    parse_distribution,
    parse_partial,
)
from .dimensions import (
    consistency_dim,
    consistency_threshold,
    hypothesis_hm,
    ldim,
    ldim_subset,
    m_consistent_totals,
    strong_consistency_dim,
    vc_dim,
)
from .gametree import lc_eq_exact, lc_eqmq_exact, lc_exact_with_stats
from .learners import (
    CdimEqLearner,
    ComposeLearner,
    EqMqLearner,
    HalvingEqLearner,
    Learner,
    OptimalEqLearner,
    Sc2EqLearner,
    ThicketMaxMinLearner,
    Transcript,
    run_session,
    transcript_lines,
)
from .teachers import (
    Counterexample,
    EqQuery,
    HonestTeacher,
    MqAnswer,
    MqQuery,
    RandomTeacher,
    Teacher,
    TreeAdversary,
    WitnessAdversary,
    YES,
    YesAnswer,
)
from .thicket import (
    ThicketGraph,
    TrialStats,
    deficient_cycle_search,
    estimate_expected_queries,
    query_rank,
)
from .compression import (
    CompressionScheme,
    check_roundtrip,
    compress,
    decompress,
)
from .automata import (
    Dfa,
    dfa_class_summary,
    dfa_language,
    enumerate_dfa_class,
    learn_dfa,
    nerode_witness,
    parse_dfa,
    string_universe,
)

__version__ = "0.1.0"
