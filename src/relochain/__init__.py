"""Persistence of killed Markov chains with preferential relocations.

Spectral computation and certified bracketing of persistence rates, seeded
Monte Carlo for the killed and weighted chains, and the variational bounds
that compare relocation dynamics against the benchmark without memory.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigParseError,
    DegenerateImageError,
    NegativeEntryError,
    NoConvergenceError,
    NonFiniteEntryError,
    NonPositiveInputError,
    OverflowGuardError,
    PeriodicError,
    ProportionalToStochasticWarning,
    ReducibleError,
    RelochainError,
    RowSumExceedsOneError,
    StateCapExceededError,
    UnknownExperimentError,
    ZeroRowError,
)
from .matrices import (
    PerronTriple,
    SubStochasticMatrix,
    birkhoff_contraction,
    hilbert_distance,
    load_matrix,
    perron_triple,
    phi_map,
    read_matrix_text,
    spectral_radius,
    structure_flags,
    tilt,
    tilt_vector,
    validate_substochastic,
    write_matrix_text,
)
from .relocation import (
    HistoryWindow,
    RelocationLaw,
    TruncationResult,
    defective_kernel_row,
    occupation_measure,
    parse_relocation_law,
    truncate_law,
)
from .lifted import (
    LiftedChain,
    RadiusBracket,
    SpectralResult,
    bracket_radius,
    build_lifted,
    lifted_spectral_radius,
    survival_exact,
)
from .simulate import (
    FkEstimate,
    KilledChainResult,
    RngSpec,
    SurvivalCurve,
    WeightedChainStats,
    fk_survival_estimate,
    run_killed_chain,
    run_weighted_chains,
)
from .bounds import (
    ObjectiveEval,
    OptimizeJResult,
    RateFunctionTable,
    j_objective,
    optimize_j,
    rate_function_I,
    rate_function_lifted,
)
from .config import ExperimentConfig, load_config, parse_config_text
from .experiments import benchmark_matrix, run_config, verify_manifest
