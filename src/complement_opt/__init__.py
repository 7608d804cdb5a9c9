"""Collision-model entanglement dynamics with measurement-basis optimization.

A maximally entangled qubit pair loses coherence to a train of probe qubits;
projectively measuring the probes in optimized bases steers the pair toward
maximal visibility, predictability or concurrence.  The package provides the
closed-form dynamics, the post-selection algebra, brute-force oracles for
both, the closed-form optimal measurement bases and the experiment harness
that tabulates the resulting complementarity and information-budget curves.
"""
from .collisions import (
    CouplingConfig,
    ExcitationState,
    concurrence_unmeasured,
    continuous_limit_gap,
    distinguishability_ab,
    evolve_closed_form,
    make_config,
    oracle_evolve,
    reservoir_limit_concurrence,
)
from .complementarity import (
    ComplementarityTriple,
    TwoQubitPure,
    concurrence,
    distinguishability,
    predictability,
    triple,
    visibility,
)
from .errors import (
    DegenerateOutcomeError,
    DomainError,
    NormalizationError,
    RangeError,
)
from .measurement import (
    GammaTriple,
    MeasurementBasis,
    complementarity_after,
    delta_d_pair,
    delta_d_total,
    gamma_coefficients,
    per_qubit_distinguishability,
    postselected_state,
    project_oracle,
    uniform_gamma,
)
from .optimize import (
    Objective,
    OptimizationResult,
    curve,
    grid_reference_maximum,
    maximize,
    objective_value,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingConfig",
    "ExcitationState",
    "make_config",
    "evolve_closed_form",
    "oracle_evolve",
    "distinguishability_ab",
    "concurrence_unmeasured",
    "reservoir_limit_concurrence",
    "continuous_limit_gap",
    "TwoQubitPure",
    "ComplementarityTriple",
    "concurrence",
    "visibility",
    "predictability",
    "distinguishability",
    "triple",
    "MeasurementBasis",
    "GammaTriple",
    "gamma_coefficients",
    "project_oracle",
    "uniform_gamma",
    "complementarity_after",
    "postselected_state",
    "per_qubit_distinguishability",
    "delta_d_total",
    "delta_d_pair",
    "Objective",
    "OptimizationResult",
    "maximize",
    "curve",
    "grid_reference_maximum",
    "objective_value",
    "DomainError",
    "RangeError",
    "NormalizationError",
    "DegenerateOutcomeError",
    "__version__",
]
