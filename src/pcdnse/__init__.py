"""Dissipative soliton dynamics in reservoir-engineered bosonic lattices.

The package models a chain of classical anharmonic oscillators whose
auxiliary driven cavities act as an engineered reservoir.  It provides the
microscopic cavity-chain equations, the reduced lattice dynamics after
cavity elimination, their continuum limit (a particle-conserving
dissipative nonlinear Schrodinger equation), a collective-coordinate
reduction for bright solitons, and the estimators and command-line tools
used to compare all of these against each other.
"""

from .analysis import (
    DampingEstimate,
    EnvelopeSeries,
    FitResult,
    NoPeakError,
    ProfileComparison,
    compare_profiles,
    envelope_deviation,
    fit_soliton,
    velocity_damping_estimate,
)
from .collective import (
    RepulsiveInteractionError,
    SolitonCoords,
    StableSoliton,
    WidthCollapseError,
    ansatz_energy,
    collective_rhs,
    make_collective_ode,
    make_stable_ode,
    stable_closed_form,
    stable_rhs,
    stable_soliton,
)
from .integrate import (
    IntegrationError,
    LinearPart,
    MaxStepsExceededError,
    OdeProblem,
    SolveStats,
    SolverConfig,
    StepUnderflowError,
    TimeSeries,
    solve,
    solve_fixed_grid,
    solver_preset,
)
from .model_continuum import (
    ContainmentWarning,
    FieldState,
    dispersion_part,
    field_energy,
    field_energy_decay_rate,
    field_momentum,
    make_pcdnse_ode,
    make_soliton_field,
    mean_velocity,
    particle_number,
    sech,
)
from .model_effective import (
    chain_energy,
    chain_hamiltonian_gradient,
    energy_decay_rate,
    general_effective_rhs,
    lattice_laplacian,
    make_chain_ode,
)
from .model_full import (
    make_full_ode,
    rotating_frame_to_effective,
    steady_state_cavities,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    normalize_config,
    run_experiment,
    run_params_sweep,
    run_simulation,
)
from .params import (
    OPEN,
    PERIODIC,
    WEAK_COUPLING_ADVISORY,
    ChainParams,
    DegenerateDenominatorError,
    EffectiveParams,
    ReservoirParams,
    UnsolvableSignError,
    effective_params,
    invert_for_chi_alpha,
    weak_coupling_ratios,
)

__version__ = "0.1.0"
