"""Exact simulator and verification suite for integer-valued Hamiltonian
cellular automata: two-step Gaussian-integer dynamics, its conservation
laws, the bandlimited continuum bridge, and many-clock composites."""

from .gaussian import (
    GaussianInt,
    GIVector,
    GIMatrix,
    HermitianIntMatrix,
)
from .automaton import (
    Trajectory,
    ActionValue,
    VariationSpec,
    StationarityReport,
    step_forward,
    step_backward,
    evolve,
    evolve_phase_space,
    recurrence_residual,
    is_solution,
    action_evaluate,
    discrete_variation,
    verify_stationarity,
)
from .conservation import (
    ConservedQuantity,
    AuditReport,
    two_point_invariant,
    norm_like_invariant,
    symmetrized_Q,
    audit_conservation,
    default_commutant_basis,
)
from .sampling import (
    DiscretenessScale,
    ContinuumSignal,
    reconstruct,
    shift_map_check,
    continuum_Q,
    dispersion_theta,
    continuum_oracle,
    convergence_study,
)
from .multipartite import (
    MultiWave,
    InteractionTensor,
    product_wave,
    many_time_residual,
    evolve_factorized,
    leibniz_failure_demo,
    evolve_synchronized,
    bell_state,
    factorizability_witness,
)

__version__ = "0.1.0"
