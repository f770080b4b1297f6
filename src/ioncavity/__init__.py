"""Analytical solution and brute-force validation of a damped two-mode
bosonic system: a trapped ion's motion coupled to a lossy cavity mode by two
laser-engineered rates.

The package evaluates the closed-form density operator of the model, its
squeezed-thermal reduced states, quadrature variances and revival schedule,
and cross-checks everything against an exact propagator of the Lindblad
master equation on truncated Fock spaces.
"""

from .errors import (
    ConfigError,
    IntegrationError,
    IonCavityError,
    RegimeError,
    TruncationError,
    ValidityError,
)
from .fock import (
    AssemblyBudget,
    FockDensity,
    FockKet,
    FockOperator,
    StateMetrics,
    assemble_joint_density,
    c_coefficient,
    default_dim,
    displacement_op,
    jacobi_poly,
    ladder,
    lossless_ket,
    partial_trace,
    q_operator,
    quad_stats,
    quad_stats_single,
    r_operator,
    reduced_density,
    squeeze_op,
    state_metrics,
    thermal_state,
)
from .lindblad import effective_hamiltonian, evolve_trajectory, lindblad_rhs
from .observables import (
    LosslessSpec,
    ModeSpec,
    QuadTuple,
    RevivalSchedule,
    displacement_trajectory,
    lossless_spec,
    mode_spec,
    nbar_max,
    quad_variances,
    revival_schedule,
    squeezed_thermal,
    steady_squeeze,
)
from .params import (
    CouplingParams,
    EnvelopeValues,
    LabParams,
    Regime,
    classify_regime,
    envelope,
    from_lab_params,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyBudget",
    "ConfigError",
    "CouplingParams",
    "EnvelopeValues",
    "FockDensity",
    "FockKet",
    "FockOperator",
    "IntegrationError",
    "IonCavityError",
    "LabParams",
    "LosslessSpec",
    "ModeSpec",
    "QuadTuple",
    "Regime",
    "RegimeError",
    "RevivalSchedule",
    "StateMetrics",
    "TruncationError",
    "ValidityError",
    "assemble_joint_density",
    "c_coefficient",
    "classify_regime",
    "default_dim",
    "displacement_op",
    "displacement_trajectory",
    "effective_hamiltonian",
    "envelope",
    "evolve_trajectory",
    "from_lab_params",
    "jacobi_poly",
    "ladder",
    "lindblad_rhs",
    "lossless_ket",
    "lossless_spec",
    "mode_spec",
    "nbar_max",
    "partial_trace",
    "q_operator",
    "quad_stats",
    "quad_stats_single",
    "quad_variances",
    "r_operator",
    "reduced_density",
    "revival_schedule",
    "squeeze_op",
    "squeezed_thermal",
    "state_metrics",
    "steady_squeeze",
    "thermal_state",
]
