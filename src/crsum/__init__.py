"""Ergodic sum-rate power control for spectrum-sharing fading channels."""

from .constraints import (ConstraintCase, ConstraintReport, PowerBudget,
                          db_to_linear, feasibility_check)
from .capacity import (PolicyResult, ergodic_capacity_bc, ergodic_capacity_mac,
                       ergodic_capacity_mac_tdma, fra_baseline_bc,
                       fra_baseline_mac)
from .dual import (ConvergenceReport, DualPoint, cutting_plane_solve,
                   dual_value_and_subgradient, ellipsoid_solve)
from .errors import (ConfigurationError, ConvergenceFailureError, CrsumError,
                     SolverFailureError, UnboundedSubproblemError, UsageError)
from .fading import (ChannelStateBc, ChannelStateMac, Ensemble, FadingModel,
                     as_ensemble, bc_arrays, export_bc_csv, export_mac_csv,
                     import_bc_csv, import_mac_csv, mac_arrays,
                     sample_bc_states, sample_mac_states)
from .oracle import grid_state_oracle, grid_state_oracles, saa_primal_oracle
from .perstate_bc import BcStateAllocation, bc_via_dual_mac, solve_state_bc
from .perstate_mac import (KktReport, StateAllocation, check_tdma_case2,
                           check_tdma_case3, check_tdma_case4,
                           solve_state_case1, solve_state_case2,
                           solve_state_case3, solve_state_case4)
from .tdma import tdma_state_case2, tdma_state_case3, tdma_state_case4

__version__ = "0.1.0"

__all__ = [
    "BcStateAllocation", "ChannelStateBc", "ChannelStateMac",
    "ConfigurationError", "ConstraintCase", "ConstraintReport",
    "ConvergenceFailureError", "ConvergenceReport", "CrsumError", "DualPoint",
    "Ensemble", "FadingModel", "KktReport", "PolicyResult", "PowerBudget",
    "SolverFailureError", "StateAllocation", "UnboundedSubproblemError",
    "UsageError", "as_ensemble", "bc_arrays", "bc_via_dual_mac",
    "check_tdma_case2", "check_tdma_case3", "check_tdma_case4",
    "cutting_plane_solve", "db_to_linear", "dual_value_and_subgradient",
    "ellipsoid_solve", "ergodic_capacity_bc",
    "ergodic_capacity_mac", "ergodic_capacity_mac_tdma", "export_bc_csv",
    "export_mac_csv", "feasibility_check",
    "fra_baseline_bc", "fra_baseline_mac", "grid_state_oracle", "grid_state_oracles",
    "import_bc_csv", "import_mac_csv", "mac_arrays", "sample_bc_states",
    "sample_mac_states", "saa_primal_oracle", "solve_state_bc",
    "solve_state_case1", "solve_state_case2", "solve_state_case3",
    "solve_state_case4", "tdma_state_case2", "tdma_state_case3",
    "tdma_state_case4",
]
