"""Finite elements for bending-energy stationary points of inextensible
curves: C1 cubic splines, node-only or node-plus-midpoint constraint
enforcement, gradient flows, Newton solvers, and convergence studies."""

from .mesh import ConstraintVariant, Mesh1D
from .splines import (FunctionOracle, HermiteCurve, QuadraticField,
                      interp_hermite, interp_j2, interp_j3, lumped_weights,
                      unit_speed_violation)
from .assembly import (BoundaryConditions, SystemMatrices,
                       assemble_constraint, assemble_matrices)
from .saddle_solver import KKTSingularError, SaddleSystem, solve_kkt
from .flow import (FlowConfig, FlowSolveError, FlowState, dump_trajectory,
                   init_state, run, step)
from .analysis import (ExactSolution, eoc, h2_error, linf_error,
                       quadrature_error, weak_errors)
from .stationary import (DiscreteNorms, NewtonError, SaddlePoint,
                         coercivity_estimate, infsup_estimate, newton_solve,
                         make_interpolant_pair, residual, residual_dual_norm)
from .experiments import (ExperimentSpec, ExperimentTable, emit_csv,
                          named_experiment, run_experiment, stationarity_check)

__version__ = "0.1.0"

__all__ = [
    "BoundaryConditions", "ConstraintVariant", "DiscreteNorms",
    "ExactSolution", "ExperimentSpec", "ExperimentTable", "FlowConfig",
    "FlowSolveError", "FlowState", "FunctionOracle", "HermiteCurve",
    "KKTSingularError", "Mesh1D", "NewtonError", "QuadraticField",
    "SaddlePoint", "SaddleSystem", "SystemMatrices", "assemble_constraint",
    "assemble_matrices", "coercivity_estimate", "dump_trajectory",
    "emit_csv", "eoc", "h2_error", "infsup_estimate", "init_state",
    "interp_hermite", "interp_j2", "interp_j3", "linf_error",
    "lumped_weights", "make_interpolant_pair",
    "named_experiment", "newton_solve", "quadrature_error", "residual",
    "residual_dual_norm", "run", "run_experiment", "solve_kkt",
    "stationarity_check", "step", "unit_speed_violation", "weak_errors",
]
