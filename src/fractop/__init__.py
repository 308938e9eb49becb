"""Level-set topology optimization for brittle and ductile fracture
resistance with a staggered phase-field forward solver and path-dependent
adjoint sensitivities."""

from .filtering import FilterKernel, build_kernel, filter_field, \
    history_average
from .forward import (FieldSet, Problem, SolverError, SolverSettings,
                      TangentBlocks, Trajectory, run_load_history,
                      staggered_step)
from .levelset import (TopoParams, dirac_regularized, heaviside_exact,
                       solve_reaction_diffusion, volume_ratio)
from .material import (MaterialParams, QuadState, StressResult,
                       degradation_g, energy_split, return_map, transition_f)
from .mesh import Mesh, QuadratureRule, build_structured_mesh, quadrature, \
    shape_values
from .optimizer import (ConvergenceRecord, OptimizationResult,
                        OptimizationSettings, OptimizerState,
                        expected_volume, run_optimization)
from .phasefield import (crack_density, critical_psi, driving_force,
                         update_history)
from .sensitivity import (AdjointState, adjoint_solve, adjoint_sweep,
                          objective_increment, objective_total,
                          residual_phi_derivative, solid_sensitivity,
                          velocity_from_sensitivity)

__version__ = "0.1.0"
