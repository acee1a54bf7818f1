"""rodfield: boundary-integral solver, closed-form asymptotics and
single-measurement inversion for a thin conductive rod inclusion in 2D."""

from .asymptotics import (AsymptoticModel, a_delta_apply, asym_grad_linear,
                          asym_u_general, asym_u_linear, asymptotic_field, f1_f2)
from .background import HarmonicBackground
from .geometry import (BoundaryMesh, BoundaryNode, RodSpec, ValidationError,
                       build_mesh, to_local, to_world)
from .inverse import (FitResult, SensorSet, distinguishability_gap, fit_rod,
                      sensor_circle, simulate_measurements)
from .potentials import (DensityVector, NpMatrix, SolverError, assemble_np,
                         neumann_data, single_layer, single_layer_grad,
                         solve_density)
from .solver import (ForwardSolution, eval_grad_u, eval_u, lambda_of_sigma,
                     solve_forward, transmission_check)

__version__ = "0.1.0"
