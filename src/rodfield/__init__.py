"""rodfield: boundary-integral solver, closed-form asymptotics and
single-measurement inversion for a thin conductive rod inclusion in 2D."""

from .asymptotics import AsymptoticModel, a_delta_apply, asymptotic_field, f1_f2
from .background import HarmonicBackground
from .geometry import (BoundaryMesh, RodSpec, ValidationError,
                       build_mesh, to_local, to_world)
from .inverse import (FitResult, SensorSet, distinguishability_gap, fit_rod,
                      sensor_circle, simulate_measurements)
from .potentials import (DensityVector, NpMatrix, SolverError, assemble_np,
                         neumann_data, single_layer_field, solve_density)
from .solver import (ForwardSolution, eval_field, lambda_of_sigma, solve_forward,
                     transmission_check)

__version__ = "0.1.0"
