"""Finite elements and a verification harness for the two-dimensional nonlocal
Venttsel boundary-value problem on polygonal domains."""

from .analysis import (
    NormReport,
    boundary_h2_diagnostic,
    friedrichs_ratio,
    gagliardo_energy,
    norm_report,
    v1_norm,
    weighted_hessian_diagnostic,
    weighted_l2,
)
from .assembly import (
    DiscreteSystem,
    NodalField,
    ProblemSpec,
    assemble_system,
    boundary_mass,
    boundary_stiffness,
    bulk_stiffness,
    check_theta_orders,
    load_vector,
    nonlocal_matrix,
)
from .geometry import Polygon, WeightWindow, build_polygon, dist_to_vertices, sigma_window
from .meshing import BoundaryMesh, Mesh, extract_boundary, refine, triangulate
from .singular import (
    Decomposition,
    SingularTerm,
    decompose,
    fit_coefficient,
    make_singular_term,
    singular_value,
)
from .solver import SolveReport, direct_solve, min_eigenpair, solve, stability_ratio
from .verify import (
    ConvergenceTable,
    ManufacturedProblem,
    convergence_study,
    lshape_benchmark,
    make_manufactured,
    operator_laws,
    rate_estimate,
    theta_entry_oracle,
    theta_pointwise_oracle,
)

__version__ = "0.1.0"
