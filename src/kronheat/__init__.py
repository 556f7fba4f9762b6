"""Space-time finite element solver for the heat equation.

Assembles the Kronecker-structured global system

    K = A_t (x) M_x + M_t (x) A_x

arising from a tensor-product P1 discretization with the modified Hilbert
transformation in time, and solves it with three direct methods: the
Bartels-Stewart method with real or complex Schur decomposition of the
temporal pencil, and Fast Diagonalization, whose spatial solves are
independent in time (a thread pool runs them, no faster while SuperLU
holds the GIL).
"""

from .errors import (
    ConvergenceFailure,
    DefectivePencil,
    DegenerateElement,
    DimensionMismatch,
    ImaginaryResidueTooLarge,
    KronheatError,
    NotPositiveDefinite,
    ResidualTooLarge,
    SingularMatrix,
    UsageError,
)
from .temporal import (
    DEFAULT_J_MAX,
    TemporalMesh,
    TemporalOperators,
    assemble_temporal_operators,
    refine_bisect,
    tail_bounds,
)
from .lshape import (
    TriangleMesh,
    build_lshape_mesh,
    on_lshape_boundary,
)
from .fem import (
    SpatialOperators,
    assemble_global_rhs,
    assemble_p1,
    dirichlet_lift,
    error_norms,
    gauss_rule_01,
    project_rhs,
    triangle_rule,
)
from .solvers import (
    Pencil,
    SolveReport,
    SpaceTimeSolution,
    SpaceTimeSystem,
    build_pencil,
    eig_study,
    residual,
    solve,
)
from . import manufactured

__all__ = [
    "ConvergenceFailure",
    "DefectivePencil",
    "DegenerateElement",
    "DimensionMismatch",
    "ImaginaryResidueTooLarge",
    "KronheatError",
    "NotPositiveDefinite",
    "ResidualTooLarge",
    "SingularMatrix",
    "UsageError",
    "DEFAULT_J_MAX",
    "TemporalMesh",
    "TemporalOperators",
    "assemble_temporal_operators",
    "refine_bisect",
    "tail_bounds",
    "TriangleMesh",
    "build_lshape_mesh",
    "on_lshape_boundary",
    "SpatialOperators",
    "assemble_global_rhs",
    "assemble_p1",
    "dirichlet_lift",
    "error_norms",
    "gauss_rule_01",
    "project_rhs",
    "triangle_rule",
    "Pencil",
    "SolveReport",
    "SpaceTimeSolution",
    "SpaceTimeSystem",
    "build_pencil",
    "eig_study",
    "residual",
    "solve",
    "manufactured",
]
