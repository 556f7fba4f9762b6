"""One refinement level end to end, solved three ways.

Assembles the level-2 problem of the refinement study (L-shaped spatial
domain, graded time mesh, manufactured right-hand side) and solves the
global Kronecker system with each direct method.  The three solvers
share the assembly and differ only in how they decompose the temporal
pencil, so their answers should agree to near machine precision while
the per-stage timings show where each spends its effort.

Run from the repository root:

    python demos/solve_one_level.py
"""

import numpy as np

from kronheat import solve
from kronheat.experiments import assemble_problem, solution_errors

VARIANTS = ("bs-real", "bs-complex", "fd")


def main():
    level = 2
    problem = assemble_problem(level)
    system = problem.system
    print(f"level {level}: N_t = {system.temporal.n} time cells, "
          f"M_x = {system.spatial.n_interior} interior vertices, "
          f"dof = {system.dof}")

    solved = {variant: solve(system, variant) for variant in VARIANTS}
    # one error measurement for all three: the exact fields are evaluated
    # once per quadrature point and shared
    errors = solution_errors(problem, [u for u, _ in solved.values()])
    for (variant, (_, rep)), (l2, h1) in zip(solved.items(), errors):
        print(f"\n{variant}")
        print(f"  decompose {rep.t_decompose:.3f}s, transform in "
              f"{rep.t_transform_in:.3f}s, spatial solves {rep.t_spatial:.3f}s, "
              f"transform out {rep.t_transform_out:.3f}s")
        print(f"  residual {rep.residual:.2e} (matrix-free)")
        print(f"  errors: L2 {l2:.6e}, H1 {h1:.6e}")

    # Same system, same answer: the decompositions only reorder the work.
    base = solved["bs-real"][0].coefficients
    scale = np.abs(base).max()
    for variant in ("bs-complex", "fd"):
        diff = np.abs(solved[variant][0].coefficients - base).max() / scale
        print(f"\nmax relative difference bs-real vs {variant}: {diff:.2e}")


if __name__ == "__main__":
    main()
