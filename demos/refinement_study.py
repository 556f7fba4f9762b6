"""Convergence of the space-time discretization under uniform refinement.

Each level halves the spatial and temporal mesh sizes, multiplying the
total dof count by eight.  Against the known closed-form solution the
L2 error should then drop towards fourth order per level (eoc -> 2) and
the space-time H1 error towards second order (eoc -> 1), where eoc is
measured against dof growth with three dofs per power of h.

Levels 0..3 take about 2.5 s on 2 cores; raise MAX_LEVEL to 4 for the
dof = 188480 run (about 12 s).  The `kronheat convergence` command
produces the same table as CSV.

Run from the repository root:

    python demos/refinement_study.py
"""

from kronheat.experiments import ExperimentConfig, run_convergence

MAX_LEVEL = 3

tables = run_convergence(ExperimentConfig(max_level=MAX_LEVEL))

# The variants agree to far more digits than the discretization error,
# so one table carries the convergence story; the closing lines compare
# the variants' wall times instead.
rows = tables["bs-complex"]
print(f"{'dof':>8} {'h_x':>8} {'L2 error':>10} {'eoc':>5} "
      f"{'H1 error':>10} {'eoc':>5}")
for row in rows:
    print(f"{row.dof:8d} {row.h_x:8.5f} {row.l2_error:10.3e} "
          f"{row.l2_eoc:5.2f} {row.h1_error:10.3e} {row.h1_eoc:5.2f}")

print("\nsolve seconds per level and variant")
for variant, vrows in tables.items():
    times = " ".join(f"{r.seconds:7.3f}" for r in vrows)
    print(f"  {variant:<11} {times}")
