"""Refinement studies over the L-shape heat problem.

Drives the full protocol: build the level-ell meshes (spatial level ell,
temporal base partition bisected ell times), assemble, solve with the
selected variants, measure errors against the manufactured solution, and
emit rows matching the published table schemas.
"""

import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import KronheatError, UsageError
from .fem import (
    assemble_global_rhs,
    assemble_p1,
    dirichlet_lift,
    error_norms,
    project_rhs,
)
from .lshape import build_lshape_mesh
from .manufactured import ExactFields, exact_u, source_f
from .solvers import SpaceTimeSystem, eig_study, solve
from .temporal import (
    DEFAULT_J_MAX,
    TemporalMesh,
    assemble_temporal_operators,
    refine_bisect,
)

VARIANTS = ("bs-real", "bs-complex", "fd")

BASE_TIME_NODES = (0.0, 1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 2.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of a study run; defaults reproduce the published setup."""

    max_level: int = 4
    variants: tuple = VARIANTS
    j_max: int = DEFAULT_J_MAX
    quad_order: int = 6
    error_quad_order: Optional[int] = None
    threads: int = 1
    time_nodes: tuple = BASE_TIME_NODES
    out: Optional[str] = None

    def __post_init__(self):
        if self.max_level < 0:
            raise UsageError("max_level must be >= 0")
        if self.threads < 1:
            raise UsageError("threads must be >= 1")
        if self.j_max < 0:
            raise UsageError("j_max must be >= 0")
        if self.quad_order < 1:
            raise UsageError("quad_order must be >= 1")
        if self.error_quad_order is not None and self.error_quad_order < 1:
            raise UsageError("error_quad_order must be None or >= 1")
        nodes = np.asarray(self.time_nodes, dtype=float)
        if nodes.size < 2 or np.any(np.diff(nodes) <= 0.0):
            raise UsageError("time_nodes must be strictly increasing")
        if nodes[0] != 0.0:
            raise UsageError("time_nodes must run from 0")
        if self.out is not None and not os.path.isdir(
                os.path.dirname(self.out) or "."):
            raise UsageError(f"no directory for output file {self.out!r}")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown or not self.variants:
            raise UsageError(
                f"variants must be a nonempty subset of {VARIANTS}"
            )


@dataclass(frozen=True)
class ProblemData:
    """One assembled refinement level."""

    level: int
    mesh_x: object
    mesh_t: TemporalMesh
    ops: object
    temp: object
    lift: np.ndarray
    system: SpaceTimeSystem


@dataclass(frozen=True)
class ConvergenceRow:
    dof: int
    h_x: float
    h_t_max: float
    h_t_min: float
    l2_error: float
    l2_eoc: float
    h1_error: float
    h1_eoc: float
    seconds: float


@dataclass(frozen=True)
class EigRow:
    n_t: int
    h_max: float
    h_min: float
    min_re_lambda: float
    sigma_min: float
    sigma_max: float
    kappa2: float


@dataclass(frozen=True)
class CompareRow:
    level: int
    dof: int
    variant_a: str
    variant_b: str
    diff: float
    threshold: float
    flagged: bool


def time_mesh_at_level(config, level):
    mesh = TemporalMesh(np.asarray(config.time_nodes, dtype=float))
    for _ in range(level):
        mesh = refine_bisect(mesh)
    return mesh


def assemble_problem(level, config=None):
    """Meshes, operators, and right-hand side of one refinement level."""
    if config is None:
        config = ExperimentConfig()
    mesh_x = build_lshape_mesh(level)
    mesh_t = time_mesh_at_level(config, level)
    ops = assemble_p1(mesh_x)
    temp = assemble_temporal_operators(mesh_t, j_max=config.j_max)
    F = project_rhs(mesh_x, mesh_t, source_f, quad_order=config.quad_order)
    lift = dirichlet_lift(mesh_x, mesh_t, exact_u)
    rhs = assemble_global_rhs(F, ops, temp, lift=lift)
    system = SpaceTimeSystem(temporal=temp, spatial=ops, rhs=rhs)
    return ProblemData(level=level, mesh_x=mesh_x, mesh_t=mesh_t, ops=ops,
                       temp=temp, lift=lift, system=system)


def solution_errors(problem, solutions, quad_order=None):
    """L2 and space-time H1-seminorm errors of computed solutions.

    All solutions of one level are measured in one ``error_norms`` call,
    so the exact fields are evaluated once per quadrature point whatever
    their number.

    Returns
    -------
    list of (l2_error, h1_error), one pair per solution.
    """
    if not solutions:
        return []
    stack = np.stack([
        dataclasses.replace(
            solution, boundary_values=problem.lift
        ).full_coefficients(problem.ops)
        for solution in solutions])
    fields = ExactFields()
    return error_norms(stack, problem.mesh_x, problem.mesh_t,
                       fields.u, fields.grad, fields.dt,
                       quad_order=quad_order)


def eoc(err_prev, err, dof_prev, dof):
    """Order estimate against dof growth, 3 dofs per power of h.

    Matches the published convention, where halving h multiplies dof by
    8 and an O(h^2) method reports 2: eoc = 3 log(e'/e) / log(n/n').
    """
    return 3.0 * math.log(err_prev / err) / math.log(dof / dof_prev)


def run_convergence(config=None, log=None):
    """Error table per solver variant over levels 0..max_level.

    Every live variant of a level is solved first, then all are measured
    in one ``solution_errors`` call.  A variant whose solve raises is
    dropped from the remaining levels with a note on ``log`` (default
    stderr); other variants continue.

    Returns
    -------
    dict mapping variant name to a list of ConvergenceRow.
    """
    if config is None:
        config = ExperimentConfig()
    if log is None:
        log = sys.stderr
    tables = {v: [] for v in config.variants}
    dead = {}
    for level in range(config.max_level + 1):
        problem = assemble_problem(level, config)
        solved = {}
        for variant in config.variants:
            if variant in dead:
                continue
            try:
                solved[variant] = solve(problem.system, variant,
                                        threads=config.threads)
            except KronheatError as exc:
                dead[variant] = exc
                print(f"{variant}: level {level} failed "
                      f"({type(exc).__name__}: {exc}); dropping variant",
                      file=log)
        errors = solution_errors(
            problem, [solution for solution, _ in solved.values()],
            quad_order=config.error_quad_order)
        for (variant, (_, report)), (l2, h1) in zip(solved.items(), errors):
            rows = tables[variant]
            if rows:
                prev = rows[-1]
                eoc_l2 = eoc(prev.l2_error, l2, prev.dof, report.dof)
                eoc_h1 = eoc(prev.h1_error, h1, prev.dof, report.dof)
            else:
                eoc_l2 = eoc_h1 = 0.0
            rows.append(ConvergenceRow(
                dof=report.dof,
                h_x=problem.mesh_x.h_x,
                h_t_max=problem.mesh_t.h_max,
                h_t_min=problem.mesh_t.h_min,
                l2_error=l2, l2_eoc=eoc_l2,
                h1_error=h1, h1_eoc=eoc_h1,
                seconds=report.t_total,
            ))
    return tables


def run_eigstudy(config=None):
    """Spectral statistics of the temporal pencil per refinement level."""
    if config is None:
        config = ExperimentConfig()
    rows = []
    for level in range(config.max_level + 1):
        mesh = time_mesh_at_level(config, level)
        temp = assemble_temporal_operators(mesh, j_max=config.j_max)
        stats = eig_study(temp)
        rows.append(EigRow(
            n_t=stats["n_t"],
            h_max=mesh.h_max,
            h_min=mesh.h_min,
            min_re_lambda=stats["min_re_lambda"],
            sigma_min=stats["sigma_min"],
            sigma_max=stats["sigma_max"],
            kappa2=stats["kappa2"],
        ))
    return rows


def compare_solvers(config=None):
    """Pairwise coefficient differences between variants per level.

    Pairs are flagged above 1e-8 relative (1e-6 where fast
    diagonalization participates at level >= 4).

    Returns
    -------
    (rows, residuals) : list of CompareRow and dict mapping
        (level, variant) to the reported relative residual.
    """
    if config is None:
        config = ExperimentConfig()
    if len(config.variants) < 2:
        raise UsageError("compare needs at least two solver variants")
    rows = []
    residuals = {}
    for level in range(config.max_level + 1):
        problem = assemble_problem(level, config)
        coeffs = {}
        for variant in config.variants:
            solution, report = solve(problem.system, variant,
                                     threads=config.threads)
            coeffs[variant] = solution.coefficients
            residuals[(level, variant)] = report.residual
        for i, a in enumerate(config.variants):
            for b in config.variants[i + 1:]:
                diff = (np.linalg.norm(coeffs[a] - coeffs[b])
                        / np.linalg.norm(coeffs[b]))
                threshold = 1e-6 if ("fd" in (a, b) and level >= 4) else 1e-8
                rows.append(CompareRow(
                    level=level, dof=problem.system.dof,
                    variant_a=a, variant_b=b, diff=diff,
                    threshold=threshold, flagged=diff > threshold,
                ))
    return rows, residuals


# table schemas: errors to 4 significant digits, mesh sizes to 5
# decimals, order estimates to 2 decimals, raw seconds to 1 decimal

CONVERGENCE_HEADER = ("dof,h_x,h_t_max,h_t_min,"
                      "l2_error,l2_eoc,h1_error,h1_eoc,seconds")
EIGSTUDY_HEADER = "N_t,h_max,h_min,min_re_lambda,sigma_min,sigma_max,kappa2"
COMPARE_HEADER = "level,dof,variant_a,variant_b,diff,threshold,flagged"


def format_convergence_row(row):
    return (f"{row.dof},{row.h_x:.5f},{row.h_t_max:.5f},{row.h_t_min:.5f},"
            f"{row.l2_error:.3e},{row.l2_eoc:.2f},"
            f"{row.h1_error:.3e},{row.h1_eoc:.2f},{row.seconds:.1f}")


def format_eig_row(row):
    return (f"{row.n_t},{row.h_max:.5f},{row.h_min:.5f},"
            f"{row.min_re_lambda:.3e},{row.sigma_min:.3e},"
            f"{row.sigma_max:.3e},{row.kappa2:.3e}")


def format_compare_row(row):
    return (f"{row.level},{row.dof},{row.variant_a},{row.variant_b},"
            f"{row.diff:.3e},{row.threshold:.1e},"
            f"{'yes' if row.flagged else 'no'}")


def _write_csv(path, header, lines):
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def write_convergence_csv(rows, path):
    _write_csv(path, CONVERGENCE_HEADER,
               [format_convergence_row(r) for r in rows])


def write_eigstudy_csv(rows, path):
    _write_csv(path, EIGSTUDY_HEADER, [format_eig_row(r) for r in rows])


def write_compare_csv(rows, path):
    _write_csv(path, COMPARE_HEADER, [format_compare_row(r) for r in rows])


def load_config_file(path):
    """Flat key-value config: one ``key = value`` per line, # comments."""
    values = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(
                    f"{path}:{lineno}: expected 'key = value', got {raw!r}"
                )
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = {
    "max_level": int,
    "variants": lambda s: tuple(v.strip() for v in s.split(",") if v.strip()),
    "j_max": int,
    "quad_order": int,
    "error_quad_order": lambda s: None if s.lower() == "none" else int(s),
    "threads": int,
    "time_nodes": lambda s: tuple(float(v) for v in s.split(",")),
    "out": str,
}


def make_config(file_values=None, **overrides):
    """Build an ExperimentConfig from file values plus keyword overrides.

    Overrides passed as None are ignored, so CLI flags that were not
    given fall through to the file value or the default.
    """
    merged = {}
    for key, raw in (file_values or {}).items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key: {key!r}")
        try:
            merged[key] = _CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise UsageError(f"bad value for {key!r}: {raw!r}") from exc
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return ExperimentConfig(**merged)
