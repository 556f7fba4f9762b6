"""Refinement studies over the L-shape heat problem.

Drives the full protocol: build the level-ell meshes (spatial level ell,
``BASE_TIME_NODES`` bisected ell times), assemble, solve with the
selected variants, measure errors against the manufactured solution, and
emit rows matching the published table schemas.  Domain, time partition
and quadrature are fixed to the published setup.

The command line lives here too: ``main`` runs three subcommands,
``convergence`` (error table per solver variant), ``eigstudy`` (temporal
pencil spectra) and ``compare`` (cross-variant coefficient differences).
Each reads an optional flat key-value config file; command-line flags
override file values.  Flags are kept as the strings given, so a setting
is parsed in one place, ``make_config``, whether it came from a flag or
a file.
"""

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import KronheatError, UsageError, check_integer
from .fem import (
    assemble_global_rhs,
    assemble_p1,
    dirichlet_lift,
    error_norms,
    project_rhs,
)
from .lshape import build_lshape_mesh
from .manufactured import ExactFields
from .solvers import (
    TOLERANCES,
    SpaceTimeSystem,
    eig_study,
    solve,
)
from .temporal import TemporalMesh, assemble_temporal_operators, refine_bisect

VARIANTS = tuple(TOLERANCES)

BASE_TIME_NODES = (0.0, 1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 2.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of a study run.  The defaults reproduce the published setup,
    whose domain, time partition, quadrature and series truncation
    (``DEFAULT_J_MAX``) are not knobs."""

    max_level: int = 4
    variants: tuple = VARIANTS
    threads: int = 1
    out: Optional[str] = None

    def __post_init__(self):
        check_integer(self.max_level, "max_level", 0)
        check_integer(self.threads, "threads", 1)
        if self.out is not None:
            _check_out(self.out)
        unknown = set(self.variants) - set(VARIANTS)
        if unknown or not self.variants:
            raise UsageError(
                f"variants must be a nonempty subset of {VARIANTS}"
            )
        if len(set(self.variants)) < len(self.variants):
            raise UsageError(f"repeated variant in {self.variants}")


def _check_out(path):
    """Refuse an output file path before any study runs."""
    if not path:
        raise UsageError("empty output file path")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"no directory for output file {path!r}")
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path!r}: is a directory")


def table_paths(out, variants):
    """Output file of each variant's convergence table, each one checked.

    One variant writes to ``out`` itself; several write to
    ``<stem>-<variant><ext>`` (``table-fd.csv`` for ``table.csv``), the
    extension taken from the file name only.  Every path passes the
    ``out`` checks here, so all are refused or accepted before a study
    runs.  Without ``out`` every variant maps to None.
    """
    if out is None:
        return dict.fromkeys(variants)
    stem, ext = os.path.splitext(out)
    paths = {variant: out if len(variants) == 1 else f"{stem}-{variant}{ext}"
             for variant in variants}
    for path in paths.values():
        _check_out(path)
    return paths


@dataclass(frozen=True, eq=False)
class ProblemData:
    """One assembled refinement level."""

    level: int
    mesh_x: object
    mesh_t: TemporalMesh
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
    fallback: Optional[str] = None


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


def time_mesh_at_level(level):
    """``BASE_TIME_NODES`` bisected ``level`` times; a level that is
    not an integer (a bool included), or is negative, raises UsageError."""
    level = check_integer(level, "level", 0)
    mesh = TemporalMesh(np.asarray(BASE_TIME_NODES, dtype=float))
    for _ in range(level):
        mesh = refine_bisect(mesh)
    return mesh


def assemble_problem(level):
    """Meshes, operators, and right-hand side of one refinement level."""
    mesh_x = build_lshape_mesh(level)
    mesh_t = time_mesh_at_level(level)
    ops = assemble_p1(mesh_x)
    temp = assemble_temporal_operators(mesh_t)
    fields = ExactFields()
    F = project_rhs(mesh_x, mesh_t, fields.source)
    lift = dirichlet_lift(mesh_x, mesh_t, fields.u)
    rhs = assemble_global_rhs(F, ops, temp, lift=lift)
    system = SpaceTimeSystem(temporal=temp, spatial=ops, rhs=rhs)
    return ProblemData(level=level, mesh_x=mesh_x, mesh_t=mesh_t,
                       lift=lift, system=system)


def solution_errors(problem, solutions):
    """L2 and space-time H1-seminorm errors of computed solutions.

    Each solution's interior rows are completed with the problem's
    Dirichlet lift on the boundary rows.  All solutions are measured in
    one ``error_norms`` call, so the exact fields are evaluated once per
    quadrature point whatever their number.

    Returns
    -------
    list of (l2_error, h1_error), one pair per solution.
    """
    if not solutions:
        return []
    mesh_x = problem.mesh_x
    stack = np.empty((len(solutions), mesh_x.n_vertices,
                      problem.lift.shape[1]))
    stack[:, mesh_x.boundary] = problem.lift
    interior = mesh_x.interior
    for full, solution in zip(stack, solutions):
        full[interior] = solution.coefficients.reshape(
            len(interior), -1, order="F")
    fields = ExactFields()
    return error_norms(stack, mesh_x, problem.mesh_t,
                       fields.u, fields.grad, fields.dt)


def eoc(err_prev, err, dof_prev, dof):
    """Order estimate against dof growth, 3 dofs per power of h.

    Matches the published convention, where halving h multiplies dof by
    8 and an O(h^2) method reports 2: eoc = 3 log(e'/e) / log(n/n').
    """
    return 3.0 * math.log(err_prev / err) / math.log(dof / dof_prev)


def _solve_noting_fallback(problem, variant, config):
    """``solve`` one level, noting on stderr a fallback to another variant."""
    solution, report = solve(problem.system, variant, threads=config.threads)
    if report.fallback:
        print(f"# fallback level {problem.level} {variant}: "
              f"{report.fallback}, solved by {report.variant}",
              file=sys.stderr)
    return solution, report


def run_convergence(config):
    """Error table per solver variant over levels 0..max_level.

    Every live variant of a level is solved first, then all are measured
    in one ``solution_errors`` call.  A variant whose solve raises is
    dropped from the remaining levels, and one that falls back is kept;
    either gets a note on stderr.

    Returns
    -------
    dict mapping variant name to a list of ConvergenceRow.
    """
    tables = {v: [] for v in config.variants}
    dead = {}
    for level in range(config.max_level + 1):
        problem = assemble_problem(level)
        solved = {}
        for variant in config.variants:
            if variant in dead:
                continue
            try:
                solved[variant] = _solve_noting_fallback(problem, variant,
                                                         config)
            except KronheatError as exc:
                dead[variant] = exc
                print(f"{variant}: level {level} failed "
                      f"({type(exc).__name__}: {exc}); dropping variant",
                      file=sys.stderr)
        errors = solution_errors(
            problem, [solution for solution, _ in solved.values()])
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
                fallback=report.fallback,
            ))
    return tables


def run_eigstudy(config):
    """Spectral statistics of the temporal pencil per refinement level."""
    rows = []
    for level in range(config.max_level + 1):
        mesh = time_mesh_at_level(level)
        stats = eig_study(assemble_temporal_operators(mesh))
        rows.append(EigRow(h_max=mesh.h_max, h_min=mesh.h_min, **stats))
    return rows


def compare_solvers(config):
    """Pairwise coefficient differences between variants per level.

    Pairs are flagged above 1e-8 relative (1e-6 where fast
    diagonalization participates at level >= 4), and wherever a variant
    fell back to another, which is noted on stderr.

    Returns
    -------
    (rows, residuals) : list of CompareRow and dict mapping
        (level, variant) to the reported relative residual.
    """
    if len(config.variants) < 2:
        raise UsageError("compare needs at least two solver variants")
    rows = []
    residuals = {}
    for level in range(config.max_level + 1):
        problem = assemble_problem(level)
        coeffs, fallback = {}, {}
        for variant in config.variants:
            solution, report = _solve_noting_fallback(problem, variant,
                                                      config)
            coeffs[variant] = solution.coefficients
            fallback[variant] = report.fallback
            residuals[(level, variant)] = report.residual
        for i, a in enumerate(config.variants):
            for b in config.variants[i + 1:]:
                diff = (np.linalg.norm(coeffs[a] - coeffs[b])
                        / np.linalg.norm(coeffs[b]))
                threshold = 1e-6 if ("fd" in (a, b) and level >= 4) else 1e-8
                flagged = diff > threshold or bool(fallback[a] or fallback[b])
                rows.append(CompareRow(
                    level=level, dof=problem.system.dof,
                    variant_a=a, variant_b=b, diff=diff,
                    threshold=threshold, flagged=flagged,
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


def convergence_lines(rows):
    """Formatted rows, each after a ``#`` line if its solve fell back."""
    lines = []
    for row in rows:
        if row.fallback:
            lines.append(f"# fallback at dof {row.dof}: {row.fallback}")
        lines.append(format_convergence_row(row))
    return lines


def format_eig_row(row):
    return (f"{row.n_t},{row.h_max:.5f},{row.h_min:.5f},"
            f"{row.min_re_lambda:.3e},{row.sigma_min:.3e},"
            f"{row.sigma_max:.3e},{row.kappa2:.3e}")


def format_compare_row(row):
    return (f"{row.level},{row.dof},{row.variant_a},{row.variant_b},"
            f"{row.diff:.3e},{row.threshold:.1e},"
            f"{'yes' if row.flagged else 'no'}")


def write_csv(path, header, lines):
    """Write ``header`` and then ``lines`` to ``path``, one per line."""
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def load_config_file(path):
    """Flat key-value config: one ``key = value`` per line, # comments.

    A # opens a comment at a line start or after whitespace.  A key
    given on two lines raises UsageError naming the second.
    """
    values = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(
                    f"{path}:{lineno}: expected 'key = value', got {raw!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise UsageError(f"{path}:{lineno}: repeated key {key!r}")
            values[key] = value
    return values


_CONFIG_KEYS = {
    "max_level": int,
    "variants": lambda s: tuple(v.strip() for v in s.split(",") if v.strip()),
    "threads": int,
    "out": str,
}


def make_config(values):
    """Build an ExperimentConfig from ``key -> raw string`` settings.

    Config-file lines and command-line flags alike arrive here as
    strings and are parsed by ``_CONFIG_KEYS``; a setting not given
    keeps its default.
    """
    parsed = {}
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key: {key!r}")
        try:
            parsed[key] = _CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise UsageError(f"bad value for {key!r}: {raw!r}") from exc
    return ExperimentConfig(**parsed)


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="flat key-value config file")
    parser.add_argument("--max-level", dest="max_level",
                        metavar="L", help="finest refinement level")
    parser.add_argument("--solver", action="append", dest="variants",
                        metavar="NAME",
                        help="solver variant (repeatable, or "
                             "comma-separated): " + ", ".join(VARIANTS))
    parser.add_argument("--threads", metavar="N",
                        help="threads for the fd variant's spatial "
                             "solves: the calling thread plus up to N-1 "
                             "pool workers (pays with BLAS pinned to one "
                             "thread)")
    parser.add_argument("--out", metavar="CSV",
                        help="write results as CSV to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kronheat",
        description="Space-time heat equation studies on the L-shape.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser(
        "convergence", help="error table over refinement levels"))
    _add_common(sub.add_parser(
        "eigstudy", help="temporal pencil spectral statistics"))
    _add_common(sub.add_parser(
        "compare", help="cross-check solver variants against each other"))
    return parser


def config_from_args(args):
    """Config-file values with the flags that were given laid over them."""
    values = load_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            # --solver repeats; its chunks join into one comma list
            values[key] = flag if isinstance(flag, str) else ",".join(flag)
    return make_config(values)


def _note_unpinned_blas(config):
    """Note on stderr that fd's pool gains nothing with BLAS unpinned;
    OpenBLAS takes its thread count from the first variable set to N > 0."""
    values = [os.environ.get(name, "").strip() for name in
              ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")]
    counts = [int(v) for v in values if v.isdigit() and int(v) > 0]
    if config.threads > 1 and "fd" in config.variants and counts[:1] != [1]:
        print(f"# note: --threads {config.threads} gains nothing for fd "
              "without OPENBLAS_NUM_THREADS=1", file=sys.stderr)


def _emit(header, lines, path):
    """Print a table, and write it as CSV to ``path`` unless that is None."""
    print(header)
    for line in lines:
        print(line)
    if path is not None:
        write_csv(path, header, lines)


def cmd_convergence(config):
    paths = table_paths(config.out, config.variants)
    _note_unpinned_blas(config)
    tables = run_convergence(config)
    for variant, rows in tables.items():
        print(f"# {variant}")
        _emit(CONVERGENCE_HEADER, convergence_lines(rows), paths[variant])
    return 0


def cmd_eigstudy(config):
    rows = run_eigstudy(config)
    _emit(EIGSTUDY_HEADER, [format_eig_row(r) for r in rows], config.out)
    return 0


def cmd_compare(config):
    _note_unpinned_blas(config)
    rows, residuals = compare_solvers(config)
    _emit(COMPARE_HEADER, [format_compare_row(r) for r in rows], config.out)
    for (level, variant), res in sorted(residuals.items()):
        print(f"# residual level {level} {variant}: {res:.3e}")
    return 1 if any(r.flagged for r in rows) else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        handler = {
            "convergence": cmd_convergence,
            "eigstudy": cmd_eigstudy,
            "compare": cmd_compare,
        }[args.command]
        return handler(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KronheatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
