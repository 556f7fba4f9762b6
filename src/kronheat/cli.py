"""Command-line driver for the refinement studies.

Three subcommands: ``convergence`` (error table per solver variant),
``eigstudy`` (temporal pencil spectra), ``compare`` (cross-variant
coefficient differences).  Each reads an optional flat key-value config
file; command-line flags override file values.  Flags are kept as the
strings given, so a setting is parsed in one place,
``experiments.make_config``, whether it came from a flag or a file.
"""

import argparse
import os
import sys

from .errors import KronheatError, UsageError
from .experiments import (
    COMPARE_HEADER,
    CONVERGENCE_HEADER,
    EIGSTUDY_HEADER,
    VARIANTS,
    _CONFIG_KEYS,
    compare_solvers,
    convergence_lines,
    format_compare_row,
    format_eig_row,
    load_config_file,
    make_config,
    run_convergence,
    run_eigstudy,
    table_paths,
    write_csv,
)


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
    rows, residuals = compare_solvers(config)
    _note_unpinned_blas(config)
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
