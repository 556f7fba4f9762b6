"""Command-line driver for the refinement studies.

Three subcommands: ``convergence`` (error table per solver variant),
``eigstudy`` (temporal pencil spectra), ``compare`` (cross-variant
coefficient differences).  Each reads an optional flat key-value config
file; command-line flags override file values.
"""

import argparse
import os
import sys

from .errors import KronheatError, UsageError
from .experiments import (
    COMPARE_HEADER,
    CONVERGENCE_HEADER,
    EIGSTUDY_HEADER,
    compare_solvers,
    format_compare_row,
    format_convergence_row,
    format_eig_row,
    load_config_file,
    make_config,
    run_convergence,
    run_eigstudy,
    write_compare_csv,
    write_convergence_csv,
    write_eigstudy_csv,
)


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="flat key-value config file")
    parser.add_argument("--max-level", type=int, dest="max_level",
                        metavar="L", help="finest refinement level")
    parser.add_argument("--solver", action="append", dest="solvers",
                        metavar="NAME",
                        help="solver variant (repeatable, or "
                             "comma-separated): bs-real, bs-complex, fd")
    parser.add_argument("--jmax", type=int, dest="j_max", metavar="J",
                        help="series truncation index for the temporal "
                             "matrices")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="worker pool size for the fd variant")
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
    file_values = load_config_file(args.config) if args.config else None
    variants = None
    if args.solvers:
        variants = tuple(
            name.strip()
            for chunk in args.solvers
            for name in chunk.split(",")
            if name.strip()
        )
    return make_config(
        file_values,
        max_level=args.max_level,
        variants=variants,
        j_max=args.j_max,
        threads=args.threads,
        out=args.out,
    )


def _variant_path(path, variant, many):
    if not many:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}-{variant}{ext}"


def cmd_convergence(config):
    tables = run_convergence(config)
    many = len(tables) > 1
    for variant, rows in tables.items():
        print(f"# {variant}")
        print(CONVERGENCE_HEADER)
        for row in rows:
            print(format_convergence_row(row))
        if config.out:
            write_convergence_csv(
                rows, _variant_path(config.out, variant, many))
    return 0


def cmd_eigstudy(config):
    rows = run_eigstudy(config)
    print(EIGSTUDY_HEADER)
    for row in rows:
        print(format_eig_row(row))
    if config.out:
        write_eigstudy_csv(rows, config.out)
    return 0


def cmd_compare(config):
    rows, residuals = compare_solvers(config)
    print(COMPARE_HEADER)
    for row in rows:
        print(format_compare_row(row))
    for (level, variant), res in sorted(residuals.items()):
        print(f"# residual level {level} {variant}: {res:.3e}")
    if config.out:
        write_compare_csv(rows, config.out)
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
