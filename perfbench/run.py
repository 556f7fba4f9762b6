"""Benchmark of the kronheat reproduction: one workload per run.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload, then repeats timed rounds while
another round still fits in ``--seconds`` (at least one), checks every
output, and prints a readable report followed, as the last line of
standard output, by one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` routes the calls into kronheat's layers through
``tracer.py`` and reports the per-layer metrics instead.  BLAS is pinned
to one thread, so a run uses at most two threads (fd-t2's pool).  The
full result, with its environment block, and the spans of a traced run
are written under ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import environment  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_kronheat():
    """The package from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kronheat
        import kronheat.experiments
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import kronheat from {src}: {exc}")
    if not Path(kronheat.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: kronheat imported from {kronheat.__file__}, "
                 f"not from {src}")
    return kronheat


def untraced_wall_s(args):
    """Median wall_s of the untraced runs of this workload recorded in
    this checkout; makes one in a child process when there is none."""
    def recorded():
        walls = []
        for path in OUT.glob(f"{args.workload}-seed*-trace0.json"):
            result = json.loads(path.read_text())
            if result["seconds"] == args.seconds:
                walls.append(result["metrics"]["wall_s"]["value"])
        return walls

    walls = recorded()
    if not walls:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=170)
        walls = recorded()
    return statistics.median(walls)


def measure(workload, seconds, rng):
    """Timed rounds until another would overrun ``seconds``."""
    walls, tally = [], None
    started = time.perf_counter()
    while True:
        inputs = workload.prepare(rng)
        t0 = time.perf_counter()
        outputs = workload.run(inputs)
        walls.append(time.perf_counter() - t0)
        checked = workload.check(inputs, outputs)
        if tally is None:
            tally = checked
        else:
            tally.merge(checked)
        if time.perf_counter() - started + walls[-1] > seconds:
            return walls, tally


def main(argv=None):
    args = parse_args(argv)
    kronheat = import_kronheat()
    import numpy as np

    workload = WORKLOADS[args.workload](kronheat)
    tracer = tracing.Tracer() if args.trace else None
    hooks = (tracing.installed(tracer, kronheat) if tracer
             else contextlib.nullcontext())
    with hooks:
        workload.setup()
        setup_s = time.perf_counter() - T_START
        if tracer:
            tracer.phase = "round"
        walls, tally = measure(workload, args.seconds,
                               np.random.default_rng(args.seed))
    wall_s = statistics.median(walls)

    extra = {"fail_ratio": (tally.failed / tally.attempted, "ratio")}
    if args.trace:
        values = tracing.layer_metrics(tracer.spans, len(walls))
        values["trace.wall_s"] = wall_s
        values["trace.overhead_s"] = wall_s - untraced_wall_s(args)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        extra["dof_per_level"] = (tracing.dof_per_level(tracer.spans),
                                  "count")
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        if hasattr(workload, "extra_metrics"):
            extra.update(workload.extra_metrics())
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}

    env = environment.describe(kronheat, ROOT, BLAS_THREADS)
    env["seed"] = args.seed
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": len(walls), "round_wall_s": walls,
        "environment": env,
        "metrics": metrics,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.notes,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))
    if tracer:
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans.write_text(json.dumps(tracer.spans))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(walls)}")
    print("  " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in list(metrics.items()) + list(
            result["extra"].items()):
        print(f"  {name:36s} {metric['value']!s:>24} {metric['unit']}")
    for note in tally.notes:
        print(f"  FAILED: {note}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
