"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/repeat.py --seeds 10 --traced --out perfbench/baseline.json

Runs ``BENCHMARK.json``'s command once per workload and seed, seeds in
the outer loop so the workloads interleave, with ``run_seconds`` as
``--seconds``.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  The figures the result files carry beyond the printed
metrics (``fail_ratio``, sweep-l4's ``solve_s.*``) are summarised the
same way.  ``--traced`` adds one traced run per workload and its
per-layer metrics.  ``--seeds 1`` is the one command that prints every
end-to-end metric of every workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec, workload, seed, trace):
    """Last-line result and the full result file of one run."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(path.read_text())


def summarise(values, bound=None):
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    spread = (q3 - q1) / median if median else float("nan")
    out = {"values": values, "median": statistics.median(values),
           "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = spread <= bound
        out["within_third"] = spread <= bound / 3.0
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            line, result = run_once(spec, w, seed, 0)
            runs[w].append(result)
            print(f"# {w} seed {seed}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in line["metrics"].items()),
                  flush=True)

    summary = {"run_seconds": spec["run_seconds"], "seeds": list(seeds),
               "environment": runs[workloads[0]][0]["environment"],
               "workloads": {}}
    print(f"{'workload':10s} {'metric':28s} {'unit':6s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w in workloads:
        results = runs[w]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "rounds": [r["rounds"] for r in results],
                 "end_to_end": {}, "extra": {}}
        rows = []
        for m in spec["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"]
                           for r in results], m["bound"])
            entry["end_to_end"][m["name"]] = dict(s, unit=m["unit"])
            rows.append((m["name"], m["unit"], s))
        for name, metric in results[0]["extra"].items():
            if isinstance(metric["value"], (int, float)):
                s = summarise([r["extra"][name]["value"] for r in results])
                entry["extra"][name] = dict(s, unit=metric["unit"])
                rows.append((name, metric["unit"], s))
        for name, unit, s in rows:
            bound = f"{s['bound']:.2f}" if "bound" in s else ""
            print(f"{w:10s} {name:28s} {unit:6s} {s['median']:12.5g} "
                  f"{s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.4f} "
                  f"{bound:>6s}")
        if args.traced:
            _, traced = run_once(spec, w, args.first_seed, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            entry["dof_per_level"] = traced["extra"]["dof_per_level"][
                "value"]
        summary["workloads"][w] = entry
    if args.traced:
        print(f"{'workload':10s} {'per-layer metric':40s} {'value':>14s}")
        for w in workloads:
            for name, value in summary["workloads"][w]["per_layer"].items():
                print(f"{w:10s} {name:40s} {value:14.6g}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
