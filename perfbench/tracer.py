"""Spans around the calls the benchmark makes into kronheat's layers.

Tracing happens entirely from the benchmark's side: ``installed`` swaps
each traced public function, in every kronheat module that refers to it,
for a wrapper that records one span per call, and puts the originals
back on exit.  Spans are kept in memory and written out when the run
ends.  ``layer_metrics`` turns them into the per-layer metrics listed in
``PER_LAYER``.
"""

import contextlib
import functools
import hashlib
import importlib
import itertools
import statistics
import threading
import time

# Pattern sizes the workloads analyze: M_x and 2 M_x (bs-real's coupled
# conjugate-pair systems) for spatial levels 0..4.
PATTERN_SIZES = (5, 10, 33, 66, 161, 322, 705, 1410, 2945, 5890)

SOLVE_VARIANTS = ("bs-real", "bs-complex", "fd", "fd-t2")
SOLVE_STAGES = ("pencil", "transform_in", "sweep", "transform_out",
                "residual")
LAYERS = ("lshape", "fem", "temporal", "manufactured", "solvers",
          "sparse_direct", "experiments")


def _per_layer():
    metrics = [
        ("lshape.build.s", "s", "lower"),
        ("lshape.build.calls", "count", "lower"),
        ("fem.assemble_p1.s", "s", "lower"),
        ("fem.project_rhs.s", "s", "lower"),
        ("fem.dirichlet_lift.s", "s", "lower"),
        ("fem.assemble_global_rhs.s", "s", "lower"),
        ("fem.error_norms.s", "s", "lower"),
        ("fem.error_norms.self_s", "s", "lower"),
        ("fem.error_norms.calls", "count", "lower"),
        ("manufactured.calls", "count", "lower"),
        ("manufactured.s", "s", "lower"),
        ("temporal.assemble.s", "s", "lower"),
        ("temporal.assemble.calls", "count", "lower"),
        ("temporal.distinct_meshes", "count", "lower"),
        ("temporal.reuse_ratio", "ratio", "lower"),
        ("temporal.terms", "count", "lower"),
        ("sparse_direct.analyze.calls", "count", "lower"),
        ("sparse_direct.analyze.s", "s", "lower"),
        ("sparse_direct.factorize.calls", "count", "lower"),
        ("sparse_direct.factorize.s", "s", "lower"),
        ("sparse_direct.solve.calls", "count", "lower"),
        ("sparse_direct.solve.s", "s", "lower"),
    ]
    metrics += [(f"sparse_direct.factor_nnz.{n}", "count", "lower")
                for n in PATTERN_SIZES]
    for stage in SOLVE_STAGES:
        metrics += [(f"solvers.{stage}.s.{v}", "s", "lower")
                    for v in SOLVE_VARIANTS]
    metrics += [(f"solvers.solve_s.{v}", "s", "lower")
                for v in SOLVE_VARIANTS]
    metrics += [(f"solvers.residual_max.{v}", "1", "lower")
                for v in SOLVE_VARIANTS]
    metrics += [
        ("solvers.fd_thread_speedup", "ratio", "higher"),
        ("solvers.fallbacks", "count", "lower"),
        ("solvers.kappa2", "1", "lower"),
        ("solvers.min_re_lambda", "1", "higher"),
        ("experiments.run_eigstudy.s", "s", "lower"),
        ("experiments.run_convergence.s", "s", "lower"),
        ("experiments.assemble_problem.s", "s", "lower"),
    ]
    metrics += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    metrics += [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return tuple(metrics)


# (name, unit, better) of every metric a traced run reports; a metric
# whose layer does not run in a workload reads 0 there.
PER_LAYER = _per_layer()


class Tracer:
    """In-memory span recorder, safe to use from worker threads.

    A span opened on a thread with no open span of its own takes the
    innermost open span of the main thread as parent, so the spatial
    solves of fd's worker pool hang under the ``solve`` call that
    started them.
    """

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else None
        with self._lock:
            span_id = next(self._ids)
        record = {"id": span_id, "parent": parent, "name": name,
                  "phase": self.phase, "start": time.perf_counter(),
                  "attrs": attrs}
        stack.append(span_id)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()
            with self._lock:
                self.spans.append(record)

    def wrap(self, name, fn, describe=None):
        """``fn`` recording one span per call; ``describe(args, kwargs,
        result)`` adds attributes to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if describe is not None:
                    record["attrs"].update(describe(args, kwargs, result))
                return result

        return traced


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _describe_temporal(args, kwargs, result):
    mesh = _arg(args, kwargs, 0, "mesh")
    key = hashlib.sha1(mesh.nodes.tobytes()
                       + str(result.j_max).encode()).hexdigest()
    return {"n_t": mesh.n_cells, "j_max": result.j_max, "mesh_key": key}


def _describe_analyze(args, kwargs, result):
    return {"n": int(result.n), "factor_nnz": int(result.factor_nnz)}


def _solve_label(variant, threads):
    return variant if variant != "fd" or threads == 1 else f"fd-t{threads}"


def _describe_solve(args, kwargs, result):
    variant = _arg(args, kwargs, 1, "variant")
    threads = _arg(args, kwargs, 2, "threads", 1)
    report = result[1]
    return {"variant": _solve_label(variant, threads), "n_t": int(report.n_t),
            "pencil": report.t_decompose,
            "transform_in": report.t_transform_in,
            "sweep": report.t_spatial,
            "transform_out": report.t_transform_out,
            "t_total": report.t_total, "residual": report.residual,
            "fallback": report.fallback, "kappa2": report.kappa2,
            "min_re_lambda": report.min_re_lambda}


def _describe_eig(args, kwargs, result):
    return {"n_t": int(result["n_t"]), "kappa2": result["kappa2"],
            "min_re_lambda": result["min_re_lambda"]}


def _describe_problem(args, kwargs, result):
    return {"level": int(result.level), "dof": int(result.system.dof)}


def _traced_error_norms(tracer, fn):
    """error_norms whose exact-field callables are traced as well."""
    wrap = tracer.wrap

    def error_norms(coeffs, mesh_x, mesh_t, u, grad, dt, **kwargs):
        return fn(coeffs, mesh_x, mesh_t,
                  wrap("manufactured.exact_u", u),
                  wrap("manufactured.exact_grad", grad),
                  wrap("manufactured.exact_dt", dt), **kwargs)

    return functools.wraps(fn)(error_norms)


def _targets(kronheat):
    """(function, span name, describe) for every traced public call."""
    e, sd = kronheat.experiments, kronheat.sparse_direct
    return [
        (e.build_lshape_mesh, "lshape.build", None),
        (e.assemble_p1, "fem.assemble_p1", None),
        (e.project_rhs, "fem.project_rhs", None),
        (e.dirichlet_lift, "fem.dirichlet_lift", None),
        (e.assemble_global_rhs, "fem.assemble_global_rhs", None),
        (e.error_norms, "fem.error_norms", None),
        (e.assemble_temporal_operators, "temporal.assemble",
         _describe_temporal),
        (e.solve, "solvers.solve", _describe_solve),
        (e.eig_study, "solvers.eig_study", _describe_eig),
        (e.assemble_problem, "experiments.assemble_problem",
         _describe_problem),
        (e.run_convergence, "experiments.run_convergence", None),
        (e.run_eigstudy, "experiments.run_eigstudy", None),
        (sd.analyze, "sparse_direct.analyze", _describe_analyze),
        (sd.factorize, "sparse_direct.factorize", None),
        (sd.solve, "sparse_direct.solve", None),
    ]


@contextlib.contextmanager
def installed(tracer, kronheat):
    """Route every traced call through ``tracer`` until exit.

    Each function is replaced under every name that refers to it in the
    package and its modules, so calls from the benchmark and calls
    between kronheat's own modules are traced alike.
    """
    modules = [kronheat] + [
        importlib.import_module(f"{kronheat.__name__}.{name}") for name in
        ("experiments", "solvers", "fem", "temporal", "lshape",
         "sparse_direct", "manufactured")]
    saved = []
    try:
        for fn, name, describe in _targets(kronheat):
            inner = fn
            if name == "fem.error_norms":
                inner = _traced_error_norms(tracer, fn)
            wrapper = tracer.wrap(name, inner, describe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], ())) for s in spans}


def layer_metrics(spans, rounds):
    """Per-layer metrics of one traced run.

    Set-up spans count once; spans of the timed rounds are averaged over
    ``rounds``, so every figure is per run of set-up plus one round and
    counts repeat exactly whatever the round count.
    """
    def add(name, s, value):
        out[name] += value if s["phase"] == "setup" else value / rounds

    own = self_times(spans)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        layer = name.split(".", 1)[0]
        add(f"{layer}.self_s", s, own[s["id"]])
        if layer == "manufactured":
            add("manufactured.calls", s, 1)
            add("manufactured.s", s, dur)
        if f"{name}.s" in out:
            add(f"{name}.s", s, dur)
        if f"{name}.calls" in out:
            add(f"{name}.calls", s, 1)
        if name == "fem.error_norms":
            add("fem.error_norms.self_s", s, own[s["id"]])
        if name == "sparse_direct.analyze":
            nnz = f"sparse_direct.factor_nnz.{s['attrs']['n']}"
            if nnz in out:
                out[nnz] = max(out[nnz], s["attrs"]["factor_nnz"])

    temporal = [s for s in spans if s["name"] == "temporal.assemble"]
    for s in temporal:
        add("temporal.terms", s,
            s["attrs"]["n_t"] * (s["attrs"]["j_max"] + 1))
    out["temporal.distinct_meshes"] = len(
        {s["attrs"]["mesh_key"] for s in temporal})
    if temporal:
        out["temporal.reuse_ratio"] = (out["temporal.distinct_meshes"]
                                       / out["temporal.assemble.calls"])

    solves = [s for s in spans if s["name"] == "solvers.solve"]
    for v in SOLVE_VARIANTS:
        mine = [s for s in solves if s["attrs"]["variant"] == v]
        for s in mine:
            a = s["attrs"]
            for stage in SOLVE_STAGES[:-1]:
                add(f"solvers.{stage}.s.{v}", s, a[stage])
            add(f"solvers.residual.s.{v}", s,
                (s["end"] - s["start"]) - a["t_total"])
            add("solvers.fallbacks", s, 1 if a["fallback"] else 0)
        if mine:
            out[f"solvers.solve_s.{v}"] = statistics.median(
                s["end"] - s["start"] for s in mine)
            out[f"solvers.residual_max.{v}"] = max(
                s["attrs"]["residual"] for s in mine)
    if out["solvers.sweep.s.fd-t2"] > 0.0:
        out["solvers.fd_thread_speedup"] = (out["solvers.sweep.s.fd"]
                                            / out["solvers.sweep.s.fd-t2"])

    # pencil statistics at the finest time mesh of the run, from the fd
    # pencil (eigstudy rows or fd solves)
    stats = [s for s in spans
             if s["name"] == "solvers.eig_study"
             or (s["name"] == "solvers.solve"
                 and s["attrs"]["variant"].startswith("fd")
                 and not s["attrs"]["fallback"])]
    if stats:
        finest = max(stats, key=lambda s: s["attrs"]["n_t"])["attrs"]
        out["solvers.kappa2"] = finest["kappa2"]
        out["solvers.min_re_lambda"] = finest["min_re_lambda"]

    out["trace.spans"] = float(len(spans))
    return out


def dof_per_level(spans):
    """{level: dof} of every assembled problem."""
    return {s["attrs"]["level"]: s["attrs"]["dof"] for s in spans
            if s["name"] == "experiments.assemble_problem"}
