"""The benchmark's workloads and the checks on their outputs.

Each workload has ``setup()`` (untimed, once per process), ``prepare(rng)``
(untimed inputs of one round), ``run(inputs)`` (one timed round) and
``check(inputs, outputs)``, which returns a ``Tally`` of attempted and
failed operations.  An operation is one eigstudy row, one convergence row
or one solve; it fails if it raised or if its output fails the check.
"""

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXPECTED = Path(__file__).resolve().parent / "expected"

# Published spectral table (N_t -> min Re lambda, kappa_2) and the
# relative bounds of acceptance criterion 1.
EIG_REFERENCE = {
    4: (1.514e-2, 9.576e0),
    8: (4.991e-3, 7.678e1),
    16: (1.727e-3, 1.948e3),
    32: (5.529e-4, 3.816e4),
    64: (1.735e-4, 6.488e5),
}
EIG_LAMBDA_TOL = 0.01
EIG_KAPPA_TOL = 0.05

# sweep-l4 thresholds: relative residuals per variant, bs-real against
# bs-complex, and fd against both (compare_solvers' level-4 threshold)
RESIDUAL_TOL = {"bs-real": 1e-9, "bs-complex": 1e-9, "fd": 1e-6,
                "fd-t2": 1e-6}
BS_AGREE_TOL = 1e-10
FD_AGREE_TOL = 1e-6


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes


def _attempt(fn, *args, **kwargs):
    """fn's result, or the exception it raised (traceback to stderr)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure counts against fail_ratio
        traceback.print_exc(file=sys.stderr)
        return exc


def expected_rows(filename):
    """Data rows of a committed CLI printout, grouped by '# name' line."""
    groups, current = {}, None
    for line in (EXPECTED / filename).read_text().splitlines():
        if line.startswith("# "):
            current = line[2:].strip()
        elif line and not line[0].isalpha():
            groups.setdefault(current, []).append(line)
    return groups


def _eig_reference_ok(row):
    ref = EIG_REFERENCE.get(row.n_t)
    if ref is None:
        return True
    lam, kap = ref
    return (abs(row.min_re_lambda - lam) <= EIG_LAMBDA_TOL * abs(lam)
            and abs(row.kappa2 - kap) <= EIG_KAPPA_TOL * abs(kap))


def check_eig_rows(experiments, rows, expected):
    """One operation per expected row: printed fields equal this
    commit's printout and the row is within criterion 1's bounds."""
    tally = Tally()
    if isinstance(rows, Exception):
        for line in expected:
            tally.record(False, f"eigstudy raised: {rows!r} ({line})")
        return tally
    for i, line in enumerate(expected):
        if i >= len(rows):
            tally.record(False, f"eigstudy row missing: {line}")
            continue
        got = experiments.format_eig_row(rows[i])
        tally.record(got == line and _eig_reference_ok(rows[i]),
                     f"eigstudy row {got} != {line} or outside the "
                     "published bounds")
    return tally


def check_convergence_tables(experiments, tables, expected):
    """One operation per expected row; every printed field but the
    timing column must equal this commit's printout."""
    tally = Tally()
    for variant, lines in expected.items():
        rows = [] if isinstance(tables, Exception) else tables.get(variant,
                                                                    [])
        for i, line in enumerate(lines):
            want = line.rsplit(",", 1)[0]
            if i >= len(rows):
                tally.record(False, f"{variant} convergence row missing "
                             f"({tables!r}): {line}")
                continue
            got = experiments.format_convergence_row(rows[i])
            tally.record(got.rsplit(",", 1)[0] == want,
                         f"{variant} convergence row {got} != {line}")
    return tally


class Reproduce:
    """``run_eigstudy`` then ``run_convergence`` over all three variants:
    the paper's tables as users reproduce them."""

    def __init__(self, kronheat, max_level=3):
        self.e = kronheat.experiments
        self.config = self.e.ExperimentConfig(max_level=max_level)
        self.eig_expected = expected_rows(
            "eigstudy-max-level-4.txt")[None][:max_level + 1]
        self.conv_expected = {
            v: rows[:max_level + 1] for v, rows in
            expected_rows("convergence-max-level-3.txt").items()}

    def setup(self):
        pass

    def prepare(self, rng):
        return None

    def run(self, inputs):
        return (_attempt(self.e.run_eigstudy, self.config),
                _attempt(self.e.run_convergence, self.config))

    def check(self, inputs, outputs):
        eig, tables = outputs
        tally = check_eig_rows(self.e, eig, self.eig_expected)
        tally.merge(check_convergence_tables(self.e, tables,
                                             self.conv_expected))
        return tally


class Temporal:
    """``run_eigstudy`` alone: temporal series assembly plus the fd
    pencil statistics, no spatial work."""

    def __init__(self, kronheat, max_level=4):
        self.e = kronheat.experiments
        self.config = self.e.ExperimentConfig(max_level=max_level)
        self.expected = expected_rows(
            "eigstudy-max-level-4.txt")[None][:max_level + 1]

    def setup(self):
        pass

    def prepare(self, rng):
        return None

    def run(self, inputs):
        return _attempt(self.e.run_eigstudy, self.config)

    def check(self, inputs, outputs):
        return check_eig_rows(self.e, outputs, self.expected)


SWEEP = (("bs-real", "bs-real", 1), ("bs-complex", "bs-complex", 1),
         ("fd", "fd", 1), ("fd-t2", "fd", 2))


def relative_residual(system, coefficients):
    """||K u - f|| / ||f|| with K = A_t (x) M_x + M_t (x) A_x, applied
    independently of the solvers' own residual."""
    U = coefficients.reshape(system.m_x, system.n_t, order="F")
    KU = (system.spatial.M_II @ U @ system.temporal.A.T
          + system.spatial.A_II @ U @ system.temporal.M.T)
    F = system.rhs_matrix()
    return float(np.linalg.norm(KU - F) / np.linalg.norm(F))


def _rel_diff(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class Sweep:
    """One assembled level, then interleaved solves of every variant on
    seeded random right-hand sides."""

    def __init__(self, kronheat, level=4):
        self.kh = kronheat
        self.level = level
        self.solve_seconds = {label: [] for label, _, _ in SWEEP}
        self.problem = None

    def setup(self):
        self.problem = self.kh.experiments.assemble_problem(self.level)

    def prepare(self, rng):
        p = self.problem.system
        return self.kh.solvers.SpaceTimeSystem(
            temporal=p.temporal, spatial=p.spatial,
            rhs=rng.standard_normal(p.dof))

    def run(self, system):
        out = {}
        for label, variant, threads in SWEEP:
            t0 = time.perf_counter()
            out[label] = _attempt(self.kh.solvers.solve, system, variant,
                                  threads=threads)
            self.solve_seconds[label].append(time.perf_counter() - t0)
        return out

    def check(self, system, outputs):
        tally = Tally()
        coeffs, ok = {}, {}
        for label, _, _ in SWEEP:
            result = outputs[label]
            if isinstance(result, Exception):
                ok[label] = False
                tally.notes.append(f"{label} raised: {result!r}")
                continue
            coeffs[label] = result[0].coefficients
            res = relative_residual(system, coeffs[label])
            ok[label] = res <= RESIDUAL_TOL[label]
            if not ok[label]:
                tally.notes.append(f"{label} residual {res:.3e} above "
                                   f"{RESIDUAL_TOL[label]:.0e}")
        pairs = [("bs-real", "bs-complex", BS_AGREE_TOL)]
        pairs += [(fd, bs, FD_AGREE_TOL) for fd in ("fd", "fd-t2")
                  for bs in ("bs-complex", "bs-real")]
        for a, b, tol in pairs:
            if a in coeffs and b in coeffs:
                diff = _rel_diff(coeffs[a], coeffs[b])
                if diff > tol:
                    ok[a] = False
                    tally.notes.append(f"{a} differs from {b} by "
                                       f"{diff:.3e} > {tol:.0e}")
        for label, _, _ in SWEEP:
            tally.attempted += 1
            tally.failed += not ok[label]
        return tally

    def extra_metrics(self):
        """Median wall time of one solve() call per variant."""
        return {f"solve_s.{label}": (statistics.median(times), "s")
                for label, times in self.solve_seconds.items() if times}


WORKLOADS = {
    "reproduce": Reproduce,
    "sweep-l4": Sweep,
    "temporal": Temporal,
}
