#!/usr/bin/env python3
"""nordenlab benchmark: time to a certified report, by workload and by layer.

Run from the repository root (stdlib only, nothing to install):

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 55 --trace 0

Load comes from this one process, with no threads, in a closed loop with
one caller: each operation starts when the previous one has ended.  A
cycle first builds fresh inputs (timed as ``setup_s``), then runs every
operation of the workload once, back to back, and checks the outputs
when the last one has ended.  Cycles repeat until ``--seconds`` have
passed; the first cycle always completes.  Each timing metric is the
median of its samples, summed over the inputs or subcommands it covers,
in reference seconds (see calib.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
every stage of the pipeline as a separate call with a span around it and
reports the per-layer metrics; the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json`` at the end.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
TABLE1_SPEC = "tests/data/table1.spec"
WORKLOADS = ("table1", "filiform")
#: Extra set-ups timed before the first cycle, so setup_s has a median of
#: several samples even when only a few cycles fit in a run.
EXTRA_SETUPS = 4
#: Poly operations per micro-benchmark sample and operand kind.
MICRO_OPS = 4000
#: Operands taken from each input's connection and curvature tensor.
MICRO_OPERANDS = 128
#: Numeric twins per cycle, each at its own point: twins are cheap, and
#: more points per run make eval_report_s depend less on the seed.
TWINS_PER_CYCLE = 2
#: Runs of each `check` and `classify` call per cycle.  They are short
#: (about 0.15 s), so one sample per cycle leaves their medians noisy.
VERDICT_REPEATS = 5
CLI_TIMEOUT_S = 120
PASSES_FILE = OUT / "cli-passes.txt"

#: Timings are in reference seconds (``ref_s``, see calib.py).
#: ``setup_s`` is scaled the same way; its unit is written ``s`` because the
#: benchmark contract fixes it.
END_TO_END = {
    "setup_s": "s",
    "report_s": "ref_s",
    "eval_report_s": "ref_s",
    "sheared_report_s": "ref_s",
    "regression_s": "ref_s",
    "cli_verdict_s": "ref_s",
    "cli_report_s": "ref_s",
    "peak_rss_mb": "MB",
}

#: Stages compute_report runs, in its order.  The traced run calls each
#: one directly; compute_report minus their sum is pipeline overhead.
REPORT_STAGES = (
    "norden.tensor_F", "norden.classify", "curvature.levi_civita",
    "curvature.curvature_R", "curvature.ricci_and_scalar",
    "curvature.square_norm_nabla_J", "curvature.nabla_R",
    "curvature.is_locally_symmetric", "curvature.sectional",
    "lie.killing_form",
)
CLI_LAYERS = ("check", "classify", "curvature", "report", "report_csv",
              "report_json", "report_eval", "family", "emit_spec")
SPAN_LAYERS = REPORT_STAGES + (
    "norden.check_invariant_metric", "lie.check_jacobi",
    "curvature.curvature_invariant_formula", "linalg.determinant",
    "family.build_table1", "family.check_eq22", "specfile.parse_spec",
    "specfile.emit_spec", "report.compute_report", "report.render",
    "cli.python",
) + tuple(f"cli.{layer}" for layer in CLI_LAYERS)

PER_LAYER = {f"{name}_s": "s" for name in SPAN_LAYERS}
PER_LAYER.update({
    "cli.import_s": "s",
    "report.overhead_s": "s",
    "trace.overhead_s": "s",
    "curvature.gamma_nnz": "count",
    "curvature.R_nnz": "count",
    "curvature.nabla_R_nnz": "count",
    "curvature.nabla_R_entries": "count",
    "curvature.nabla_R_useful": "ratio",
    "norden.F_route_koszul": "count",
    "poly.max_terms": "count",
    "poly.max_degree": "count",
})
for _op in ("add", "mul", "init", "evaluate"):
    for _kind in ("sym", "num"):
        PER_LAYER[f"poly.{_op}_us.{_kind}"] = "us"


@dataclass(frozen=True)
class CliStep:
    """One CLI invocation and what its output must be.

    ``twin_of`` names the golden symbolic report that a ``--eval`` JSON
    output must match once evaluated; otherwise stdout must equal the
    golden captured for ``key``.
    """

    metric: str
    layer: str
    argv: tuple[str, ...]
    code: int
    twin_of: str | None = None

    @property
    def key(self) -> str:
        if self.twin_of is None:
            return " ".join(self.argv)
        return " ".join(self.argv[:-1]) + " POINT"


def cli_steps(workload: str, eval_arg: str) -> list[CliStep]:
    """Every subcommand, on the workload's inputs.  ``family --table1``
    takes no input, so it is the same call on every workload."""
    import gen

    if workload == "table1":
        inputs = [("--family", "table1"), (TABLE1_SPEC,)]
        main, check_code, twin = ("--family", "table1"), 0, "table1"
    else:
        name = f"filiform{gen.FILIFORM_SMALL_DIM}"
        inputs = [(f".bench_out/{name}.spec",)]
        # The chain's metric is not invariant: `check` must report it (1).
        main, check_code, twin = inputs[0], 1, name
    steps = [CliStep("cli_verdict_s", "check", ("check", *i), check_code)
             for i in inputs]
    steps += [CliStep("cli_verdict_s", "classify", ("classify", *i), 0)
              for i in inputs]
    steps += [
        CliStep("cli_report_s", "curvature", ("curvature", *main), 0),
        CliStep("cli_report_s", "report", ("report", *main), 0),
        CliStep("cli_report_s", "report_csv",
                ("report", *main, "--format", "csv"), 0),
        CliStep("cli_report_s", "report_json",
                ("report", *main, "--format", "json"), 0),
        CliStep("cli_report_s", "report_eval",
                ("report", *main, "--format", "json", "--eval", eval_arg),
                0, twin),
        CliStep("cli_report_s", "family", ("family", "--table1"), 0),
        CliStep("cli_report_s", "emit_spec",
                ("family", "--table1", "--emit-spec"), 0),
    ]
    return steps


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")


def run_cli(argv, passes_file: Path | None = None
            ) -> tuple[float, subprocess.CompletedProcess]:
    """One CLI call, through clirun.py; with ``passes_file``, the call runs
    calibration passes and writes them there (see clirun.py)."""
    env = cli_env()
    if passes_file is not None:
        env["PERFBENCH_PASSES_FILE"] = str(passes_file)
        passes_file.unlink(missing_ok=True)
    start = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "clirun.py"), *argv],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    return perf_counter() - start, proc


def fresh_import():
    """Execute the package's modules again, as a new process would, then
    put the original modules back so existing objects stay compatible."""
    def ours():
        return [k for k in sys.modules
                if k == "nordenlab" or k.startswith("nordenlab.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module("nordenlab.cli")
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


@dataclass
class Inputs:
    """Fresh algebras for one cycle, each used by exactly one operation."""

    report: dict
    eval: list  # (input name, twin, point)
    sheared: dict
    regression: object


class Table1Workload:
    """The bundled 3-parameter family, its numeric twins and a sheared copy."""

    name = "table1"
    params = ("l1", "l2", "l3")
    # build_table1 validates, which memoises check_invariant_metric.
    prevalidated = True

    def __init__(self, rng):
        import gen
        from nordenlab import build_table1

        self.points = gen.eval_points(rng, self.params)
        self.sheared_text = gen.sheared_spec(
            build_table1().algebra, gen.basis_change(rng, 6))
        self.spec_paths = [ROOT / TABLE1_SPEC]

    def setup(self, points) -> Inputs:
        from nordenlab import build_table1, parse_spec_text

        family = build_table1()
        return Inputs(
            report={"table1": family.algebra},
            eval=[("table1", family.evaluate(p), p) for p in points],
            sheared={"table1": parse_spec_text(
                self.sheared_text).to_algebra()},
            regression=build_table1(),
        )


class FiliformWorkload:
    """The filiform chain sweep.  Twins and the sheared copy use only its
    smallest member, so that a run still fits enough cycles."""

    name = "filiform"
    params = ("t",)
    prevalidated = False

    def __init__(self, rng):
        import gen
        from nordenlab import parse_spec_text

        self.points = gen.eval_points(rng, self.params)
        self.texts = write_filiform_specs()
        self.small = f"filiform{gen.FILIFORM_SMALL_DIM}"
        self.sheared_text = gen.sheared_spec(
            parse_spec_text(self.texts[self.small]).to_algebra(),
            gen.basis_change(rng, gen.FILIFORM_SMALL_DIM))
        self.spec_paths = [OUT / f"{name}.spec" for name in self.texts]

    def setup(self, points) -> Inputs:
        from nordenlab import build_table1, parse_spec_text

        algebras = {name: parse_spec_text(text).to_algebra()
                    for name, text in self.texts.items()}
        small = algebras[self.small]
        return Inputs(
            report=algebras,
            eval=[(self.small, small.evaluate(p), p) for p in points],
            sheared={self.small: parse_spec_text(
                self.sheared_text).to_algebra()},
            regression=build_table1(),
        )


def write_filiform_specs() -> dict[str, str]:
    import gen

    OUT.mkdir(exist_ok=True)
    texts = {}
    for dim in gen.FILIFORM_DIMS:
        name = f"filiform{dim}"
        texts[name] = gen.filiform_spec(dim)
        (OUT / f"{name}.spec").write_text(texts[name], encoding="utf-8")
    return texts


def report_texts(doc) -> tuple[str, str, str]:
    return doc.to_text(), doc.to_csv(), doc.to_json()


def nonzero(values) -> list:
    return [v for v in values if v.terms]


def flat3(grid):
    return [v for plane in grid for row in plane for v in row]


def flat4(grid):
    return [v for block in grid for v in flat3(block)]


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        from tracing import Tracer

        rng = random.Random(seed)
        self.wl = (Table1Workload if workload == "table1"
                   else FiliformWorkload)(rng)
        self.seed = seed
        self.trace = trace
        self.tracer = Tracer(trace)
        self.untraced = Tracer(False)
        self.goldens = json.loads(GOLDEN.read_text(encoding="utf-8"))
        # Timings scaled to the reference speed, and as measured.
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.raw: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.setup_samples: list[float] = []
        self.raw_setup: list[float] = []
        self.calibrations: list[float] = []
        # Passes taken during the running operation.
        self.during: list[float] = []
        self.sampler = calib.Sampler()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.complete: list[int] = []
        self.cycles = 0
        self.operands: dict[str, tuple] = {}

    # -- the closed loop ---------------------------------------------------

    def calibrate(self) -> float:
        """Time the calibration loop (untraced runs only)."""
        if self.trace:
            return calib.REFERENCE_S
        self.calibrations.append(calib.seconds())
        return self.calibrations[-1]

    def add_passes(self, passes: list[float]):
        self.during += passes
        self.calibrations += passes

    def timed(self, call):
        """Run an in-process operation, with calibration passes during it
        (untraced runs only); return its time without them, and its
        result."""
        if not self.trace:
            self.sampler.arm()
        start = perf_counter()
        try:
            result = call()
        finally:
            self.sampler.disarm()
        elapsed = perf_counter() - start - self.sampler.paused
        self.add_passes(self.sampler.passes)
        return elapsed, result

    def speed(self, before: float, after: float) -> float:
        """Reference time over the mean time of the calibration passes
        just before, during and just after a timed operation."""
        passes = [before, *self.during, after]
        self.during = []
        return calib.REFERENCE_S / statistics.fmean(passes)

    def build_inputs(self, points) -> Inputs:
        fresh_import()
        return self.wl.setup(points)

    def timed_setup(self, points) -> Inputs:
        before = self.calibrate()
        elapsed, inputs = self.timed(partial(self.build_inputs, points))
        self.raw_setup.append(elapsed)
        self.setup_samples.append(
            elapsed * self.speed(before, self.calibrate()))
        return inputs

    def run(self, seconds: float):
        for i in range(EXTRA_SETUPS):
            self.timed_setup(self.cycle_points(i))
        deadline = perf_counter() + seconds
        cycle = 0
        while True:
            points = self.cycle_points(cycle)
            self.tracer.cycle = cycle
            inputs = self.timed_setup(points)
            steps = (self.traced_steps if self.trace
                     else self.steps)(inputs, points[0])
            # The first cycle always completes.
            if self.run_steps(steps, deadline if cycle else None):
                self.complete.append(cycle)
            cycle += 1
            self.cycles = cycle
            if perf_counter() >= deadline:
                return

    def cycle_points(self, cycle: int) -> list:
        points = self.wl.points
        return [points[(TWINS_PER_CYCLE * cycle + k) % len(points)]
                for k in range(TWINS_PER_CYCLE)]

    def run_steps(self, steps, deadline) -> bool:
        """Run a cycle's operations back to back, then check their outputs.

        A calibration pass runs between every two operations, so each one
        is scaled by the passes right before and after it, and by those
        that ran during it (see ``timed`` and clirun.py).  ``op`` returns
        its time and either the problem with its output (None if there is
        none) or a callable that finds it; the callables run after the
        last operation.  Returns False when the deadline cut the cycle.
        """
        done = []
        finished = True
        before = self.calibrate()
        for metric, key, op in steps:
            if deadline is not None and perf_counter() >= deadline:
                finished = False
                break
            try:
                elapsed, problem = op()
            except Exception as exc:  # noqa: BLE001 - count it, go on
                elapsed, problem = None, f"{key}: {type(exc).__name__}: {exc}"
            after = self.calibrate()
            done.append((metric, key, elapsed, problem,
                         self.speed(before, after)))
            before = after
        for metric, key, elapsed, problem, speed in done:
            self.attempted += 1
            try:
                if callable(problem):
                    problem = problem()
            except Exception as exc:  # noqa: BLE001 - count it, go on
                problem = f"{key}: {type(exc).__name__}: {exc}"
            if problem:
                self.failed += 1
                self.problems.append(problem)
            elif metric:
                self.raw[(metric, key)].append(elapsed)
                self.samples[(metric, key)].append(elapsed * speed)
        return finished

    # -- untraced operations -----------------------------------------------

    def steps(self, inputs: Inputs, point):
        import gen

        steps = []
        for name, a in inputs.report.items():
            steps.append(("report_s", name, partial(self.report_op, name, a)))
        for name, a, at in inputs.eval:
            steps.append(("eval_report_s", name,
                          partial(self.twin_op, name, a, at)))
        for name, a in inputs.sheared.items():
            steps.append(("sheared_report_s", name,
                          partial(self.sheared_op, name, a, point)))
        steps.append(("regression_s", "table1",
                      partial(self.regression_op, inputs.regression)))
        for step in cli_steps(self.wl.name, gen.eval_argument(point)):
            # `family --table1` takes no input: table1 times it for both.
            if step.argv[0] == "family" and self.wl.name != "table1":
                continue
            repeats = VERDICT_REPEATS if step.metric == "cli_verdict_s" else 1
            steps += [(step.metric, step.key, partial(self.cli_op, step))
                      ] * repeats
        return steps

    def timed_report(self, a):
        from nordenlab.report import document_for

        return self.timed(lambda: report_texts(document_for(a)))

    def report_op(self, name, a):
        import oracle

        elapsed, texts = self.timed_report(a)
        return elapsed, oracle.same_texts(name, texts,
                                          self.goldens["reports"][name])

    def twin_op(self, name, a, point):
        import oracle

        elapsed, texts = self.timed_report(a)
        return elapsed, partial(
            oracle.twin_matches, name, self.goldens["reports"][name]["json"],
            texts[2], self.wl.params, point)

    def sheared_op(self, name, a, point):
        import oracle

        elapsed, texts = self.timed_report(a)
        return elapsed, partial(
            oracle.sheared_matches, name,
            self.goldens["reports"][name]["json"], texts[2], self.wl.params,
            point)

    def regression_op(self, family):
        from nordenlab import regression_report

        elapsed, rep = self.timed(partial(regression_report, family))
        if not rep.ok:
            return elapsed, f"regression: {len(rep.failures())} failed checks"
        return elapsed, None

    def cli_op(self, step: CliStep):
        import oracle

        with self.tracer.span(f"cli.{step.layer}"):
            elapsed, proc = run_cli(step.argv,
                                    None if self.trace else PASSES_FILE)
        if not self.trace:
            paused, *passes = map(float, PASSES_FILE.read_text().split())
            elapsed -= paused
            self.add_passes(passes)
        out = proc.stdout.decode("utf-8")
        if proc.returncode != step.code:
            return elapsed, (f"{step.key}: exit {proc.returncode}, "
                             f"expected {step.code}")
        if step.twin_of is not None:
            point = dict(pair.split("=") for pair in step.argv[-1].split(","))
            return elapsed, partial(
                oracle.twin_matches, step.key,
                self.goldens["reports"][step.twin_of]["json"], out,
                self.wl.params, point)
        if out != self.goldens["cli"][step.key]:
            return elapsed, f"{step.key}: stdout differs from golden"
        return elapsed, None

    # -- traced operations -------------------------------------------------

    def traced_steps(self, inputs: Inputs, point):
        import gen

        steps = [(None, "setup layers", self.traced_setup_layers)]
        for name, a in inputs.report.items():
            steps.append((None, name, partial(self.traced_report, name, a)))
        steps.append((None, "poly", self.poly_micro))
        steps.append((None, "python", partial(self.probe, "cli.python",
                                              "pass")))
        steps.append((None, "python import",
                      partial(self.probe, "cli.python_import",
                              "import nordenlab.cli")))
        for step in cli_steps(self.wl.name, gen.eval_argument(point)):
            steps.append((None, step.key, partial(self.cli_op, step)))
        return steps

    def traced_setup_layers(self):
        from nordenlab import build_table1, emit_spec, parse_spec

        tr = self.tracer
        with tr.span("family.build_table1"):
            build_table1()
        for path in self.wl.spec_paths:
            with tr.span("specfile.parse_spec"):
                a = parse_spec(path)
            with tr.span("specfile.emit_spec"):
                text = emit_spec(a)
            if emit_spec(parse_spec(path)) != text:
                return 0.0, f"{path.name}: emit_spec is not deterministic"
        return 0.0, None

    def traced_report(self, name, a):
        import oracle
        from nordenlab.report import ReportDocument, compute_report

        tr = self.tracer
        with tr.span("report.compute_report"):
            rep = compute_report(a)
        with tr.span("report.render"):
            texts = report_texts(ReportDocument.from_report(rep))
        problem = oracle.same_texts(name, texts,
                                    self.goldens["reports"][name])
        # Tracing overhead: the same stage calls with spans on and off,
        # in alternating order.
        total = {}
        order = (True, False) if tr.cycle % 2 == 0 else (False, True)
        for traced in order:
            start = perf_counter()
            result = self.replay(a, tr if traced else self.untraced)
            total[traced] = perf_counter() - start
            if traced:
                staged = result
        tr.add("trace.overhead_s", total[True] - total[False])
        self.count(staged)
        if name not in self.operands:
            self.collect_operands(name, a, staged)
        return 0.0, problem

    def replay(self, a0, tr):
        """Every stage of compute_report, plus the checks and routes it
        skips, each as its own call on a fresh algebra (nothing memoised)."""
        from nordenlab import (AlmostNordenAlgebra, check_eq22,
                               coordinate_plane, curvature_invariant_formula,
                               curvature_R, is_locally_symmetric, levi_civita,
                               nabla_R, plane_type, ricci_and_scalar,
                               sectional_curvature, square_norm_nabla_J)
        from nordenlab.errors import DegeneratePlaneError

        a = AlmostNordenAlgebra(a0.algebra, a0.g, a0.J)
        with tr.span("lie.check_jacobi"):
            a.algebra.check_jacobi()
        with tr.span("norden.check_invariant_metric"):
            invariant = a.check_invariant_metric()
        with tr.span("norden.tensor_F"):
            F = a.tensor_F()
        with tr.span("norden.classify"):
            a.classify(F)
            a.lie_form(F)
        with tr.span("curvature.levi_civita"):
            conn = levi_civita(a)
        with tr.span("curvature.curvature_R"):
            R = curvature_R(a, conn)
        with tr.span("curvature.ricci_and_scalar"):
            ricci_and_scalar(a, R)
        with tr.span("curvature.square_norm_nabla_J"):
            square_norm_nabla_J(a, F)
        with tr.span("curvature.nabla_R"):
            nR = nabla_R(a, conn, R)
        with tr.span("curvature.is_locally_symmetric"):
            is_locally_symmetric(nR)
        with tr.span("curvature.sectional"):
            for i in range(1, a.dim + 1):
                for j in range(i + 1, a.dim + 1):
                    plane = coordinate_plane(a.dim, i, j)
                    plane_type(a, plane)
                    try:
                        sectional_curvature(a, R, plane)
                    except DegeneratePlaneError:
                        pass
        with tr.span("lie.killing_form"):
            B = a.algebra.killing_form()
        with tr.span("linalg.determinant"):
            B.determinant()
        with tr.span("curvature.curvature_invariant_formula"):
            curvature_invariant_formula(a)
        with tr.span("family.check_eq22"):
            check_eq22(a)
        return invariant, conn, R, nR

    def count(self, staged):
        invariant, conn, R, nR = staged
        tr = self.tracer
        r_values = flat4(R.components)
        nr_values = [v for block in nR for v in flat4(block)]
        tr.add("curvature.gamma_nnz", len(nonzero(flat3(conn.coeffs))))
        tr.add("curvature.R_nnz", len(nonzero(r_values)))
        tr.add("curvature.nabla_R_nnz", len(nonzero(nr_values)))
        tr.add("curvature.nabla_R_entries", len(nr_values))
        tr.add("norden.F_route_koszul", 0 if invariant.ok else 1)
        # Maxima over the sweep, kept as the per-cycle value.
        for name, value in (
                ("poly.max_terms", max(len(v.terms) for v in r_values)),
                ("poly.max_degree", max(v.total_degree() for v in r_values))):
            current = tr.counts[name][tr.cycle]
            tr.counts[name][tr.cycle] = max(current, value)

    def collect_operands(self, name, a, staged):
        """Γ and R entries of this input and of its numeric twin at the
        run's first point; computed once, outside every timer."""
        from nordenlab import curvature_R, levi_civita

        _, conn, R, _ = staged
        twin = a.evaluate(self.wl.points[0])
        twin_conn = levi_civita(twin)
        twin_R = curvature_R(twin, twin_conn)
        self.operands[name] = {
            "sym": (nonzero(flat3(conn.coeffs))[:MICRO_OPERANDS],
                    nonzero(flat4(R.components))[:MICRO_OPERANDS],
                    self.wl.points[0]),
            "num": (nonzero(flat3(twin_conn.coeffs))[:MICRO_OPERANDS],
                    nonzero(flat4(twin_R.components))[:MICRO_OPERANDS],
                    {}),
        }

    def poly_micro(self):
        """Time Poly add, mul, construction and evaluation, in µs per
        call, on operands pooled over the workload's inputs."""
        from nordenlab import Poly

        for kind in ("sym", "num"):
            gammas, rs = [], []
            for ops in self.operands.values():
                gammas += ops[kind][0]
                rs += ops[kind][1]
            point = next(iter(self.operands.values()))[kind][2]
            gammas = [gammas[i % len(gammas)] for i in range(len(rs))]
            shifted = rs[1:] + rs[:1]
            reps = max(1, MICRO_OPS // len(rs))
            cases = {
                "add": lambda: [p + q for p, q in zip(rs, shifted)],
                "mul": lambda: [p * q for p, q in zip(gammas, rs)],
                "init": lambda: [Poly(p.params, p.terms) for p in rs],
                "evaluate": lambda: [p.evaluate(point) for p in rs],
            }
            for op, call in cases.items():
                start = perf_counter()
                for _ in range(reps):
                    call()
                per_call = (perf_counter() - start) / (reps * len(rs))
                self.tracer.add(f"poly.{op}_us.{kind}", per_call * 1e6)
        return 0.0, None

    def probe(self, span, code):
        with self.tracer.span(span):
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  env=cli_env(), capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        if proc.returncode:
            return 0.0, f"{code!r}: exit {proc.returncode}"
        return 0.0, None

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        metrics = {"setup_s": statistics.median(self.setup_samples)}
        for metric in END_TO_END:
            keys = [k for m, k in self.samples if m == metric]
            if keys:
                metrics[metric] = sum(
                    statistics.median(self.samples[(metric, k)])
                    for k in keys)
        usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = usage / 1024
        return metrics

    def per_layer(self) -> dict[str, float]:
        by_span = self.tracer.self_times()
        counts = self.tracer.counts

        def med(by_cycle):
            return statistics.median(by_cycle.get(c, 0.0)
                                     for c in self.complete)

        def overhead(c):
            stages = REPORT_STAGES
            if not self.wl.prevalidated:
                stages += ("norden.check_invariant_metric",)
            return (by_span["report.compute_report"].get(c, 0.0)
                    - sum(by_span[s].get(c, 0.0) for s in stages))

        metrics = {f"{name}_s": med(by_span[name]) for name in SPAN_LAYERS}
        metrics["cli.import_s"] = (med(by_span["cli.python_import"])
                                   - metrics["cli.python_s"])
        metrics["report.overhead_s"] = statistics.median(
            overhead(c) for c in self.complete)
        for name, unit in PER_LAYER.items():
            if name in counts:
                metrics[name] = med(counts[name])
                if unit == "count":
                    metrics[name] = round(metrics[name])
        metrics["curvature.nabla_R_useful"] = (
            metrics["curvature.nabla_R_nnz"]
            / metrics["curvature.nabla_R_entries"])
        return metrics

    def summary(self, metrics: dict[str, float], units: dict[str, str]):
        print(f"workload {self.wl.name}  seed {self.seed}  "
              f"trace {int(self.trace)}  complete cycles "
              f"{len(self.complete)} of {self.cycles}")
        for name, unit in units.items():
            value = metrics.get(name)
            shown = "missing" if value is None else f"{value:.6g} {unit}"
            detail = ""
            if name == "setup_s":
                detail = (f"as measured {statistics.median(self.raw_setup):.4g}"
                          f" s, median of {len(self.setup_samples)}")
            elif not self.trace and name in metrics and name != "peak_rss_mb":
                keys = [k for m, k in self.samples if m == name]
                raw = sum(statistics.median(self.raw[(name, k)])
                          for k in keys)
                counts = sorted(len(self.samples[(name, k)]) for k in keys)
                detail = (f"as measured {raw:.4g} s; {len(keys)} input(s) "
                          f"or call(s), n={counts[0]}..{counts[-1]} each"
                          + "".join(tail(self.samples[(name, k)])
                                    for k in keys))
            print(f"  {name:34s} {shown:>18s}  {detail}")
        rate = self.failed / self.attempted if self.attempted else 0.0
        print(f"  {'error_rate':34s} {rate:>18.6g}  "
              f"{self.failed} failed of {self.attempted} attempted")
        if self.calibrations:
            print(f"  calibration loop: median "
                  f"{statistics.median(self.calibrations):.4g} s over "
                  f"{len(self.calibrations)} runs; reference "
                  f"{calib.REFERENCE_S} s")
        for problem in self.problems[:10]:
            print(f"  FAIL {problem}")


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return ""
    q = int(100 * (n - 10) / n)
    ordered = sorted(values)
    return f", p{q}={ordered[int(q / 100 * n) - 1]:.4g}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nordenlab" / "__init__.py").is_file():
        print(f"error: no nordenlab sources at {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / TABLE1_SPEC).is_file():
        print(f"error: missing {TABLE1_SPEC}", file=sys.stderr)
        return 2
    # Run on one CPU, CLI children included, so the calibration loop
    # measures the CPU that the timed work runs on.  On the 2-vCPU VM this
    # cut the scatter of scaled samples by a fifth (144 samples pinned,
    # 144 not, alternating).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    importlib.import_module("nordenlab.cli")  # warm imports before timing
    OUT.mkdir(exist_ok=True)

    bench = Bench(args.workload, args.seed, bool(args.trace))
    bench.run(args.seconds)
    if args.trace:
        metrics, units = bench.per_layer(), PER_LAYER
        bench.tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics, units = bench.end_to_end(), END_TO_END
        samples = {"calibration_s": bench.calibrations,
                   "raw setup_s": bench.raw_setup,
                   "setup_s": bench.setup_samples}
        for (m, k), v in bench.samples.items():
            samples[f"raw {m} {k}"] = bench.raw[(m, k)]
            samples[f"{m} {k}"] = v
        (OUT / f"samples-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(samples, indent=1) + "\n", encoding="utf-8")
    bench.summary(metrics, units)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
