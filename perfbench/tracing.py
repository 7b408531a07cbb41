"""Spans around the benchmark's calls into chebbound, and the per-layer probes.

Spans are recorded from the benchmark's own files only: ``Tracer.wrap``
wraps the public functions a workload calls, and the runner opens one span
per operation around them.  Spans stay in memory and are written out when
the run ends.

``layer_metrics`` times each module's public functions on seeded inputs and
returns the per-layer metrics of BENCHMARK.json, printing each with its
call count.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np


class Tracer:
    """In-memory spans: [name, start, end, parent index]; recording only while active."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def summary(self) -> dict:
        """name -> (calls, total s, self s); self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - inner)
        return out

    def table(self) -> str:
        lines = [f"{'span':<40} {'calls':>7} {'total ms':>11} {'self ms':>11} {'mean ms':>10}"]
        for name, (calls, total, own) in sorted(self.summary().items()):
            lines.append(f"{name:<40} {calls:>7} {total * 1e3:>11.1f} {own * 1e3:>11.1f} {total / calls * 1e3:>10.3f}")
        return "\n".join(lines)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "summary": self.summary()}))


# ---------------------------------------------------------------------------
# per-layer probes


def timed(fn, min_seconds: float = 0.05, min_calls: int = 3):
    """(median seconds per call, calls, last result), calling until both minima are met."""
    times = []
    result = None
    while len(times) < min_calls or sum(times) < min_seconds:
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times), result


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class Probe:
    def __init__(self, emit):
        self.metrics: dict = {}
        self.emit = emit

    def put(self, name: str, value: float, unit: str, calls: int | None = None) -> None:
        self.metrics[name] = (value, unit)
        count = "" if calls is None else f"{calls:>6} calls"
        self.emit(f"  {name:<48} {value:>14.6g} {unit:<8} {count}")


def _bounds(p: Probe, cb, rng) -> None:
    for d in (4, 6):
        rho = np.exp(rng.uniform(np.log(1.2), np.log(8.0), d))
        n = rng.integers(2, 41, d)
        inputs = cb.BoundInputs(cb.EllipseRadii(rho), cb.NodeBudget(n), float(rng.uniform(0.5, 4.0)))
        sfx = f".d{d}"
        t, k, report = timed(lambda: cb.bound_combined(inputs))
        p.put("bounds.bound_combined.ms" + sfx, t * 1e3, "ms", k)
        t_a, k, _ = timed(lambda: cb.bound_a(inputs))
        p.put("bounds.bound_a.ms" + sfx, t_a * 1e3, "ms", k)
        t, k, _ = timed(lambda: cb.bound_b(inputs))
        p.put("bounds.bound_b.ms" + sfx, t * 1e3, "ms", k)
        t_s, k, _ = timed(lambda: cb.bound_a_for_sigma(inputs, report.sigma_star))
        p.put("bounds.bound_a_for_sigma.ms" + sfx, t_s * 1e3, "ms", k)
        p.put("bounds.order_search_ratio" + sfx, t_a / t_s, "x")
        t, k, (_, sigma, _) = timed(lambda: cb.recursive_bound_B_min(inputs))
        p.put("bounds.recursive_bound_B_min.ms" + sfx, t * 1e3, "ms", k)
        ordered = cb.BoundInputs(
            cb.EllipseRadii([rho[s] for s in sigma]), cb.NodeBudget([n[s] for s in sigma]), inputs.v_bound
        )
        t, k, _ = timed(lambda: cb.recursive_bound_B(ordered))
        p.put("bounds.recursive_bound_B.ms" + sfx, t * 1e3, "ms", k)
        t, k, _ = timed(lambda: cb.m_upper_bound(inputs))
        p.put("bounds.m_upper_bound.ms" + sfx, t * 1e3, "ms", k)


def _planner(p: Probe, cb, rng) -> None:
    import workloads

    problems = [
        (np.exp(rng.uniform(np.log(1.5), np.log(5.0), 3)), 10.0 ** rng.uniform(-12, -4)) for _ in range(6)
    ]
    for sel in cb.PLAN_SELECTORS:
        times, points = [], 0
        for rho, eps in problems:
            t0 = time.perf_counter()
            plan = cb.plan_nodes(cb.PlanRequest(cb.EllipseRadii(rho), 1.0, eps, sel))
            times.append(time.perf_counter() - t0)
            points += plan.grid_points
        p.put(f"planner.plan_nodes.{sel}.d3.ms", statistics.median(times) * 1e3, "ms", len(times))
        p.put(f"planner.grid_points.{sel}", points, "points")
    for sel in ("COMBINED", "RECURSIVE"):
        times = []
        for rho, eps in workloads.Plan.D4[:2]:
            rho = [r * rng.uniform(0.998, 1.002) for r in rho]
            t0 = time.perf_counter()
            cb.plan_nodes(cb.PlanRequest(cb.EllipseRadii(rho), 1.0, eps, sel))
            times.append(time.perf_counter() - t0)
        p.put(f"planner.plan_nodes.{sel}.d4.ms", statistics.median(times) * 1e3, "ms", len(times))
    radii = cb.EllipseRadii(rng.uniform(1.5, 10.0, 2))
    eps = 10.0 ** rng.uniform(-10, -3)
    t, k, _ = timed(lambda: cb.compare_plans(radii, 1.0, eps))
    p.put("planner.compare_plans.ms", t * 1e3, "ms", k)
    rho, v, eps = rng.uniform(1.1, 10.0), rng.uniform(0.5, 4.0), 10.0 ** rng.uniform(-14, -2)
    t, k, _ = timed(lambda: cb.invert_univariate(rho, v, eps), min_calls=200)
    p.put("planner.invert_univariate.us", t * 1e6, "us", k)


def _interpolation(p: Probe, cb, rng) -> None:
    f = cb.builtin_function("sep-rational-d3")
    first = "scipy.fft" not in sys.modules
    samples = cb.sample_on_grid(f.evaluator, f.domain, cb.NodeBudget((16,) * 3))
    t0 = time.perf_counter()
    cb.compute_coefficients(samples, "dct")
    elapsed = time.perf_counter() - t0
    if not first:
        p.emit("  note: scipy.fft was imported before the first DCT call")
    p.put("interpolation.dct_first_call.ms", elapsed * 1e3, "ms", 1)

    budget = cb.NodeBudget((48,) * 3)
    t, k, _ = timed(lambda: cb.sample_on_grid(f.evaluator, f.domain, budget))
    p.put("interpolation.sample_on_grid.ms", t * 1e3, "ms", k)
    for method in ("direct", "dct"):
        for n in (16, 64, 128):
            samples = cb.sample_on_grid(f.evaluator, f.domain, cb.NodeBudget((n,) * 3))
            t, k, _ = timed(lambda: cb.compute_coefficients(samples, method))
            p.put(f"interpolation.compute_coefficients.{method}.n{n}.ms", t * 1e3, "ms", k)

    interp = cb.interpolate(f.evaluator, f.domain, budget)
    x = rng.uniform(-1.0, 1.0, (256, 3))
    t, k, _ = timed(lambda: cb.evaluate(interp, x), min_seconds=0.5)
    p.put("interpolation.evaluate.us_per_point", t / len(x) * 1e6, "us", k)
    p.put("interpolation.evaluate.peak_mb", peak_mb(lambda: cb.evaluate(interp, x)), "MB", 1)
    computed = len(x) * int(np.prod(budget.grid_shape[:-1])) * 8 / 2**20
    p.put("interpolation.evaluate.computed_mb", computed, "MB")
    axes = [np.sort(rng.uniform(-1.0, 1.0, 65)) for _ in range(3)]
    t, k, _ = timed(lambda: cb.evaluate_grid(interp, axes))
    p.put("interpolation.evaluate_grid.us_per_point", t / 65**3 * 1e6, "us", k)


def _ellipse(p: Probe, cb, rng) -> None:
    f = cb.builtin_function("sep-rational-d3")
    ellipse = cb.GeneralizedBernsteinEllipse(f.domain, cb.EllipseRadii(rng.uniform(1.4, 1.7, 3)))
    resolution = 32
    t, k, _ = timed(lambda: cb.estimate_V(f.evaluator, ellipse, resolution=resolution))
    p.put("ellipse.estimate_V.ms", t * 1e3, "ms", k)
    p.put("ellipse.estimate_V.points_per_s", resolution**3 / t, "1/s")
    p.put("ellipse.estimate_V.peak_mb", peak_mb(lambda: cb.estimate_V(f.evaluator, ellipse, resolution=resolution)), "MB", 1)


def _verification(p: Probe, cb, rng) -> None:
    t, k, _ = timed(cb.default_suite, min_seconds=0.0, min_calls=2)
    p.put("verification.default_suite.ms", t * 1e3, "ms", k)
    t, k, _ = timed(cb.quick_suite)
    p.put("verification.quick_suite.ms", t * 1e3, "ms", k)
    f = cb.builtin_function("sep-rational-d3")
    interp = cb.interpolate(f.evaluator, f.domain, cb.NodeBudget(rng.integers(6, 15, 3)))
    t, k, _ = timed(lambda: cb.sup_error(f, interp, 65))
    p.put("verification.sup_error.ms", t * 1e3, "ms", k)
    t, k, _ = timed(lambda: cb.crossover_scan(int(rng.integers(6, 15)), 2, 1.1, 20.0, 200))
    p.put("verification.crossover_scan.ms", t * 1e3, "ms", k)


def _cli(p: Probe, root: Path, seed: int) -> None:
    import workloads
    from chebbound import cli

    env = workloads.cli_env(root)
    code = "import time; t = time.perf_counter(); import chebbound.cli; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True, check=True).stdout)
        for _ in range(3)
    ]
    p.put("cli.import.ms", statistics.median(times) * 1e3, "ms", len(times))
    specs = {}
    for spec in workloads.Cli(root, seed).round_specs:
        specs[spec["kind"]] = spec  # the last `bound` spec is the d=6 one
    for kind, spec in specs.items():
        argv = spec["argv"][3:]

        def inproc():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

        t, k, _ = timed(inproc, min_seconds=0.0, min_calls=3)
        p.put(f"cli.{kind}.inproc_ms", t * 1e3, "ms", k)
        t, k, _ = timed(
            lambda: subprocess.run(spec["argv"], env=env, cwd=root, capture_output=True, check=True),
            min_seconds=0.0,
            min_calls=3,
        )
        p.put(f"cli.{kind}.subprocess_ms", t * 1e3, "ms", k)


def layer_metrics(root: Path, seed: int, emit) -> dict:
    """Every per-layer metric: name -> (value, unit)."""
    import chebbound as cb

    rng = np.random.default_rng([seed, 7])
    p = Probe(emit)
    emit("per-layer probes (median per call):")
    _interpolation(p, cb, rng)  # first, so the first DCT call pays the scipy.fft import
    _bounds(p, cb, rng)
    _planner(p, cb, rng)
    _ellipse(p, cb, rng)
    _verification(p, cb, rng)
    _cli(p, root, seed)
    return p.metrics
