"""The four workloads: inputs from a seed, one-off set-up, timed operations, checks.

A workload is built in two steps so that set-up can be timed from before
``import chebbound``: ``make(name, root, seed)`` draws the inputs with numpy
only, then ``setup(api)`` imports the program and does the one-off work.
Each run repeats ``round_specs`` whole, so every run attempts the same
operations in the same proportions.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("certify", "plan", "approximate", "cli")


class Api:
    """The chebbound functions a workload calls, optionally wrapped in trace spans."""

    NAMES = {
        "bounds": ("BoundInputs", "MParams", "bound_combined", "recursive_bound_B_min"),
        "ellipse": ("EllipseRadii", "GeneralizedBernsteinEllipse", "estimate_V"),
        "interpolation": ("NodeBudget", "evaluate", "grid_points", "interpolate"),
        "planner": ("PlanRequest", "plan_nodes"),
        "verification": ("separable_rational",),
    }
    #: constructors are never traced: they are not work the layers do
    UNTRACED = {
        "BoundInputs",
        "MParams",
        "EllipseRadii",
        "GeneralizedBernsteinEllipse",
        "NodeBudget",
        "PlanRequest",
    }

    def __init__(self, tracer=None):
        for module, names in self.NAMES.items():
            mod = importlib.import_module(f"chebbound.{module}")
            for name in names:
                fn = getattr(mod, name)
                if tracer is not None and name not in self.UNTRACED:
                    fn = tracer.wrap(f"{module}.{name}", fn)
                setattr(self, name, fn)


def _rng(seed: int, name: str) -> np.random.Generator:
    # one stream per workload, so adding a workload never shifts another's inputs
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def make(name: str, root: Path, seed: int):
    cls = {
        "certify": Certify,
        "plan": Plan,
        "approximate": Approximate,
        "cli": Cli,
    }[name]
    return cls(root, seed)


class Workload:
    name = ""
    #: rounds run even when the time is up, so percentiles have samples
    min_rounds = 1

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.round_specs: list[dict] = []
        self._checked: dict = {}

    def setup(self, api: Api) -> None:
        self.api = api

    def run(self, spec: dict):
        raise NotImplementedError

    def check(self, index: int, output) -> list[str]:
        """Problems with one operation's output; identical outputs are checked once."""
        key = self._key(output)
        if key is None:
            return self._check(index, output)
        if (index, key) not in self._checked:
            self._checked[index, key] = self._check(index, output)
        return self._checked[index, key]

    def _key(self, output):
        """A hashable copy of an output, or None to check every output afresh."""
        return None

    def _check(self, index: int, output) -> list[str]:
        raise NotImplementedError

    def run_checks(self, records) -> dict[int, list[str]]:
        """Checks made once per run over [(round index, output)]: round index -> problems."""
        return {}

    def grid_points(self, passed: dict) -> int:
        """The grid points one round certifies, from the outputs that passed their checks."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Certify(Workload):
    """One d=6 certificate as `chebbound bound` computes it."""

    name = "certify"
    min_rounds = 10
    ROUND = 4
    ORACLE_SAMPLE = 4
    #: every certificate gets these orders in a seeded axis order, so the
    #: grid size each one covers is the same for every seed
    ORDERS = (4, 8, 14, 20, 28, 36)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = _rng(seed, self.name)
        for _ in range(self.ROUND):
            self.round_specs.append(
                {
                    "kind": "d6",
                    "rho": [float(r) for r in np.exp(rng.uniform(np.log(1.2), np.log(8.0), len(self.ORDERS)))],
                    "n": [int(k) for k in rng.permutation(self.ORDERS)],
                    "v": float(rng.uniform(0.5, 4.0)),
                }
            )
        self.oracle_ops = sorted(int(i) for i in rng.choice(self.min_rounds * self.ROUND, self.ORACLE_SAMPLE, replace=False))

    def run(self, spec):
        api = self.api
        inputs = api.BoundInputs(api.EllipseRadii(spec["rho"]), api.NodeBudget(spec["n"]), spec["v"])
        report = api.bound_combined(inputs)
        recursive, sigma_rec, _ = api.recursive_bound_B_min(inputs, api.MParams(0.0))
        return {
            "a": report.a_value,
            "b": report.b_value,
            "combined": report.combined,
            "sigma_a": report.sigma_star,
            "recursive": recursive,
            "sigma_rec": sigma_rec,
        }

    def _key(self, output):
        return tuple(sorted(output.items()))

    def _check(self, index, output):
        return checks.check_certificate(output)

    def run_checks(self, records):
        """The 60-digit oracle on a seeded sample of the run's operations."""
        oracle = checks.load_oracle(self.root)
        problems: dict[int, list[str]] = {}
        for op in self.oracle_ops:
            index, output = records[op]
            if output is not None:
                found = checks.check_certificate_oracle(self.round_specs[index], output, oracle)
                problems.setdefault(index, []).extend(found)
        return problems

    def grid_points(self, passed):
        return sum(int(np.prod([k + 1 for k in s["n"]])) for s in self.round_specs)


# ---------------------------------------------------------------------------


class Plan(Workload):
    """One plan_nodes call on a d=3 or d=4 problem, COMBINED or RECURSIVE.

    The problems are a fixed design.  The seed jitters the d=3 problems:
    each radius by a factor in [0.998, 1.002] and each target by
    10^U(-0.02, 0.02).  A plan's cost swings by a factor of 30 across random
    radii, so seed-drawn radii would make every timing follow the seed
    rather than the program.  The d=4 problems are not jittered: the tail is
    an order statistic of their dozen plans, and even this jitter moves a
    single d=4 plan by up to 2x, so the tail would follow the seed.
    """

    name = "plan"
    min_rounds = 2
    SELECTORS = ("COMBINED", "RECURSIVE")
    #: six d=4 problems spanning anisotropy and targets 1e-4..1e-12
    D4 = (
        ((2.39, 3.06, 3.64, 4.91), 1e-4),
        ((4.14, 2.43, 4.07, 2.67), 2e-5),
        ((2.15, 1.85, 1.98, 4.71), 1e-7),
        ((1.95, 2.0, 2.03, 1.89), 2e-8),
        ((2.67, 3.07, 1.73, 3.47), 8e-10),
        ((4.01, 1.84, 3.69, 2.34), 1e-12),
    )
    D3_COUNT = 30
    JITTER = 0.002
    EPS_JITTER = 0.02

    def __init__(self, root, seed):
        super().__init__(root, seed)
        # the d=3 design is fixed: radii log-uniform in [1.5, 5], targets
        # stepping through 1e-4 .. 1e-12
        design = np.random.default_rng(2027)
        d3 = []
        for i in range(self.D3_COUNT):
            rho = tuple(float(r) for r in np.round(np.exp(design.uniform(np.log(1.5), np.log(5.0), 3)), 2))
            d3.append((rho, 10.0 ** (-4 - 8 * i / (self.D3_COUNT - 1))))
        rng = _rng(seed, self.name)
        jittered = [
            ([float(r) * rng.uniform(1 - self.JITTER, 1 + self.JITTER) for r in rho0],
             eps0 * 10.0 ** rng.uniform(-self.EPS_JITTER, self.EPS_JITTER))
            for rho0, eps0 in d3
        ]
        for rho, eps in jittered + [(list(rho0), eps0) for rho0, eps0 in self.D4]:
            for sel in self.SELECTORS:
                self.round_specs.append(
                    {"kind": f"d{len(rho)}", "rho": rho, "v": 1.0, "eps": eps, "selector": sel}
                )

    def run(self, spec):
        api = self.api
        plan = api.plan_nodes(
            api.PlanRequest(api.EllipseRadii(spec["rho"]), spec["v"], spec["eps"], spec["selector"])
        )
        return {
            "degrees": plan.budget.degrees,
            "grid_points": plan.grid_points,
            "certified": plan.certified_bound,
        }

    def _key(self, output):
        return (output["degrees"], output["certified"])

    def _check(self, index, output):
        spec = self.round_specs[index]
        api = self.api
        radii = api.EllipseRadii(spec["rho"])

        def bound_of(degrees):
            inputs = api.BoundInputs(radii, api.NodeBudget(degrees), spec["v"])
            if spec["selector"] == "RECURSIVE":
                return api.recursive_bound_B_min(inputs, api.MParams(0.0))[0]
            return api.bound_combined(inputs).combined

        return checks.check_plan(spec, output["degrees"], output["certified"], bound_of)

    def grid_points(self, passed):
        return sum(out["grid_points"] for out in passed.values())


# ---------------------------------------------------------------------------


class Approximate(Workload):
    """Scattered evaluation of a d=3 (N=48) and a d=2 (N=128) interpolant.

    The functions are the separable rational family prod 1/(c_i - x_i),
    with seeded poles c_i close enough to the box that the interpolation
    error (1e-10 .. 1e-6) stands well above rounding, so the error check
    has something to measure.
    """

    name = "approximate"
    min_rounds = 12
    FUNCTIONS = (
        # dimension, order per axis, pole range, V resolution, points per batch, batches
        (3, 48, (1.08, 1.15), 32, 256, 3),
        (2, 128, (1.01, 1.02), 128, 4096, 1),
    )
    #: the bound's radii, as a share of the admissible ones
    RADIUS_SHARE = (0.85, 0.95)
    REFERENCE_POINTS = 32
    NODE_POINTS = 64

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = _rng(seed, self.name)
        self.poles, self.shares = [], []
        for k, (d, n, (lo, hi), _, points, batches) in enumerate(self.FUNCTIONS):
            self.poles.append([float(c) for c in rng.uniform(lo, hi, d)])
            self.shares.append([float(s) for s in rng.uniform(*self.RADIUS_SHARE, d)])
            for _ in range(batches):
                self.round_specs.append({"kind": f"d{d}", "function": k, "x": rng.uniform(-1.0, 1.0, (points, d))})
        self.node_picks = [rng.integers(0, n + 1, (self.NODE_POINTS, d)) for d, n, *_ in self.FUNCTIONS]

    def setup(self, api):
        super().setup(api)
        self.functions, self.interpolants, self.bounds = [], [], []
        for (d, n, _, v_res, _, _), poles, shares in zip(self.FUNCTIONS, self.poles, self.shares):
            f = api.separable_rational(poles)
            budget = api.NodeBudget((n,) * d)
            interp = api.interpolate(f.evaluator, f.domain, budget)
            radii = api.EllipseRadii([s * r for s, r in zip(shares, f.admissible_rho)])
            v = api.estimate_V(f.evaluator, api.GeneralizedBernsteinEllipse(f.domain, radii), resolution=v_res)
            self.functions.append(f)
            self.interpolants.append(interp)
            self.bounds.append(api.bound_combined(api.BoundInputs(radii, budget, v)).combined)

    def run(self, spec):
        return self.api.evaluate(self.interpolants[spec["function"]], spec["x"])

    def _check(self, index, output):
        spec = self.round_specs[index]
        k = spec["function"]
        f, interp = self.functions[k], self.interpolants[k]
        x = spec["x"]
        u = (x - f.domain.centers) / f.domain.halfwidths
        m = self.REFERENCE_POINTS
        problems = checks.check_against_reference(interp.coefficients, u[:m], output[:m])
        problems += checks.check_error_bound(output, f.evaluator(x), self.bounds[k])
        return problems

    def run_checks(self, records):
        """Node reproduction, once per interpolant; a miss fails all of its operations."""
        api = self.api
        problems: dict[int, list[str]] = {}
        for k, (f, interp, picks) in enumerate(zip(self.functions, self.interpolants, self.node_picks)):
            nodes = api.grid_points(f.domain, interp.budget)[tuple(picks.T)]
            found = checks.check_node_reproduction(api.evaluate(interp, nodes), f.evaluator(nodes))
            for index, spec in enumerate(self.round_specs):
                if found and spec["function"] == k:
                    problems[index] = found
        return problems

    def grid_points(self, passed):
        return sum(interp.budget.grid_points for interp in self.interpolants)


# ---------------------------------------------------------------------------


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _floats(values) -> str:
    return ",".join(repr(round(float(v), 4)) for v in values)


class Cli(Workload):
    """One `chebbound` subprocess per operation, from a fixed cycle of subcommands."""

    name = "cli"
    min_rounds = 6
    FUNCTIONS_3D = ("sep-rational-d3", "exp-d3", "nonsep-rational-d3")

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = _rng(seed, self.name)
        self.env = cli_env(root)
        for d in (4, 5, 6):
            rho = rng.uniform(1.3, 6.0, d)
            self._add(
                "bound",
                ["--rho", _floats(rho), "--n", ",".join(str(k) for k in rng.integers(4, 25, d)),
                 "--v", _floats([rng.uniform(0.5, 3.0)])],
            )
        # the worked example of the README, jittered like the plan workload
        rho = [r * rng.uniform(1 - Plan.JITTER, 1 + Plan.JITTER) for r in (2.95, 9.8)]
        eps = float(f"{2e-6 * 10.0 ** rng.uniform(-Plan.EPS_JITTER, Plan.EPS_JITTER):.4g}")
        self._add(
            "plan",
            ["--rho", _floats(rho), "--v", "1", "--eps", repr(eps), "--selector", "all"],
            eps=eps,
        )
        self._add(
            "interp",
            ["--function", self.FUNCTIONS_3D[int(rng.integers(len(self.FUNCTIONS_3D)))],
             "--n", ",".join(str(k) for k in rng.integers(6, 15, 3)),
             # `=` keeps argparse from reading a leading minus as a flag
             "--probe=" + _floats(rng.uniform(-0.9, 0.9, 3))],
        )
        # verify twice and sweep twice per round: the tail (11th slowest of
        # at least 54) then always lies among the verify calls, and the
        # median among the sweeps, never between two subcommands
        for _ in range(2):
            self._add("verify", ["--suite", "default"])
            self._add(
                "sweep",
                ["--n", str(int(rng.integers(6, 15))), "--d", "2",
                 "--rho-range", f"{rng.uniform(1.05, 1.3):.4f}:{rng.uniform(10.0, 30.0):.4f}", "--steps", "200"],
            )

    def _add(self, kind, args, **extra):
        self.round_specs.append(
            {"kind": kind, "argv": [sys.executable, "-m", "chebbound.cli", kind, *args, "--format", "json"], **extra}
        )

    def run(self, spec):
        proc = subprocess.run(spec["argv"], capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120)
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-300:]}

    def _key(self, output):
        return (output["returncode"], output["stdout"])

    def _check(self, index, output):
        spec = self.round_specs[index]
        return checks.check_cli(spec["kind"], output["returncode"], output["stdout"], output["stderr"], spec)

    def grid_points(self, passed):
        for index, spec in enumerate(self.round_specs):
            if spec["kind"] == "plan" and index in passed:
                doc = json.loads(passed[index]["stdout"])
                return sum(plan["grid_points"] for plan in doc["plans"].values())
        return 0
