"""Output checks for every workload.

Each check returns a list of problems; an empty list means the output
passed.  Checks compare against computations made apart from the code
under test (the 60-digit mpmath oracle in ``tests/highprec.py``, numpy's
own Chebyshev series evaluation, the sampled function itself) or against
properties the method must have (``combined == min(a, b)``, minimality of
a plan).  None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev as npcheb

ORACLE_RTOL = 1e-12


def load_oracle(root: Path):
    """Import ``tests/highprec.py`` from the checkout without touching sys.path."""
    path = root / "tests" / "highprec.py"
    spec = importlib.util.spec_from_file_location("perfbench_highprec", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rel(x: float, ref: float) -> float:
    ref = float(ref)
    if ref == 0.0:
        return abs(x)
    return abs(x - ref) / abs(ref)


# ---------------------------------------------------------------------------
# certify: one d=6 certificate as `chebbound bound` computes it


def check_certificate(cert: dict) -> list[str]:
    """combined == min(a, b) and recursive <= a (1 + 1e-12)."""
    problems = []
    if cert["combined"] != min(cert["a"], cert["b"]):
        problems.append(
            f"combined {cert['combined']!r} != min(a, b) = {min(cert['a'], cert['b'])!r}"
        )
    if not cert["recursive"] <= cert["a"] * (1 + 1e-12):
        problems.append(f"recursive {cert['recursive']!r} exceeds a {cert['a']!r}")
    return problems


def check_certificate_oracle(spec: dict, cert: dict, oracle) -> list[str]:
    """bound_b, bound_a and the recursive bound against the 60-digit mpmath oracle.

    Both order searches are checked: ``a`` must equal the oracle's minimum
    of bound A over all d! axis orders and ``recursive`` the minimum of
    recursive_bound_B over all orders, and each must also be the value of
    the order the program returned, so a search that returns a worse order
    fails.
    """
    rho, n, v = spec["rho"], spec["n"], spec["v"]
    sig_r = cert["sigma_rec"]
    expected = {
        "b": oracle.bound_b(rho, n, v),
        "a": oracle.bound_a(rho, n, v),
        "a at sigma*": oracle.bound_a_for_sigma(rho, n, v, cert["sigma_a"]),
        "recursive": recursive_bound_B_min(oracle, rho, n, v),
        "recursive at sigma*": oracle.recursive_bound_B([rho[s] for s in sig_r], [n[s] for s in sig_r], v),
    }
    problems = []
    for key, ref in expected.items():
        value = cert[key.split()[0]]
        err = _rel(value, ref)
        if not err <= ORACLE_RTOL:
            problems.append(f"{key}: {value!r} vs oracle {float(ref)!r}: rel {err:.2e}")
    return problems


def recursive_bound_B_min(oracle, rho, n, v):
    """The oracle's recursive_bound_B minimised over all d! axis orders.

    Order sigma costs sum_i univariate(rho_i, N_i, V) plus, for k >= 2,
    univariate(rho_sigma_k, N_sigma_k, M(first k-1 axes)).  M is symmetric
    in its axes, so it is computed once per set of axes rather than once
    per order; the direct ``recursive_bound_B`` at the program's sigma* is
    checked alongside, so this sum must agree with the oracle's own.
    """
    d = len(rho)

    @functools.cache
    def m(axes):
        return oracle.m_upper_bound([rho[s] for s in axes], [n[s] for s in axes], v)

    with oracle.mp.workdps(oracle.DPS):
        base = sum(oracle.univariate(rho[i], n[i], v) for i in range(d))
        return min(
            base + sum(oracle.univariate(rho[sigma[k]], n[sigma[k]], m(tuple(sorted(sigma[:k])))) for k in range(1, d))
            for sigma in itertools.permutations(range(d))
        )


# ---------------------------------------------------------------------------
# plan: one plan_nodes call


def check_plan(spec: dict, degrees, certified: float, bound_of) -> list[str]:
    """The budget re-certifies <= eps; lowering any one axis by one does not.

    ``bound_of(degrees)`` evaluates the selector's bound through the public
    bound function for the spec's radii and V.
    """
    eps = spec["eps"]
    problems = []
    if not certified <= eps:
        problems.append(f"reported bound {certified!r} exceeds eps {eps!r}")
    again = bound_of(tuple(degrees))
    if not again <= eps:
        problems.append(f"budget {tuple(degrees)} re-certifies to {again!r} > eps {eps!r}")
    for axis, n in enumerate(degrees):
        if n == 0:
            continue
        lower = list(degrees)
        lower[axis] -= 1
        value = bound_of(tuple(lower))
        if value <= eps:
            problems.append(
                f"budget {tuple(lower)} (axis {axis} lowered) still certifies: {value!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# approximate: scattered evaluation of a fixed interpolant


def reference_values(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """numpy's Chebyshev series at reference coordinates ``u`` of shape (P, d)."""
    d = coeffs.ndim
    if d == 2:
        return npcheb.chebval2d(u[:, 0], u[:, 1], coeffs)
    if d == 3:
        return npcheb.chebval3d(u[:, 0], u[:, 1], u[:, 2], coeffs)
    raise ValueError(f"no numpy reference for d={d}")


def check_against_reference(coeffs, u, values) -> list[str]:
    """evaluate() agrees with chebval2d/chebval3d on the interpolant's coefficients."""
    ref = reference_values(coeffs, u)
    tol = 1e-12 * max(1.0, float(np.abs(coeffs).sum()))
    worst = float(np.max(np.abs(np.asarray(values) - ref)))
    if not worst <= tol:
        return [f"evaluate differs from numpy chebval by {worst:.3e} (tol {tol:.1e})"]
    return []


def check_node_reproduction(values, samples) -> list[str]:
    """The interpolant reproduces its samples at the grid nodes."""
    scale = max(1.0, float(np.max(np.abs(samples))))
    worst = float(np.max(np.abs(np.asarray(values) - samples)))
    if not worst <= 1e-11 * scale:
        return [f"interpolant misses its samples by {worst:.3e}"]
    return []


def check_error_bound(values, exact, bound: float) -> list[str]:
    """The measured error never exceeds the certified min{a, b}."""
    err = float(np.max(np.abs(np.asarray(values) - exact)))
    if not err <= bound + 1e-12 + 1e-10 * bound:
        return [f"measured error {err:.3e} exceeds certified bound {bound:.3e}"]
    return []


# ---------------------------------------------------------------------------
# cli: one `chebbound` subprocess


def check_cli(kind: str, returncode: int, stdout: str, stderr: str, spec: dict) -> list[str]:
    """Exit status, parseable JSON, and the per-subcommand property."""
    if returncode != 0:
        return [f"{kind}: exit code {returncode}: {stderr.strip()}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"{kind}: output is not JSON ({exc})"]
    try:
        return _check_cli_doc(kind, doc, spec)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"{kind}: unexpected JSON document ({type(exc).__name__}: {exc})"]


def _check_cli_doc(kind: str, doc, spec: dict) -> list[str]:
    problems = []
    if kind == "bound":
        if doc["combined"] != min(doc["a"], doc["b"]):
            problems.append(f"bound: combined {doc['combined']!r} != min(a, b)")
    elif kind == "plan":
        eps = spec["eps"]
        for sel, plan in doc["plans"].items():
            if not plan["certified_bound"] <= eps:
                problems.append(
                    f"plan {sel}: certified {plan['certified_bound']!r} > eps {eps!r}"
                )
    elif kind == "interp":
        if not doc["sup_error_estimate"] <= doc["combined"]:
            problems.append(
                f"interp: sup error {doc['sup_error_estimate']!r} > combined {doc['combined']!r}"
            )
    elif kind == "verify":
        if doc["failed"] != 0 or not doc["passed"]:
            problems.append(f"verify: {doc['failed']} of {doc['total']} records failed")
    elif kind == "sweep":
        if not doc or any(not (math.isfinite(r["a"]) and math.isfinite(r["b"])) for r in doc):
            problems.append("sweep: empty or non-finite scan")
    return problems
