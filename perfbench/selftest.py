"""Show that the output checks catch wrong results.

    python3 perfbench/selftest.py

For each workload it takes one real output, confirms that the runner counts
it as passed, then feeds the runner deliberately wrong copies and confirms
that each is counted as a failed operation:

* a bound scaled below the measured error (approximate, cli interp);
* a plan with one axis lowered by one (plan);
* an ``evaluate`` output perturbed by 1e-6 (approximate);
* a combined bound that is not min(a, b), a value 1e-9 off the oracle, and
  a certificate whose order search returned a worse axis order (certify);
* a verify report with a failed record, output that is not JSON, and JSON
  without the expected keys (cli).

Exits 0 when every wrong result was caught and every real one passed.
"""

from __future__ import annotations

import copy
import itertools
import json
import sys

import run
import workloads

SEED = 1


def counted_failed(wl, index: int, output, copies: int = 1) -> int:
    """Failed operations the runner counts for ``copies`` runs of one output."""
    records = [(index, 0.0, output, None)] * copies
    wl._checked.clear()
    failed, _, _, _ = run.check_phase(wl, records)
    return failed


def first_of(wl, kind: str) -> int:
    return next(i for i, spec in enumerate(wl.round_specs) if spec["kind"] == kind)


def worst_orders(spec: dict):
    """(sigma, bound A) and (sigma, recursive bound) at the worst axis orders, from chebbound."""
    from chebbound import bounds

    rho, n, v = spec["rho"], spec["n"], spec["v"]

    def inputs(sigma):
        return bounds.BoundInputs(
            bounds.EllipseRadii([rho[s] for s in sigma]), bounds.NodeBudget([n[s] for s in sigma]), v
        )

    orders = list(itertools.permutations(range(len(rho))))
    identity = inputs(orders[0])
    a, sigma_a = max((bounds.bound_a_for_sigma(identity, sigma), sigma) for sigma in orders)
    rec, sigma_rec = max((bounds.recursive_bound_B(inputs(sigma), bounds.MParams(0.0)), sigma) for sigma in orders)
    return sigma_a, a, sigma_rec, rec


def cases():
    """(label, workload, round index, output, copies, expect failed)."""
    api = workloads.Api()

    wl = workloads.make("certify", run.ROOT, SEED)
    wl.setup(api)
    good = wl.run(wl.round_specs[0])
    copies = wl.min_rounds * wl.ROUND  # so the oracle sample falls on these records
    yield "certify: real certificate", wl, 0, good, copies, 0
    bad = dict(good, combined=good["combined"] * 0.5)
    yield "certify: combined != min(a, b)", wl, 0, bad, copies, copies
    bad = dict(good, b=good["b"] * (1 + 1e-9), combined=min(good["a"], good["b"] * (1 + 1e-9)))
    yield "certify: b 1e-9 off the mpmath oracle", wl, 0, bad, copies, copies
    sigma_a, a, sigma_rec, recursive = worst_orders(wl.round_specs[0])
    bad = dict(good, sigma_a=sigma_a, a=a, combined=min(a, good["b"]))
    yield "certify: bound A at a worse axis order", wl, 0, bad, copies, copies
    bad = dict(good, sigma_rec=sigma_rec, recursive=recursive)
    yield "certify: recursive bound at a worse axis order", wl, 0, bad, copies, copies

    wl = workloads.make("plan", run.ROOT, SEED)
    wl.setup(api)
    good = wl.run(wl.round_specs[-1])
    index = len(wl.round_specs) - 1
    yield "plan: real plan", wl, index, good, 1, 0
    lowered = list(good["degrees"])
    axis = max(range(len(lowered)), key=lambda i: lowered[i])
    lowered[axis] -= 1
    yield "plan: one axis lowered by one", wl, index, dict(good, degrees=tuple(lowered)), 1, 1

    wl = workloads.make("approximate", run.ROOT, SEED)
    wl.setup(api)
    good = wl.run(wl.round_specs[0])
    yield "approximate: real evaluation", wl, 0, good, 1, 0
    yield "approximate: evaluate output perturbed by 1e-6", wl, 0, good + 1e-6, 1, 1
    scaled = copy.copy(wl)
    f = wl.functions[0]
    err = float(abs(good - f.evaluator(wl.round_specs[0]["x"])).max())
    scaled.bounds = [err * 0.5] + wl.bounds[1:]
    scaled._checked = {}
    yield "approximate: bound scaled below the measured error", scaled, 0, good, 1, 1

    wl = workloads.make("cli", run.ROOT, SEED)
    wl.setup(api)
    index = first_of(wl, "interp")
    good = wl.run(wl.round_specs[index])
    yield "cli: real interp", wl, index, good, 1, 0
    doc = json.loads(good["stdout"])
    doc["combined"] = doc["sup_error_estimate"] * 0.5
    yield "cli: interp bound scaled below the measured error", wl, index, dict(good, stdout=json.dumps(doc)), 1, 1
    yield "cli: output that is not JSON", wl, index, dict(good, stdout="a 1.0\n"), 1, 1
    yield "cli: JSON without the expected keys", wl, index, dict(good, stdout="[]"), 1, 1
    verify = first_of(wl, "verify")
    report = {"suite": "default", "records": [], "total": 62, "failed": 1, "passed": False}
    yield "cli: verify with a failed record", wl, verify, {"returncode": 1, "stdout": json.dumps(report), "stderr": ""}, 1, 1


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    ok = True
    for label, wl, index, output, copies, expected in cases():
        failed = counted_failed(wl, index, output, copies)
        verdict = "ok" if failed == expected else "WRONG"
        ok &= failed == expected
        print(f"{verdict:<6} {label}: {failed} of {copies} counted failed (expected {expected})")
    print("all checks behave" if ok else "some check did not behave")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
