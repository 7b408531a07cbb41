"""Golden plans: budget, grid size and certified bound, pinned exactly.

Every request in ``tests/data/plan_golden.json`` is planned again and must
return the recorded ``(budget, grid_points, certified_bound)`` bit for bit.
The requests are the six d=4 problems of the benchmark's ``plan`` design
under COMBINED and RECURSIVE, plus seeded d = 1..3 requests under every
selector.  A change to the planner's search may change how a plan is
found, never which plan is returned.

To record the plans again (only when a plan change is intended):

    PYTHONPATH=src python tests/test_plan_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from chebbound.ellipse import EllipseRadii
from chebbound.planner import PLAN_SELECTORS, PlanRequest, plan_nodes

GOLDEN = Path(__file__).parent / "data" / "plan_golden.json"

#: d=4 problems spanning anisotropy and targets 1e-4..1e-12, at V=1
_D4 = [
    ((2.39, 3.06, 3.64, 4.91), 1e-4),
    ((4.14, 2.43, 4.07, 2.67), 2e-5),
    ((2.15, 1.85, 1.98, 4.71), 1e-7),
    ((1.95, 2.0, 2.03, 1.89), 2e-8),
    ((2.67, 3.07, 1.73, 3.47), 8e-10),
    ((4.01, 1.84, 3.69, 2.34), 1e-12),
]

_SEEDED = 40


def _requests() -> list[dict]:
    requests = [
        {"rho": list(rho), "v": 1.0, "eps": eps, "selector": sel}
        for rho, eps in _D4
        for sel in ("COMBINED", "RECURSIVE")
    ]
    rng = random.Random(20261018)
    for _ in range(_SEEDED):
        d = rng.randint(1, 3)
        rho = [round(1.2 * (8.0 / 1.2) ** rng.random(), 4) for _ in range(d)]
        v = round(10.0 ** rng.uniform(-1.0, 1.0), 4)
        eps = float(f"{10.0 ** rng.uniform(-12.0, -2.0):.3g}")
        requests += [{"rho": rho, "v": v, "eps": eps, "selector": sel} for sel in PLAN_SELECTORS]
    return requests


REQUESTS = _requests()


def _key(request: dict) -> str:
    return f"{request['selector']} rho={request['rho']} v={request['v']} eps={request['eps']}"


def _plan(request: dict) -> dict:
    plan = plan_nodes(
        PlanRequest(EllipseRadii(request["rho"]), request["v"], request["eps"], request["selector"])
    )
    return {
        **request,
        "budget": list(plan.budget.degrees),
        "grid_points": plan.grid_points,
        "certified_bound": plan.certified_bound,
    }


def _load() -> dict:
    return {_key(p): p for p in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("request_", REQUESTS, ids=_key)
def test_plan_matches_golden(request_):
    assert _plan(request_) == _load()[_key(request_)]


def test_golden_covers_every_request():
    assert sorted(_load()) == sorted(_key(r) for r in REQUESTS)


if __name__ == "__main__":
    plans = [_plan(r) for r in REQUESTS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(plans, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(plans)} plans to {GOLDEN}")
