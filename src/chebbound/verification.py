"""Empirical validation: measured interpolation error vs the certified bounds.

Test families with provable analyticity regions, a dense sup-error probe,
and the domination check (measured error must stay under ``min{a, b}``).
The shipped suites are data: ``_SUITES`` maps each ``chebbound verify
--suite`` name to rows of (builtin id, radii schedule, budget schedule,
probe resolution or ``None`` for the dimension's default), and a bare
number in a radii schedule scales the builtin's admissible radii by it.
Also hosts the coefficient-decay check and the side-by-side report of
published reference values for the worked inputs this package
reproduces; the A-vs-B crossover scan it reports lives in
:mod:`chebbound.bounds`, which needs no numpy, and is re-exported here.

Every routine here is deterministic: probe grids are fixed, random probes
use a hard-coded seed, and boundary scans use uniform angle grids.  The
random probes are numpy's PCG64 stream for ``PROBE_SEED``, reproduced in
pure Python, so nothing here loads ``numpy.random``.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial, reduce
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import jsonio
from .bounds import (
    PUBLISHED_BOUNDS,
    SCAN_CSV_HEADER,
    BoundInputs,
    ScanRecord,
    bound_a,
    bound_b,
    bound_combined,
    crossover_scan,
    scan_to_csv,
)
from .ellipse import (
    EllipseRadii,
    GeneralizedBernsteinEllipse,
    estimate_V,
    rho_for_real_singularity,
)
from .inputs import Record
from .interpolation import (
    ChebyshevInterpolant,
    Hyperrectangle,
    NodeBudget,
    evaluate,
    evaluate_grid,
    interpolate,
)

__all__ = [
    "TestFunction",
    "VerificationRecord",
    "ScanRecord",
    "ADMISSIBILITY_MARGIN",
    "PROBE_SEED",
    "check_admissible",
    "separable_rational",
    "entire_exponential",
    "nonseparable_rational",
    "polynomial_product",
    "builtin_families",
    "sup_error",
    "verify_domination",
    "default_suite",
    "quick_suite",
    "coefficient_decay_check",
    "crossover_scan",
    "reference_report",
    "records_to_csv",
    "scan_to_csv",
]

#: scheduled radii must stay at or below this fraction of the admissible ones
ADMISSIBILITY_MARGIN = 0.98

#: seed for the uniform random probe points in sup_error, as numpy's
#: ``default_rng`` would take it
PROBE_SEED = 0x5EED

#: default probe resolutions per dimension (dense; under-sampling the true
#: sup could only hide violations, so these err high)
DEFAULT_PROBE_RESOLUTION = {1: 513, 2: 129, 3: 65}

#: default boundary-scan angles per axis when estimating V in the suite;
#: the builtin families peak at theta in {0, pi}, which every even grid
#: hits exactly, so modest grids suffice (the 1.01 safety covers the rest)
DEFAULT_V_RESOLUTION = {1: 512, 2: 128, 3: 32}

#: probe points per slab in :func:`sup_error`; caps its working memory.
#: The last bits of a measured error can follow the slab shape, because
#: ``evaluate_grid`` contracts each slab through BLAS, so the pinned
#: ``chebbound verify`` bytes follow this block size and the host's BLAS.
_PROBE_BLOCK = 2**15


class TestFunction(Record):
    """An analytic test function with a provable admissible radius per axis.

    ``admissible_rho`` is ``math.inf`` on the axes where f is entire, and
    ``exact_degrees`` is set for polynomials only.  ``factors`` holds, for
    separable families, the per-axis real factors whose product is
    ``evaluator``; a copy built with another ``evaluator`` alone would keep
    them describing the old function.
    """

    __slots__ = (
        "id",
        "domain",
        "evaluator",
        "admissible_rho",
        "family",
        "description",
        "exact_degrees",
        "factors",
    )
    _defaults = (None, None)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def on_grid(self, axes_points: Sequence[NDArray]) -> NDArray[np.float64]:
        """Values on the tensor product of ``axes_points``, one array axis per axis.

        With ``factors`` set, the outer product of the per-axis factor values
        in axis order, which costs O(r * d) factor evaluations for r points
        per axis and equals ``evaluator`` on the meshgrid bit for bit: both
        multiply the same factors left to right.  Otherwise ``evaluator`` on
        the stacked meshgrid.
        """
        if self.factors is None:
            pts = np.stack(np.meshgrid(*axes_points, indexing="ij"), axis=-1)
            return np.asarray(self.evaluator(pts), dtype=float)
        values = [factor(np.asarray(x)) for factor, x in zip(self.factors, axes_points)]
        return np.asarray(reduce(np.multiply.outer, values), dtype=float)


class VerificationRecord(Record):
    """One (function, radii, budget) domination measurement."""

    __slots__ = (
        "function_id",
        "domain",
        "radii",
        "v_estimate",
        "budget",
        "empirical_error",
        "bound_a",
        "bound_b",
        "bound_combined",
        "passed",
    )

    def to_json_dict(self) -> dict:
        return dict(self._asdict(), domain=[list(ax) for ax in self.domain.axes])


# ---------------------------------------------------------------------------
# builtin families


def _as_domain(domain: Hyperrectangle | None, dimension: int) -> Hyperrectangle:
    if domain is None:
        return Hyperrectangle.unit(dimension)
    if domain.dimension != dimension:
        raise ValueError(
            f"domain has {domain.dimension} axes, expected {dimension}"
        )
    return domain


def separable_rational(
    c: Sequence[float], domain: Hyperrectangle | None = None, id: str | None = None
) -> TestFunction:
    """prod_i 1/(c_i - x_i); poles at x_i = c_i, which must lie off-domain."""
    c = tuple(float(ci) for ci in c)
    dom = _as_domain(domain, len(c))
    admissible = tuple(
        rho_for_real_singularity(ci, dom.axes[i]) for i, ci in enumerate(c)
    )
    carr = np.asarray(c)

    def evaluator(points):
        points = np.asarray(points)
        return np.prod(1.0 / (carr - points), axis=-1)

    def factor(ci, x):
        return 1.0 / (ci - x)

    return TestFunction(
        id=id or f"sep-rational-d{len(c)}",
        domain=dom,
        evaluator=evaluator,
        admissible_rho=admissible,
        family="separable-rational",
        description=f"prod 1/(c_i - x_i), c={list(c)}",
        factors=tuple(partial(factor, ci) for ci in c),
    )


def entire_exponential(
    alpha: Sequence[float], domain: Hyperrectangle | None = None, id: str | None = None
) -> TestFunction:
    """exp(sum_i alpha_i x_i); entire, so every radius is admissible."""
    alpha = tuple(float(a) for a in alpha)
    dom = _as_domain(domain, len(alpha))
    aarr = np.asarray(alpha)

    def evaluator(points):
        points = np.asarray(points)
        return np.exp(points @ aarr)

    return TestFunction(
        id=id or f"exp-d{len(alpha)}",
        domain=dom,
        evaluator=evaluator,
        admissible_rho=(math.inf,) * len(alpha),
        family="entire-exponential",
        description=f"exp(sum alpha_i x_i), alpha={list(alpha)}",
    )


def nonseparable_rational(
    c: float,
    beta: Sequence[float],
    domain: Hyperrectangle | None = None,
    id: str | None = None,
) -> TestFunction:
    """1/(c - sum_i beta_i x_i) with the singular hyperplane off-domain.

    Per-axis admissible radii are conservative: the slack of the plane,
    pulled back to reference coordinates (c' = c - sum beta_i center_i
    against sum |beta_i| halfwidth_i), is split evenly over the axes, and
    axis i receives the radius whose ellipse has real semi-axis
    1 + slack_i.  Any radii at or below these keep ``sum beta_i z_i``
    away from c on the whole product region.
    """
    c = float(c)
    beta = tuple(float(b) for b in beta)
    d = len(beta)
    dom = _as_domain(domain, d)
    if any(b == 0.0 for b in beta):
        raise ValueError("beta entries must be nonzero")
    centers = [(lo + hi) / 2.0 for lo, hi in dom.axes]
    halves = [(hi - lo) / 2.0 for lo, hi in dom.axes]
    eff_beta = [abs(b) * h for b, h in zip(beta, halves)]
    c_eff = c - sum(b * m for b, m in zip(beta, centers))
    slack = c_eff - sum(eff_beta)
    if slack <= 0:
        raise ValueError(
            f"singular hyperplane touches the domain: c' = {c_eff} must exceed "
            f"sum |beta_i| halfwidth_i = {sum(eff_beta)}"
        )
    admissible = []
    for i in range(d):
        a_i = 1.0 + slack / (d * eff_beta[i])
        admissible.append(a_i + math.sqrt(a_i * a_i - 1.0))
    barr = np.asarray(beta)

    def evaluator(points):
        points = np.asarray(points)
        return 1.0 / (c - points @ barr)

    return TestFunction(
        id=id or f"nonsep-rational-d{d}",
        domain=dom,
        evaluator=evaluator,
        admissible_rho=tuple(admissible),
        family="nonseparable-rational",
        description=f"1/(c - sum beta_i x_i), c={c}, beta={list(beta)}",
    )


def polynomial_product(
    dimension: int, domain: Hyperrectangle | None = None, id: str | None = None
) -> TestFunction:
    """prod_i (x_i^3 - x_i/2 + 1/4): exactness control, degree 3 per axis."""
    dom = _as_domain(domain, dimension)

    def factor(x):
        return x**3 - x / 2.0 + 0.25

    def evaluator(points):
        return np.prod(factor(np.asarray(points)), axis=-1)

    return TestFunction(
        id=id or f"poly-cubic-d{dimension}",
        domain=dom,
        evaluator=evaluator,
        admissible_rho=(math.inf,) * dimension,
        family="polynomial",
        description="prod (x_i^3 - x_i/2 + 1/4)",
        exact_degrees=(3,) * dimension,
        factors=(factor,) * dimension,
    )


#: builtin id -> factory(domain=..., id=...), in builtin_families() order
_BUILTINS = {
    "sep-rational-d1": partial(separable_rational, (1.25,)),
    "sep-rational-d1-wide": partial(separable_rational, (3.0,)),
    "exp-d1": partial(entire_exponential, (1.0,)),
    "nonsep-rational-d1": partial(nonseparable_rational, 2.0, (1.0,)),
    "poly-cubic-d1": partial(polynomial_product, 1),
    "sep-rational-d2": partial(separable_rational, (1.3, 1.6)),
    "sep-rational-d2-wide": partial(separable_rational, (2.0, 3.0)),
    "exp-d2": partial(entire_exponential, (1.0, -0.5)),
    "nonsep-rational-d2": partial(nonseparable_rational, 2.0, (0.5, 0.5)),
    "poly-cubic-d2": partial(polynomial_product, 2),
    "sep-rational-d3": partial(separable_rational, (1.3, 1.6, 2.2)),
    "exp-d3": partial(entire_exponential, (0.8, -0.5, 0.3)),
    "nonsep-rational-d3": partial(nonseparable_rational, 2.5, (0.5, 0.5, 0.5)),
    "poly-cubic-d3": partial(polynomial_product, 3),
}


def builtin_families(dimension: int | None = None) -> list[TestFunction]:
    """The deterministic builtin list, optionally filtered by dimension.

    Rational families get admissible radii computed from their poles, not
    guessed; exponential and polynomial families are entire.
    """
    fams = [factory(id=function_id) for function_id, factory in _BUILTINS.items()]
    if dimension is None:
        return fams
    return [f for f in fams if f.dimension == dimension]


def builtin_function(function_id: str, domain: Hyperrectangle | None = None) -> TestFunction:
    """Look up a builtin by id, optionally rebuilt on a different domain."""
    if function_id not in _BUILTINS:
        known = ", ".join(_BUILTINS)
        raise ValueError(f"unknown builtin function {function_id!r}; known: {known}")
    return _BUILTINS[function_id](domain=domain, id=function_id)


# ---------------------------------------------------------------------------
# sup-error probing


def _probe_levels(resolution: int) -> list[int]:
    # halving cascade keeps probe sets nested when the resolution doubles
    levels = []
    r = resolution
    while True:
        levels.append(r)
        if r < 66:
            break
        r //= 2
    return levels


def _axis_probes(resolution: int) -> NDArray[np.float64]:
    chunks = []
    for r in _probe_levels(resolution):
        m = np.arange(r)
        chunks.append(np.cos(np.pi * (2 * m + 1) / (2 * r)))
    return np.concatenate(chunks)


def sup_error(
    f: TestFunction, interpolant: ChebyshevInterpolant, resolution: int
) -> float:
    """Dense estimate of ``max |f - I|`` over the domain.

    Probes a product grid of first-kind Chebyshev points (offset from the
    interpolation nodes, where the error vanishes) at ``resolution`` points
    per axis plus the halving cascade ``resolution // 2``, ``// 4``, ...
    down to the first level below 66 (513 gives 513, 256, 128, 64) — so
    doubling the resolution strictly extends the probe set — and 100 * D
    uniform random points: the first 100 * D**2 doubles of
    ``np.random.default_rng(PROBE_SEED)``, row by row, drawn without
    ``numpy.random`` by a copy of its PCG64 stream.  The exact values
    come from :meth:`TestFunction.on_grid`, per axis for separable families;
    :func:`verify_domination` evaluates them once per probe slab for all of
    its budgets.
    An under-estimate of the true sup: a low estimate passes domination
    checks more easily and overstates tightness, so the default resolutions
    err high.
    """
    return _sup_errors(f, [interpolant], resolution)[0]


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=None)
def _pcg64_doubles(seed: int, count: int) -> tuple[float, ...]:
    """The first ``count`` doubles of ``np.random.default_rng(seed).random()``.

    numpy's PCG64 (O'Neill, HMC-CS-2014-0905) in Python, so the probes need
    no ``numpy.random``: ``SeedSequence(seed)`` hashes the seed's 32-bit
    words into a pool of four and draws the 128-bit state and increment
    from it; each draw steps the 128-bit LCG and takes the XSL-RR output
    ``x``, and each double is ``(x >> 11) * 2**-53``.
    """
    hash_const = 0x43B0D7E5

    def hashmix(value: int, multiplier: int = 0x931E8875) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * multiplier & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state_words = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    s0, s1, i0, i1 = (state_words[k] | state_words[k + 1] << 32 for k in range(0, 8, 2))

    increment = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    # seeding steps the zero state (to ``increment``), adds the seed and steps again
    state = ((increment + (s0 << 64 | s1)) * _PCG64_MULTIPLIER + increment) & _MASK128
    doubles = []
    for _ in range(count):
        state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        doubles.append((((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0**-53)
    return tuple(doubles)


def _sup_errors(
    f: TestFunction, interpolants: Sequence[ChebyshevInterpolant], resolution: int
) -> list[float]:
    """:func:`sup_error` of each interpolant, evaluating ``f`` once per probe slab."""
    resolution = int(resolution)
    if resolution < 33:
        raise ValueError(f"resolution must be >= 33 per axis, got {resolution}")
    if any(f.domain != interpolant.domain for interpolant in interpolants):
        raise ValueError("function and interpolant domains differ")
    d = f.dimension
    ref = _axis_probes(resolution)
    axes_points = [(lo + hi) / 2.0 + (hi - lo) / 2.0 * ref for lo, hi in f.domain.axes]
    # slabs of the first probe axis keep memory bounded; the running
    # maximum is the grid's maximum (np.maximum keeps a NaN, as one np.max
    # would), but evaluate_grid may round differently per slab shape, so
    # the slab size stays fixed
    rows = max(1, _PROBE_BLOCK // len(ref) ** (d - 1))
    worst = [0.0] * len(interpolants)
    for start in range(0, len(ref), rows):
        slab = [axes_points[0][start : start + rows], *axes_points[1:]]
        exact = f.on_grid(slab)
        for k, interpolant in enumerate(interpolants):
            err = np.max(np.abs(exact - evaluate_grid(interpolant, slab)))
            worst[k] = np.maximum(worst[k], err)

    lo, hi = np.array(f.domain.axes).T
    unit = np.array(_pcg64_doubles(PROBE_SEED, 100 * d * d)).reshape(100 * d, d)
    random_pts = lo + (hi - lo) * unit
    exact_r = np.asarray(f.evaluator(random_pts), dtype=float)
    return [
        float(max(w, np.max(np.abs(exact_r - evaluate(interpolant, random_pts)))))
        for w, interpolant in zip(worst, interpolants)
    ]


# ---------------------------------------------------------------------------
# domination suite


def check_admissible(f: TestFunction, radii: tuple[float, ...]) -> None:
    """Raise unless ``radii`` fit ``f`` within ``ADMISSIBILITY_MARGIN``."""
    if len(radii) != f.dimension:
        raise ValueError(
            f"{f.id}: {len(radii)} radii for a {f.dimension}-dimensional function"
        )
    for i, (r, adm) in enumerate(zip(radii, f.admissible_rho)):
        if r > ADMISSIBILITY_MARGIN * adm:
            raise ValueError(
                f"{f.id}: radius {r} on axis {i} exceeds the admissible "
                f"margin {ADMISSIBILITY_MARGIN} * {adm}"
            )


def _default_resolution(
    table: dict[int, int], keyword: str, f: TestFunction, resolution: int | None
) -> int:
    if resolution is None and f.dimension not in table:
        raise ValueError(
            f"{f.id}: no default {keyword} for dimension {f.dimension}; pass {keyword}="
        )
    return table[f.dimension] if resolution is None else resolution


def _v_estimates(
    f: TestFunction, radii_schedule: Sequence[tuple[float, ...]], resolution: int | None = None
) -> list[float]:
    """V on the ellipse of each radii vector, every vector checked admissible first."""
    for radii in radii_schedule:
        check_admissible(f, radii)
    resolution = _default_resolution(DEFAULT_V_RESOLUTION, "v_resolution", f, resolution)
    ellipses = [GeneralizedBernsteinEllipse(f.domain, EllipseRadii(r)) for r in radii_schedule]
    return [estimate_V(f.evaluator, e, resolution=resolution) for e in ellipses]


def verify_domination(
    f: TestFunction,
    radii_schedule: Sequence[Sequence[float]],
    budget_schedule: Sequence[Sequence[int]],
    *,
    probe_resolution: int | None = None,
    v_resolution: int | None = None,
) -> list[VerificationRecord]:
    """Measure sup-error against the combined bound for every (radii, budget) pair.

    V is estimated once per radii vector on its generalized ellipse, and
    each budget is interpolated and its true error probed once.  The probe
    evaluates ``f`` once per slab for all budgets together, and per axis for
    separable families (see :meth:`TestFunction.on_grid`).  Both bounds
    are then evaluated per pair, and each record notes whether the error
    stays below ``combined + 1e-12 + 1e-10 * combined``.  Records come
    radii-major, budgets in schedule order.  Radii outside the 0.98
    admissibility margin, and dimensions without a default resolution, are
    rejected before any computation.
    """
    schedules = [tuple(float(r) for r in radii) for radii in radii_schedule]
    budgets = [NodeBudget(tuple(budget)) for budget in budget_schedule]
    probe_res = _default_resolution(
        DEFAULT_PROBE_RESOLUTION, "probe_resolution", f, probe_resolution
    )
    v_hats = _v_estimates(f, schedules, v_resolution)
    errors = _sup_errors(
        f, [interpolate(f.evaluator, f.domain, budget) for budget in budgets], probe_res
    )

    records = []
    for radii, v_hat in zip(schedules, v_hats):
        for budget, err in zip(budgets, errors):
            report = bound_combined(BoundInputs(EllipseRadii(radii), budget, v_hat))
            records.append(
                VerificationRecord(
                    function_id=f.id,
                    domain=f.domain,
                    radii=radii,
                    v_estimate=v_hat,
                    budget=budget.degrees,
                    empirical_error=err,
                    bound_a=report.a_value,
                    bound_b=report.b_value,
                    bound_combined=report.combined,
                    passed=err <= report.combined + 1e-12 + 1e-10 * report.combined,
                )
            )
    return records


#: the shipped suites, as the module docstring reads them
_SUITES = {
    "default": (
        ("sep-rational-d1", [(1.9,)], [(n,) for n in range(5, 29, 3)], None),
        ("sep-rational-d1-wide", [(5.0,)], [(3,), (6,), (9,), (12,)], None),
        ("exp-d1", [(2.0,), (8.0,), (20.0,)], [(5,), (10,), (15,)], None),
        ("nonsep-rational-d1", [(3.0,)], [(4,), (8,), (12,), (16,)], None),
        ("poly-cubic-d1", [(4.0,)], [(3,), (5,), (8,)], None),
        ("sep-rational-d2", [0.9, 0.5], [(4, 4), (8, 8), (12, 12), (10, 6)], None),
        ("sep-rational-d2-wide", [(3.0, 5.0)], [(4, 6), (8, 10), (10, 4), (12, 8)], None),
        ("exp-d2", [(3.0, 3.0), (6.0, 2.0)], [(6, 6), (10, 8)], None),
        ("nonsep-rational-d2", [(3.0, 3.0)], [(6, 6), (10, 10), (12, 5)], None),
        ("poly-cubic-d2", [(2.5, 2.5)], [(3, 3), (5, 4), (4, 6)], None),
        ("sep-rational-d3", [0.9], [(4, 4, 4), (8, 6, 5), (6, 6, 6)], None),
        ("sep-rational-d3", [(2.0, 2.4, 3.0)], [(7, 6, 5)], None),
        ("exp-d3", [(2.5, 2.5, 2.5)], [(5, 5, 5), (8, 6, 4), (6, 5, 4)], None),
        ("nonsep-rational-d3", [(2.6, 2.6, 2.6)], [(5, 5, 5), (7, 6, 5), (4, 4, 4)], None),
        ("poly-cubic-d3", [(2.0, 2.0, 2.0)], [(3, 3, 3), (4, 3, 5)], None),
    ),
    "quick": (
        ("sep-rational-d1", [(1.9,)], [(5,), (15,), (25,)], 129),
        ("exp-d2", [(3.0, 3.0)], [(6, 6)], 65),
        ("sep-rational-d2", [0.9], [(8, 8)], 65),
        ("poly-cubic-d1", [(4.0,)], [(3,)], 129),
    ),
}


def _run_suite(name: str) -> list[VerificationRecord]:
    """The records of every row of ``_SUITES[name]``, rows in table order."""
    records: list[VerificationRecord] = []
    for function_id, radii_schedule, budgets, probe_resolution in _SUITES[name]:
        f = builtin_function(function_id)
        radii_schedule = [
            r if isinstance(r, tuple) else tuple(r * adm for adm in f.admissible_rho)
            for r in radii_schedule
        ]
        records += verify_domination(f, radii_schedule, budgets, probe_resolution=probe_resolution)
    return records


def default_suite() -> list[VerificationRecord]:
    """The shipped domination suite: 62 records over D in {1,2,3}.

    Runs the ``"default"`` rows of ``_SUITES`` in order.  A radii entry 0.9
    there reads as 0.9 times each admissible radius of the row's builtin.
    """
    return _run_suite("default")


def quick_suite() -> list[VerificationRecord]:
    """A fast subset for smoke runs (same machinery, fewer records)."""
    return _run_suite("quick")


# ---------------------------------------------------------------------------
# coefficient decay


def coefficient_decay_check(f: TestFunction, rho: float, n: int) -> bool:
    """Whether every coefficient respects the decay-plus-aliasing envelope.

    Interpolation coefficients fold the aliased tail of the true expansion
    into indices 0..N, so the pure decay rate ``2 rho^-k V`` gains the
    folded-tail slack ``2 V rho^-(2N-k) / (1 - rho^-2N)`` and an absolute
    1e-12 cushion.
    """
    if f.dimension != 1:
        raise ValueError("coefficient decay check is univariate")
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least degree 1, got {n}")
    rho = float(rho)
    [v_hat] = _v_estimates(f, [(rho,)])
    interp = interpolate(f.evaluator, f.domain, NodeBudget((n,)))
    coeffs = np.abs(interp.coefficients)
    tail_denom = 1.0 - rho ** (-2.0 * n)
    for k in range(n + 1):
        envelope = (
            2.0 * v_hat * rho ** (-float(k))
            + 2.0 * v_hat * rho ** (-float(2 * n - k)) / tail_denom
            + 1e-12
        )
        if coeffs[k] > envelope:
            return False
    return True


# ---------------------------------------------------------------------------
# published reference values for the worked inputs


def reference_report() -> list[dict]:
    """Published value vs computed value, side by side, for every worked input.

    Includes the certified bounds of the published budgets themselves, so
    readers can see whether those budgets certify the stated target even
    where our minimal plans differ.
    """
    rows = []

    def row(case: str, published, computed) -> None:
        rows.append({"case": case, "published": published, "computed": computed})

    for (rho, n, v), published in PUBLISHED_BOUNDS.items():
        inputs = BoundInputs(EllipseRadii(rho), NodeBudget(n), v)
        case = f"rho=({','.join(map(str, rho))}) n=({','.join(map(str, n))}) v={v:g}"
        row(f"bound-b {case}", published["b"], bound_b(inputs))
        row(f"bound-a {case}", published["a"], bound_a(inputs)[0])

    # imported here alone, so that `chebbound verify` starts without the planner
    from .planner import PlanRequest, plan_nodes

    radii = EllipseRadii((2.95, 9.8))
    plan_b = plan_nodes(PlanRequest(radii, 1.0, 2e-4, "B"))
    plan_a = plan_nodes(PlanRequest(radii, 1.0, 2e-4, "A"))
    row(
        "plan-b rho=(2.95,9.8) v=1 eps=2e-4",
        "budget (11,5), 72 points",
        f"budget {plan_b.budget.degrees}, {plan_b.grid_points} points",
    )
    row(
        "plan-a rho=(2.95,9.8) v=1 eps=2e-4",
        "budget (8,4), 45 points",
        f"budget {plan_a.budget.degrees}, {plan_a.grid_points} points",
    )
    row(
        "certified b of published budget (11,5)",
        "<= 2e-4 (claimed)",
        bound_b(BoundInputs(radii, NodeBudget((11, 5)), 1.0)),
    )
    row(
        "certified a of published budget (8,4)",
        "<= 2e-4 (claimed)",
        bound_a(BoundInputs(radii, NodeBudget((8, 4)), 1.0))[0],
    )

    scan = crossover_scan(10, 2, 1.1, 20.0, steps=200)
    crossings = [r.rho for r in scan if r.winner == "CROSSOVER"]
    row(
        "crossover equal-rho n=10 d=2",
        2.800882,
        crossings[0] if len(crossings) == 1 else f"{len(crossings)} crossings: {crossings}",
    )
    return rows


# ---------------------------------------------------------------------------
# CSV emission


RECORD_CSV_HEADER = (
    "function_id,dimension,domain,radii,v_estimate,budget,"
    "empirical_error,bound_a,bound_b,bound_combined,passed"
)


def records_to_csv(records: Sequence[VerificationRecord]) -> str:
    """One row per record; lists are space-separated inside a cell."""
    rows = [dict(r.to_json_dict(), dimension=r.domain.dimension) for r in records]
    return jsonio.csv_text(RECORD_CSV_HEADER.split(","), rows)
