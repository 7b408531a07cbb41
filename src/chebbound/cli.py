"""Command-line front end: bounds, node planning, interpolation, verification, sweeps.

Each subcommand builds one record, the document that ``--format json``
prints, and :func:`_emit` renders it as JSON, CSV or a two-column table.
All output is deterministic: identical invocations produce byte-identical
bytes.  Floats are printed with 17 significant digits in ``json`` and
``csv`` formats and 6 in ``table`` format.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 when the
reader closed stdout before the output was written (``| head``), the code a
shell reports for a process ended by SIGPIPE.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys

from . import jsonio
from .bounds import (
    PUBLISHED_BOUNDS,
    BoundInputs,
    MParams,
    _winner_tag,
    bound_combined,
    crossover_scan,
    recursive_bound_B_min,
    scan_to_csv,
)
from .inputs import EllipseRadii, NodeBudget

# the planner loads inside the plan handler, and numpy and the numeric
# modules inside the interp and verify handlers, so `bound`, `plan` and
# `sweep` start on the standard library alone and only `plan` pays for the
# planner

__all__ = ["main"]

FORMATS = ("table", "json", "csv")

#: exit code when stdout is closed early, as for a process ended by SIGPIPE
EXIT_BROKEN_PIPE = 141


class CliUsageError(ValueError):
    """Bad flag combination or value; rendered to stderr with exit code 2."""


# ---------------------------------------------------------------------------
# flag parsing (argparse type= callables; ValueError -> exit 2 naming the flag)


def _list_type(parse):
    """``parse`` as an argparse type whose ``ValueError`` message is the error shown.

    argparse reports a plain ``ValueError`` as ``invalid <function name>
    value``, which drops the reason; an ``ArgumentTypeError`` keeps it.
    """

    def parse_flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_flag


@_list_type
def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


@_list_type
def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part, 10) for part in text.split(","))


#: flags taking a comma or colon list, whose first value may be negative
_LIST_FLAGS = frozenset({"--rho", "--n", "--probe", "--domain", "--rho-range"})
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite ``--probe -0.5,1`` as ``--probe=-0.5,1``.

    argparse reads any token starting with ``-`` as an option unless it is
    one plain negative number, so a list whose first value is negative
    needs the ``=`` form.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _LIST_FLAGS and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


@_list_type
def _rho_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


@_list_type
def _domain_spec(text: str):
    from .interpolation import Hyperrectangle

    axes = []
    for part in text.split(","):
        ends = part.split(":")
        if len(ends) != 2:
            raise ValueError(f"expected lo:hi per axis, got {part!r}")
        axes.append((float(ends[0]), float(ends[1])))
    return Hyperrectangle(tuple(axes))


def _check_rho(rho: tuple[float, ...]) -> None:
    for r in rho:
        if not (math.isfinite(r) and r > 1.0):
            raise CliUsageError(f"--rho: rho must exceed 1, got {r}")


def _from_flag(flag: str, build, *args):
    """``build(*args)``, its ``ValueError`` a usage error naming ``flag``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise CliUsageError(f"{flag}: {exc}") from None


def _check_finite(rows: list[dict]) -> None:
    """Refuse records holding a float past the largest double, naming its fields.

    The bounds return +inf there, which no output format can print.
    """
    keys = dict.fromkeys(
        key
        for row in rows
        for key, value in row.items()
        if isinstance(value, float) and not math.isfinite(value)
    )
    if keys:
        raise CliUsageError(
            f"{', '.join(keys)}: exceeds the largest double ({sys.float_info.max!r})"
        )


def _emit(fmt: str, doc, table_rows: list[tuple[str, object]], csv: str) -> None:
    """Print the record ``doc`` as JSON, the rendered ``csv`` text, or a table."""
    if fmt == "json":
        print(jsonio.dumps(doc))
    elif fmt == "csv":
        sys.stdout.write(csv)
    else:
        print(jsonio.table_text(table_rows))


def _check_csv_dir(path: str | None) -> None:
    """Refuse a ``--csv`` path whose directory is missing, before any work.

    The message is the one ``open`` would give for the path; nothing is
    created.
    """
    if path is None:
        return
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        raise CliUsageError(f"--csv: {OSError(code, os.strerror(code), path)}")


def _write_csv(path: str | None, text: str) -> None:
    """Write ``text`` to the ``--csv`` path, if given; an unwritable path is a usage error."""
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliUsageError(f"--csv: {exc}") from None


# ---------------------------------------------------------------------------
# bound


def cmd_bound(args: argparse.Namespace) -> int:
    rho, n, v = args.rho, args.n, args.v
    if len(rho) != len(n):
        raise CliUsageError(
            f"--rho/--n: need one order per radius, got {len(rho)} radii and {len(n)} orders"
        )
    _check_rho(rho)
    radii = _from_flag("--rho", EllipseRadii, rho)
    budget = _from_flag("--n", NodeBudget, n)
    # the radii and orders agree in number, so only the magnitude bound can fail
    inputs = _from_flag("--v", BoundInputs, radii, budget, v)
    params = _from_flag("--epsilon", MParams, args.epsilon)
    report = bound_combined(inputs, variant=args.variant)
    # refuses 1 + epsilon at or above the smallest radius
    recursive, _, _ = _from_flag("--epsilon", recursive_bound_B_min, inputs, params)

    doc = report.to_json_dict()
    doc["recursive"] = recursive
    doc["epsilon"] = args.epsilon
    _check_finite([doc])
    note = PUBLISHED_BOUNDS.get((tuple(rho), tuple(n), v))
    if note is not None:
        doc["published_reference"] = dict(note)

    table = [
        ("a", doc["a"]),
        ("b", doc["b"]),
        ("combined", doc["combined"]),
        ("winner", doc["winner"]),
        ("sigma*", doc["sigma_star"]),
        ("variant", doc["variant"]),
        ("recursive", doc["recursive"]),
    ]
    columns = (
        "rho", "n", "v", "variant", "a", "b", "combined", "winner", "sigma_star", "recursive"
    )
    _emit(args.format, doc, table, jsonio.csv_text(columns, [doc]))
    if args.format == "table" and note is not None:
        print(
            f"note: published reference values for these inputs: "
            f"a={note['a']}, b={note['b']} (computed values differ; "
            f"see the reproduction report)"
        )
    return 0


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args: argparse.Namespace) -> int:
    from .planner import PLAN_SELECTORS, PlanRequest, _check_target, compare_plans, plan_nodes

    _check_rho(args.rho)
    if not (math.isfinite(args.v) and args.v > 0):
        raise CliUsageError(f"--v: magnitude bound must be positive, got {args.v}")
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise CliUsageError(f"--eps: target must be positive, got {args.eps}")
    _from_flag("--eps", _check_target, args.eps)

    radii = _from_flag("--rho", EllipseRadii, args.rho)
    selector = "COMBINED" if args.selector == "all" else args.selector.upper()
    # the other fields are checked above, so only the radii can be refused
    request = _from_flag("--rho", PlanRequest, radii, args.v, args.eps, selector)
    if args.selector == "all":
        comparison = compare_plans(radii, args.v, args.eps).to_json_dict()
        doc = {
            "request": {"rho": list(args.rho), "v": args.v, "epsilon_target": args.eps},
            **comparison,
        }
        rows = [
            dict(comparison["plans"][key], savings_vs_b=comparison["savings_vs_b"][key])
            for key in PLAN_SELECTORS
        ]
        # one composite line per selector
        table = [
            (
                row["selector"],
                f"budget {jsonio.table_cell(row['budget'])}  "
                f"grid points {row['grid_points']}  "
                f"certified bound {jsonio.table_cell(row['certified_bound'])}  "
                f"savings vs B {jsonio.table_cell(row['savings_vs_b'])}",
            )
            for row in rows
        ]
        columns = ("selector", "budget", "grid_points", "certified_bound", "savings_vs_b")
        _emit(args.format, doc, table, jsonio.csv_text(columns, rows))
        return 0

    doc = plan_nodes(request).to_json_dict()
    table = [
        ("selector", doc["selector"]),
        ("budget", doc["budget"]),
        ("grid points", doc["grid_points"]),
        ("certified bound", doc["certified_bound"]),
    ]
    columns = ("selector", "budget", "grid_points", "certified_bound")
    _emit(args.format, doc, table, jsonio.csv_text(columns, [doc]))
    return 0


# ---------------------------------------------------------------------------
# interp


def cmd_interp(args: argparse.Namespace) -> int:
    import numpy as np

    from . import verification
    from .interpolation import evaluate, interpolate

    f = _from_flag("--function", verification.builtin_function, args.function)
    if args.domain is not None:
        f = _from_flag("--domain", verification.builtin_function, args.function, args.domain)
    d = f.dimension
    if len(args.n) != d:
        raise CliUsageError(
            f"--n: {f.id} has {d} axes, got {len(args.n)} orders"
        )
    budget = _from_flag("--n", NodeBudget, args.n)
    if len(args.probe) != d:
        raise CliUsageError(
            f"--probe: {f.id} has {d} axes, got {len(args.probe)} coordinates"
        )
    for i, ((lo, hi), p) in enumerate(zip(f.domain.axes, args.probe)):
        if not lo <= p <= hi:
            raise CliUsageError(
                f"--probe: coordinate {p} lies outside domain axis {i} [{lo}, {hi}]"
            )
    if args.rho is not None:
        if len(args.rho) != d:
            raise CliUsageError(
                f"--rho: {f.id} has {d} axes, got {len(args.rho)} radii"
            )
        _check_rho(args.rho)
        rho = args.rho
    else:
        rho = tuple(
            4.0 if math.isinf(adm) else verification.ADMISSIBILITY_MARGIN * adm
            for adm in f.admissible_rho
        )
    rho = _from_flag("--rho", EllipseRadii, rho).values
    _from_flag("--rho", verification.check_admissible, f, rho)

    interp = interpolate(f.evaluator, f.domain, budget)
    probe = np.asarray(args.probe, dtype=float)
    value = evaluate(interp, probe)
    truth = float(np.asarray(f.evaluator(probe), dtype=float))
    [record] = verification.verify_domination(f, [rho], [budget.degrees])

    doc = {
        "function": f.id,
        "domain": [list(ax) for ax in f.domain.axes],
        "n": list(budget.degrees),
        "rho": list(rho),
        "probe": [float(p) for p in probe],
        "value": value,
        "true_value": truth,
        "probe_error": abs(value - truth),
        "sup_error_estimate": record.empirical_error,
        "v_estimate": record.v_estimate,
        "a": record.bound_a,
        "b": record.bound_b,
        "combined": record.bound_combined,
        "winner": _winner_tag(record.bound_a, record.bound_b),
    }
    _check_finite([doc])
    labels = {"v_estimate": "V estimate", "combined": "combined bound"}
    table = [(labels.get(key, key.replace("_", " ")), cell) for key, cell in doc.items()]
    _emit(args.format, doc, table, jsonio.csv_text(list(doc), [doc]))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verification

    _check_csv_dir(args.csv)
    records = verification._run_suite(args.suite)
    failed = [r for r in records if not r.passed]
    csv = verification.records_to_csv(records)
    _write_csv(args.csv, csv)

    doc = {
        "suite": args.suite,
        "records": [r.to_json_dict() for r in records],
        "total": len(records),
        "failed": len(failed),
        "passed": not failed,
    }
    table = [
        ("suite", args.suite),
        ("records", len(records)),
        ("passed", len(records) - len(failed)),
        ("failed", len(failed)),
    ]
    _emit(args.format, doc, table, csv)
    if args.format == "table":
        for r in failed:
            print(
                f"FAILED {r.function_id} radii={r.radii} budget={r.budget} "
                f"error={jsonio.format_float(r.empirical_error)} "
                f"bound={jsonio.format_float(r.bound_combined)}"
            )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    lo, hi = args.rho_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliUsageError(f"--rho-range: ends must be finite, got {lo}:{hi}")
    if not 1.0 < lo < hi:
        raise CliUsageError(f"--rho-range: need 1 < lo < hi, got {lo}:{hi}")
    if args.steps < 2:
        raise CliUsageError(f"--steps: need at least 2, got {args.steps}")
    if args.n < 0:
        raise CliUsageError(f"--n: order must be >= 0, got {args.n}")
    if args.d < 1:
        raise CliUsageError(f"--d: dimension must be >= 1, got {args.d}")
    # the scan builds these inputs at every radius; refuse them once, by flag
    budget = _from_flag("--n/--d", NodeBudget, (args.n,) * args.d)
    radii = _from_flag("--rho-range", EllipseRadii, (lo,) * args.d)
    _from_flag("--v", BoundInputs, radii, budget, args.v)
    _check_csv_dir(args.csv)

    records = crossover_scan(args.n, args.d, lo, hi, args.steps, args.v)
    rows = [r._asdict() for r in records]
    _check_finite(rows)
    csv = scan_to_csv(records)
    _write_csv(args.csv, csv)

    crossings = [r.rho for r in records if r.winner == "CROSSOVER"]
    table = [("scan points", len(records) - len(crossings)), ("crossings", len(crossings))]
    table += [(f"crossover {i + 1}", rho) for i, rho in enumerate(crossings)]
    _emit(args.format, rows, table, csv)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebbound",
        description=(
            "Tensorized Chebyshev interpolation with certified error bounds: "
            "evaluate the bounds, plan node budgets, interpolate builtin test "
            "functions, run the soundness suite, and emit sweep data."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser, default: str) -> None:
        p.add_argument(
            "--format",
            choices=FORMATS,
            default=default,
            help=f"output format (default {default})",
        )

    p_bound = sub.add_parser(
        "bound", help="evaluate the certified error bounds for given inputs"
    )
    p_bound.add_argument("--rho", type=_float_list, required=True, metavar="R1,R2,...")
    p_bound.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    p_bound.add_argument("--v", type=float, required=True, metavar="V")
    p_bound.add_argument("--variant", choices=("consistent", "literal"), default="consistent")
    p_bound.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="grid evaluation error folded into the recursive bound (default 0)",
    )
    add_format(p_bound, "table")
    p_bound.set_defaults(handler=cmd_bound)

    p_plan = sub.add_parser("plan", help="smallest certified node budget for a target")
    p_plan.add_argument("--rho", type=_float_list, required=True, metavar="R1,R2,...")
    p_plan.add_argument("--v", type=float, required=True, metavar="V")
    p_plan.add_argument("--eps", type=float, required=True, metavar="EPS")
    p_plan.add_argument(
        "--selector",
        choices=("a", "b", "combined", "recursive", "all"),
        default="combined",
    )
    add_format(p_plan, "table")
    p_plan.set_defaults(handler=cmd_plan)

    p_interp = sub.add_parser(
        "interp", help="interpolate a builtin test function and report errors"
    )
    p_interp.add_argument("--function", required=True, metavar="ID")
    p_interp.add_argument(
        "--domain",
        type=_domain_spec,
        default=None,
        metavar="LO:HI,LO:HI,...",
        help="override the builtin domain",
    )
    p_interp.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    p_interp.add_argument("--probe", type=_float_list, required=True, metavar="X1,X2,...")
    p_interp.add_argument(
        "--rho",
        type=_float_list,
        default=None,
        metavar="R1,R2,...",
        help="ellipse radii for the bound (default: 0.98 * admissible, 4.0 for entire)",
    )
    add_format(p_interp, "table")
    p_interp.set_defaults(handler=cmd_interp)

    p_verify = sub.add_parser("verify", help="run the empirical soundness suite")
    p_verify.add_argument("--suite", choices=("default", "quick"), default="default")
    p_verify.add_argument("--csv", default=None, metavar="PATH", help="also write records CSV")
    add_format(p_verify, "table")
    p_verify.set_defaults(handler=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="A-vs-B sweep over equal radii (figure data)"
    )
    p_sweep.add_argument("--n", type=int, default=10)
    p_sweep.add_argument("--d", type=int, default=2)
    p_sweep.add_argument("--rho-range", type=_rho_range, default=(1.1, 20.0), metavar="LO:HI")
    p_sweep.add_argument("--steps", type=int, default=200)
    p_sweep.add_argument("--v", type=float, default=1.0)
    p_sweep.add_argument("--csv", default=None, metavar="PATH", help="also write scan CSV")
    add_format(p_sweep, "csv")
    p_sweep.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_negative_lists(sys.argv[1:] if argv is None else list(argv))
        )
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code) if exc.code is not None else 0
    import io  # loaded at start-up by every interpreter

    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.FileIO):
        # unbuffered stdout (`python -u`): its text layer drops the rest of a
        # short write, so a closed pipe would pass as success; a buffered
        # writer writes everything or raises
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(stdout.buffer), stdout.encoding, stdout.errors, "\n"
        )
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`): end quietly, and let the
        # interpreter's last flush write to /dev/null instead of the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:  # CliUsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if sys.stdout is not stdout:
            sys.stdout.detach().detach()  # flush, and hand the raw stream back open
            sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
