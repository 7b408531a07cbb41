"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the rounds alternate between untraced and
traced (their difference is the tracing overhead), followed by the
per-layer probes, and the metrics are the per-layer metrics.  See
perfbench/README.md for what each workload does and how it is checked.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: fresh set-ups per run, spread over the timed phase; setup_s is their median
SETUPS = 9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "plan", "approximate", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def emit(line: str = "") -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# set-up


def setup_in_process(name: str, seed: int, tracer=None):
    """(workload, seconds from before `import chebbound` to ready)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(name, ROOT, seed)
    wl.setup(workloads.Api(tracer))
    return wl, time.perf_counter() - t0


def setup_probe(name: str, seed: int):
    """A function that times one set-up in a fresh process and waits for it to end."""
    import workloads

    if name == "cli":
        # interpreter start-up plus `import chebbound.cli`, as each operation pays it
        argv, env = [sys.executable, "-c", "import chebbound.cli"], workloads.cli_env(ROOT)

        def probe():
            t0 = time.perf_counter()
            subprocess.run(argv, env=env, cwd=ROOT, check=True)
            return time.perf_counter() - t0

        return probe
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", "0", "--setup-probe"]

    def probe():
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]

    return probe


# ---------------------------------------------------------------------------
# the timed phase


def timed_phase(wl, seconds: float, probe, tracer=None) -> tuple[list[dict], list[float]]:
    """Whole rounds until the time is up and every side has its minimum of rounds.

    Without a tracer there is one side.  With one, rounds alternate between
    an untraced and a traced side, so both meet the same drift in host speed.
    Each side holds its records [(round index, seconds, output or None,
    error)], the wall time of its rounds and its round count.

    The SETUPS fresh set-ups run between operations, evenly spread over the
    timed phase, so they meet the same drift in host speed as the
    operations; their time is left out of the phase's clock and walls.
    Returns the sides and the set-up times.
    """
    sides = [{"records": [], "wall": 0.0, "rounds": 0} for _ in range(1 if tracer is None else 2)]
    setups: list[float] = []
    start = time.perf_counter()
    paused = 0.0

    def clock():
        return time.perf_counter() - start - paused

    turn = 0
    while min(side["rounds"] for side in sides) < wl.min_rounds or clock() < seconds:
        side = sides[turn]
        traced = turn == 1
        round_start, round_paused = time.perf_counter(), paused
        for index, spec in enumerate(wl.round_specs):
            if len(setups) < SETUPS and clock() >= len(setups) * seconds / SETUPS:
                t0 = time.perf_counter()
                setups.append(probe())
                paused += time.perf_counter() - t0
            if tracer:
                tracer.active = traced
            span = tracer.span(f"op.{wl.name}.{spec['kind']}") if traced else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    output, error = wl.run(spec), None
            except Exception as exc:  # an operation that raises counts as failed
                output, error = None, f"{type(exc).__name__}: {exc}"
            side["records"].append((index, time.perf_counter() - t0, output, error))
            if tracer:
                tracer.active = False
        side["wall"] += time.perf_counter() - round_start - (paused - round_paused)
        side["rounds"] += 1
        turn = (turn + 1) % len(sides)
    while len(setups) < SETUPS:
        setups.append(probe())
    return sides, setups


def check_phase(wl, records) -> tuple[int, bool, list[str], dict]:
    """(failed operations, whether every output that was checked is right,
    problems, round index -> the first output of that operation that passed)."""
    per_run = wl.run_checks([(index, output) for index, _, output, _ in records])
    failed = 0
    correct = True
    problems = []
    passed = {}
    for index, _, output, error in records:
        if error is not None:
            failed += 1
            problems.append(f"op {wl.round_specs[index]['kind']}: {error}")
            continue
        found = wl.check(index, output) + per_run.get(index, [])
        if found:
            failed += 1
            correct = False
            problems += found
        else:
            passed.setdefault(index, output)
    return failed, correct, problems, passed


def end_to_end(wl, records, wall: float, setups: list[float], peak_kib: int, passed: dict):
    import stats

    lat_ms = [dt * 1e3 for _, dt, _, _ in records]
    q, tail = stats.tail(lat_ms)
    metrics = {
        "setup_s": (stats.median(setups), "s"),
        "ops_per_s": (len(records) / wall, "1/s"),
        "latency_p50_ms": (stats.median(lat_ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "plan_grid_points": (wl.grid_points(passed), "points"),
    }
    return metrics, q


def describe(label: str, phase: dict) -> None:
    n = len(phase["records"])
    emit(f"{label}: {n} operations in {phase['rounds']} rounds, tail = p{phase['q']} of {n} samples")
    for name, (value, unit) in phase["metrics"].items():
        emit(f"  {name:<18} {value:>14.6g} {unit}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_workload(wl, seconds: float, probe, tracer=None) -> list[dict]:
    """Time, check and measure: one phase per side of timed_phase."""
    sides, setups = timed_phase(wl, seconds, probe, tracer)
    # read before the checks, which load the oracle and allocate on their own
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    for side in sides:
        side["failed"], side["correct"], side["problems"], passed = check_phase(wl, side["records"])
        side["metrics"], side["q"] = end_to_end(wl, side["records"], side["wall"], setups, peak_kib, passed)
    return sides


def report_problems(problems: list[str]) -> None:
    for line in sorted(set(problems))[:20]:
        emit(f"FAILED {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        _, elapsed = setup_in_process(args.workload, args.seed)
        emit(json.dumps({"setup_s": elapsed}))
        return 0
    if not (ROOT / "src" / "chebbound").is_dir():
        print(f"error: no chebbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    wl, _ = setup_in_process(args.workload, args.seed, tracer)
    probe = setup_probe(args.workload, args.seed)

    if not args.trace:
        [phase] = run_workload(wl, args.seconds, probe)
        describe(f"{wl.name} seed {args.seed}", phase)
        report_problems(phase["problems"])
        emit(result_line(phase["correct"], len(phase["records"]), phase["failed"], phase["metrics"]))
        return 0

    plain, traced = run_workload(wl, args.seconds, probe, tracer)
    describe(f"{wl.name} seed {args.seed}, untraced rounds", plain)
    describe(f"{wl.name} seed {args.seed}, traced rounds", traced)
    emit("tracing overhead (traced / untraced - 1):")
    for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
        emit(f"  {name:<18} {traced['metrics'][name][0] / plain['metrics'][name][0] - 1:+.1%}")
    emit(tracer.table())
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{wl.name}-s{args.seed}.json")
    report_problems(plain["problems"] + traced["problems"])

    layers = tracing.layer_metrics(ROOT, args.seed, emit)
    attempted = len(plain["records"]) + len(traced["records"])
    failed = plain["failed"] + traced["failed"]
    emit(result_line(plain["correct"] and traced["correct"], attempted, failed, layers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
