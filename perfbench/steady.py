"""Repeat every workload over several seeds and report how steady each metric is.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --save out/set-a.json
    python3 perfbench/steady.py --compare perfbench/out/set-a.json perfbench/out/set-b.json

For each workload and end-to-end metric it prints the median and quartiles
across runs and the spread (third minus first quartile, as a share of the
median).  A spread above the metric's bound in BENCHMARK.json is flagged
FAIL, one above a third of the bound is flagged "wide".  ``--compare`` checks that the second set's medians
are no worse than the first's by more than the bound, and that the share of
failed operations is the same.  Runs are sequential: one process at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: dict, config: dict) -> bool:
    """Print quartiles per workload x metric; False if any spread breaks its bound."""
    ok = True
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, failed share {shares}")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = stats.quartiles(values)
            spread = stats.spread(values)
            flag = ""
            if spread > bound:
                flag, ok = "FAIL", False
            elif spread > bound / 3:
                flag = "wide"
            print(f"  {name:<18} median {med:>12.6g}  q1 {q1:>12.6g}  q3 {q3:>12.6g}  spread {spread:6.1%} (bound {bound:.0%}) {flag}")
    return ok


def compare(first: dict, second: dict, config: dict) -> bool:
    ok = True
    for workload in first:
        print(workload)
        a_runs, b_runs = first[workload], second[workload]
        share = lambda runs: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        if share(a_runs) != share(b_runs):
            print(f"  failed share differs: {share(a_runs)} vs {share(b_runs)}  FAIL")
            ok = False
        for metric in config["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a = stats.median([r["metrics"][name]["value"] for r in a_runs])
            b = stats.median([r["metrics"][name]["value"] for r in b_runs])
            worse = (b / a - 1) if lower else (a / b - 1)
            flag = "FAIL" if worse > bound else ""
            if flag:
                ok = False
            print(f"  {name:<18} {a:>12.6g} -> {b:>12.6g}  worse by {worse:+7.1%} (bound {bound:.0%}) {flag}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", type=Path, help="write the raw results here (JSON)")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)
    config = bench_config()

    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return 0 if compare(first, second, config) else 1

    results = {}
    for workload in (w["name"] for w in config["workloads"]):
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, config["run_seconds"])
            results[workload].append(result)
            m = result["metrics"]
            print(f"{workload} seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}" for k, v in m.items()), flush=True)
        if args.save:
            args.save.parent.mkdir(parents=True, exist_ok=True)
            args.save.write_text(json.dumps(results, indent=1))
    return 0 if summarize(results, config) else 1


if __name__ == "__main__":
    sys.exit(main())
