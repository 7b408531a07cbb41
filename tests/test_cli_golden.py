"""Golden snapshots of the CLI: stdout, stderr, exit code and --csv files.

Every subcommand runs in each output format against the bytes recorded in
``tests/data/cli_golden.json``.  The snapshots pin 17-digit floats, so a
change that moves any printed value by one ulp fails here on purpose.  A
few values sit at rounding level (the interp ``value`` and ``probe_error``
digits, the polynomial probe errors, the suite's sup errors); they were
recorded with numpy 2.4 on x86-64, and another
numpy build may move their last digits.  The ``sweep`` digits follow the
platform libm ``exp`` (``math.exp``) that builds the scan grid, so a libm
that rounds ``exp`` differently may move them by one ulp.

To record the snapshots again (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from chebbound.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

#: replaced by a temporary file path; the file's bytes are snapshotted too
CSV_PATH = "{csv}"

_FORMATS = ("table", "json", "csv")

_COMMANDS = [
    ["bound", "--rho", "2", "--n", "10", "--v", "1"],
    ["bound", "--rho", "2.3,1.8", "--n", "10,10", "--v", "1"],
    ["bound", "--rho", "2.3,1.8", "--n", "10,10", "--v", "1", "--variant", "literal"],
    ["bound", "--rho", "2,2.5,3,1.8,2.2,4", "--n", "6,5,4,7,5,3", "--v", "2",
     "--epsilon", "0.1"],
    ["bound", "--rho", "1.01", "--n", "400000", "--v", "1"],
    ["plan", "--rho", "2", "--v", "1", "--eps", "4", "--selector", "a"],
    ["plan", "--rho", "2.95,9.8", "--v", "1", "--eps", "2e-4", "--selector", "recursive"],
    ["plan", "--rho", "2.95,9.8", "--v", "1", "--eps", "2e-4", "--selector", "all"],
    ["interp", "--function", "poly-cubic-d2", "--n", "3,3", "--probe", "0.3,-0.4"],
    ["interp", "--function", "sep-rational-d1", "--n", "20", "--probe", "0.5"],
    ["interp", "--function", "exp-d3", "--n", "14,14,14", "--probe", "-0.48,0.63,0.78"],
    ["interp", "--function", "poly-cubic-d1", "--domain", "-2:1", "--n", "3",
     "--probe", "-1.5"],
    ["verify", "--suite", "quick"],
    ["sweep"],
    ["sweep", "--d", "3"],
]

INVOCATIONS = [cmd + ["--format", fmt] for cmd in _COMMANDS for fmt in _FORMATS] + [
    # the --csv file is written whatever the stdout format
    ["verify", "--suite", "quick", "--format", "table", "--csv", CSV_PATH],
    ["sweep", "--format", "json", "--csv", CSV_PATH],
    # usage errors: exit 2 with a message naming the flag
    ["bound", "--rho", "2,3", "--n", "5", "--v", "1"],
    ["plan", "--rho", "2", "--v", "1", "--eps", "0"],
]


def _run(argv, tmp_dir: Path) -> dict:
    csv_file = tmp_dir / "out.csv"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(csv_file) if a == CSV_PATH else a for a in argv])
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "csv": csv_file.read_text(encoding="utf-8") if CSV_PATH in argv else None,
    }


def _load() -> dict:
    return {" ".join(s["argv"]): s for s in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_output_matches_snapshot(argv, tmp_path):
    assert _run(argv, tmp_path) == _load()[" ".join(argv)]


def test_snapshots_cover_every_invocation():
    assert sorted(_load()) == sorted(" ".join(a) for a in INVOCATIONS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        snapshots = [_run(argv, Path(tmp)) for argv in INVOCATIONS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshots, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(snapshots)} snapshots to {GOLDEN}")
