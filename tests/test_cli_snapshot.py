"""Byte snapshots of the CLI: every subcommand in every format it accepts,
plus invalid-input paths, compared on stdout, stderr and exit code.

The expected bytes live in cli_snapshots.json. To record them again after
an intended output change, run this file as a script from the repository
root: `PYTHONPATH=src python tests/test_cli_snapshot.py`.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from divmono.cli import main

SNAPSHOT_FILE = pathlib.Path(__file__).with_name("cli_snapshots.json")
# argparse wraps its usage text to the terminal width
COLUMNS = "80"

CASES = [
    ["sigma", "--p", "7", "--a", "0", "--b", "2"],
    ["sigma", "--p", "7", "--a", "0", "--b", "2", "--format", "json"],
    ["test", "--p", "2", "--a", "1", "--b", "1", "--n", "11"],
    ["test", "--p", "2", "--a", "1", "--b", "1", "--n", "11", "--format", "csv"],
    ["test", "--p", "2", "--a", "1", "--b", "1", "--n", "11", "--format", "json"],
    ["test", "--p", "2", "--a", "0", "--b", "1", "--n", "5", "--image", "index2"],
    ["table", "--p", "2", "--n-max", "60"],
    ["table", "--p", "2", "--n-max", "60", "--format", "csv"],
    ["table", "--p", "2", "--n-max", "60", "--format", "json"],
    ["curve", "--family", "semistable", "--s", "1", "--n", "11", "--p-max", "30"],
    ["curve", "--family", "semistable", "--s", "1", "--n", "11", "--p-max", "30",
     "--format", "csv"],
    ["curve", "--family", "semistable", "--s", "1", "--n", "11", "--p-max", "30",
     "--format", "json"],
    ["curve", "--family", "daniels", "--t", "3", "--n", "11", "--p-max", "7"],
    ["curve", "--family", "uv", "--u", "1", "--v", "2", "--n", "11", "--p-max", "7"],
    ["curve", "--a1", "0", "--a2", "0", "--a3", "0", "--a4", "0", "--a6", "1",
     "--n", "11", "--p-max", "7"],
    ["supersingular", "--p", "7"],
    ["supersingular", "--p", "7", "--format", "json"],
    ["corollary", "--index", "1"],
    ["corollary", "--index", "1", "--format", "json"],
    # invalid input: exit 2 with a message on stderr
    ["sigma", "--p", "2", "--a", "3", "--b", "1"],
    ["sigma", "--p", "2", "--a", "0", "--b", "2"],
    ["sigma", "--p", "4", "--a", "0", "--b", "1"],
    ["sigma", "--p", "2", "--a", "0", "--b", "0"],
    ["test", "--p", "3", "--a", "0", "--b", "1", "--n", "6"],
    ["curve", "--family", "uv", "--u", "1", "--n", "11", "--p-max", "7"],
    ["curve", "--family", "daniels", "--n", "11", "--p-max", "7"],
    ["curve", "--n", "11", "--p-max", "7"],
    ["curve", "--family", "legendre", "--n", "11", "--p-max", "7"],
    ["supersingular", "--p", "3"],
]


def run_cli(argv: list[str]) -> dict:
    """Run the CLI in-process; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _snapshots() -> dict:
    records = json.loads(SNAPSHOT_FILE.read_text())
    return {" ".join(r["argv"]): r for r in records}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_bytes_match_snapshot(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run_cli(argv) == _snapshots()[" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    SNAPSHOT_FILE.write_text(json.dumps([run_cli(a) for a in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} snapshots to {SNAPSHOT_FILE}")
