"""Frozen ``--help`` texts and one usage error of the command line.

``tests/golden/help/<name>.txt`` holds what ``asgs`` printed for each
case at a terminal width of 80 columns: the help text on stdout, or the
usage error on stderr. The comparison collapses runs of whitespace,
because argparse line wrapping differs between Python versions (3.13
wraps usage lines differently from 3.10-3.12); the words and their order
must match exactly.

Regenerate the files from the repository root with::

    COLUMNS=80 PYTHONPATH=src python tests/test_help.py
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import pytest

from asgs.cli import main

HELP_DIR = Path(__file__).parent / "golden" / "help"

# name -> (argv, expected exit code); exit 0 prints to stdout, 1 to stderr.
CASES = {
    "asgs": (["--help"], 0),
    "gen-m": (["gen-m", "--help"], 0),
    "set-generate": (["set-generate", "--help"], 0),
    "replicate": (["replicate", "--help"], 0),
    "fastshare": (["fastshare", "--help"], 0),
    "safeshares": (["safeshares", "--help"], 0),
    "activate": (["activate", "--help"], 0),
    "pvss": (["pvss", "--help"], 0),
    "pvss-distribute": (["pvss", "distribute", "--help"], 0),
    "pvss-recover-keys": (["pvss", "recover-keys", "--help"], 0),
    "pvss-verify": (["pvss", "verify", "--help"], 0),
    "simulate": (["simulate", "--help"], 0),
    "audit": (["audit", "--help"], 0),
    "missing-secret": (["fastshare", "--n", "3"], 1),
}


def capture(name: str) -> str:
    """Run one case and return what it printed; check its exit code."""
    argv, expected_exit = CASES[name]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == expected_exit, f"{name}: exit {code}"
    return (stdout if expected_exit == 0 else stderr).getvalue()


def words(text: str) -> str:
    return " ".join(text.split())


@pytest.mark.parametrize("name", sorted(CASES))
def test_help_matches_golden(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = (HELP_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert words(capture(name)) == words(golden)


def regenerate() -> None:
    HELP_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        (HELP_DIR / f"{name}.txt").write_text(capture(name), encoding="utf-8")
        print(name)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    regenerate()
