"""Frozen artifact bytes for fixed-seed and fixture CLI scenarios.

Each scenario is a short chain of CLI invocations run in a fresh working
directory; step k writes its artifacts to ``step<k>/`` and later steps
read earlier ones by relative path, so no absolute path reaches an
artifact. Every file a scenario writes, ``transcript.json`` included, is
compared byte for byte with its copy under ``tests/golden/<scenario>/``,
and each step's command line, exit code and stdout with
``tests/golden/<scenario>/stdout.txt``. Widths 8, 12 (not a byte
multiple) and 128 are covered.

A change that is meant to alter artifact bytes regenerates the golden
files by running this module as a script from the repository root::

    PYTHONPATH=src python tests/test_golden.py

and commits the result together with the change that explains it.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from asgs.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
STDOUT_FILE = "stdout.txt"

SECRET_128 = "0123456789abcdeffedcba9876543210"

# Fixture files written into each scenario's working directory. Each
# 12-bit vector is four hex digits whose last (padding) digit is zero.
FIXTURES = {
    "owner8.txt": "11\n22\n",
    "acc8.txt": "01\n02\n04\n08\n10\n20\n40\n80\n",
    "dealer8.txt": "3c\nc3\n5a\na5\n",
    "acc12.txt": "a5c0\n0130\nfff0\n8000\n0010\n7e20\n3c40\n1110\n",
    "dealer12.txt": "0f00\n00f0\nf000\nabc0\n1230\n4560\n7890\n",
}

# name -> ((argv, expected exit code), ...); step k writes to step<k>/.
SCENARIOS = {
    "genm_seed_w8": (
        (["gen-m", "--bits", "8", "--n", "5", "--seed", "3"], 0),
    ),
    "fastshare_fixture_w8": (
        (["fastshare", "--bits", "8", "--secret", "5a", "--n", "3",
          "--fixture", "owner:owner8.txt"], 0),
    ),
    "fastshare_seed_w12": (
        (["fastshare", "--bits", "12", "--secret", "9e30", "--n", "4",
          "--seed", "11"], 0),
    ),
    "setgen_fixture_w12": (
        (["set-generate", "--bits", "12", "--d", "2", "--n", "3",
          "--fixture", "accumulator:acc12.txt"], 0),
        (["replicate", "--mode", "smaller", "--d", "2", "--in", "step1/u2.json",
          "--seed", "4"], 0),
        (["pvss", "distribute", "--set1", "step1/u1.json", "--set2", "step2/derived.json",
          "--fixture", "dealer:dealer12.txt"], 0),
        (["pvss", "verify", "--bulletin", "step3/bulletin.json",
          "--keys", "step3/keys.json"], 0),
    ),
    "safeshares_activate_w128": (
        (["safeshares", "--bits", "128", "--secret", SECRET_128, "--n", "4",
          "--seed", "21", "--audit"], 0),
        (["activate", "--state", "step1/state.json", "--seed", "22", "--audit"], 0),
        (["replicate", "--mode", "bigger", "--d", "6", "--in", "step2/activated.json",
          "--seed", "23"], 0),
    ),
    "simulate_safeshares_w128": (
        (["simulate", "safeshares", "--bits", "128", "--secret", SECRET_128,
          "--n", "3", "--seed", "7", "--then", "activate", "--then", "replicate-equal",
          "--then", "replicate-bigger=5", "--then", "replicate-smaller=2",
          "--then", "pvss", "--audit"], 0),
    ),
    "simulate_setgen_fixture_w8": (
        (["simulate", "set-generate", "--bits", "8", "--d", "2", "--n", "2",
          "--fixture", "accumulator:acc8.txt", "--fixture", "dealer:dealer8.txt",
          "--then", "pvss"], 0),
    ),
    "pvss_tamper_w8": (
        (["set-generate", "--bits", "8", "--d", "2", "--n", "3", "--seed", "5"], 0),
        (["pvss", "distribute", "--set1", "step1/u1.json", "--set2", "step1/u2.json",
          "--seed", "6", "--tamper", "dealer:key:2:bit:3"], 0),
        (["pvss", "verify", "--bulletin", "step2/bulletin.json",
          "--keys", "step2/keys.json", "--seed", "7"], 2),
        (["pvss", "recover-keys", "--keys", "step2/keys.json", "--seed", "8"], 0),
    ),
}


def run_scenario_in(name: str, workdir: Path) -> tuple[dict[str, bytes], str]:
    """Run one scenario inside ``workdir``; return its artifacts by
    relative path and its stdout log (each step's command line, exit
    code and stdout). Fails if a step exits with an unexpected code."""
    workdir.mkdir(parents=True, exist_ok=True)
    for fixture, text in FIXTURES.items():
        (workdir / fixture).write_text(text, encoding="utf-8")
    previous = os.getcwd()
    os.chdir(workdir)
    log = []
    try:
        for k, (argv, expected_exit) in enumerate(SCENARIOS[name], start=1):
            step_argv = [*argv, "--out", f"step{k}"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(step_argv)
            assert code == expected_exit, f"{name} step {k}: exit {code}"
            log.append(f"$ asgs {' '.join(step_argv)}\nexit {code}\n{stdout.getvalue()}")
    finally:
        os.chdir(previous)
    return step_files(workdir), "".join(log)


def step_files(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.glob("step*/*"))
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_artifacts_match_golden_bytes(name, tmp_path):
    fresh, _ = run_scenario_in(name, tmp_path / name)
    golden = step_files(GOLDEN_DIR / name)
    assert golden, f"no golden files for {name}"
    assert sorted(fresh) == sorted(golden)
    for relative, content in golden.items():
        assert fresh[relative] == content, f"{name}/{relative} differs from golden"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stdout_matches_golden(name, tmp_path):
    _, log = run_scenario_in(name, tmp_path / name)
    golden = (GOLDEN_DIR / name / STDOUT_FILE).read_text(encoding="utf-8")
    assert log == golden


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(SCENARIOS):
            fresh, log = run_scenario_in(name, Path(scratch) / name)
            target = GOLDEN_DIR / name
            shutil.rmtree(target, ignore_errors=True)
            for relative, content in fresh.items():
                path = target / relative
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(content)
            (target / STDOUT_FILE).write_text(log, encoding="utf-8")
            print(f"{name}: {len(fresh)} files")


if __name__ == "__main__":
    regenerate()
