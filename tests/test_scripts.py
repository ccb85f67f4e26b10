"""The scripts under scripts/ run to completion with small arguments."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "name, args, code, printed",
    [
        pytest.param("demo_end_to_end.py", (), 0, None, id="demo"),
        pytest.param("demo_end_to_end.py", ("--tamper-bit", "0"), 2, None, id="demo-tampered"),
        pytest.param("freshness_stats.py",
                     ("--chains", "3", "--steps", "2", "--widths", "8", "16"), 0, None,
                     id="freshness"),
        pytest.param("scaling_sweep.py",
                     ("--sizes", "2", "5", "--widths", "8", "--repeat", "1"), 0,
                     r"(?m)^operation .* audit_ms +total_ms +match +text$"
                     r"(\n.* +\d+\.\d{3} +\d+\.\d{3} +yes +yes$)+",
                     id="scaling-sweep"),
        pytest.param("scaling_sweep.py", ("--cli", "--sizes", "2", "--widths", "12"), 0,
                     r"(?m)^cold import asgs\.cli: -?\d+\.\d ms above a bare interpreter start",
                     id="scaling-sweep-cli"),
        pytest.param("ab.py", ("--parent", str(ROOT), "--change", str(ROOT),
                               "--processes", "2", "--rounds", "2", "--calls", "1"), 0,
                     r"(?m)^chain +procs +median +min +max$"
                     r"(\n(main|narrow|wide|cli|codec) +2( +\d+\.\d{3}){3}$){5}",
                     id="ab"),
    ],
)
def test_exit_code(name, args, code, printed):
    """Each script exits with ``code`` and, where given, prints a line
    matching ``printed``."""
    result = run_script(name, *args)
    assert result.returncode == code, result.stderr
    if printed is not None:
        assert re.search(printed, result.stdout), result.stdout
