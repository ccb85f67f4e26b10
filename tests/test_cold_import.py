"""Importing the CLI builds no generated code: a fresh interpreter that
imports ``asgs.cli`` loads neither :mod:`dataclasses`, which compiles
methods for each class it decorates, nor :mod:`inspect`, which it pulls
in. ``-S`` keeps the site's start-up hooks out of the count.
"""

import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SOURCE), env.get("PYTHONPATH")) if p)
    code = ("import sys, asgs.cli; "
            "print(sorted({'asgs.cli', 'dataclasses', 'inspect'} & sys.modules.keys()))")
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['asgs.cli']\n"
