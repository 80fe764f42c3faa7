"""The example scripts run end to end against the checkout's src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,line",
    [
        (
            "noclone_search.py",
            ["--max-m", "2", "--max-l", "2", "--show-witness"],
            "  witness blank: (w^0,0)@2",
        ),
        (
            "deletion_probability_sweep.py",
            ["--max-m", "3", "--max-l", "3"],
            "  3        4/7*        9/13*       16/21*",
        ),
        (
            "dictionary_demo.py",
            ["--primes", "2", "3"],
            "scalar groups: modal order 4, absolute order 4; "
            "fixed field sizes 3 vs 3; aligned",
        ),
    ],
)
def test_script_runs(script, args, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
