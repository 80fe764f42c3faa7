"""The example scripts run end to end against the checkout's src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


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
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


@pytest.mark.parametrize(
    "script,args,message",
    [
        ("noclone_search.py", ["--budget", "0"], "argument --budget: must be >= 1, got 0"),
        ("noclone_search.py", ["--workers", "0"], "argument --workers: must be >= 1, got 0"),
        (
            "deletion_probability_sweep.py",
            ["--max-m", "0"],
            "argument --max-m: must be >= 1, got 0",
        ),
        ("dictionary_demo.py", ["--primes", "2", "4"], "q must be prime, got 4"),
    ],
)
def test_script_rejects_bad_numbers_with_exit_2(script, args, message):
    proc = run_script(script, args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.rstrip().endswith(message)
    assert "Traceback" not in proc.stderr
