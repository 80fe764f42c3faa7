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
        (
            "deletion_probability_sweep.py",
            ["--max-m", "4302", "--max-l", "9"],
            "the probability at m=4302, l=9 has more than 4300 digits, "
            "the limit of sys.get_int_max_str_digits()",
        ),
    ],
)
def test_script_rejects_bad_numbers_with_exit_2(script, args, message):
    proc = run_script(script, args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.rstrip().endswith(message)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args,message,searched",
    [
        (
            ["--budget", "1"],
            "budget exceeded: U(4) at level 1 needs 24 candidates, budget is 1",
            [],
        ),
        (
            ["--max-m", "3"],
            "budget exceeded: U(9) at level 2 needs 185794560 candidates, "
            "budget is 10000000",
            ["m=2 l=1", "m=2 l=2", "m=3 l=1"],
        ),
    ],
)
def test_noclone_search_over_budget_exits_3(args, message, searched):
    proc = run_script("noclone_search.py", args)
    assert proc.returncode == 3
    assert proc.stderr.rstrip().endswith(message)
    assert "Traceback" not in proc.stderr
    # the points searched before the refusal print as in a run within budget
    lines = proc.stdout.splitlines()
    assert [line.split("  ")[0] for line in lines if line.startswith("m=")] == searched
    within = ""
    if searched:
        within = run_script("noclone_search.py", ["--max-m", "2"]).stdout
    assert proc.stdout.startswith(within)


@pytest.mark.parametrize("args", [["--max-m", "4302", "--max-l", "9"], ["--max-m", "0"]])
def test_sweep_refused_run_leaves_the_csv_file_alone(args, tmp_path):
    # The CSV path is opened only once the arguments are accepted.
    path = tmp_path / "keep.csv"
    path.write_bytes(b"keep me\n")
    proc = run_script("deletion_probability_sweep.py", ["--csv", str(path), *args])
    assert proc.returncode == 2
    assert path.read_bytes() == b"keep me\n"


def test_sweep_writes_the_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    args = ["--max-m", "3", "--max-l", "2", "--csv", str(path)]
    proc = run_script("deletion_probability_sweep.py", args)
    assert proc.returncode == 0, proc.stderr
    assert path.read_text().splitlines() == [
        "m,l,num,den,value,audited",
        "1,1,1,1,1.0,1",
        "1,2,1,1,1.0,1",
        "2,1,2,3,0.6666666666666666,1",
        "2,2,3,4,0.75,1",
        "3,1,4,7,0.5714285714285714,1",
        "3,2,9,13,0.6923076923076923,1",
    ]
