"""CLI behavior: payload shapes, exit codes, determinism."""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from f1q import budget, cli
from f1q.cli import build_parser, main

BASE = [sys.executable, "-m", "f1q"]
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=300, env=env
    )


def test_field_info_json():
    proc = run_cli("field", "info", "--l", "12", "--json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["element_count"] == 13
    assert data["automorphism_exponents"] == [1, 5, 7, 11]
    assert data["totient"] == 4


def test_involutions_listing():
    proc = run_cli("involutions", "--m", "8", "--json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["valid_r"] == [2, 4, 6]


def test_involutions_single_r():
    proc = run_cli("involutions", "--m", "8", "--r", "2", "--json")
    data = json.loads(proc.stdout)
    (record,) = data["records"]
    assert record["valid"] and record["sub"] and record["ntriv"]
    assert record["fixed_elements"] == ["0", "w^0", "w^4"]


def test_unitary_group_counts():
    proc = run_cli("unitary-group", "--m", "2", "--r", "2", "--json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["order"] == 32 and data["expected"] == 32 and data["matches"]
    assert data["level"] == 8
    assert "elements" not in data

    proc = run_cli("unitary-group", "--m", "2", "--r", "1", "--enumerate", "--json")
    data = json.loads(proc.stdout)
    assert len(data["elements"]) == 18


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_unitary_group_order_is_counted_without_the_list(fmt, monkeypatch, capsys):
    # Without --enumerate only the order is printed: it is counted off the
    # walk, and the payload is the enumerating run's without the elements.
    args = ["unitary-group", "--m", "3", "--r", "2", *fmt]
    assert main(args + ["--enumerate"]) == 0
    listed = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("the order alone must not list the group")

    monkeypatch.setattr(cli, "unitary_group", refuse)
    assert main(args) == 0
    out = capsys.readouterr().out
    if fmt:
        expected = json.loads(listed)
        del expected["elements"]
        assert json.loads(out) == expected and expected["order"] == 384
    else:
        assert out == "U(3, level 8): order 384, wreath prediction 384, match\n"
        assert listed.startswith(out)


def test_observables_count():
    proc = run_cli("observables", "--m", "2", "--l", "2", "--json")
    data = json.loads(proc.stdout)
    assert data["count"] == 6
    assert len(data["observables"]) == 6


def test_noclone_all_scope():
    proc = run_cli("noclone", "--m", "2", "--l", "2", "--scope", "all", "--json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["found"] is False
    assert data["unitaries"] == 384 and data["blanks"] == 8
    assert data["witness"] is None
    assert data["scalar_obstruction"] == ["w^1"]


def test_noclone_simple_scope_finds_witness():
    proc = run_cli("noclone", "--m", "2", "--l", "2", "--scope", "simple", "--json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["found"] is True
    assert data["witness"]["operator"]["dim"] == 4
    assert data["witness"]["blank"].endswith("@2")


def test_delete_build_verify_prob():
    proc = run_cli("delete", "build", "--m", "2", "--l", "2", "--json")
    data = json.loads(proc.stdout)
    assert data["almost_unitary"] is True
    assert data["operator"]["entries"] == [[1, 1, "w^0"], [3, 3, "w^0"]]

    proc = run_cli("delete", "verify", "--m", "2", "--l", "2", "--json")
    data = json.loads(proc.stdout)
    assert data["deleted"] == 3 and data["annihilated"] == 1
    assert data["probability"] == {"num": 3, "den": 4}

    proc = run_cli("delete", "prob", "--m", "2", "--l", "2", "--json")
    data = json.loads(proc.stdout)
    assert data["probability"] == {"num": 3, "den": 4}
    assert data["limits"]["m_inf"] == {"num": 2, "den": 3}
    assert data["limits"]["l_inf"] == {"num": 1, "den": 1}


def test_delete_prob_csv():
    proc = run_cli("delete", "prob", "--m", "2", "--l", "2", "--csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "m,l,num,den,value"
    assert lines[1].startswith("2,2,3,4,0.75")


def test_dictionary_json_and_csv():
    proc = run_cli("dictionary", "--q", "2", "--json")
    data = json.loads(proc.stdout)
    assert data["alignment"]["aligned"] is True
    assert data["modulus"] == "t^2+t+1"

    proc = run_cli("dictionary", "--q", "3", "--csv")
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("theory,")
    assert len(lines) == 5


def test_usage_errors_exit_2():
    assert run_cli("field", "info").returncode == 2  # missing --l
    assert run_cli("field", "info", "--l", "0").returncode == 2
    assert run_cli("dictionary", "--q", "4").returncode == 2
    assert run_cli("noclone", "--m", "2", "--l", "2", "--csv").returncode == 2
    assert run_cli("nosuchcommand").returncode == 2
    assert (
        run_cli("dictionary", "--q", "2", "--json", "--csv").returncode == 2
    )


# Every option of every subcommand. The four shared flags follow the table in
# the README: each subcommand takes only the ones it acts on.
JSON, CSV, BUDGET, WORKERS = "--json", "--csv", "--budget", "--workers"
OPTION_TABLE = {
    "field info": {"--l", JSON, BUDGET},
    "involutions": {"--m", "--r", JSON, BUDGET},
    "unitary-group": {"--m", "--r", "--enumerate", JSON, BUDGET},
    "observables": {"--m", "--l", JSON, BUDGET},
    "noclone": {"--m", "--l", "--scope", JSON, BUDGET, WORKERS},
    "delete build": {"--m", "--l", JSON, BUDGET},
    "delete verify": {"--m", "--l", JSON, BUDGET},
    "delete prob": {"--m", "--l", JSON, CSV},
    "dictionary": {"--q", JSON, CSV, BUDGET},
    "selftest": {JSON},
}


def leaf_parsers(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, (*path, name))
            return
    yield " ".join(path), parser


def test_each_subcommand_takes_only_its_options():
    options = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in leaf_parsers(build_parser())
    }
    assert options == OPTION_TABLE
    shared = sum(len(opts & {JSON, CSV, BUDGET, WORKERS}) for opts in options.values())
    assert shared == 21  # 40 when every subcommand took all four


@pytest.mark.parametrize(
    "args",
    [
        ("selftest", "--workers", "2"),
        ("delete", "prob", "--m", "2", "--l", "2", "--budget", "5"),
        ("field", "info", "--l", "3", "--csv"),
        ("observables", "--m", "2", "--l", "2", "--workers", "2"),
        ("noclone", "--m", "2", "--l", "2", "--csv"),
    ],
    ids=lambda args: " ".join(args),
)
def test_flag_a_subcommand_does_not_take_exits_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err
    # the subcommand's own parser reports it, with that subcommand's usage
    words = itertools.takewhile(lambda a: not a.startswith("--"), args)
    prog = " ".join(["f1q", *words])
    assert err.startswith(f"usage: {prog} ")
    assert f"{prog}: error: unrecognized arguments: " in err


@pytest.mark.parametrize(
    "args",
    [
        ("involutions", "--m", "0"),
        ("involutions", "--m", "-3", "--json"),
        ("noclone", "--m", "1", "--l", "1"),
        ("noclone", "--m", "0", "--l", "2", "--json"),
    ],
    ids=lambda args: " ".join(args),
)
def test_dimension_below_range_exits_2(args, capsys):
    # involutions at m < 1 listed no maps, and noclone at m = 1 reported the
    # identity, which clones the only ray, as a universal cloner
    message = {"involutions": "m and r must be >= 1", "noclone": "noclone needs --m >= 2"}
    assert main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == "" and message[args[0]] in err


@pytest.mark.parametrize(
    "flag,value", [("--budget", "-5"), ("--budget", "0"), ("--workers", "-3"), ("--workers", "0")]
)
def test_budget_and_workers_below_one_exit_2(flag, value, capsys):
    # a count below 1 is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["noclone", "--m", "2", "--l", "2", flag, value, "--json"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_budget_exceeded_exit_3():
    proc = run_cli("noclone", "--m", "2", "--l", "2", "--budget", "10", "--json")
    assert proc.returncode == 3
    data = json.loads(proc.stdout)
    assert data["status"] == "budget-exceeded"


def test_budget_environment_variable():
    # F1Q_BUDGET is no input: --budget is the only way to set the cap
    args = ("noclone", "--m", "2", "--l", "2")
    assert run_cli(*args, env_extra={"F1Q_BUDGET": "10"}).returncode == 0
    assert run_cli(*args, "--budget", "10").returncode == 3


def test_selftest_ignores_budget_environment_variable():
    proc = run_cli("selftest", "--json", env_extra={"F1Q_BUDGET": "100"})
    assert proc.returncode == 0
    criteria = json.loads(proc.stdout)["criteria"]
    assert len(criteria) == 7 and all(c["ok"] for c in criteria)


def test_delete_verify_respects_budget():
    # 156 rays at m=4, l=4
    args = ("delete", "verify", "--m", "4", "--l", "4")
    assert run_cli(*args, "--budget", "100").returncode == 3
    proc = run_cli(*args, "--budget", "10", "--json")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["status"] == "budget-exceeded"


@pytest.mark.parametrize(
    "args", [("field", "info", "--l", "5040"), ("involutions", "--m", "720")]
)
def test_field_listings_respect_budget(args):
    # 5041 and 721 elements: refused under a budget of 100, fine by default
    proc = run_cli(*args, "--json", "--budget", "100")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["status"] == "budget-exceeded"
    assert run_cli(*args, "--json").returncode == 0


@pytest.mark.parametrize(
    "args",
    [
        ("field", "info", "--l", "10000"),
        ("involutions", "--m", "10000"),
        ("unitary-group", "--m", "8", "--r", "2"),
        ("observables", "--m", "8", "--l", "2"),
        ("noclone", "--m", "3", "--l", "2"),
        ("delete", "build", "--m", "40", "--l", "2"),
        ("delete", "verify", "--m", "40", "--l", "2"),
        ("dictionary", "--q", "5"),
    ],
    ids=lambda args: " ".join(args),
)
def test_every_enumerating_command_respects_budget(args, capsys):
    start = time.perf_counter()
    code = main([*args, "--json", "--budget", "100"])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "budget-exceeded"
    assert elapsed < 1


@pytest.mark.parametrize(
    "args,code",
    [
        (("noclone", "--m", "2", "--l", "20000000"), 3),
        (("unitary-group", "--m", "1", "--r", "9000", "--json"), 0),
        (("observables", "--m", "1", "--l", "20000003"), 3),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_huge_level_answers_without_scanning_it(args, code):
    # the unitary scalars come in closed form, and GL's budget check runs
    # before any scan over the l units or the l candidate conjugations
    start = time.perf_counter()
    proc = run_cli(*args)
    elapsed = time.perf_counter() - start
    assert proc.returncode == code
    assert elapsed < 2


@pytest.mark.parametrize(
    "l,detail",
    [
        ("1000", "cloner search needs 384768000 candidates"),
        ("1000000", "vectors of dimension 2 at level 1000000 needs 1000002000001 candidates"),
    ],
    ids=["l=1000", "l=1000000"],
)
def test_noclone_refuses_before_building(l, detail, capsys):
    # the rays, blanks and pairs are counted in closed form, so a refused
    # search builds none of its million blanks or rays
    start = time.perf_counter()
    code = main(["noclone", "--m", "2", "--l", l, "--json"])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert json.loads(capsys.readouterr().out) == {
        "status": "budget-exceeded",
        "detail": f"{detail}, budget is 10000000",
    }
    assert elapsed < 1


@pytest.mark.parametrize("m,code", [("100000000", 2), ("4301", 2), ("4300", 0)])
def test_delete_prob_refuses_fractions_too_long_to_print(m, code, capsys):
    # at l = 9 the fraction in lowest terms has m digits; 4300 is Python's
    # default limit on integer string conversion
    start = time.perf_counter()
    assert main(["delete", "prob", "--m", m, "--l", "9", "--json"]) == code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "more than 4300 digits" in err
    else:
        assert len(str(json.loads(out)["probability"]["den"])) == 4300
    assert elapsed < 1


def test_unitary_group_budget_counts_unitaries():
    # 6144 unitaries, while GL(4) at level 8 has 98304 members
    args = ("unitary-group", "--m", "4", "--r", "2", "--json")
    proc = run_cli(*args, "--budget", "10000")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 6144
    assert run_cli(*args, "--budget", "6143").returncode == 3


def test_payloads_are_byte_identical_across_runs():
    first = run_cli("noclone", "--m", "2", "--l", "2", "--json").stdout
    second = run_cli("noclone", "--m", "2", "--l", "2", "--json").stdout
    assert first == second


@pytest.mark.parametrize(
    "workers,options,default_budget",
    [
        pytest.param("2", ["--scope", "simple"], None, id="2"),
        pytest.param("3", ["--scope", "simple"], None, id="3"),
        # A --budget far above the default must reach every worker.
        pytest.param("2", ["--budget", "1000000"], 5, id="budget-2"),
        pytest.param("3", ["--budget", "1000000"], 5, id="budget-3"),
    ],
)
def test_workers_never_change_payload(
    workers, options, default_budget, monkeypatch, capsys
):
    if default_budget is not None:
        monkeypatch.setattr(budget, "DEFAULT_BUDGET", default_budget)
    argv = ["noclone", "--m", "2", "--l", "2", *options, "--json"]
    assert main(argv) == 0
    base = capsys.readouterr().out
    assert main([*argv, "--workers", workers]) == 0
    assert capsys.readouterr().out == base


def test_observables_memory_is_bounded_by_the_answer(capsys):
    # GL(4) at level 6 has 31,104 members and 268 are observables; the filter
    # reads GL as it is walked, so GL is never held at once.
    tracemalloc.start()
    try:
        assert main(["observables", "--m", "4", "--l", "6", "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["count"] == 268
    assert peak < 2_000_000


def test_elapsed_goes_to_stderr_not_stdout():
    proc = run_cli("delete", "prob", "--m", "2", "--l", "2", "--json")
    assert "elapsed" not in proc.stdout
    assert "elapsed" in proc.stderr


def console_script_target(name):
    """Return the ``(module, func)`` that ``[project.scripts]`` in
    pyproject.toml declares for ``name``. A line parse, since ``tomllib``
    needs Python 3.11."""
    table = None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]":
            m = re.fullmatch(r'([\w.-]+)\s*=\s*"([\w.]+):(\w+)"', line)
            if m and m.group(1) == name:
                return m.group(2), m.group(3)
    raise AssertionError(f"no {name!r} entry in [project.scripts]")


def test_console_script_entry_point(tmp_path):
    # Run the same wrapper that pip writes for a console script, against the
    # checkout's src/ rather than whatever f1q an install put on PATH.
    module, func = console_script_target("f1q")
    script = tmp_path / "f1q"
    script.write_text(f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script), "field", "info", "--l", "3"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert "level 3" in proc.stdout
