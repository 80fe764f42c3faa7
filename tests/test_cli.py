"""CLI behavior: payload shapes, exit codes, determinism."""

import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f1q import budget, cli
from f1q.cli import build_parser, main
from f1q.clone_delete import clones_rays
from f1q.frames import basis_state, simple_rays
from f1q.operators import MonomialMatrix

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
    # Both runs read one walk; count the members still alive when it ends.
    walk, alive = cli.iter_unitaries, []

    def watched(*args):
        members = []
        for u in walk(*args):
            members.append(weakref.ref(u))
            yield u
        alive.append(sum(ref() is not None for ref in members))

    monkeypatch.setattr(cli, "iter_unitaries", watched)
    args = ["unitary-group", "--m", "3", "--r", "2", *fmt]
    assert main(args + ["--enumerate"]) == 0
    listed = capsys.readouterr().out
    assert main(args) == 0
    out = capsys.readouterr().out
    assert alive == [384, 1]  # the listing holds all 384; the count only the last
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


def test_noclone_at_dimension_three(capsys):
    # 9! = 362,880 unitaries x 7 blanks at l = 1; only the 2,160 unitaries
    # whose permutation pins a blank column are built
    start = time.perf_counter()
    payloads = {}
    for scope in ("all", "simple"):
        assert main(["noclone", "--m", "3", "--l", "1", "--scope", scope, "--json"]) == 0
        payloads[scope] = json.loads(capsys.readouterr().out)
    assert time.perf_counter() - start < 2
    for data in payloads.values():
        assert (data["unitaries"], data["blanks"]) == (362880, 7)
    assert payloads["all"]["found"] is False and payloads["all"]["witness"] is None
    witness = payloads["simple"]["witness"]
    perm = [0] * 9
    for row, col, scalar in witness["operator"]["entries"]:
        assert scalar == "w^0"
        perm[col - 1] = row - 1
    blank = witness["blank"]  # "(w^0,0,0)@1"
    j = blank[1 : blank.index(")")].split(",").index("w^0")
    u = MonomialMatrix.from_permutation(perm, 1)
    assert clones_rays(u, basis_state(j, 3, 1), simple_rays(3, 1))


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


# Full stdout of `dictionary --q 2` and `--q 3` in each format, byte for byte,
# so that no change to the payload goes unseen.
DICTIONARY_STDOUT = {
    (2, "text"): """\
| theory | field | involution | fixed field | standard form | unitary scalars |
|---|---|---|---|---|---|
| Actual | C | v -> conj(v) | R | conj(x_1)y_1 + ... + conj(x_m)y_m | U(1), the unit circle |
| Modal | F_4 = F_2[t]/(t^2+t+1) | v -> v^2 | F_2 | x_1^2 y_1 + ... + x_m^2 y_m | roots of unity of order 3 (group order 3) |
| General | division ring k with involution | sigma | k_sigma | x_1^sigma y_1 + ... + x_m^sigma y_m | norm-one scalars of k |
| Absolute | F_1^3 = {0} + mu_3 | v -> v^2 | F_1^1 | x_1^2 y_1 + ... + x_m^2 y_m (partial) | mu_3, order 3 |
""",
    (2, "json"): """\
{
  "q": 2,
  "r": 1,
  "modulus": "t^2+t+1",
  "rows": [
    {
      "theory": "Actual",
      "field": "C",
      "involution": "v -> conj(v)",
      "fixed_field": "R",
      "standard_form": "conj(x_1)y_1 + ... + conj(x_m)y_m",
      "unitary_scalars": "U(1), the unit circle"
    },
    {
      "theory": "Modal",
      "field": "F_4 = F_2[t]/(t^2+t+1)",
      "involution": "v -> v^2",
      "fixed_field": "F_2",
      "standard_form": "x_1^2 y_1 + ... + x_m^2 y_m",
      "unitary_scalars": "roots of unity of order 3 (group order 3)"
    },
    {
      "theory": "General",
      "field": "division ring k with involution",
      "involution": "sigma",
      "fixed_field": "k_sigma",
      "standard_form": "x_1^sigma y_1 + ... + x_m^sigma y_m",
      "unitary_scalars": "norm-one scalars of k"
    },
    {
      "theory": "Absolute",
      "field": "F_1^3 = {0} + mu_3",
      "involution": "v -> v^2",
      "fixed_field": "F_1^1",
      "standard_form": "x_1^2 y_1 + ... + x_m^2 y_m (partial)",
      "unitary_scalars": "mu_3, order 3"
    }
  ],
  "alignment": {
    "modal_scalar_order": 3,
    "absolute_scalar_order": 3,
    "fixed_field_sizes": [
      2,
      2
    ],
    "aligned": true
  }
}
""",
    (2, "csv"): """\
theory,field,involution,fixed_field,standard_form,unitary_scalars
Actual,C,v -> conj(v),R,conj(x_1)y_1 + ... + conj(x_m)y_m,"U(1), the unit circle"
Modal,F_4 = F_2[t]/(t^2+t+1),v -> v^2,F_2,x_1^2 y_1 + ... + x_m^2 y_m,roots of unity of order 3 (group order 3)
General,division ring k with involution,sigma,k_sigma,x_1^sigma y_1 + ... + x_m^sigma y_m,norm-one scalars of k
Absolute,F_1^3 = {0} + mu_3,v -> v^2,F_1^1,x_1^2 y_1 + ... + x_m^2 y_m (partial),"mu_3, order 3"
""",
    (3, "text"): """\
| theory | field | involution | fixed field | standard form | unitary scalars |
|---|---|---|---|---|---|
| Actual | C | v -> conj(v) | R | conj(x_1)y_1 + ... + conj(x_m)y_m | U(1), the unit circle |
| Modal | F_9 = F_3[t]/(t^2+1) | v -> v^3 | F_3 | x_1^3 y_1 + ... + x_m^3 y_m | roots of unity of order 4 (group order 4) |
| General | division ring k with involution | sigma | k_sigma | x_1^sigma y_1 + ... + x_m^sigma y_m | norm-one scalars of k |
| Absolute | F_1^8 = {0} + mu_8 | v -> v^3 | F_1^2 | x_1^3 y_1 + ... + x_m^3 y_m (partial) | mu_4, order 4 |
""",
    (3, "json"): """\
{
  "q": 3,
  "r": 2,
  "modulus": "t^2+1",
  "rows": [
    {
      "theory": "Actual",
      "field": "C",
      "involution": "v -> conj(v)",
      "fixed_field": "R",
      "standard_form": "conj(x_1)y_1 + ... + conj(x_m)y_m",
      "unitary_scalars": "U(1), the unit circle"
    },
    {
      "theory": "Modal",
      "field": "F_9 = F_3[t]/(t^2+1)",
      "involution": "v -> v^3",
      "fixed_field": "F_3",
      "standard_form": "x_1^3 y_1 + ... + x_m^3 y_m",
      "unitary_scalars": "roots of unity of order 4 (group order 4)"
    },
    {
      "theory": "General",
      "field": "division ring k with involution",
      "involution": "sigma",
      "fixed_field": "k_sigma",
      "standard_form": "x_1^sigma y_1 + ... + x_m^sigma y_m",
      "unitary_scalars": "norm-one scalars of k"
    },
    {
      "theory": "Absolute",
      "field": "F_1^8 = {0} + mu_8",
      "involution": "v -> v^3",
      "fixed_field": "F_1^2",
      "standard_form": "x_1^3 y_1 + ... + x_m^3 y_m (partial)",
      "unitary_scalars": "mu_4, order 4"
    }
  ],
  "alignment": {
    "modal_scalar_order": 4,
    "absolute_scalar_order": 4,
    "fixed_field_sizes": [
      3,
      3
    ],
    "aligned": true
  }
}
""",
    (3, "csv"): """\
theory,field,involution,fixed_field,standard_form,unitary_scalars
Actual,C,v -> conj(v),R,conj(x_1)y_1 + ... + conj(x_m)y_m,"U(1), the unit circle"
Modal,F_9 = F_3[t]/(t^2+1),v -> v^3,F_3,x_1^3 y_1 + ... + x_m^3 y_m,roots of unity of order 4 (group order 4)
General,division ring k with involution,sigma,k_sigma,x_1^sigma y_1 + ... + x_m^sigma y_m,norm-one scalars of k
Absolute,F_1^8 = {0} + mu_8,v -> v^3,F_1^2,x_1^3 y_1 + ... + x_m^3 y_m (partial),"mu_4, order 4"
""",
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("q", [2, 3])
def test_dictionary_stdout_is_pinned(q, fmt):
    flags = [] if fmt == "text" else [f"--{fmt}"]
    proc = run_cli("dictionary", "--q", str(q), *flags)
    assert proc.returncode == 0
    assert proc.stdout == DICTIONARY_STDOUT[q, fmt]


# sha256 of the same stdout at the larger q the subcommand accepts, run in
# process so that the pins cost no interpreter start-up.
DICTIONARY_SHA256 = {
    (5, "text"): "69ffbc930d683e6bd96a2f32d14472c5ac638d2713c09e804caa207fa8adb66d",
    (5, "json"): "04df58b0a6ffd2a154eb8f2b4c8e18b7dab7d9626ecd3a924b2f21f84392b0b3",
    (5, "csv"): "539b7fa57e81819b6a4dc64ac155b94fcb07a22bb1817bed0b0487463b55ca7e",
    (7, "text"): "f48c532b7808f92744fc9409cd7ee3aa0f9da71d573db77b3cbbb5f3fdbbaecc",
    (7, "json"): "64111f3489da740d569dbb5ab289876e926a07c12bc465ac4376f84fad9c983d",
    (7, "csv"): "a9e7677d57f291192843dcb6f0f8d17c9c923e41513794c0629f6725de42dcae",
    (11, "text"): "1cd2b9878ba7743c406b05347e681d50440dad5ff6f45ac798a95104489d030c",
    (11, "json"): "487c178e4d127cfb99f4b131b4a2ee0b0edbcd8bc1ad44462dfd8a6a9b1d42a9",
    (11, "csv"): "4c54f7c3340ff6e49e9a20c28c53ad0ab0befd0ba06b630d63fb76399e8fade0",
    (13, "text"): "cdacd0aa6879925943f4436b3a77c851388f494ee580d10899fe532df3f1732a",
    (13, "json"): "98c7203ff99a8ed446a0d95497c3982e52ae5624afb393ac14beeb3e00366829",
    (13, "csv"): "044b62b1abd98ce5b78b8cd44eeab1aeb04ae8b3606635eb78546fae843b7f28",
}


@pytest.mark.parametrize("q, fmt", sorted(DICTIONARY_SHA256))
def test_dictionary_stdout_is_pinned_by_hash(q, fmt, capsys):
    flags = [] if fmt == "text" else [f"--{fmt}"]
    assert main(["dictionary", "--q", str(q), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DICTIONARY_SHA256[q, fmt]


# Full stdout of `involutions`, byte for byte, so that no change to the
# classification goes unseen.  The JSON payloads are written as values and
# rendered as the CLI renders every payload, with ``json.dumps(indent=2)``.
INVOLUTIONS_JSON = {
    ("--m", "24"): {
        "m": 24,
        "records": [
            {"r": 1, "map": "v -> v^2", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 1},
            {"r": 2, "map": "v -> v^3", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 2},
            {"r": 3, "map": "v -> v^4", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 3},
            {"r": 4, "map": "v -> v^5", "sub": True, "ntriv": True, "valid": True, "fixed_field_order": 4},
            {"r": 5, "map": "v -> v^6", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 1},
            {"r": 6, "map": "v -> v^7", "sub": True, "ntriv": True, "valid": True, "fixed_field_order": 6},
            {"r": 7, "map": "v -> v^8", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 1},
            {"r": 8, "map": "v -> v^9", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 8},
            {"r": 9, "map": "v -> v^10", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 3},
            {"r": 10, "map": "v -> v^11", "sub": True, "ntriv": True, "valid": True, "fixed_field_order": 2},
            {"r": 11, "map": "v -> v^12", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 1},
            {"r": 12, "map": "v -> v^13", "sub": True, "ntriv": True, "valid": True, "fixed_field_order": 12},
            {"r": 13, "map": "v -> v^14", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 1},
            {"r": 14, "map": "v -> v^15", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 2},
            {"r": 15, "map": "v -> v^16", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 3},
            {"r": 16, "map": "v -> v^17", "sub": True, "ntriv": True, "valid": True, "fixed_field_order": 8},
            {"r": 17, "map": "v -> v^18", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 1},
            {"r": 18, "map": "v -> v^19", "sub": True, "ntriv": True, "valid": True, "fixed_field_order": 6},
            {"r": 19, "map": "v -> v^20", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 1},
            {"r": 20, "map": "v -> v^21", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 4},
            {"r": 21, "map": "v -> v^22", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 3},
            {"r": 22, "map": "v -> v^23", "sub": True, "ntriv": True, "valid": True, "fixed_field_order": 2},
            {"r": 23, "map": "v -> v^24", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 1},
            {"r": 24, "map": "v -> v^25", "sub": True, "ntriv": False, "valid": False, "fixed_field_order": 24},
        ],
        "valid_r": [4, 6, 10, 12, 16, 18, 22],
    },
    ("--m", "8", "--r", "2"): {
        "m": 8,
        "records": [
            {"r": 2, "map": "v -> v^3", "sub": True, "ntriv": True, "valid": True, "fixed_field_order": 2, "fixed_elements": ["0", "w^0", "w^4"]},
        ],
        "valid_r": [2],
    },
    # r = 3 is not valid at level 8 (v -> v^4 twice sends w^1 to w^16 = w^0),
    # so the record has no fixed_elements
    ("--m", "8", "--r", "3"): {
        "m": 8,
        "records": [
            {"r": 3, "map": "v -> v^4", "sub": False, "ntriv": True, "valid": False, "fixed_field_order": 1},
        ],
        "valid_r": [],
    },
}
INVOLUTIONS_STDOUT = {
    ("--m", "24"): """\
level m=24, maps v -> v^(r+1):
  r=1: SUB=n NTRIV=y -> not an involution (fixed field size 2)
  r=2: SUB=n NTRIV=y -> not an involution (fixed field size 3)
  r=3: SUB=n NTRIV=y -> not an involution (fixed field size 4)
  r=4: SUB=y NTRIV=y -> involution (fixed field size 5)
  r=5: SUB=n NTRIV=y -> not an involution (fixed field size 2)
  r=6: SUB=y NTRIV=y -> involution (fixed field size 7)
  r=7: SUB=n NTRIV=y -> not an involution (fixed field size 2)
  r=8: SUB=n NTRIV=y -> not an involution (fixed field size 9)
  r=9: SUB=n NTRIV=y -> not an involution (fixed field size 4)
  r=10: SUB=y NTRIV=y -> involution (fixed field size 3)
  r=11: SUB=n NTRIV=y -> not an involution (fixed field size 2)
  r=12: SUB=y NTRIV=y -> involution (fixed field size 13)
  r=13: SUB=n NTRIV=y -> not an involution (fixed field size 2)
  r=14: SUB=n NTRIV=y -> not an involution (fixed field size 3)
  r=15: SUB=n NTRIV=y -> not an involution (fixed field size 4)
  r=16: SUB=y NTRIV=y -> involution (fixed field size 9)
  r=17: SUB=n NTRIV=y -> not an involution (fixed field size 2)
  r=18: SUB=y NTRIV=y -> involution (fixed field size 7)
  r=19: SUB=n NTRIV=y -> not an involution (fixed field size 2)
  r=20: SUB=n NTRIV=y -> not an involution (fixed field size 5)
  r=21: SUB=n NTRIV=y -> not an involution (fixed field size 4)
  r=22: SUB=y NTRIV=y -> involution (fixed field size 3)
  r=23: SUB=n NTRIV=y -> not an involution (fixed field size 2)
  r=24: SUB=y NTRIV=n -> not an involution (fixed field size 25)
""",
    **{
        (*args, "--json"): json.dumps(payload, indent=2) + "\n"
        for args, payload in INVOLUTIONS_JSON.items()
    },
}


@pytest.mark.parametrize("args", INVOLUTIONS_STDOUT, ids=" ".join)
def test_involutions_stdout_is_pinned(args):
    proc = run_cli("involutions", *args)
    assert proc.returncode == 0
    assert proc.stdout == INVOLUTIONS_STDOUT[args]


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
        ("dictionary", "--q", "4"),
    ],
    ids=lambda args: " ".join(args),
)
def test_dimension_below_range_exits_2(args, capsys):
    # involutions at m < 1 listed no maps, and noclone at m = 1 reported the
    # identity, which clones the only ray, as a universal cloner; dictionary
    # needs a prime q, as F_(q^2) is built on it
    message = {
        "involutions": "m and r must be >= 1",
        "noclone": "noclone needs --m >= 2",
        "dictionary": "q must be prime, got 4",
    }
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
        (("unitary-group", "--m", "3000000", "--r", "1"), 3),
        (("observables", "--m", "3000000", "--l", "1"), 3),
        (("noclone", "--m", "2000", "--l", "1"), 3),
        (("unitary-group", "--m", "2000", "--r", "1", "--json"), 3),
        (("observables", "--m", "1700", "--l", "1"), 3),
        (("noclone", "--m", "45", "--l", "1"), 3),
        (("unitary-group", "--m", str(10**400), "--r", "1"), 3),
        (("observables", "--m", str(10**400), "--l", "1", "--json"), 3),
        (("noclone", "--m", str(10**200), "--l", "1"), 3),
        (("unitary-group", "--m", "2", "--r", str(10**19)), 3),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_huge_level_answers_without_scanning_it(args, code):
    # the unitary scalars come in closed form, and GL's budget check runs
    # before any scan over the l units or the l candidate conjugations; a
    # wreath size m! * s^m too long to print is refused by its logarithm,
    # before m! is computed, and an m past float range by the logarithm of
    # its digit count; a unitary scalar group is counted without len()
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
        pytest.param("2", ["--m", "2", "--l", "2", "--scope", "simple"], None, id="2"),
        pytest.param("3", ["--m", "2", "--l", "2", "--scope", "simple"], None, id="3"),
        # A --budget far above the default must reach every worker.
        pytest.param("2", ["--m", "2", "--l", "2", "--budget", "1000000"], 5, id="budget-2"),
        pytest.param("3", ["--m", "2", "--l", "2", "--budget", "1000000"], 5, id="budget-3"),
        # At m = 3 the parts are runs of 2,160 pinned permutations, in real
        # worker processes wherever the machine has more than one CPU.
        *(
            pytest.param(workers, ["--m", "3", "--l", "1", "--scope", scope], None,
                         id=f"m3-{scope}-{workers}")
            for scope in ("all", "simple")
            for workers in ("2", "3")
        ),
    ],
)
def test_workers_never_change_payload(
    workers, options, default_budget, monkeypatch, capsys
):
    if default_budget is not None:
        monkeypatch.setattr(budget, "DEFAULT_BUDGET", default_budget)
    argv = ["noclone", *options, "--json"]
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


def test_json_text_of_no_chunks_is_empty(monkeypatch):
    # no payload encodes to zero chunks, so the encoder is made to yield none
    monkeypatch.setattr(json.JSONEncoder, "iterencode", lambda *a, **k: iter(()))
    assert cli._json_text({"m": 2}) == json.dumps({"m": 2}, indent=2) == ""


@pytest.mark.parametrize("chunks", [1, 4095, 4096, 4097])
def test_json_text_across_batch_edges(chunks):
    # a scalar is one chunk; a list of n numbers is n + 2: one per item, the
    # newline before the closing bracket, and the bracket
    assert cli._JSON_BATCH == 4096
    payload = 7 if chunks == 1 else list(range(chunks - 2))
    assert sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload)) == chunks
    assert cli._json_text(payload) == json.dumps(payload, indent=2)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@given(json_values, st.integers(min_value=1, max_value=5))
def test_json_text_matches_dumps(payload, batch):
    # small batches put batch edges inside small payloads
    with mock.patch.object(cli, "_JSON_BATCH", batch):
        assert cli._json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "args,code",
    [
        (("field", "info", "--l", "6"), 0),
        (("involutions", "--m", "12"), 0),
        (("involutions", "--m", "8", "--r", "1"), 0),
        (("unitary-group", "--m", "2", "--r", "1"), 0),
        (("unitary-group", "--m", "2", "--r", "1", "--enumerate"), 0),
        (("observables", "--m", "2", "--l", "3"), 0),
        (("noclone", "--m", "2", "--l", "2"), 0),
        (("noclone", "--m", "2", "--l", "2", "--scope", "simple"), 0),
        (("delete", "build", "--m", "3", "--l", "2"), 0),
        (("delete", "verify", "--m", "3", "--l", "2"), 0),
        (("delete", "prob", "--m", "3", "--l", "2"), 0),
        (("dictionary", "--q", "3"), 0),
        (("selftest",), 0),
        (("delete", "verify", "--m", "4", "--l", "4", "--budget", "10"), 3),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_json_stdout_is_the_payload_dumped(args, code, monkeypatch, capsys):
    payloads = []
    json_text = cli._json_text

    def recording(payload):
        payloads.append(payload)
        return json_text(payload)

    monkeypatch.setattr(cli, "_json_text", recording)
    assert main([*args, "--json"]) == code
    [payload] = payloads
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


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
