"""Command-line front door with deterministic, machine-readable output.

Every subcommand computes a pure payload and renders it as JSON (--json),
CSV (--csv, tables only), or human text.  Identical inputs always produce
byte-identical stdout; elapsed time goes to stderr.  Exit codes: 0 ok,
2 usage error, 3 budget exceeded, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from .budget import BudgetExceededError, check_budget
from .clone_delete import (
    build_deletion_operator,
    is_almost_unitary,
    limit_l_infinity,
    limit_m_infinity,
    probability_a1,
    probability_json,
    search_projective_cloner,
    scalar_obstruction,
    verify_deletion,
)
from .field import automorphism_group, classify_involution, elements, totient
from .operators import (
    enumerate_GL,
    format_matrix,
    is_observable,
    matrix_to_json,
    unitary_group,
)
from .mqt import dictionary_table
from .selftest import run_all

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

CSV_COMMANDS = {"dictionary", "delete prob"}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON payload")
    parser.add_argument(
        "--csv", action="store_true", help="emit CSV (dictionary and delete prob only)"
    )
    parser.add_argument(
        "--budget", type=_positive_int, default=None, help="max enumeration size"
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=1, help="parallel workers for searches"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f1q",
        description="exact quantum theory over the monoid fields {0} + mu_l",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="ground field inspection")
    field_sub = p.add_subparsers(dest="field_command", required=True)
    p = field_sub.add_parser("info", help="elements and automorphisms at level l")
    p.add_argument("--l", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("involutions", help="power-map involutions of level m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    _common_flags(p)

    p = sub.add_parser("unitary-group", help="unitary wreath product at level r(r+2)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--enumerate", action="store_true", dest="enumerate_elements")
    _common_flags(p)

    p = sub.add_parser("observables", help="self-adjoint monomial matrices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("noclone", help="exhaustive projective cloner search")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--scope", choices=("simple", "all"), default="all")
    _common_flags(p)

    p = sub.add_parser("delete", help="almost-unitary deletion operator")
    delete_sub = p.add_subparsers(dest="delete_command", required=True)
    for name, help_text in (
        ("build", "construct the deleter and check almost-unitarity"),
        ("verify", "audit the deleter on every ray"),
        ("prob", "exact success probability and limits"),
    ):
        q = delete_sub.add_parser(name, help=help_text)
        q.add_argument("--m", type=int, required=True)
        q.add_argument("--l", type=int, required=True)
        _common_flags(q)

    p = sub.add_parser("dictionary", help="four-theory comparison table at prime q")
    p.add_argument("--q", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("selftest", help="run all exhaustive oracles at default bounds")
    _common_flags(p)

    return parser


def _cmd_field_info(args: argparse.Namespace) -> tuple[dict, str, int]:
    l = args.l
    check_budget(l + 1, args.budget, what=f"elements at level {l}")
    elems = elements(l)
    auts = automorphism_group(l)
    payload = {
        "l": l,
        "element_count": len(elems),
        "elements": [str(e) for e in elems],
        "automorphism_count": len(auts),
        "automorphism_exponents": auts,
        "totient": totient(l),
    }
    text = "\n".join(
        [
            f"level {l}: {len(elems)} elements: " + ", ".join(str(e) for e in elems),
            f"automorphisms: {len(auts)} (totient {totient(l)}), "
            "exponents " + ", ".join(str(d) for d in auts),
        ]
    )
    return payload, text, EXIT_OK


def _involution_record(m: int, r: int, *, with_elements: bool) -> dict:
    spec = classify_involution(m, r)
    record = {
        "r": r,
        "map": f"v -> v^{r + 1}",
        "sub": spec.sub_ok,
        "ntriv": spec.ntriv_ok,
        "valid": spec.valid,
        "fixed_field_order": spec.fixed_field_order,
    }
    if with_elements and spec.valid:
        record["fixed_elements"] = [str(e) for e in spec.fixed_elements()]
    return record


def _cmd_involutions(args: argparse.Namespace) -> tuple[dict, str, int]:
    m = args.m
    check_budget(m + 1, args.budget, what=f"elements at level {m}")
    if args.r is not None:
        records = [_involution_record(m, args.r, with_elements=True)]
    else:
        records = [_involution_record(m, r, with_elements=False) for r in range(1, m + 1)]
    payload = {
        "m": m,
        "records": records,
        "valid_r": [rec["r"] for rec in records if rec["valid"]],
    }
    lines = [f"level m={m}, maps v -> v^(r+1):"]
    for rec in records:
        flags = (
            f"SUB={'y' if rec['sub'] else 'n'} NTRIV={'y' if rec['ntriv'] else 'n'}"
        )
        verdict = "involution" if rec["valid"] else "not an involution"
        lines.append(
            f"  r={rec['r']}: {flags} -> {verdict}"
            f" (fixed field size {rec['fixed_field_order'] + 1})"
        )
    return payload, "\n".join(lines), EXIT_OK


def _cmd_unitary_group(args: argparse.Namespace) -> tuple[dict, str, int]:
    group = unitary_group(args.m, args.r, budget=args.budget)
    expected = (args.r + 2) ** args.m * math.factorial(args.m)
    payload = {
        "m": args.m,
        "r": args.r,
        "level": args.r * (args.r + 2),
        "order": len(group),
        "expected": expected,
        "matches": len(group) == expected,
    }
    if args.enumerate_elements:
        payload["elements"] = [matrix_to_json(u) for u in group]
    text = (
        f"U({args.m}, level {payload['level']}): order {len(group)}, "
        f"wreath prediction {expected}, "
        + ("match" if payload["matches"] else "MISMATCH")
    )
    if args.enumerate_elements:
        text += "\n" + "\n\n".join(format_matrix(u) for u in group)
    code = EXIT_OK if payload["matches"] else EXIT_INVARIANT
    return payload, text, code


def _cmd_observables(args: argparse.Namespace) -> tuple[dict, str, int]:
    sigma = None
    for r in range(1, args.l + 1):
        spec = classify_involution(args.l, r)
        if spec.valid:
            sigma = spec
            break
    obs = [
        h for h in enumerate_GL(args.m, args.l, budget=args.budget)
        if is_observable(h, sigma)
    ]
    payload = {
        "m": args.m,
        "l": args.l,
        "conjugation": f"v -> v^{sigma.r + 1}" if sigma else "identity",
        "count": len(obs),
        "observables": [matrix_to_json(h) for h in obs],
    }
    text = (
        f"{len(obs)} observables at m={args.m}, level {args.l} "
        f"(conjugation {payload['conjugation']}):\n"
        + "\n\n".join(format_matrix(h) for h in obs)
    )
    return payload, text, EXIT_OK


def _cmd_noclone(args: argparse.Namespace) -> tuple[dict, str, int]:
    result = search_projective_cloner(
        args.m,
        args.l,
        scope=args.scope,
        budget=args.budget,
        workers=args.workers,
    )
    payload = {
        "m": args.m,
        "l": args.l,
        "scope": args.scope,
        "found": result.found,
        "unitaries": result.unitaries_searched,
        "blanks": result.blanks_searched,
        "rays": result.rays_targeted,
        "scalar_obstruction": [str(a) for a in scalar_obstruction(args.l)],
        "witness": None,
    }
    if result.found:
        payload["witness"] = {
            "operator": matrix_to_json(result.witness_operator),
            "blank": str(result.witness_blank),
        }
    space = f"{result.unitaries_searched} unitaries x {result.blanks_searched} blanks"
    if args.scope == "all":
        if result.found:
            text = f"INVARIANT VIOLATION: universal cloner found in {space}"
            return payload, text, EXIT_INVARIANT
        text = (
            f"no universal cloner: exhausted {space} against "
            f"{result.rays_targeted} rays"
        )
    else:
        if result.found:
            text = (
                f"simple-ray cloner found in {space}:\n"
                + format_matrix(result.witness_operator)
                + f"\nblank: {result.witness_blank}"
            )
        else:
            text = f"no simple-ray cloner in {space}"
    return payload, text, EXIT_OK


def _cmd_delete_build(args: argparse.Namespace) -> tuple[dict, str, int]:
    op = build_deletion_operator(args.m, args.l, budget=args.budget)
    almost = is_almost_unitary(op)
    payload = {
        "m": args.m,
        "l": args.l,
        "blank_index": 0,
        "operator": matrix_to_json(op),
        "almost_unitary": almost,
    }
    text = format_matrix(op) + f"\nalmost unitary: {'yes' if almost else 'NO'}"
    return payload, text, EXIT_OK if almost else EXIT_INVARIANT


def _cmd_delete_verify(args: argparse.Namespace) -> tuple[dict, str, int]:
    report = verify_deletion(args.m, args.l, budget=args.budget)
    payload = report.to_json()
    text = (
        f"deletion at m={args.m}, l={args.l}: {report.rays_deleted} rays deleted, "
        f"{report.rays_annihilated} annihilated, probability "
        f"{report.probability.numerator}/{report.probability.denominator}"
    )
    return payload, text, EXIT_OK


def _cmd_delete_prob(args: argparse.Namespace) -> tuple[dict, str, int]:
    p = probability_a1(args.m, args.l)
    m_inf = limit_m_infinity(args.l)
    l_inf = limit_l_infinity()
    payload = {"m": args.m, "l": args.l, **probability_json(p, args.l)}
    text = (
        f"P(a1 != 0) at m={args.m}, l={args.l}: {p.numerator}/{p.denominator} "
        f"= {float(p):.6f}; limits: m->inf {m_inf}, l->inf {l_inf}"
    )
    return payload, text, EXIT_OK


def _delete_prob_csv(args: argparse.Namespace) -> list[list[str]]:
    p = probability_a1(args.m, args.l)
    return [
        ["m", "l", "num", "den", "value"],
        [str(args.m), str(args.l), str(p.numerator), str(p.denominator), repr(float(p))],
    ]


def _cmd_selftest(args: argparse.Namespace) -> tuple[dict, str, int]:
    results = run_all()
    all_ok = all(r.ok for r in results)
    payload = {
        "criteria": [r.to_json() for r in results],
        "all_ok": all_ok,
    }
    lines = [
        f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.elapsed_ms} ms): {r.detail}"
        for r in results
    ]
    lines.append("all criteria passed" if all_ok else "SELFTEST FAILED")
    return payload, "\n".join(lines), EXIT_OK if all_ok else EXIT_INVARIANT


def _dispatch(args: argparse.Namespace) -> tuple[dict, str, int, list[list[str]] | None]:
    csv_rows: list[list[str]] | None = None
    if args.command == "field":
        payload, text, code = _cmd_field_info(args)
    elif args.command == "involutions":
        payload, text, code = _cmd_involutions(args)
    elif args.command == "unitary-group":
        payload, text, code = _cmd_unitary_group(args)
    elif args.command == "observables":
        payload, text, code = _cmd_observables(args)
    elif args.command == "noclone":
        payload, text, code = _cmd_noclone(args)
    elif args.command == "delete":
        if args.delete_command == "build":
            payload, text, code = _cmd_delete_build(args)
        elif args.delete_command == "verify":
            payload, text, code = _cmd_delete_verify(args)
        else:
            payload, text, code = _cmd_delete_prob(args)
            csv_rows = _delete_prob_csv(args)
    elif args.command == "dictionary":
        table = dictionary_table(args.q, budget=args.budget)
        payload = table.to_json()
        text = table.to_markdown()
        code = EXIT_OK if table.aligned else EXIT_INVARIANT
        csv_rows = table.csv_rows()
    elif args.command == "selftest":
        payload, text, code = _cmd_selftest(args)
    else:  # unreachable with required=True
        raise AssertionError(f"unknown command {args.command!r}")
    return payload, text, code, csv_rows


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "csv", False):
        full = args.command
        if full == "delete":
            full = f"delete {args.delete_command}"
        if full not in CSV_COMMANDS:
            parser.error(f"--csv is not available for '{full}'")
    if getattr(args, "json", False) and getattr(args, "csv", False):
        parser.error("--json and --csv are mutually exclusive")

    start = time.perf_counter()
    try:
        payload, text, code, csv_rows = _dispatch(args)
    except BudgetExceededError as exc:
        if args.json:
            print(json.dumps({"status": "budget-exceeded", "detail": str(exc)}, indent=2))
        else:
            print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    elapsed_ms = int((time.perf_counter() - start) * 1000)

    if args.json:
        print(json.dumps(payload, indent=2))
    elif args.csv:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(csv_rows)
        sys.stdout.write(buffer.getvalue())
    else:
        print(text)
    print(f"elapsed: {elapsed_ms} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
