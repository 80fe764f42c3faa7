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
import itertools
import json
import math
import sys
import time
from typing import Callable

from .budget import BudgetExceededError, check_budget
from .clone_delete import (
    build_deletion_operator,
    check_probability_digits,
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
    format_matrix,
    is_observable,
    iter_GL,
    iter_unitaries,
    matrix_to_json,
)
from .mqt import dictionary_table
from .selftest import run_all

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

# Encoder chunks per join; ``json.dumps(indent=...)`` holds every chunk at once.
_JSON_BATCH = 4096

# What a handler returns: the JSON payload, the text rendering, the exit
# code, and the CSV rows (None for a subcommand without --csv).
Result = tuple[dict, str, int, list[list[str]] | None]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _subcommand(
    subparsers: argparse._SubParsersAction,
    name: str,
    help_text: str,
    run: Callable[[argparse.Namespace], Result],
    *required_ints: str,
    with_csv: bool = False,
    with_budget: bool = True,
    with_workers: bool = False,
) -> argparse.ArgumentParser:
    """Add subcommand ``name`` with its required integer options and the
    output and resource flags it acts on, and bind ``run`` as its handler
    and the new parser as the one that reports its usage errors."""
    p = subparsers.add_parser(name, help=help_text)
    for option in required_ints:
        p.add_argument(option, type=int, required=True)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="emit JSON payload")
    if with_csv:
        output.add_argument("--csv", action="store_true", help="emit CSV")
    if with_budget:
        p.add_argument(
            "--budget", type=_positive_int, default=None, help="max enumeration size"
        )
    if with_workers:
        p.add_argument(
            "--workers", type=_positive_int, default=1, help="parallel workers for searches"
        )
    p.set_defaults(run=run, parser=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f1q",
        description="exact quantum theory over the monoid fields {0} + mu_l",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="ground field inspection")
    field_sub = p.add_subparsers(dest="field_command", required=True)
    _subcommand(
        field_sub, "info", "elements and automorphisms at level l", _cmd_field_info, "--l"
    )

    p = _subcommand(
        sub, "involutions", "power-map involutions of level m", _cmd_involutions, "--m"
    )
    p.add_argument("--r", type=int, default=None)

    p = _subcommand(
        sub, "unitary-group", "unitary wreath product at level r(r+2)",
        _cmd_unitary_group, "--m", "--r",
    )
    p.add_argument("--enumerate", action="store_true", dest="enumerate_elements")

    _subcommand(
        sub, "observables", "self-adjoint monomial matrices", _cmd_observables,
        "--m", "--l",
    )

    p = _subcommand(
        sub, "noclone", "exhaustive projective cloner search", _cmd_noclone,
        "--m", "--l", with_workers=True,
    )
    p.add_argument("--scope", choices=("simple", "all"), default="all")

    p = sub.add_parser("delete", help="almost-unitary deletion operator")
    delete_sub = p.add_subparsers(dest="delete_command", required=True)
    _subcommand(
        delete_sub, "build", "construct the deleter and check almost-unitarity",
        _cmd_delete_build, "--m", "--l",
    )
    _subcommand(
        delete_sub, "verify", "audit the deleter on every ray", _cmd_delete_verify,
        "--m", "--l",
    )
    _subcommand(
        delete_sub, "prob", "exact success probability and limits", _cmd_delete_prob,
        "--m", "--l", with_csv=True, with_budget=False,
    )

    _subcommand(
        sub, "dictionary", "four-theory comparison table at prime q", _cmd_dictionary,
        "--q", with_csv=True,
    )
    _subcommand(
        sub, "selftest", "run all exhaustive oracles at default bounds", _cmd_selftest,
        with_budget=False,
    )
    return parser


def _cmd_field_info(args: argparse.Namespace) -> Result:
    l = args.l
    check_budget(l + 1, args.budget, what=f"elements at level {l}")
    elems = elements(l)
    auts = automorphism_group(l)
    phi = totient(l)
    payload = {
        "l": l,
        "element_count": len(elems),
        "elements": [str(e) for e in elems],
        "automorphism_count": len(auts),
        "automorphism_exponents": auts,
        "totient": phi,
    }
    text = "\n".join(
        [
            f"level {l}: {len(elems)} elements: " + ", ".join(str(e) for e in elems),
            f"automorphisms: {len(auts)} (totient {phi}), "
            "exponents " + ", ".join(str(d) for d in auts),
        ]
    )
    return payload, text, EXIT_OK, None


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


def _cmd_involutions(args: argparse.Namespace) -> Result:
    m = args.m
    check_budget(m + 1, args.budget, what=f"elements at level {m}")
    classify_involution(m, 1)  # refuses m < 1, which would list no maps
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
    return payload, "\n".join(lines), EXIT_OK, None


def _cmd_unitary_group(args: argparse.Namespace) -> Result:
    l = args.r * (args.r + 2)
    walk = iter_unitaries(args.m, l, classify_involution(l, args.r), args.budget)
    if args.enumerate_elements:
        group = list(walk)
        order = len(group)
    else:  # only the order is printed: count the walk instead of holding it
        order = sum(1 for _ in walk)
    expected = (args.r + 2) ** args.m * math.factorial(args.m)
    payload = {
        "m": args.m,
        "r": args.r,
        "level": l,
        "order": order,
        "expected": expected,
        "matches": order == expected,
    }
    if args.enumerate_elements:
        payload["elements"] = [matrix_to_json(u) for u in group]
    text = (
        f"U({args.m}, level {l}): order {order}, "
        f"wreath prediction {expected}, "
        + ("match" if payload["matches"] else "MISMATCH")
    )
    if args.enumerate_elements:
        text += "\n" + "\n\n".join(format_matrix(u) for u in group)
    code = EXIT_OK if payload["matches"] else EXIT_INVARIANT
    return payload, text, code, None


def _cmd_observables(args: argparse.Namespace) -> Result:
    # Walking GL lazily keeps memory to the answer; its budget check still
    # refuses a huge l before the scan over r, which takes up to l steps.
    gl = iter_GL(args.m, args.l, budget=args.budget)
    specs = (classify_involution(args.l, r) for r in range(1, args.l + 1))
    sigma = next((spec for spec in specs if spec.valid), None)
    obs = [h for h in gl if is_observable(h, sigma)]
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
    return payload, text, EXIT_OK, None


def _cmd_noclone(args: argparse.Namespace) -> Result:
    if args.m < 2:
        # One ray only, and the identity clones it: no-cloning needs m >= 2.
        raise ValueError(f"noclone needs --m >= 2, got {args.m}")
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
            return payload, text, EXIT_INVARIANT, None
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
    return payload, text, EXIT_OK, None


def _cmd_delete_build(args: argparse.Namespace) -> Result:
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
    return payload, text, EXIT_OK if almost else EXIT_INVARIANT, None


def _cmd_delete_verify(args: argparse.Namespace) -> Result:
    report = verify_deletion(args.m, args.l, budget=args.budget)
    payload = report.to_json()
    text = (
        f"deletion at m={args.m}, l={args.l}: {report.rays_deleted} rays deleted, "
        f"{report.rays_annihilated} annihilated, probability "
        f"{report.probability.numerator}/{report.probability.denominator}"
    )
    return payload, text, EXIT_OK, None


def _cmd_delete_prob(args: argparse.Namespace) -> Result:
    check_probability_digits(args.m, args.l)
    p = probability_a1(args.m, args.l)
    m_inf = limit_m_infinity(args.l)
    l_inf = limit_l_infinity()
    payload = {"m": args.m, "l": args.l, **probability_json(p, args.l)}
    text = (
        f"P(a1 != 0) at m={args.m}, l={args.l}: {p.numerator}/{p.denominator} "
        f"= {float(p):.6f}; limits: m->inf {m_inf}, l->inf {l_inf}"
    )
    csv_rows = [
        ["m", "l", "num", "den", "value"],
        [str(args.m), str(args.l), str(p.numerator), str(p.denominator), repr(float(p))],
    ]
    return payload, text, EXIT_OK, csv_rows


def _cmd_dictionary(args: argparse.Namespace) -> Result:
    table = dictionary_table(args.q, budget=args.budget)
    code = EXIT_OK if table.aligned else EXIT_INVARIANT
    return table.to_json(), table.to_markdown(), code, table.csv_rows()


def _cmd_selftest(args: argparse.Namespace) -> Result:
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
    return payload, "\n".join(lines), EXIT_OK if all_ok else EXIT_INVARIANT, None


def _json_text(payload: object) -> str:
    """``json.dumps(payload, indent=2)``, joined in batches of ``_JSON_BATCH``
    chunks so that only the text, not every chunk of it, is held."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    batches = iter(lambda: list(itertools.islice(chunks, _JSON_BATCH)), [])
    return "".join("".join(batch) for batch in batches)


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # reported by the subcommand's parser, so the usage shows its options
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")

    start = time.perf_counter()
    try:
        payload, text, code, csv_rows = args.run(args)
    except BudgetExceededError as exc:
        if args.json:
            print(_json_text({"status": "budget-exceeded", "detail": str(exc)}))
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
        print(_json_text(payload))
    elif getattr(args, "csv", False):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(csv_rows)
        sys.stdout.write(buffer.getvalue())
    else:
        print(text)
    print(f"elapsed: {elapsed_ms} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
