"""The benchmark's workloads: seeded job lists and independent output checks.

A job is one closed-loop request to f1q: a library call or an in-process CLI
invocation. ``build_jobs`` turns a workload name and a seed into the job list
of one pass; the seed only shuffles the job order and, in ``ray_audit``,
picks the deletion ``blank_index``. f1q sees nothing but the generated
arguments.

Each job has a check that recomputes the expected answer with the
benchmark's own integer arithmetic (exponents modulo l, ``Fraction``,
closed-form counts) and never calls the f1q function under test. f1q
functions are looked up on their modules when a job runs, so the tracer's
rebinding of module names is seen by every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from typing import Any, Callable

from f1q import cli, clone_delete, field
from tracing import SELFTEST_CRITERIA

class CheckFailed(Exception):
    """A job's output disagrees with the benchmark's own expectation."""


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    # check(output, outputs_of_this_pass) raises CheckFailed on a wrong answer.
    check: Callable[[Any, dict[str, Any]], None]
    # Canonical text of an output; it must not change between passes.
    digest: Callable[[Any], str]
    # Processes the job keeps busy at once.
    workers: int = 1


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent arithmetic. Vectors are lists of exponents with None for zero.


def _ray(v: list[int | None], l: int) -> tuple[int | None, ...] | None:
    """Canonical ray representative: first nonzero exponent moved to 0."""
    lead = next((e for e in v if e is not None), None)
    if lead is None:
        return None
    return tuple(None if e is None else (e - lead) % l for e in v)


def _clones_simple_rays(
    perm: list[int], exps: list[int], blank: list[int | None], m: int, l: int
) -> bool:
    """Does the monomial matrix (perm, exps) send ray(e_i x blank) to ray(e_i x e_i)?"""
    n = m * m
    for i in range(m):
        image: list[int | None] = [None] * n
        for k, b in enumerate(blank):
            if b is not None:
                image[perm[i * m + k]] = (exps[i * m + k] + b) % l
        target: list[int | None] = [None] * n
        target[i * m + i] = 0
        if _ray(image, l) != tuple(target):
            return False
    return True


def _unitary_scalar_count(l: int, r: int | None) -> int:
    """Units s of mu_l with sigma(s) * s = 1, i.e. (r + 2) s = 0 mod l
    (identity conjugation: 2 s = 0 mod l)."""
    return gcd(2 if r is None else r + 2, l)


def _subunital_count(n: int, l: int) -> int:
    return sum(comb(n, k) ** 2 * factorial(k) * l**k for k in range(n + 1))


@lru_cache(maxsize=None)
def _almost_unitary_count(n: int, l: int) -> int:
    """Count n x n subunital matrices whose nonsingular principal submatrices
    are all unitary under the identity conjugation.

    A principal submatrix on index set S is nonsingular exactly when S is a
    union of cycles of the partial map column -> row, so the condition is
    that every cell on a cycle has 2 * exp = 0 mod l.
    """
    count = 0
    for k in range(n + 1):
        for cols in itertools.combinations(range(n), k):
            for rows in itertools.permutations(range(n), k):
                row_of = dict(zip(cols, rows))
                on_cycle = set()
                for start in cols:
                    j, path = start, []
                    while j in row_of and j not in path:
                        path.append(j)
                        j = row_of[j]
                    if j == start:
                        on_cycle.update(path)
                cycle_slots = [t for t, c in enumerate(cols) if c in on_cycle]
                for exps in itertools.product(range(l), repeat=k):
                    if all(2 * exps[t] % l == 0 for t in cycle_slots):
                        count += 1
    return count


def _symmetric_monomial_count(n: int, l: int) -> int:
    """Monomial matrices equal to their transpose: an involutive permutation
    with any scalar on a fixed point and one shared scalar per 2-cycle."""
    total = 0
    for k in range(n // 2 + 1):
        involutions = factorial(n) // (factorial(k) * 2**k * factorial(n - 2 * k))
        total += involutions * l ** (n - k)
    return total


def _totient(n: int) -> int:
    result, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def _exp_token(token: str) -> int | None:
    return None if token == "0" else int(token[2:])


def _parse_state(text: str) -> tuple[list[int | None], int]:
    body, level = text.strip().removeprefix("(").split(")@")
    return [_exp_token(t) for t in body.split(",")], int(level)


def _frac(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


# ---------------------------------------------------------------------------
# Job kinds.


def _cli_job(
    argv: list[str], check: Callable[[dict], None],
    digest: Callable[[str], str] = lambda stdout: stdout,
) -> Job:
    def run() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit
                code = exc.code
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        return out.getvalue()

    def check_output(stdout: str, _outputs: dict[str, Any]) -> None:
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"stdout is not JSON: {exc}") from None
        check(payload)

    return Job(" ".join(argv), run, check_output, digest)


def _selftest_digest(stdout: str) -> str:
    """selftest stdout without its per-criterion timings, which vary by design."""
    payload = json.loads(stdout)
    for criterion in payload["criteria"]:
        criterion.pop("elapsed_ms")
    return json.dumps(payload, indent=2)


def _search_name(l: int, r: int | None, scope: str, workers: int) -> str:
    return f"search_projective_cloner(m=2, l={l}, r={r}, scope={scope}, workers={workers})"


def _search_job(
    l: int, r: int | None, scope: str, workers: int, reference: str | None
) -> Job:
    m = 2
    sigma = None if r is None else field.classify_involution(l, r)
    name = _search_name(l, r, scope, workers)

    def run() -> Any:
        return clone_delete.search_projective_cloner(
            m, l, sigma, scope, workers=workers
        )

    def check(res: Any, outputs: dict[str, Any]) -> None:
        n = m * m
        unitaries = factorial(n) * _unitary_scalar_count(l, r) ** n
        _expect((res.m, res.l, res.scope) == (m, l, scope), "echoed arguments differ")
        _expect(
            res.unitaries_searched == unitaries,
            f"unitaries_searched {res.unitaries_searched}, expected {unitaries}",
        )
        _expect(res.blanks_searched == (l + 1) ** m - 1, "wrong blank count")
        rays = ((l + 1) ** m - 1) // l if scope == "all" else m
        _expect(res.rays_targeted == rays, f"rays_targeted {res.rays_targeted} != {rays}")
        if scope == "all":
            _expect(not res.found, "a universal cloner was reported")
            _expect(res.witness_operator is None and res.witness_blank is None,
                    "witness without a find")
        else:
            _expect(res.found, "no simple-ray cloner found")
            op, blank = res.witness_operator, res.witness_blank
            _expect(
                _clones_simple_rays(
                    list(op.perm), [s.exp for s in op.scalars],
                    [e.exp for e in blank.entries], m, l,
                ),
                "simple-ray witness fails the independent re-check",
            )
        if reference is not None:
            base = outputs.get(reference)
            _expect(base is not None, f"reference job {reference!r} has no output")
            for f in fields(res):
                _expect(
                    getattr(res, f.name) == getattr(base, f.name),
                    f"field {f.name} differs from the workers=1 result",
                )

    return Job(name, run, check, repr, workers)


def _almost_unitary_job(m: int, l: int) -> Job:
    def run() -> Any:
        return clone_delete.almost_unitary_cloning_fails(m, l)

    def check(scan: Any, _outputs: dict[str, Any]) -> None:
        n = m * m
        almost = _almost_unitary_count(n, l)
        _expect((scan.m, scan.l) == (m, l), "echoed arguments differ")
        _expect(scan.cloning_impossible, "an almost-unitary cloner was reported")
        _expect(scan.operators_scanned == _subunital_count(n, l), "wrong candidate count")
        _expect(
            scan.almost_unitary_count == almost,
            f"almost_unitary_count {scan.almost_unitary_count}, expected {almost}",
        )
        _expect(scan.pairs_checked == almost * m * l, "wrong pairs_checked")

    return Job(f"almost_unitary_cloning_fails(m={m}, l={l})", run, check, repr)


def _deletion_job(m: int, l: int, blank_index: int) -> Job:
    def run() -> Any:
        return clone_delete.verify_deletion(m, l, blank_index=blank_index)

    def check(rep: Any, _outputs: dict[str, Any]) -> None:
        total = ((l + 1) ** m - 1) // l
        deleted = (l + 1) ** (m - 1)
        _expect((rep.m, rep.l, rep.blank_index) == (m, l, blank_index), "echo differs")
        _expect(rep.total_rays == total, f"total {rep.total_rays}, expected {total}")
        _expect(rep.rays_deleted == deleted, f"deleted {rep.rays_deleted}, expected {deleted}")
        _expect(
            rep.probability == Fraction(l * (l + 1) ** (m - 1), (l + 1) ** m - 1),
            f"probability {rep.probability} is not l(l+1)^(m-1)/((l+1)^m-1)",
        )
        diagonal = [(k * m + blank_index, k * m + blank_index, 0) for k in range(m)]
        _expect(
            [(i, j, s.exp) for i, j, s in rep.operator.cells] == diagonal,
            "deletion operator cells differ",
        )

    return Job(f"verify_deletion(m={m}, l={l}, blank_index={blank_index})", run, check, repr)


# ---------------------------------------------------------------------------
# CLI payload checks.


def _check_unitary_group(m: int, r: int) -> Callable[[dict], None]:
    def check(p: dict) -> None:
        order = (r + 2) ** m * factorial(m)
        _expect(p["level"] == r * (r + 2), "wrong level")
        _expect(p["order"] == order, f"order {p['order']}, expected {order}")
        _expect(p["expected"] == order and p["matches"], "wreath prediction not matched")

    return check


def _check_observables(m: int, l: int) -> Callable[[dict], None]:
    def check(p: dict) -> None:
        count = _symmetric_monomial_count(m, l)
        _expect(p["conjugation"] == "identity", "level 2 admits only the identity")
        _expect(p["count"] == count, f"count {p['count']}, expected {count}")
        _expect(len(p["observables"]) == count, "listed observables differ from count")
        seen = set()
        for h in p["observables"]:
            cells = frozenset((i, j, tok) for i, j, tok in h["entries"])
            _expect(h["dim"] == m and h["l"] == l and len(cells) == m, "bad matrix shape")
            _expect(sorted(i for i, _, _ in cells) == list(range(1, m + 1)), "not monomial")
            _expect(sorted(j for _, j, _ in cells) == list(range(1, m + 1)), "not monomial")
            _expect(cells == frozenset((j, i, t) for i, j, t in cells), "not self-adjoint")
            seen.add(cells)
        _expect(len(seen) == count, "duplicate observables")

    return check


def _check_selftest(p: dict) -> None:
    names = tuple(c["name"] for c in p["criteria"])
    _expect(names == SELFTEST_CRITERIA, f"criteria {names}")
    failed = [c["name"] for c in p["criteria"] if not c["ok"]]
    _expect(p["all_ok"] and not failed, f"failed criteria {failed}")


def _check_dictionary(q: int) -> Callable[[dict], None]:
    def check(p: dict) -> None:
        a = p["alignment"]
        _expect(p["q"] == q and p["r"] == q - 1, "echo differs")
        _expect(a["aligned"], "dictionary rows are not aligned")
        _expect(a["modal_scalar_order"] == q + 1, "modal scalar group order != q+1")
        _expect(a["absolute_scalar_order"] == q + 1, "absolute scalar group order != r+2")
        _expect(a["fixed_field_sizes"] == [q, q], "fixed field sizes differ")
        _expect(len(p["rows"]) == 4, "expected four theories")

    return check


def _check_field_info(l: int) -> Callable[[dict], None]:
    def check(p: dict) -> None:
        auts = [d for d in range(1, l + 1) if gcd(d, l) == 1]
        _expect(p["elements"] == ["0"] + [f"w^{e}" for e in range(l)], "wrong elements")
        _expect(p["element_count"] == l + 1, "wrong element count")
        _expect(p["automorphism_exponents"] == auts, "wrong automorphisms")
        _expect(p["automorphism_count"] == p["totient"] == _totient(l), "wrong totient")

    return check


def _check_involutions(m: int) -> Callable[[dict], None]:
    def check(p: dict) -> None:
        valid = [r for r in range(1, m + 1) if r * (r + 2) % m == 0 and r % m != 0]
        _expect(len(p["records"]) == m, "one record per r expected")
        _expect(p["valid_r"] == valid, f"valid_r {p['valid_r']}, expected {valid}")

    return check


def _check_noclone_simple(m: int, l: int) -> Callable[[dict], None]:
    def check(p: dict) -> None:
        n = m * m
        _expect(p["found"], "no simple-ray cloner found")
        _expect(p["unitaries"] == factorial(n) * _unitary_scalar_count(l, None) ** n,
                "wrong unitary count")
        _expect(p["blanks"] == (l + 1) ** m - 1 and p["rays"] == m, "wrong search space")
        _expect(p["scalar_obstruction"] == [f"w^{a}" for a in range(l) if 2 * a % l != a],
                "wrong scalar obstruction")
        op = p["witness"]["operator"]
        perm, exps = [0] * n, [0] * n
        for row, col, tok in op["entries"]:
            perm[col - 1], exps[col - 1] = row - 1, _exp_token(tok)
        blank, level = _parse_state(p["witness"]["blank"])
        _expect(level == l and len(op["entries"]) == n, "witness has the wrong shape")
        _expect(_clones_simple_rays(perm, exps, blank, m, l),
                "witness fails the independent re-check")

    return check


def _check_delete_build(m: int, l: int) -> Callable[[dict], None]:
    def check(p: dict) -> None:
        entries = [[k * m + 1, k * m + 1, "w^0"] for k in range(m)]
        _expect(p["operator"] == {"dim": m * m, "l": l, "entries": entries}, "wrong operator")
        _expect(p["almost_unitary"], "deleter reported not almost unitary")

    return check


def _check_delete_prob(m: int, l: int) -> Callable[[dict], None]:
    def check(p: dict) -> None:
        want = Fraction(l * (l + 1) ** (m - 1), (l + 1) ** m - 1)
        _expect(_frac(p["probability"]) == want, "probability differs from closed form")
        _expect(_frac(p["limits"]["m_inf"]) == Fraction(l, l + 1), "wrong m limit")
        _expect(_frac(p["limits"]["l_inf"]) == 1, "wrong l limit")

    return check


# ---------------------------------------------------------------------------
# Workloads. TINY swaps in small sizes for the benchmark's own smoke tests.


def _clone_search(rng: random.Random, tiny: bool) -> list[Job]:
    levels = ((2, None),) if tiny else ((2, None), (3, 1), (4, None))
    jobs = [
        _search_job(l, r, scope, 1, None) for l, r in levels for scope in ("all", "simple")
    ]
    l2, r2 = levels[0] if tiny else levels[1]
    jobs.append(_search_job(l2, r2, "all", 2, _search_name(l2, r2, "all", 1)))
    jobs.append(_almost_unitary_job(2, 2 if tiny else 3))
    return jobs


def _group_filter(rng: random.Random, tiny: bool) -> list[Job]:
    (m, r), (om, ol) = ((2, 2), (3, 2)) if tiny else ((4, 2), (6, 2))
    return [
        _cli_job(["unitary-group", "--m", str(m), "--r", str(r), "--json"],
                 _check_unitary_group(m, r)),
        _cli_job(["observables", "--m", str(om), "--l", str(ol), "--json"],
                 _check_observables(om, ol)),
    ]


def _ray_audit(rng: random.Random, tiny: bool) -> list[Job]:
    sizes = ((3, 2), (2, 3)) if tiny else ((6, 4), (7, 3), (8, 2))
    return [_deletion_job(m, l, rng.randrange(m)) for m, l in sizes]


def _battery(rng: random.Random, tiny: bool) -> list[Job]:
    qs, l_info, m_inv = ((3,), 12, 8) if tiny else ((5, 7, 11), 5040, 720)
    jobs = [_cli_job(["selftest", "--json"], _check_selftest, _selftest_digest)]
    jobs += [
        _cli_job(["dictionary", "--q", str(q), "--json"], _check_dictionary(q)) for q in qs
    ]
    specs = [
        (["field", "info", "--l", str(l_info)], _check_field_info(l_info)),
        (["involutions", "--m", str(m_inv)], _check_involutions(m_inv)),
        (["noclone", "--m", "2", "--l", "2", "--scope", "simple"], _check_noclone_simple(2, 2)),
        (["unitary-group", "--m", "2", "--r", "1"], _check_unitary_group(2, 1)),
        (["delete", "build", "--m", "3", "--l", "3"], _check_delete_build(3, 3)),
        (["delete", "prob", "--m", "40", "--l", "9"], _check_delete_prob(40, 9)),
    ]
    return jobs + [_cli_job(argv + ["--json"], check) for argv, check in specs]


_BUILDERS = {
    "clone_search": _clone_search,
    "group_filter": _group_filter,
    "ray_audit": _ray_audit,
    "battery": _battery,
}


def build_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The jobs of one pass, in the order the seed fixes."""
    rng = random.Random(seed)
    jobs = _BUILDERS[workload](rng, tiny)
    rng.shuffle(jobs)
    return jobs


def setup(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """Everything a run does before its first job, after importing f1q."""
    cli.build_parser()
    return build_jobs(workload, seed, tiny)
