"""Modal quantum theory over F_{q^2} and its monoid-field counterpart.

Small quadratic extensions F_{q^2} carry the conjugation x -> x^q with fixed
field F_q, a total Hermitian form, and a Born-style value sigma(h)*h that
always lands in the fixed field.  The unitary monomial matrices over F_{q^2}
have exactly the (q+1)-st roots of unity as scalars, the same cyclic group
mu_{r+2} that the monoid-field unitary groups carry at r = q - 1.
``dictionary_table`` lines the two theories up side by side and
machine-checks that alignment.

The multiplicative monoid of F_{q^2} is {0} + mu_{q^2-1}, so an element of
F_{q^2} is an ``F1Element`` at level n = q^2 - 1: zero, or g^k held as w^k
for the first primitive element g.  Products, powers and inverses are the
level's own, and the conjugation x -> x^q is the involution
``classify_involution(n, q - 1)``.  Only addition needs the coefficient
pairs (c0, c1), meaning c0 + c1*t with t a root of the modulus
t^2 + b*t + c: they build the Zech table Z(k) = log(1 + g^k) (Lidl and
Niederreiter, *Finite Fields*), and g^a + g^b = g^(a + Z(b - a)).  A
monomial matrix never adds two nonzero terms in A*A, so its unitarity is
the F_1 rule at level n and needs no addition at all.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .budget import _check_wreath
from .field import (
    F1Element, InvolutionSpec, check_conjugation, classify_involution, unit,
    unitary_exponents, zero,
)
from .operators import unitary_group, unitary_order

__all__ = [
    "GFField",
    "gf_build",
    "hermitian_form",
    "born_value",
    "MonomialUnitaryScan",
    "monomial_unitary_entries",
    "DictionaryRow",
    "DictionaryTable",
    "dictionary_table",
]

MAX_Q = 13


@dataclass(frozen=True)
class GFField:
    """F_{q^2} = F_q[t] / (t^2 + b*t + c) as level-(q^2 - 1) F1Elements.

    The tables are built once, on construction: ``exp[k]`` is the pair of
    g^k, ``log`` inverts it, and ``zech[k]`` is log(1 + g^k), or None where
    1 + g^k = 0.  ``element`` and ``pair`` convert between the two forms.
    """

    q: int
    modulus: tuple[int, int]
    exp: tuple[tuple[int, int], ...] = dataclasses.field(init=False, repr=False, compare=False)
    log: dict[tuple[int, int], int] = dataclasses.field(init=False, repr=False, compare=False)
    zech: tuple[int | None, ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q, n = self.q, self.level
        # g is the first unit, c1 major, whose powers reach all n units
        for g in [(c0, c1) for c1 in range(q) for c0 in range(q)][1:]:
            exp = [(1, 0)]
            while (x := self._poly_mul(exp[-1], g)) != (1, 0):
                exp.append(x)
            if len(exp) == n:
                break
        log = {x: k for k, x in enumerate(exp)}
        zech = tuple(log.get(((c0 + 1) % q, c1)) for c0, c1 in exp)
        object.__setattr__(self, "exp", tuple(exp))
        object.__setattr__(self, "log", log)
        object.__setattr__(self, "zech", zech)

    def _poly_mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        # (x0 + x1 t)(y0 + y1 t) with t^2 = -(b t + c).
        b, c = self.modulus
        t2 = x[1] * y[1]
        c0 = x[0] * y[0] - c * t2
        c1 = x[0] * y[1] + x[1] * y[0] - b * t2
        return (c0 % self.q, c1 % self.q)

    @property
    def level(self) -> int:
        return self.q * self.q - 1

    @property
    def sigma(self) -> InvolutionSpec:
        """The conjugation x -> x^q, which is v -> v^(r+1) at r = q - 1."""
        return classify_involution(self.level, self.q - 1)

    def element(self, pair: tuple[int, int]) -> F1Element:
        """c0 + c1*t as an element: zero, or w^k where it equals g^k."""
        return zero(self.level) if pair == (0, 0) else unit(self.log[pair], self.level)

    def pair(self, x: F1Element) -> tuple[int, int]:
        return (0, 0) if x.is_zero else self.exp[x.exp]

    def add(self, x: F1Element, y: F1Element) -> F1Element:
        if x.is_zero or y.is_zero:
            return y if x.is_zero else x
        z = self.zech[(y.exp - x.exp) % self.level]
        return zero(self.level) if z is None else x * unit(z, self.level)

    def format_element(self, x: F1Element) -> str:
        c0, c1 = self.pair(x)
        if c1 == 0:
            return str(c0)
        t_part = "t" if c1 == 1 else f"{c1}t"
        return t_part if c0 == 0 else f"{t_part}+{c0}"

    def modulus_string(self) -> str:
        b, c = self.modulus
        body = "t^2"
        if b:
            body += "+t" if b == 1 else f"+{b}t"
        if c:
            body += f"+{c}"
        return body


def _check_q(q: int) -> None:
    # the cap first: trial division of a huge q would take ages
    if q > MAX_Q:
        raise ValueError(f"q must be <= {MAX_Q}, got {q}")
    if q < 2 or not all(q % d for d in range(2, math.isqrt(q) + 1)):
        raise ValueError(f"q must be prime, got {q}")


def gf_build(q: int) -> GFField:
    """F_{q^2} with the lexicographically smallest irreducible modulus.

    Moduli t^2 + b*t + c are ordered by (b, c); irreducible means no root
    in F_q.  For q = 2 this picks t^2+t+1, for q = 3 it picks t^2+1.
    """
    _check_q(q)
    for b in range(q):
        for c in range(q):
            if all((x * x + b * x + c) % q for x in range(q)):
                return GFField(q, (b, c))
    raise AssertionError(f"no irreducible quadratic over F_{q}")


GFVector = tuple[F1Element, ...]


def hermitian_form(field: GFField, x: GFVector, y: GFVector) -> F1Element:
    """Total standard form sigma(x_1)y_1 + ... + sigma(x_m)y_m."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    d = check_conjugation(field.sigma, field.level)
    total = zero(field.level)
    for xi, yi in zip(x, y):
        total = field.add(total, xi**d * yi)
    return total


def born_value(field: GFField, x: GFVector, y: GFVector) -> F1Element:
    """sigma(<x|y>) * <x|y>; always an element of the fixed field F_q."""
    h = hermitian_form(field, x, y)
    return h ** check_conjugation(field.sigma, field.level) * h


@dataclass(frozen=True)
class MonomialUnitaryScan:
    """The unitary monomial matrices over F_{q^2}: how many, and their scalars."""

    q: int
    m: int
    unitary_count: int
    allowed_scalars: tuple[F1Element, ...]

    @property
    def scalar_group_order(self) -> int:
        return len(self.allowed_scalars)


def monomial_unitary_entries(
    q: int, m: int, budget: int | None = None
) -> MonomialUnitaryScan:
    """Scalars occurring in unitary monomial matrices over F_{q^2}.

    A monomial A has one nonzero s_j per column, in distinct rows, so
    (A*A)[i][j] has no term for i != j and the single term sigma(s_j) s_j
    for i = j.  A is unitary exactly when every s_j is a unitary scalar,
    which is the F_1 rule of ``is_unitary`` at level q^2 - 1: the scalars
    are ``unitary_exponents``, the (q+1)-st roots of unity, and the count
    is ``unitary_order``.  ``oracles.dense_monomial_scan`` checks this by
    dense arithmetic.  The budget counts the m! * (q^2 - 1)^m candidates
    the count is taken over, and that is the only limit on m.
    """
    _check_scan(q, m, budget)
    return _scan(gf_build(q), m)


def _check_scan(q: int, m: int, budget: int | None) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _check_q(q)
    _check_wreath(m, q * q - 1, budget, what=f"monomial matrices of size {m} over F_{q * q}")


def _scan(field: GFField, m: int) -> MonomialUnitaryScan:
    n, sigma = field.level, field.sigma
    scalars = tuple(unit(e, n) for e in unitary_exponents(sigma, n))
    return MonomialUnitaryScan(field.q, m, unitary_order(m, n, sigma), scalars)


@dataclass(frozen=True)
class DictionaryRow:
    theory: str
    field: str
    involution: str
    fixed_field: str
    standard_form: str
    unitary_scalars: str

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


_DICTIONARY_COLUMNS = tuple(f.name for f in dataclasses.fields(DictionaryRow))


@dataclass(frozen=True)
class DictionaryTable:
    """Four quantum theories aligned by (field, involution, fixed field).

    The modal and absolute rows are instantiated at concrete q and
    r = q - 1 and cross-checked: both monomial-unitary scalar groups are
    cyclic of the same order q + 1 = r + 2, and the fixed fields have the
    same size q = r + 1.
    """

    q: int
    r: int
    rows: tuple[DictionaryRow, ...]
    modal_scalar_order: int
    absolute_scalar_order: int
    fixed_sizes: tuple[int, int]
    modulus: str

    @property
    def aligned(self) -> bool:
        return (
            self.r == self.q - 1
            and self.modal_scalar_order == self.q + 1
            and self.absolute_scalar_order == self.r + 2
            and self.fixed_sizes[0] == self.fixed_sizes[1]
        )

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "r": self.r,
            "modulus": self.modulus,
            "rows": [row.to_json() for row in self.rows],
            "alignment": {
                "modal_scalar_order": self.modal_scalar_order,
                "absolute_scalar_order": self.absolute_scalar_order,
                "fixed_field_sizes": list(self.fixed_sizes),
                "aligned": self.aligned,
            },
        }

    def to_markdown(self) -> str:
        header = [name.replace("_", " ") for name in _DICTIONARY_COLUMNS]
        cells = [header, *(dataclasses.astuple(row) for row in self.rows)]
        lines = ["| " + " | ".join(row) + " |" for row in cells]
        lines.insert(1, "|" + "---|" * len(header))
        return "\n".join(lines)

    def csv_rows(self) -> list[list[str]]:
        return [list(_DICTIONARY_COLUMNS)] + [
            list(dataclasses.astuple(row)) for row in self.rows
        ]


def dictionary_table(q: int, budget: int | None = None) -> DictionaryTable:
    """Instantiate the four-theory comparison at prime q and r = q - 1.

    F_{q^2} is built once, as the level q^2 - 1 = r(r+2) with the
    conjugation v -> v^(r+1).  The modal scalar group is that of
    ``monomial_unitary_entries`` at m = 2, exact because a monomial's A*A
    has one term per diagonal entry and none off it, and the modal fixed
    field is counted as the elements the conjugation fixes; the absolute
    scalar group is collected from the actual unitary group at the same
    level and m = 2.  The static complex and division-ring rows document
    the theories the finite rows imitate.  The budget counts the
    2 * (q^2 - 1)^2 candidate monomials of the modal count and is checked
    before any table is built; the unitary group checks its own.
    """
    _check_scan(q, 2, budget)
    field = gf_build(q)
    scan = _scan(field, 2)
    r, level = q - 1, field.level
    absolute_scalars = sorted(
        {s.exp for u in unitary_group(2, r, budget=budget) for s in u.scalars}
    )
    fixed_sizes = (len(field.sigma.fixed_elements()), field.sigma.fixed_field_order + 1)

    rows = (
        DictionaryRow(
            theory="Actual",
            field="C",
            involution="v -> conj(v)",
            fixed_field="R",
            standard_form="conj(x_1)y_1 + ... + conj(x_m)y_m",
            unitary_scalars="U(1), the unit circle",
        ),
        DictionaryRow(
            theory="Modal",
            field=f"F_{q * q} = F_{q}[t]/({field.modulus_string()})",
            involution=f"v -> v^{q}",
            fixed_field=f"F_{q}",
            standard_form=f"x_1^{q} y_1 + ... + x_m^{q} y_m",
            unitary_scalars=(
                f"roots of unity of order {q + 1} "
                f"(group order {scan.scalar_group_order})"
            ),
        ),
        DictionaryRow(
            theory="General",
            field="division ring k with involution",
            involution="sigma",
            fixed_field="k_sigma",
            standard_form="x_1^sigma y_1 + ... + x_m^sigma y_m",
            unitary_scalars="norm-one scalars of k",
        ),
        DictionaryRow(
            theory="Absolute",
            field=f"F_1^{level} = {{0}} + mu_{level}",
            involution=f"v -> v^{r + 1}",
            fixed_field=f"F_1^{r}",
            standard_form=f"x_1^{r + 1} y_1 + ... + x_m^{r + 1} y_m (partial)",
            unitary_scalars=f"mu_{r + 2}, order {len(absolute_scalars)}",
        ),
    )
    return DictionaryTable(
        q=q,
        r=r,
        rows=rows,
        modal_scalar_order=scan.scalar_group_order,
        absolute_scalar_order=len(absolute_scalars),
        fixed_sizes=fixed_sizes,
        modulus=field.modulus_string(),
    )
