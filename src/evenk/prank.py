"""Divisibility witnesses behind the periodicity of the p-rank of the
even K-groups of real quadratic fields.

For each fundamental discriminant D the listed statements are provably
equivalent (all true or all false together); evaluating them exactly
and checking they agree is therefore a sharp end-to-end test of the
power-sum machinery.  chi(2) below is the Kronecker symbol (D|2).

The statements are data: STATEMENTS[p] holds one row (text, modulus,
terms) per statement, the text verbatim, and a term (a, b, j, s) stands
for (a chi(2) + b) e_j(sD).  witness(p, D) evaluates the rows of p at
the int D; scan(p, max_D) at every fundamental D up to max_D.
"""

from __future__ import annotations

from .arith import kronecker
from .siegel import check_discriminant, e_sum, is_fundamental_discriminant
from .values import Value


class DivisibilityWitness(Value):
    """Evaluated statements for one discriminant; consistent is True
    exactly when all the booleans coincide.  power_sums keeps the raw
    e_j values so an inconsistency can be reported in full."""

    __slots__ = ("d", "statements", "power_sums")
    _defaults = {"power_sums": ()}
    d: int
    statements: tuple[tuple[str, bool], ...]
    power_sums: tuple[tuple[str, int], ...]

    @property
    def consistent(self) -> bool:
        return len({value for _, value in self.statements}) < 2

    def details(self) -> str:
        body = ", ".join(f"{label}={value}" for label, value in self.statements)
        sums = ", ".join(f"{name}={value}" for name, value in self.power_sums)
        return f"D={self.d}: {body} [{sums}]"


STATEMENTS = {
    3: (
        ("3 | e_1(D)", 3, ((0, 1, 1, 1),)),
        ("3 | e_3(D)", 3, ((0, 1, 3, 1),)),
        ("9 | e_5(4D) + (5 chi(2) + 6) e_5(D)", 9, ((0, 1, 5, 4), (5, 6, 5, 1))),
        ("27 | e_7(4D) + 19 chi(2) e_7(D)", 27, ((0, 1, 7, 4), (19, 0, 7, 1))),
        ("9 | e_9(4D) + (8 chi(2) + 3) e_9(D)", 9, ((0, 1, 9, 4), (8, 3, 9, 1))),
        ("3 | e_11(9D)", 3, ((0, 1, 11, 9),)),
        ("3 | e_13(9D)", 3, ((0, 1, 13, 9),)),
        ("3 | e_15(9D)", 3, ((0, 1, 15, 9),)),
    ),
    5: (
        ("25 | e_1(D)", 25, ((0, 1, 1, 1),)),
        ("25 | e_5(4D) + (7 chi(2) - 1) e_5(D)", 25, ((0, 1, 5, 4), (7, -1, 5, 1))),
        ("25 | e_9(4D) + (8 chi(2) + 3) e_9(D)", 25, ((0, 1, 9, 4), (8, 3, 9, 1))),
        ("5 | e_13(9D)", 5, ((0, 1, 13, 9),)),
    ),
}


def _rows(p: int) -> tuple:
    if p not in STATEMENTS:
        raise ValueError("witness scans are defined for p = 3 and p = 5")
    return STATEMENTS[p]


def witness(p: int, d: int) -> DivisibilityWitness:
    """STATEMENTS[p] at D = d, each e_j(sD) once, in increasing (j, s)."""
    rows = _rows(p)
    check_discriminant(d)
    chi2 = kronecker(d, 2)
    keys = sorted({(j, s) for _, _, terms in rows for _, _, j, s in terms})
    sums = {(j, s): e_sum(s * d, j) for j, s in keys}
    statements = tuple(
        (text, sum((a * chi2 + b) * sums[j, s] for a, b, j, s in terms) % modulus == 0)
        for text, modulus, terms in rows
    )
    names = tuple((f"e_{j}({s if s > 1 else ''}D)", value) for (j, s), value in sums.items())
    return DivisibilityWitness(d, statements, names)


def fundamental_discriminants_up_to(bound: int) -> list[int]:
    """All fundamental discriminants 1 < D <= bound."""
    return [d for d in range(2, bound + 1) if is_fundamental_discriminant(d)]


def scan(p: int, max_d: int) -> list[DivisibilityWitness]:
    """Witnesses for every fundamental discriminant up to max_d."""
    _rows(p)
    return [witness(p, d) for d in fundamental_discriminants_up_to(max_d)]
