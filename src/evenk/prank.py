"""Divisibility witnesses behind the periodicity of the p-rank of the
even K-groups of real quadratic fields.

For each fundamental discriminant D the listed statements are provably
equivalent (all true or all false together); evaluating them exactly
and checking they agree is therefore a sharp end-to-end test of the
power-sum machinery.  chi(2) below is the Kronecker symbol (D|2).
"""

from __future__ import annotations

from .arith import kronecker
from .siegel import (
    QuadraticDiscriminant,
    as_discriminant,
    e_sum,
    is_fundamental_discriminant,
)
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


def rank3_witness(disc: QuadraticDiscriminant | int) -> DivisibilityWitness:
    """The eight 3-divisibility statements for discriminant D."""
    d = int(as_discriminant(disc))
    chi2 = kronecker(d, 2)
    sums = {
        "e_1(D)": e_sum(d, 1),
        "e_3(D)": e_sum(d, 3),
        "e_5(D)": e_sum(d, 5),
        "e_5(4D)": e_sum(4 * d, 5),
        "e_7(D)": e_sum(d, 7),
        "e_7(4D)": e_sum(4 * d, 7),
        "e_9(D)": e_sum(d, 9),
        "e_9(4D)": e_sum(4 * d, 9),
        "e_11(9D)": e_sum(9 * d, 11),
        "e_13(9D)": e_sum(9 * d, 13),
        "e_15(9D)": e_sum(9 * d, 15),
    }
    statements = [
        ("3 | e_1(D)", sums["e_1(D)"] % 3 == 0),
        ("3 | e_3(D)", sums["e_3(D)"] % 3 == 0),
        (
            "9 | e_5(4D) + (5 chi(2) + 6) e_5(D)",
            (sums["e_5(4D)"] + (5 * chi2 + 6) * sums["e_5(D)"]) % 9 == 0,
        ),
        (
            "27 | e_7(4D) + 19 chi(2) e_7(D)",
            (sums["e_7(4D)"] + 19 * chi2 * sums["e_7(D)"]) % 27 == 0,
        ),
        (
            "9 | e_9(4D) + (8 chi(2) + 3) e_9(D)",
            (sums["e_9(4D)"] + (8 * chi2 + 3) * sums["e_9(D)"]) % 9 == 0,
        ),
        ("3 | e_11(9D)", sums["e_11(9D)"] % 3 == 0),
        ("3 | e_13(9D)", sums["e_13(9D)"] % 3 == 0),
        ("3 | e_15(9D)", sums["e_15(9D)"] % 3 == 0),
    ]
    return DivisibilityWitness(d, tuple(statements), tuple(sums.items()))


def rank5_witness(disc: QuadraticDiscriminant | int) -> DivisibilityWitness:
    """The four 5-divisibility statements for discriminant D."""
    d = int(as_discriminant(disc))
    chi2 = kronecker(d, 2)
    sums = {
        "e_1(D)": e_sum(d, 1),
        "e_5(D)": e_sum(d, 5),
        "e_5(4D)": e_sum(4 * d, 5),
        "e_9(D)": e_sum(d, 9),
        "e_9(4D)": e_sum(4 * d, 9),
        "e_13(9D)": e_sum(9 * d, 13),
    }
    statements = [
        ("25 | e_1(D)", sums["e_1(D)"] % 25 == 0),
        (
            "25 | e_5(4D) + (7 chi(2) - 1) e_5(D)",
            (sums["e_5(4D)"] + (7 * chi2 - 1) * sums["e_5(D)"]) % 25 == 0,
        ),
        (
            "25 | e_9(4D) + (8 chi(2) + 3) e_9(D)",
            (sums["e_9(4D)"] + (8 * chi2 + 3) * sums["e_9(D)"]) % 25 == 0,
        ),
        ("5 | e_13(9D)", sums["e_13(9D)"] % 5 == 0),
    ]
    return DivisibilityWitness(d, tuple(statements), tuple(sums.items()))


def fundamental_discriminants_up_to(bound: int) -> list[int]:
    """All fundamental discriminants 1 < D <= bound."""
    return [d for d in range(2, bound + 1) if is_fundamental_discriminant(d)]


def scan(p: int, max_d: int) -> list[DivisibilityWitness]:
    """Witnesses for every fundamental discriminant up to max_d."""
    if p == 3:
        witness = rank3_witness
    elif p == 5:
        witness = rank5_witness
    else:
        raise ValueError("witness scans are defined for p = 3 and p = 5")
    return [witness(d) for d in fundamental_discriminants_up_to(max_d)]
