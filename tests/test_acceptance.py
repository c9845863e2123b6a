"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with its runtime
(run with `pytest tests/test_acceptance.py -v -s` to see every line).
All comparisons are exact: integer equality for orders, rational
equality for zeta values.
"""

import json
import time
from pathlib import Path

from field_enum import two_elementary_fields
from evenk.kgroups import (
    CyclicPrime,
    Elementary,
    InexactDivision,
    NonIntegralOrder,
    Rationals,
    RealQuadratic,
    combine_elementary,
    cubic_from_conductor,
    k_even_order,
    k_odd_order,
    kz,
    zeta_abelian,
)
from evenk.prank import scan
from evenk.siegel import (
    e_sum,
    fundamental_discriminant,
    is_fundamental_discriminant,
    zeta_quadratic,
)
from evenk.winv import w_cyclic, w_elementary, w_quadratic, w_rational
from oracles import e_sum_brute_force

DATA = Path(__file__).parent / "data"


def load(name):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def report(number, name, start, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} deviations)"
    print(f"ACCEPTANCE {number} {name}: {status} [{time.time() - start:.1f}s]")


def fundamentals(bound):
    return [d for d in range(2, bound + 1) if is_fundamental_discriminant(d)]


def multiquad_spec(m):
    return Elementary(
        2,
        tuple(
            RealQuadratic(fundamental_discriminant(x))
            for x in (2, 3, m, 6, 2 * m, 3 * m, 6 * m)
        ),
    )


def degree9_spec(parts):
    return Elementary(3, tuple(CyclicPrime(p, f, orbit) for p, f, orbit in parts))


def test_criterion_1_kz_sequence():
    start = time.time()
    got = [kz(n) for n in (2, 6, 10, 14, 18, 22, 26)]
    failures = [] if got == [2, 1, 2, 1, 2, 691, 2] else [got]
    report(1, "|K_n(Z)| sequence", start, failures)
    assert not failures, f"kz sequence came out as {got}"


def test_criterion_2_cyclic_cubic_tables():
    start = time.time()
    failures = []
    for index, rows in sorted(load("cubic_orders.json").items(), key=lambda kv: int(kv[0])):
        k = (int(index) + 2) // 4
        for row in rows:
            got = k_even_order(CyclicPrime(3, row["f"]), k).order
            if got != int(row["order"]):
                failures.append(
                    f"K_{index} f={row['f']}: got {got}, reference {row['order']}"
                )
            params = cubic_from_conductor(row["f"])
            if (params.a, params.b) != (row["a"], row["b"]):
                failures.append(
                    f"Hasse pair for f={row['f']}: got {(params.a, params.b)}, "
                    f"reference {(row['a'], row['b'])}"
                )
    report(2, "cyclic cubic tables f<=499, k<=10", start, failures)
    assert not failures, "\n".join(failures)


def test_criterion_3_multiquadratic_tables():
    start = time.time()
    failures = []
    for m, rows in sorted(load("multiquad_orders.json").items(), key=lambda kv: int(kv[0])):
        spec = multiquad_spec(int(m))
        for index, want in sorted(rows.items(), key=lambda kv: int(kv[0])):
            k = (int(index) + 2) // 4
            got = combine_elementary(spec, k).order
            if got != int(want):
                failures.append(
                    f"Q(sqrt2,sqrt3,sqrt{m}) K_{index}: computed {got} != "
                    f"reference {want}"
                )
    report(3, "multiquadratic tables", start, failures)
    assert not failures, (
        "computed orders (verified independently by the e-sum route and "
        "the conductor-character route) differ from the reference rows:\n"
        + "\n".join(failures)
    )


def test_criterion_4_degree9_tables():
    start = time.time()
    failures = []
    reproduced = 0
    for entry in load("degree9_orders.json"):
        if entry["parts"] is None:
            print(f"unreproduced (input unavailable): {entry['label']}")
            continue
        spec = degree9_spec(entry["parts"])
        for index, want in sorted(entry["orders"].items(), key=lambda kv: int(kv[0])):
            k = (int(index) + 2) // 4
            got = combine_elementary(spec, k).order
            if got != int(want):
                failures.append(
                    f"{entry['label']} K_{index}: computed {got} != reference {want}"
                )
            else:
                reproduced += 1
    report(4, "degree-9 tables (pinned subfield lists)", start, failures)
    assert reproduced == 10
    assert not failures, "\n".join(failures)


def test_criterion_5_route_equivalence():
    start = time.time()
    failures = []
    for d in fundamentals(200):
        for k in range(1, 6):
            spec = RealQuadratic(d)
            zeta_siegel = zeta_quadratic(d, k)
            zeta_chars = zeta_abelian(spec, k)
            if zeta_siegel != zeta_chars:
                failures.append(f"zeta mismatch at D={d}, k={k}")
            a = k_even_order(spec, k, method="zagier").order
            b = k_even_order(spec, k, method="characters").order
            if a != b:
                failures.append(f"order mismatch at D={d}, k={k}")
    report(5, "zeta route equivalence D<=200, k<=5", start, failures)
    assert not failures, "\n".join(failures)


def test_criterion_6_e_sum_brute_force():
    start = time.time()
    failures = []
    for m in range(1, 501):
        for j in (1, 3, 5):
            if e_sum(m, j) != e_sum_brute_force(m, j):
                failures.append(f"e_{j}({m})")
    report(6, "e-sum brute-force oracle m<=500", start, failures)
    assert not failures, "\n".join(failures)


def test_criterion_7_w_sanity():
    start = time.time()
    failures = []
    if k_odd_order(Rationals(), 1).order != 48:
        failures.append("|K_3(Z)| != 48")
    if k_odd_order(Rationals(), 2).order != 240:
        failures.append("|K_7(Z)| != 240")
    fields = two_elementary_fields(120, 2) + two_elementary_fields(120, 3)
    for discs in fields:
        n = 2 if len(discs) == 3 else 3
        exponent = 2**n - 2
        for k in range(1, 11):
            lhs = w_rational(k).value ** exponent * w_elementary(2, list(discs), k).value
            rhs = 1
            for d in discs:
                rhs *= w_quadratic(d, k).value
            if lhs != rhs:
                failures.append(f"w identity fails for {discs}, k={k}")
    cubic_conductors = [7, 9, 63, 63]
    for k in range(1, 11):
        lhs = w_rational(k).value ** 3 * w_elementary(3, cubic_conductors, k).value
        rhs = 1
        for f in cubic_conductors:
            rhs *= w_cyclic(3, f, k).value
        if lhs != rhs:
            failures.append(f"w identity fails for conductors {cubic_conductors}, k={k}")
    report(7, "w sanity and multiplicativity identity", start, failures)
    assert not failures, "\n".join(failures)


def test_criterion_8_periodicity_witnesses():
    start = time.time()
    failures = []
    for witness in scan(3, 500):
        if not witness.consistent:
            failures.append("rank3 " + witness.details())
    for witness in scan(5, 300):
        if not witness.consistent:
            failures.append("rank5 " + witness.details())
    report(8, "divisibility witness consistency", start, failures)
    assert not failures, (
        "inconsistent witnesses (power sums verified against the "
        "brute-force oracle; first case in full):\n" + failures[0]
        + f"\n... {len(failures)} inconsistent witnesses in total"
    )


def test_criterion_9_integrality_conservation():
    start = time.time()
    failures = []
    try:
        for n in (2, 6, 10, 14, 18, 22, 26):
            kz(n)
        for index, rows in load("cubic_orders.json").items():
            k = (int(index) + 2) // 4
            for row in rows:
                k_even_order(CyclicPrime(3, row["f"]), k)
        for m in (5, 7, 11, 13, 17, 19):
            spec = multiquad_spec(m)
            for k in range(1, 11):
                combine_elementary(spec, k)
        first = load("degree9_orders.json")[0]
        spec = degree9_spec(first["parts"])
        for k in range(1, 11):
            combine_elementary(spec, k)
    except (NonIntegralOrder, InexactDivision) as exc:
        failures.append(repr(exc))
    report(9, "no NonIntegralOrder / InexactDivision in criteria 1-4", start, failures)
    assert not failures, "\n".join(failures)
