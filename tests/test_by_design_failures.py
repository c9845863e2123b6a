"""The README's account of the two acceptance tests that fail by design,
checked against evenk's own numbers.

Criterion 3: three rows of the Q(sqrt2, sqrt3, sqrt5) reference table
differ from the computed orders, each by one transcription slip.
Criterion 8: the divisibility witnesses are implemented verbatim, and
the inconsistency lies in the reference statements.  These tests read
the same data and statements as tests/test_acceptance.py and change
neither; they pin the cause of each failure, so that a change which
alters the failure's cause fails here even while criteria 3 and 8 keep
failing."""

import json
from pathlib import Path

from evenk.arith import is_prime, kronecker, valuation
from evenk.cyclodirichlet import orbit_l_product
from evenk.kgroups import Elementary, RealQuadratic, combine_elementary, k_even_order
from evenk.prank import scan

# Q(sqrt2, sqrt3, sqrt5), by its seven quadratic subfields
FIELD = Elementary(2, tuple(RealQuadratic(d) for d in (8, 12, 5, 24, 40, 60, 120)))
REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "multiquad_orders.json").read_text(encoding="utf-8")
)


def rows(index):
    """(reference, computed) for K_index of Q(sqrt2, sqrt3, sqrt5)."""
    return int(REFERENCE["5"][str(index)]), combine_elementary(FIELD, (index + 2) // 4).order


def test_k22_reference_drops_a_digit_of_27138236663():
    reference, computed = rows(22)
    assert reference * 27138236663 == computed * 2713823663
    # the prime is Q(sqrt3)'s, and every other table's K_22 row keeps it intact
    assert k_even_order(RealQuadratic(12), 6).order % 27138236663 == 0
    others = [int(table["22"]) for m, table in REFERENCE.items() if m != "5"]
    assert others and all(row % 27138236663 == 0 for row in others)


def test_k26_reference_carries_an_extra_5_times_7():
    reference, computed = rows(26)
    assert reference == 35 * computed


def test_k38_reference_prints_a_prime_of_l_chi_12_twice():
    reference, computed = rows(38)
    assert reference % computed == 0
    prime = reference // computed
    assert is_prime(prime) and valuation(computed, prime) == 1
    (orbit,) = RealQuadratic(12).character_orbits()
    assert orbit_l_product(orbit, 10).numerator % prime == 0  # L(chi_12, -19)


def test_rank3_witnesses_fail_on_the_19_alone_and_20_mends_them():
    statement = "27 | e_7(4D) + 19 chi(2) e_7(D)"
    witnesses = scan(3, 500)
    inconsistent = [w for w in witnesses if not w.consistent]
    assert (len(witnesses), len(inconsistent)) == (153, 32)
    assert inconsistent[0].d == 29
    for witness in inconsistent:
        others = {value for label, value in witness.statements if label != statement}
        assert len(others) == 1 and dict(witness.statements)[statement] not in others
    # the coefficient is 2^7 = 20 (mod 27)
    assert pow(2, 7, 27) == 20
    for witness in witnesses:
        sums, chi2 = dict(witness.power_sums), kronecker(witness.d, 2)
        mended = (sums["e_7(4D)"] + 20 * chi2 * sums["e_7(D)"]) % 27 == 0
        assert mended == (sums["e_1(D)"] % 3 == 0), witness.d


def test_rank5_witness_counts_up_to_300():
    e9 = "25 | e_9(4D) + (8 chi(2) + 3) e_9(D)"
    witnesses = scan(5, 300)
    assert (len(witnesses), sum(not w.consistent for w in witnesses)) == (90, 85)

    def disagreements(label):
        return sum(
            dict(w.statements)[label] != dict(w.statements)["25 | e_1(D)"] for w in witnesses
        )

    assert disagreements("5 | e_13(9D)") == 74
    assert disagreements(e9) == 43
    # no coefficient a chi(2) + b mod 25 mends the e_9 statement
    cases = [
        (dict(w.power_sums), kronecker(w.d, 2), dict(w.statements)["25 | e_1(D)"])
        for w in witnesses
    ]
    for a in range(25):
        for b in range(25):
            assert any(
                ((s["e_9(4D)"] + (a * chi2 + b) * s["e_9(D)"]) % 25 == 0) != e1
                for s, chi2, e1 in cases
            ), (a, b)

