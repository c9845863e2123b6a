import re

import pytest

from evenk.arith import kronecker
from evenk.prank import (
    STATEMENTS,
    fundamental_discriminants_up_to,
    scan,
    witness,
)
from oracles import e_sum_brute_force, quadratic_k2_closed_form


def test_statement_rows_name_the_power_sums_they_read():
    # a row's text is the statement; its modulus and terms are what the
    # evaluator reads, so each must say what the text says
    for p, rows in STATEMENTS.items():
        for text, modulus, terms in rows:
            assert text.startswith(f"{modulus} | "), (p, text)
            named = {(int(j), int(s or 1)) for j, s in re.findall(r"e_(\d+)\((\d*)D\)", text)}
            assert named == {(j, s) for _, _, j, s in terms}, (p, text)


def test_rank3_statement_values_match_brute_force():
    for d in fundamental_discriminants_up_to(60):
        w = witness(3, d)
        chi2 = kronecker(d, 2)
        expected = [
            e_sum_brute_force(d, 1) % 3 == 0,
            e_sum_brute_force(d, 3) % 3 == 0,
            (e_sum_brute_force(4 * d, 5) + (5 * chi2 + 6) * e_sum_brute_force(d, 5))
            % 9
            == 0,
            (e_sum_brute_force(4 * d, 7) + 19 * chi2 * e_sum_brute_force(d, 7)) % 27
            == 0,
            (e_sum_brute_force(4 * d, 9) + (8 * chi2 + 3) * e_sum_brute_force(d, 9))
            % 9
            == 0,
            e_sum_brute_force(9 * d, 11) % 3 == 0,
            e_sum_brute_force(9 * d, 13) % 3 == 0,
            e_sum_brute_force(9 * d, 15) % 3 == 0,
        ]
        assert [value for _, value in w.statements] == expected, d


def test_rank3_witness_all_false_case():
    w = witness(3, 5)
    assert all(value is False for _, value in w.statements)
    assert w.consistent


def test_rank3_witness_first_divisible_case():
    # D = 24 is the smallest fundamental discriminant with 3 | e_1(D)
    for d in fundamental_discriminants_up_to(23):
        assert witness(3, d).statements[0][1] is False
    w = witness(3, 24)
    assert w.statements[0][1] is True
    assert w.consistent


def test_rank5_statement_values_match_brute_force():
    for d in fundamental_discriminants_up_to(60):
        w = witness(5, d)
        chi2 = kronecker(d, 2)
        expected = [
            e_sum_brute_force(d, 1) % 25 == 0,
            (e_sum_brute_force(4 * d, 5) + (7 * chi2 - 1) * e_sum_brute_force(d, 5))
            % 25
            == 0,
            (e_sum_brute_force(4 * d, 9) + (8 * chi2 + 3) * e_sum_brute_force(d, 9))
            % 25
            == 0,
            e_sum_brute_force(9 * d, 13) % 5 == 0,
        ]
        assert [value for _, value in w.statements] == expected, d


def test_consistency_flag_is_all_equal():
    for d in fundamental_discriminants_up_to(60):
        w = witness(3, d)
        values = [value for _, value in w.statements]
        assert w.consistent == (all(values) or not any(values))


def test_details_reports_statements():
    w = witness(3, 24)
    text = w.details()
    assert "D=24" in text
    assert "e_1(D)" in text


def test_statement_one_matches_k2_divisibility():
    for d in fundamental_discriminants_up_to(200):
        w = witness(3, d)
        assert w.statements[0][1] == (quadratic_k2_closed_form(d) % 3 == 0)


def test_scan_shapes():
    witnesses = scan(3, 50)
    assert [w.d for w in witnesses] == fundamental_discriminants_up_to(50)
    assert all(len(w.statements) == 8 for w in witnesses)
    assert all(len(w.statements) == 4 for w in scan(5, 50))


def test_witnesses_are_defined_for_3_and_5_only():
    # scan refuses p = 7 even when max_d leaves no discriminant to evaluate
    for call in (lambda: witness(7, 5), lambda: scan(7, 100), lambda: scan(7, 1)):
        with pytest.raises(ValueError, match="defined for p = 3 and p = 5"):
            call()
