import json

import pytest

from evenk.cli import (
    OutputRecord,
    emit_table,
    parse_field_spec,
    run,
)
from evenk.kgroups import CyclicPrime, Elementary, Rationals, RealQuadratic


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- field spec grammar ---------------------------------------------------------

def test_parse_field_specs():
    assert parse_field_spec("q") == Rationals()
    assert parse_field_spec("quad:5") == RealQuadratic(5)
    assert parse_field_spec("cyclic:3:7") == CyclicPrime(3, 7)
    assert parse_field_spec("cyclic:3:63:1") == CyclicPrime(3, 63, 1)
    assert parse_field_spec("cyclic:3:63:0") == CyclicPrime(3, 63)
    spec = parse_field_spec("elem:2:quad:8,quad:12,quad:24")
    assert spec == Elementary(2, (RealQuadratic(8), RealQuadratic(12), RealQuadratic(24)))


def test_parse_field_spec_failures():
    from evenk.cli import UsageError

    for bad in ("x", "quad", "quad:seven", "quad:7", "elem:2:quad:8",
                "elem:2:quad:5,quad:8,quad:12"):
        with pytest.raises(UsageError):
            parse_field_spec(bad)


@pytest.mark.parametrize(
    "field",
    ["quad:+5", "cyclic:03:7", "cyclic:3:7:-0", "cyclic:3:7:00", "quad:5 ", " q", "elem:2:"],
)
def test_a_spec_takes_only_canonical_integers_and_errors_name_it(capsys, field):
    code, out, err = invoke(capsys, "w", "--field", field, "--k", "1")
    assert (code, out) == (1, "") and err.startswith(f"error: bad field spec {field!r}")


@pytest.mark.parametrize(
    "argv",
    [
        ("kgroup", "--field", "q", "--k", " +06"),
        ("kgroup", "--field", "q", "--k", "6", "--factor-budget", " 1_000"),
        ("kgroup", "--field", "q", "--k", "1", "--factor-budget", "-5"),
        ("kodd", "--field", "q", "--k", "01"),
        ("esum", "--m", "5", "--j", "+2"),
        ("siegel-coeffs", "--h", "1_0"),
        ("cubic-table", "--k", "1", "--max-f", "20 "),
        ("multiquad-table", "--m", "5", "--max-k", "0x2"),
        ("multiquad-table", "--max-k", "1", "--m", "-5"),
        ("prank-scan", "--p", "3", "--max-d", "-25"),
    ],
    ids=lambda argv: " ".join(argv[-2:]),
)
def test_an_integer_option_takes_only_canonical_integers_and_errors_name_it(capsys, argv):
    option, value = argv[-2:]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: argument {option}: {value!r} is not a canonical integer\n"


# -- single order commands --------------------------------------------------------

def test_elementary_spec_that_is_not_a_field_is_usage_error(capsys):
    code, out, err = invoke(
        capsys, "kgroup", "--field", "elem:2:quad:5,quad:8,quad:12", "--k", "1"
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: bad field spec 'elem:2:quad:5,quad:8,quad:12': "
        "quad:12 is not a subfield of the field that quad:5 and quad:8 generate\n"
    )


@pytest.mark.parametrize("command", ["kgroup", "kodd", "w", "zeta"])
@pytest.mark.parametrize(
    "field, message",
    [
        # the compositum of the conductor-7 and -9 cubic fields has
        # subfields of conductor 63, not 13 and 19
        (
            "elem:3:cyclic:3:7,cyclic:3:9,cyclic:3:13,cyclic:3:19",
            "cyclic:3:13 is not a subfield of the field that cyclic:3:7 and cyclic:3:9 generate",
        ),
        ("cyclic:3:63:5", "orbit index 5"),
        ("cyclic:3:7:1", "orbit index 1"),
        # an elem: part is refused as a part, not parsed as a field
        ("elem:2:elem:2:quad:5,quad:8,quad:40", "elem:2:quad:5 is not a cyclic degree-2 field\n"),
    ],
)
def test_specs_that_name_no_field_are_usage_errors(capsys, command, field, message):
    code, out, err = invoke(capsys, command, "--field", field, "--k", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: bad field spec {field!r}: {message}")


def test_a_default_budget_row_is_pinned_byte_for_byte(capsys):
    # only ECM completes this order: at --factor-budget 100000 its
    # 59-digit cofactor still prints as ·C
    code, out, err = invoke(capsys, "kgroup", "--field", "cyclic:3:199", "--k", "7")
    assert (code, err) == (0, "")
    assert out == (
        "field         k  index  order                                                          factorization                                                           method      zeta\n"
        "cyclic:3:199  7  26     1627873937502805987866182115463649524068761957369672430117048  2^3·3^2·2372039077·604551409327·15766423808793522306061233077007293821  characters  -67828080729283582827757588144318730169531748223736351254877\n"
    )


@pytest.mark.parametrize(
    "field, k, expected",
    [
        # complete: ECM splits the one cofactor rho leaves
        ("cyclic:3:73", "8",
         "field        k  index  order                                                          factorization                                                       method      zeta\n"
         "cyclic:3:73  8  30     1029423315973183676087896552894627659221580087192725216267403  3·193·3617·5915762743279·83091419853032509667151531372827744456599  characters  343141105324394558695965517631542553073860029064241738755801/680\n"),
        # ECM splits one of the two cofactors rho leaves; the other stays ·C
        ("cyclic:3:37", "10",
         "field        k   index  order                                                                  factorization                                                                        method      zeta\n"
         "cyclic:3:37  10  38     441502260965231273574389006231933827576835514910941467425460051191209  3·7·37·283·617·1201·13009·3624641239·57463009203514851040920628476230366951622397·C  characters  147167420321743757858129668743977942525611838303647155808486683730403/550\n"),
    ],
)
def test_default_budget_rows_that_ecm_splits_are_pinned_byte_for_byte(capsys, field, k, expected):
    code, out, err = invoke(capsys, "kgroup", "--field", field, "--k", k)
    assert (code, err, out) == (0, "", expected)


def test_a_large_k_quadratic_row_is_complete_and_pinned(capsys):
    # the prime 26315271553053477373 of B_36's numerator is a piece of
    # its own, not a factor of a cofactor left to rho and ECM
    code, out, err = invoke(capsys, "kgroup", "--field", "quad:5", "--k", "18")
    assert (code, err) == (0, "")
    assert out == (
        "field   k   index  order                                                     factorization                                                   method      zeta\n"
        "quad:5  18  70     32613724432434114882079789497713006473885167100345949413  557·1601·531342581699·2615600385513088367·26315271553053477373  characters  32613724432434114882079789497713006473885167100345949413/34545420\n"
    )


@pytest.mark.parametrize("budget", [(), ("--factor-budget", "10000")], ids=["default", "10000"])
@pytest.mark.parametrize("field", ["quad:5", "quad:8", "quad:13", "quad:29"])
def test_both_quadratic_routes_print_the_same_row(capsys, field, budget):
    for k in ("12", "18"):
        rows = []
        for method in ("characters", "zagier"):
            code, out, err = invoke(
                capsys, "kgroup", "--field", field, "--k", k, "--method", method,
                "--format", "json", *budget,
            )
            assert (code, err) == (0, "")
            row = json.loads(out)
            assert row.pop("method") == method
            rows.append(row)
        assert rows[0] == rows[1], (field, k)


def test_kgroup_rationals(capsys):
    code, out, _ = invoke(capsys, "kgroup", "--field", "q", "--k", "6")
    assert code == 0
    assert "691" in out


def test_kgroup_quadratic_json(capsys):
    code, out, _ = invoke(
        capsys, "kgroup", "--field", "quad:5", "--k", "1", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["order"] == "4"
    assert record["zeta"] == "1/30"
    assert record["index"] == 2


def test_kgroup_characters_route_on_field_below_its_conductor_group(capsys):
    # Q(sqrt 6, sqrt 10): conductor 120 carries eight even quadratic
    # characters, the field four
    rows = {}
    for method in ("characters", "combiner"):
        code, out, _ = invoke(
            capsys, "kgroup", "--field", "elem:2:quad:24,quad:40,quad:60",
            "--k", "1", "--method", method, "--format", "json",
        )
        assert code == 0
        rows[method] = json.loads(out)
    assert rows["characters"]["order"] == "4032"
    assert rows["characters"]["method"] == "characters"
    assert rows["characters"]["zeta"] == rows["combiner"]["zeta"] != ""


def test_kodd(capsys):
    code, out, _ = invoke(
        capsys, "kodd", "--field", "q", "--k", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["order"] == "48"


def test_w_and_esum_and_siegel(capsys):
    code, out, _ = invoke(capsys, "w", "--field", "quad:5", "--k", "1")
    assert code == 0 and "120" in out
    code, out, _ = invoke(capsys, "esum", "--m", "8", "--j", "1")
    assert code == 0 and out.strip().endswith("5")
    code, out, _ = invoke(capsys, "siegel-coeffs", "--h", "4")
    assert code == 0 and "1/240" in out


def test_conductors_and_divisor_sums_are_factored_to_the_trial_cap_only(capsys):
    # a prime left after trial division is proved; a product of two
    # primes above the cap is refused at once rather than searched
    code, out, err = invoke(capsys, "w", "--field", "cyclic:3:1000000000000000003", "--k", "1")
    assert (code, out, err) == (0, "w_2(cyclic:3:1000000000000000003) = 24 = 2^3·3\n", "")
    field = "cyclic:3:1000000030000000189"  # 1000000009 * 1000000021
    code, out, err = invoke(capsys, "w", "--field", field, "--k", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: bad field spec {field!r}: cannot factor 1000000030000000189: ")
    code, out, err = invoke(capsys, "kgroup", "--field", field, "--k", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: bad field spec {field!r}: cannot factor 1000000030000000189: ")
    # e_1(4m) starts with sigma_1(m), m = 1000003 * 1000033
    code, out, err = invoke(capsys, "esum", "--m", str(4 * 1000003 * 1000033), "--j", "1")
    assert (code, out) == (1, "") and err.startswith("error: cannot factor 1000036000099: ")
    # w_2k(Q) factors 2k: here a prime cofactor above 3.3·10^24 is left
    code, out, err = invoke(capsys, "w", "--field", "q", "--k", "10000000000000000000000013")
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot factor 20000000000000000000000026: ")


def test_a_primitive_root_searches_q_minus_1_past_the_trial_cap(capsys):
    # q - 1 = 4 * 1000037 * 1000289 has two primes above TRIAL_CAP
    code, out, err = invoke(capsys, "w", "--field", "quad:4001304042773", "--k", "1")
    assert (code, out, err) == (0, "w_2(quad:4001304042773) = 24 = 2^3·3\n", "")


def test_a_value_over_4300_digits_is_printed_and_specs_keep_the_limit(capsys):
    import sys

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = invoke(capsys, "zeta", "--field", "q", "--k", "1040")
    assert (code, err) == (0, "")
    value = out.removeprefix("zeta_q(1-2*1040) = ").removesuffix("\n")
    numerator, denominator = value.split("/")
    assert len(numerator) > 4300 and numerator.isdigit() and denominator.isdigit()
    # run puts the limit back, and reads specs under it
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if limit:
        code, out, err = invoke(capsys, "w", "--field", "quad:1" + "0" * limit, "--k", "1")
        assert (code, out) == (1, "") and "Exceeds the limit" in err


def test_zeta_command(capsys):
    code, out, _ = invoke(
        capsys, "zeta", "--field", "cyclic:3:7", "--k", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["zeta"] == "-1/21"


# -- tables ------------------------------------------------------------------------

def test_cubic_table_matches_known_rows(capsys):
    code, out, _ = invoke(
        capsys,
        "cubic-table", "--max-f", "100", "--k", "1", "--format", "json",
        "--factor-budget", "1000",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    orders = {r["field"]: int(r["order"]) for r in records}
    assert orders["cyclic:3:7"] == 8
    assert orders["cyclic:3:97"] == 2**3 * 367
    assert len(records) == 12


def test_multiquad_table(capsys):
    code, out, _ = invoke(
        capsys,
        "multiquad-table", "--m", "5", "--max-k", "1", "--format", "json",
        "--factor-budget", "1000",
    )
    assert code == 0
    record = json.loads(out)
    assert record["order"] == str(2**11 * 3**2 * 7 * 17)
    assert record["method"] == "combiner"


def _factorization_value(text):
    value = 1
    for token in text.removesuffix("·C").split("·"):
        prime, _, exponent = token.partition("^")
        value *= int(prime) ** int(exponent or 1)
    return value


def test_multiquad_table_factors_from_subfield_orders(capsys):
    from evenk.kgroups import elementary_order_via_characters

    code, out, _ = invoke(
        capsys,
        "multiquad-table", "--m", "5", "--max-k", "10", "--format", "json",
        "--factor-budget", "10000",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["k"] for r in records] == list(range(1, 11))
    for record in records:
        order = elementary_order_via_characters(
            parse_field_spec(record["field"]), record["k"]
        ).order
        assert record["order"] == str(order)
        assert _factorization_value(record["factorization"]) == order
    # factoring each order whole leaves 6 of these rows incomplete
    incomplete = [r["k"] for r in records if r["factorization"].endswith("·C")]
    assert len(incomplete) <= 3, incomplete


def test_multiquad_table_with_parts(capsys):
    # an explicit list of parts is an elem: spec, which kgroup takes;
    # multiquad-table has no --parts
    code, out, _ = invoke(
        capsys,
        "kgroup", "--field", "elem:2:quad:8,quad:12,quad:24", "--k", "1",
        "--format", "json", "--factor-budget", "1000",
    )
    assert code == 0
    assert json.loads(out)["order"] == "48"
    for argv, message in (
        (("--parts", "quad:8,quad:12,quad:24"), "required: --m"),
        (("--m", "5", "--parts", "quad:8"), "unrecognized arguments: --parts"),
    ):
        code, out, err = invoke(capsys, "multiquad-table", *argv, "--max-k", "1")
        assert (code, out) == (1, "") and message in err, argv


def test_multiquad_table_reduces_m_2m_3m_and_6m_to_their_squarefree_parts(capsys):
    # Q(sqrt 2, sqrt 3, sqrt m) = Q(sqrt 2, sqrt 3, sqrt 5) for each of
    # these m; the parts are those of --m 5, listed in another order
    def orders(m):
        code, out, err = invoke(
            capsys, "multiquad-table", "--m", str(m), "--max-k", "2",
            "--format", "json", "--factor-budget", "1000",
        )
        assert (code, err) == (0, ""), m
        records = [json.loads(line) for line in out.splitlines()]
        fields = {frozenset(r["field"].removeprefix("elem:2:").split(",")) for r in records}
        return fields, [(r["k"], r["order"], r["zeta"]) for r in records]

    expected = orders(5)
    for m in (10, 15, 30, 20, 45, 245):
        assert orders(m) == expected, m


@pytest.mark.parametrize("m", [1, 2, 3, 6, 8, 12, 24, 25, 54, 0])
def test_multiquad_table_refuses_an_m_that_gives_no_degree_8_field(capsys, m):
    code, out, err = invoke(capsys, "multiquad-table", "--m", str(m), "--max-k", "1")
    assert (code, out) == (1, "")
    assert err == f"error: --m {m} must make Q(sqrt 2, sqrt 3, sqrt m) a real field of degree 8\n"


# -- emit_table --------------------------------------------------------------------

def sample_records():
    return [
        OutputRecord("quad:8", 1, 2, "4", "2^2", "characters", "1/12"),
        OutputRecord("quad:5", 1, 2, "4", "2^2", "characters", "1/30"),
    ]


def test_emit_table_prints_records_in_the_order_given():
    for records in (sample_records(), list(reversed(sample_records()))):
        lines = emit_table(records, "text").splitlines()
        assert lines[0].startswith("field")
        assert [line.split()[0] for line in lines[1:]] == [r.field for r in records]


def test_emit_table_csv_header_only_for_empty():
    out = emit_table([], "csv")
    assert out == "field,k,index,order,factorization,method,zeta\n"
    assert emit_table(sample_records()[:1], "csv").count("\n") == 2


def test_emit_table_json_round_trip():
    out = emit_table(sample_records(), "json")
    parsed = [OutputRecord(**json.loads(line)) for line in out.splitlines()]
    assert parsed == sample_records()


def test_cubic_table_prints_its_conductors_in_increasing_order(capsys):
    code, out, err = invoke(
        capsys, "cubic-table", "--max-f", "100", "--k", "1", "--format", "json"
    )
    assert (code, err) == (0, "")
    conductors = [int(json.loads(line)["field"].split(":")[2]) for line in out.splitlines()]
    assert conductors == [7, 9, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97]


def test_cofactor_marker_present(capsys):
    code, out, _ = invoke(
        capsys,
        "kgroup", "--field", "cyclic:3:7", "--k", "9",
        "--factor-budget", "0", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["factorization"].endswith("·C")
    assert record["order"] == str(8 * 97 * 43867 * 9105835027474306843301627809)


# -- exit codes ----------------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    code, _, err = invoke(capsys, "kgroup", "--field", "nope", "--k", "1")
    assert code == 1 and "error" in err
    code, _, err = invoke(capsys, "kgroup", "--field", "quad:7", "--k", "1")
    assert code == 1
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 1


def test_impossible_budget_and_jobs_are_usage_errors(capsys):
    code, out, err = invoke(
        capsys, "kgroup", "--field", "q", "--k", "1", "--factor-budget", "-5"
    )
    assert code == 1 and out == "" and err.startswith("error:")
    assert "--factor-budget" in err
    # --jobs is gone; it is now an unrecognized argument
    code, out, err = invoke(
        capsys, "cubic-table", "--max-f", "20", "--k", "1", "--jobs", "1"
    )
    assert code == 1 and out == "" and err.startswith("error:")
    assert "--jobs" in err
    code, _, _ = invoke(
        capsys, "kgroup", "--field", "q", "--k", "1", "--factor-budget", "0"
    )
    assert code == 0


def test_inapplicable_method_is_usage_error(capsys):
    for field, method in (
        ("quad:5", "combiner"),
        ("cyclic:3:7", "zagier"),
        ("elem:2:quad:5,quad:8,quad:40", "zagier"),
    ):
        code, out, err = invoke(
            capsys, "kgroup", "--field", field, "--k", "1", "--method", method
        )
        assert code == 1 and out == "", (field, method)
        assert err.startswith("error:") and method in err
    # kz names no route, so argparse refuses it on every field
    for field in ("q", "quad:5"):
        code, out, err = invoke(capsys, "kgroup", "--field", field, "--k", "1", "--method", "kz")
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --method: invalid choice: 'kz'")


# a k of 10^20 - 1 asks for B_(2k), an h of 2^70 for 9.8·10^19 weights: no
# list that long can be allocated, so both are refused before any work
HUGE_K = "99999999999999999999"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("kgroup", "--field", "quad:5", "--k", HUGE_K), "B_199999999999999999998 needs a table"),
        (("kgroup", "--field", "quad:5", "--k", HUGE_K, "--method", "zagier"),
         "B_199999999999999999998 needs a table"),
        (("zeta", "--field", "q", "--k", HUGE_K), "B_199999999999999999998 needs a table"),
        (("cubic-table", "--max-f", "499", "--k", HUGE_K), "B_199999999999999999998 needs a table"),
        (("siegel-coeffs", "--h", str(2**70)), f"b_j({2**70}) needs a series"),
    ],
    ids=["kgroup", "kgroup-zagier", "zeta", "cubic-table", "siegel-coeffs"],
)
def test_an_index_beyond_any_list_is_a_usage_error(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_computation_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    code, _, err = invoke(capsys, "char-check", "--file", str(bad))
    assert code == 2 and "computation error" in err


@pytest.mark.parametrize("d", [-3, -4, -7, -8, -20, 5, 8])
def test_char_check_matches_the_kronecker_character_of_either_sign(capsys, tmp_path, d):
    from evenk.cyclodirichlet import quadratic_character

    chi = quadratic_character(d)
    path = tmp_path / "kronecker.json"
    path.write_text(
        json.dumps(
            {"modulus": chi.modulus, "order": chi.order,
             "values": [list(item) for item in sorted(chi.units())]}
        ),
        encoding="utf-8",
    )
    code, out, err = invoke(capsys, "char-check", "--file", str(path), "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["conductor"] == abs(d)
    assert payload["even"] == (d > 0)
    assert payload["matches_kronecker"] is True


def test_a_character_file_that_is_not_utf8_is_a_computation_error(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = invoke(capsys, "char-check", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "computation error: cannot read character file: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte\n"
    )


def test_char_check_good_file(capsys, tmp_path):
    path = tmp_path / "quad5.json"
    path.write_text(
        json.dumps(
            {"modulus": 5, "order": 2, "values": [[1, 0], [2, 1], [3, 1], [4, 0]]}
        ),
        encoding="utf-8",
    )
    code, out, _ = invoke(capsys, "char-check", "--file", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conductor"] == 5
    assert payload["matches_kronecker"] is True


QUAD5_VALUES = [[1, 0], [2, 1], [3, 1], [4, 0]]


@pytest.mark.parametrize(
    "payload",
    [
        {"modulus": 5.9, "order": 2, "values": QUAD5_VALUES},
        {"modulus": "5", "order": 2, "values": QUAD5_VALUES},
        {"modulus": 5, "order": 2, "values": [[1, False], [2, True], [3, True], [4, False]]},
        {"modulus": 5, "order": True, "values": [[1, 0], [2, 0], [3, 0], [4, 0]]},
        {"modulus": 5, "order": 2, "values": [[1, 0], [2.0, 1], [3, 1], [4, 0]]},
    ],
)
def test_char_check_rejects_numbers_that_are_not_json_integers(capsys, tmp_path, payload):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = invoke(capsys, "char-check", "--file", str(path))
    assert (code, out) == (2, "") and "computation error" in err


def test_prank_scan_exit_zero_when_consistent(capsys):
    code, out, _ = invoke(capsys, "prank-scan", "--p", "3", "--max-d", "25")
    assert code == 0
    assert out.count("D=") == 7  # fundamentals up to 25: 5,8,12,13,17,21,24


def test_prank_scan_json_lines(capsys):
    # the printed 5-divisibility statements disagree already below 15,
    # so the scan reports the inconsistency through exit code 3
    code, out, err = invoke(
        capsys, "prank-scan", "--p", "5", "--max-d", "15", "--format", "json"
    )
    assert code == 3
    assert "inconsistent witness" in err
    for line in out.splitlines():
        payload = json.loads(line)
        assert set(payload) == {"D", "statements", "consistent"}


NON_TABLE_COMMANDS = [
    ("zeta", "--field", "q", "--k", "1"),
    ("w", "--field", "q", "--k", "1"),
    ("esum", "--m", "8", "--j", "1"),
    ("siegel-coeffs", "--h", "4"),
    ("prank-scan", "--p", "3", "--max-d", "25"),
    ("char-check", "--file", "chi.json"),
]


@pytest.mark.parametrize("argv", NON_TABLE_COMMANDS, ids=lambda argv: argv[0])
def test_csv_is_only_for_tables(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--format", "csv")
    assert code == 1 and out == "" and err.startswith("error:")
    assert "--format" in err


@pytest.mark.parametrize("argv", NON_TABLE_COMMANDS, ids=lambda argv: argv[0])
def test_factor_budget_is_only_for_tables(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--factor-budget", "3")
    assert code == 1 and out == "" and err.startswith("error:")
    assert "--factor-budget" in err


def test_prank_scan_json_flag_is_gone(capsys):
    # --format json is the one way to ask for JSON lines
    code, out, err = invoke(capsys, "prank-scan", "--p", "3", "--max-d", "25", "--json")
    assert code == 1 and out == ""
    assert err.startswith("error: unrecognized arguments") and "--json" in err


def test_determinism(capsys):
    _, first, _ = invoke(
        capsys, "kgroup", "--field", "elem:2:quad:8,quad:12,quad:24",
        "--k", "2", "--factor-budget", "1000",
    )
    _, second, _ = invoke(
        capsys, "kgroup", "--field", "elem:2:quad:8,quad:12,quad:24",
        "--k", "2", "--factor-budget", "1000",
    )
    assert first == second
