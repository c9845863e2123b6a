"""Names that live outside the package.  The traced benchmark
(bench/tracing.py) wraps evenk functions by their names from outside the
package; a renamed or deleted function would break `bench/run.py
--trace 1` without any evenk test noticing.  The README's CLI block
shows every subcommand; a renamed command or flag would leave it stale,
and its Layout table names every module of the package.
The `kgroup --method` choices are spelled out in the CLI's command
table; they must stay the routes the field specs accept.  The README's
character-file example must stay a file that `char-check` accepts, its
count of green tests the suite's size, and the factorization caps it
and the `--factor-budget` help state the constants of `evenk.arith`,
which keeps no prime table as a module global.  Only `evenk.values.Value`
defines equality, hashing and repr.  Every command
is a fresh process, so importing the CLI must not load modules it only
sometimes needs."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pinned_outputs import readme_character_file, readme_cli_examples

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced_targets(monkeypatch) -> list[str]:
    """The "module:attribute" targets of bench/tracing.py's LAYERS."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [t for group in tracing.LAYERS.values() for t in group]


def test_every_traced_layer_resolves_in_evenk(monkeypatch):
    targets = _traced_targets(monkeypatch)
    assert targets
    for target in targets:
        module_name, attr = target.split(":")
        owner = importlib.import_module(f"evenk.{module_name}")
        if "." in attr:  # wrapped as a classmethod
            cls_name, method = attr.split(".")
            assert isinstance(vars(getattr(owner, cls_name)).get(method), classmethod), target
        else:
            assert callable(getattr(owner, attr, None)), target


# kept uncalled for the cubic-field tables still to come
UNCALLED_BY_DESIGN = {"cubic_from_conductor"}


def test_every_uncalled_public_name_is_traced(monkeypatch):
    # a public function or class that no evenk module calls is either
    # a traced layer or test-only code, which belongs in tests/; an
    # import or an __init__ re-export is no call, nor is a use inside
    # the name's own definition
    import ast

    package = TRACING.parent.parent / "src" / "evenk"
    defined, used = set(), set()
    for path in package.glob("*.py"):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.add((path.stem, own))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    uncalled = {(module, name) for module, name in defined if name not in used}
    traced = {
        (module, attr.split(".")[0])
        for module, attr in (t.split(":") for t in _traced_targets(monkeypatch))
    }
    assert {name for module, name in uncalled - traced} <= UNCALLED_BY_DESIGN


def test_a_traced_characters_route_command_records_every_l_value_layer(tmp_path):
    # a refactor that inlines or renames a layer would zero its
    # per-layer metrics without failing the traced run; -B writes no
    # bytecode into the checkout
    spans_path = tmp_path / "spans.json"
    src = TRACING.parent.parent / "src"
    argv = ["zeta", "--field", "cyclic:5:11", "--k", "2"]
    result = subprocess.run(
        [sys.executable, "-B", str(TRACING), str(spans_path), "0", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout
    names = {span[0] for span in json.loads(spans_path.read_text(encoding="utf-8"))["spans"]}
    assert names >= {
        "cyclodirichlet.characters",
        "cyclodirichlet.gen_bernoulli",
        "cyclodirichlet.orbit_l_product",
        "arith.bernoulli",
    }


def test_traced_order_commands_enter_every_assembly_layer(tmp_path):
    # the combiner, the elementary characters route and Q's order
    # between them must enter each assembly layer, so that no rerouting
    # leaves one of them without spans
    src = TRACING.parent.parent / "src"
    commands = [
        ["kgroup", "--field", "elem:2:quad:5,quad:8,quad:40", "--k", "2"],
        ["kgroup", "--field", "elem:2:quad:5,quad:8,quad:40", "--k", "2", "--method", "characters"],
        ["kgroup", "--field", "q", "--k", "2"],
    ]
    names = set()
    for i, argv in enumerate(commands):
        spans_path = tmp_path / f"spans{i}.json"
        subprocess.run(
            [sys.executable, "-B", str(TRACING), str(spans_path), str(i), *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True, timeout=60,
        )
        names |= {span[0] for span in json.loads(spans_path.read_text(encoding="utf-8"))["spans"]}
    assert names >= {
        "kgroups.k_even_order",
        "kgroups.combine_elementary",
        "kgroups.elementary_order_via_characters",
        "winv",
        "arith.bernoulli",
    }


README = TRACING.parent.parent / "README.md"


def test_readme_cli_examples_parse_and_cover_every_command():
    from evenk import cli

    examples = readme_cli_examples()
    parser = cli._build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])  # raises UsageError on drift
    assert {argv[1] for argv in examples} >= set(cli.COMMANDS)


def test_readme_layout_names_exactly_the_package_modules():
    text = README.read_text(encoding="utf-8").split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in text.splitlines() if line.startswith("| `evenk.")]
    package = TRACING.parent.parent / "src" / "evenk"
    modules = {f"`evenk.{path.stem}`" for path in package.glob("*.py")} - {"`evenk.__init__`"}
    assert len(rows) == len(set(rows))
    assert set(rows) == modules


def test_readme_character_file_example_is_accepted(tmp_path, capsys):
    from evenk import cli
    from evenk.cyclodirichlet import parse_character_file

    path = tmp_path / "chi.json"
    path.write_text(readme_character_file(), encoding="utf-8")
    chi = parse_character_file(path)
    assert cli.run(["char-check", "--file", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"ok modulus={chi.modulus} ")


def test_kgroup_method_choices_are_the_field_specs_order_methods():
    from typing import get_args

    from evenk import cli
    from evenk.kgroups import FieldSpec

    choices = cli.COMMANDS["kgroup"].arguments["--method"]["choices"]
    methods = {m for spec in get_args(FieldSpec) for m in spec.ORDER_METHODS}
    assert set(choices) == methods


def test_cli_import_leaves_dataclasses_json_and_csv_unloaded():
    # -S keeps the site hook (and whatever it imports) out, -B writes no
    # bytecode into the checkout; evenk.prank is imported by prank-scan
    # alone
    src = TRACING.parent.parent / "src"
    code = (
        "import evenk.cli, sys; "
        "print([m for m in ('dataclasses', 'inspect', 'json', 'csv', 'evenk.prank') "
        "if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout == "[]\n"


def test_only_value_defines_equality_hash_and_repr():
    # every value type is a Value; a hand-rolled one would drift from it
    import ast

    names = ("__eq__", "__hash__", "__repr__")
    package = TRACING.parent.parent / "src" / "evenk"
    defined = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                defined |= {
                    (path.stem, node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in names
                }
    assert defined == {("values", "Value", name) for name in names}


# criteria 3 and 8 of tests/test_acceptance.py fail by design (README)
FAILING_BY_DESIGN = 2


def test_readme_green_test_count_is_the_suite_size():
    # -B and no cache provider leave the checkout as it is
    result = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=README.parent,
        env={**os.environ, "PYTHONPATH": str(README.parent / "src")},
        capture_output=True, text=True, check=True, timeout=120,
    )
    collected = int(result.stdout.strip().splitlines()[-1].split(" tests collected")[0])
    text = README.read_text(encoding="utf-8")
    green = int(text.split("Everything else is green: ", 1)[1].split(" tests.", 1)[0])
    assert green == collected - FAILING_BY_DESIGN


def _readme_number(text: str) -> float:
    """2000, 10^5, 2·10^5 or 6.7·10^4 as a number."""
    match = re.fullmatch(r"([\d.]+?)?·?(?:10\^(\d+))?", text)
    return float(match[1] or 1) * 10 ** int(match[2] or 0)


def _factor_budget_help(capsys) -> str:
    from evenk import cli

    with pytest.raises(SystemExit):
        cli.run(["kgroup", "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_readme_factorization_caps_are_the_arith_constants(capsys):
    from evenk import arith

    text = " ".join(README.read_text(encoding="utf-8").split())

    def stated(pattern: str, text: str = text) -> float:
        return _readme_number(re.search(pattern, text)[1])

    price = arith.ECM_CURVE_PRICE
    default = arith.FACTOR_BUDGET
    assert stated(r"up to `min\(N, ([^)]+)\)`, so a small order costs no sieve") == arith.TRIAL_CAP
    # the prime walk's first window and the size its windows double to
    assert 2 ** int(re.search(r"a first window of `2\^(\d+)` odd numbers", text)[1]) == arith._FIRST_WINDOW
    assert 2 ** int(re.search(r"up to windows of `2\^(\d+)` odd numbers", text)[1]) == arith._WINDOW
    threshold = arith.RHO_CAP + price
    assert stated(r"all `N` iterations when `N < (\d+)`, and `([^`]+)` otherwise") == threshold
    assert stated(r"`N < \d+`, and `([^`]+)` otherwise") == arith.RHO_CAP
    assert stated(r"That threshold is `([^`]+)` iterations plus the price of one") == arith.RHO_CAP
    assert stated(r"the rest of its budget, `N - ([^`]+)`") == arith.RHO_CAP
    assert stated(r"`N < (\d+)` runs none") == threshold
    assert stated(r"`B1 = ([^`]+)`") == arith.ECM_B1
    assert stated(r"`B2 = ([^`]+)`") == arith.ECM_B2
    assert stated(r"A curve is priced at (\d+) multiplications") == price
    assert stated(r"default `N = ([^`]+)`") == default
    assert stated(r"runs up to (\d+) curves") == (default - arith.RHO_CAP) // price
    bound = arith._MR_DETERMINISTIC_BOUND
    assert stated(r"A listed prime below (\S+) is proved") == pytest.approx(bound, rel=0.01)
    assert stated(r"trial division by the primes up to `([^`]+)`") == arith.TRIAL_CAP
    # the --factor-budget help states the rho cap and the threshold too
    help_text = _factor_budget_help(capsys)
    assert stated(r"iterations up to (\S+),", help_text) == arith.RHO_CAP
    assert stated(r"curve \(from (\d+) on\)", help_text) == threshold


def test_arith_keeps_no_process_wide_prime_table():
    # a walk to the trial cap and the stage-2 plan sieve the most; no
    # window of either may outlive them as a module global
    from evenk import arith

    arith._trial_division(3**200 + 2, 10**6)
    arith._ecm_stage2_plan()
    tables = [name for name, value in vars(arith).items()
              if isinstance(value, (bytearray, memoryview))]
    assert tables == []


def test_the_factor_budget_help_and_default_are_read_off_the_arith_constants(
    capsys, monkeypatch
):
    from evenk import arith, cli

    assert (cli.RHO_CAP, cli.ECM_CURVE_PRICE, cli.FACTOR_BUDGET) == (
        arith.RHO_CAP, arith.ECM_CURVE_PRICE, arith.FACTOR_BUDGET
    )
    monkeypatch.setattr(cli, "RHO_CAP", 123)
    monkeypatch.setattr(cli, "ECM_CURVE_PRICE", 4000)
    monkeypatch.setattr(cli, "FACTOR_BUDGET", 5678)
    help_text = _factor_budget_help(capsys)
    assert "iterations up to 123," in help_text and "curve (from 4123 on)" in help_text
    args = cli._build_parser().parse_args(["kgroup", "--field", "q", "--k", "1"])
    assert args.factor_budget == 5678
