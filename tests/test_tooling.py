"""Names that live outside the package.  The traced benchmark
(bench/tracing.py) wraps evenk functions by their names from outside the
package; a renamed or deleted function would break `bench/run.py
--trace 1` without any evenk test noticing.  The README's CLI block
shows every subcommand; a renamed command or flag would leave it stale,
and its Layout table names every module of the package.
The `kgroup --method` choices are spelled out in the CLI's command
table; they must stay the routes the field specs accept.  The README's
character-file example must stay a file that `char-check` accepts, and
its count of green tests the suite's size.  Every command
is a fresh process, so importing the CLI must not load modules it only
sometimes needs."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_resolves_in_evenk(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for group in tracing.LAYERS.values() for t in group]
    assert targets
    for target in targets:
        module_name, attr = target.split(":")
        owner = importlib.import_module(f"evenk.{module_name}")
        if "." in attr:  # wrapped as a classmethod
            cls_name, method = attr.split(".")
            assert isinstance(vars(getattr(owner, cls_name)).get(method), classmethod), target
        else:
            assert callable(getattr(owner, attr, None)), target


README = TRACING.parent.parent / "README.md"


def _readme_cli_examples() -> list[list[str]]:
    """The `evenk ...` lines of the first code block under "## CLI"."""
    text = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split() for line in block.splitlines() if line.startswith("evenk ")]


def test_readme_cli_examples_parse_and_cover_every_command():
    from evenk import cli

    examples = _readme_cli_examples()
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

    text = README.read_text(encoding="utf-8").split("\n## Character files\n", 1)[1]
    path = tmp_path / "chi.json"
    path.write_text(text.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    (chi,) = parse_character_file(path)
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
    # bytecode into the checkout
    src = TRACING.parent.parent / "src"
    code = (
        "import evenk.cli, sys; "
        "print([m for m in ('dataclasses', 'inspect', 'json', 'csv') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout == "[]\n"


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
