"""Every pinned command prints what tests/data/outputs.json says it
printed, byte for byte (tests/pinned_outputs.py states the list and
rewrites the file); and no subcommand, --format choice or README example
is left out of the list."""

import hashlib
import json

from evenk import cli
from pinned_outputs import OUTPUTS, readme_cli_examples, record, write_character_files

ENTRIES = json.loads(OUTPUTS.read_text(encoding="utf-8"))


def test_every_pinned_command_prints_its_pinned_output(tmp_path, monkeypatch):
    write_character_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    for entry in ENTRIES:
        assert record(entry["argv"]) == entry, f"evenk {' '.join(entry['argv'])}"


def test_every_subcommand_is_pinned():
    assert set(cli.COMMANDS) <= {entry["argv"][0] for entry in ENTRIES}


def test_every_format_of_every_subcommand_is_pinned():
    # a command without --format prints text; one that prints nothing
    # to stdout shows no format
    subcommands = next(a for a in cli._build_parser()._actions if a.dest == "command")
    choices = {
        (name, fmt)
        for name, parser in subcommands.choices.items()
        for action in parser._actions
        if action.dest == "format"
        for fmt in action.choices
    }
    nothing = hashlib.sha256(b"").hexdigest()
    pinned = set()
    for entry in ENTRIES:
        argv = entry["argv"]
        if entry["stdout"] != nothing:
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
            pinned.add((argv[0], fmt))
    assert choices - pinned == set()


def test_every_readme_cli_example_is_pinned():
    pinned = [entry["argv"] for entry in ENTRIES]
    assert [argv for argv in readme_cli_examples() if argv[1:] not in pinned] == []
