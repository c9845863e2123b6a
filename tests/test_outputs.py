"""Every pinned command prints what tests/data/outputs.json says it
printed, byte for byte (tests/pinned_outputs.py states the list and
rewrites the file); and no subcommand or README example is left out of
the list."""

import json

from evenk import cli
from pinned_outputs import OUTPUTS, readme_character_file, readme_cli_examples, record

ENTRIES = json.loads(OUTPUTS.read_text(encoding="utf-8"))


def test_every_pinned_command_prints_its_pinned_output(tmp_path, monkeypatch):
    (tmp_path / "chi.json").write_text(readme_character_file(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for entry in ENTRIES:
        assert record(entry["argv"]) == entry, f"evenk {' '.join(entry['argv'])}"


def test_every_subcommand_is_pinned():
    assert set(cli.COMMANDS) <= {entry["argv"][0] for entry in ENTRIES}


def test_every_readme_cli_example_is_pinned():
    pinned = [entry["argv"] for entry in ENTRIES]
    assert [argv for argv in readme_cli_examples() if argv[1:] not in pinned] == []
