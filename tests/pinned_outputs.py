"""evenk's own outputs, pinned in tests/data/outputs.json.

For each command of a fixed list the file holds its argv, its exit code
and the sha-256 of its stdout and of its stderr.  test_outputs.py
replays every command through cli.run in one process and compares.  The
list is:

- the distinct commands of the four benchmark workloads at seeds 0-3
  (bench/workloads.py);
- the README's CLI block, run in a directory that holds the README's
  character file as chi.json;
- every command of tests/test_cli.py that exits nonzero, unless it
  names one of that test's temporary files;
- orders at large k beyond the benchmark (LARGE_K);
- the branches the lists above leave out (BRANCHES): every --format of
  every command, e_j(m) at m = 2 mod 4, the refusal of k = 0, a
  character file that is not multiplicative (NOT_MULTIPLICATIVE, next
  to chi.json), each refusal of a cyclic or elementary field spec, of
  esum's m and j and of siegel-coeffs' h, and a kodd order whose w has
  primes too large for its factor budget to find alone.

The file holds evenk's own outputs, not reference data.  A change that
alters an output rewrites it in the same commit and names each changed
command; a regression is mended, never rewritten.  Rewrite it from the
repository root with

    PYTHONPATH=src python -B tests/pinned_outputs.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from evenk import cli

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
OUTPUTS = TESTS / "data" / "outputs.json"
README = REPO / "README.md"

WORKLOAD_SEEDS = range(4)

LARGE_K = (
    ("kgroup", "--field", "cyclic:3:19", "--k", "20"),
    ("kgroup", "--field", "quad:5", "--k", "18"),
    ("kgroup", "--field", "cyclic:5:11", "--k", "18"),
    ("kgroup", "--field", "quad:13", "--k", "18", "--factor-budget", "10000"),
)

NOT_MULTIPLICATIVE = "chi_not_multiplicative.json"

BRANCHES = (
    *(
        (*argv, "--format", fmt)
        for argv in (
            ("kgroup", "--field", "quad:5", "--k", "2"),
            ("kodd", "--field", "quad:5", "--k", "2"),
            ("cubic-table", "--max-f", "13", "--k", "1"),
            ("multiquad-table", "--m", "5", "--max-k", "2"),
        )
        for fmt in ("json", "csv")
    ),
    ("zeta", "--field", "quad:5", "--k", "1", "--format", "json"),
    ("w", "--field", "quad:5", "--k", "1", "--format", "json"),
    ("siegel-coeffs", "--h", "12", "--format", "json"),
    ("esum", "--m", "5", "--j", "1", "--format", "json"),
    ("char-check", "--file", "chi.json", "--format", "json"),
    ("esum", "--m", "6", "--j", "1"),
    *((command, "--field", "q", "--k", "0") for command in ("kgroup", "kodd", "zeta", "w")),
    ("char-check", "--file", NOT_MULTIPLICATIVE),
    *(
        ("kgroup", "--field", spec, "--k", "1")
        for spec in (
            "cyclic:4:5",
            "cyclic:3:27",
            "elem:4:quad:5,quad:8,quad:40",
            "elem:3:quad:5,quad:8,quad:40,quad:13",
            "elem:2:quad:5,quad:5,quad:8",
            "elem:2:quad:5,quad:8",
        )
    ),
    ("esum", "--m", "0", "--j", "1"),
    ("esum", "--m", "5", "--j", "2"),
    ("siegel-coeffs", "--h", "2"),
    ("kodd", "--field", "q", "--k", "1000248", "--factor-budget", "10"),
)


def readme_cli_examples() -> list[list[str]]:
    """The `evenk ...` lines of the first code block under "## CLI"."""
    text = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split() for line in block.splitlines() if line.startswith("evenk ")]


def readme_character_file() -> str:
    """The JSON example under "## Character files"."""
    text = README.read_text(encoding="utf-8").split("\n## Character files\n", 1)[1]
    return text.split("```json\n", 1)[1].split("```", 1)[0]


def write_character_files(directory: str | Path) -> None:
    """chi.json, the README's character file, and NOT_MULTIPLICATIVE,
    the same file with chi(4) = -1."""
    Path(directory, "chi.json").write_text(readme_character_file(), encoding="utf-8")
    Path(directory, NOT_MULTIPLICATIVE).write_text(
        '{"modulus": 5, "order": 2, "values": [[1, 0], [2, 1], [3, 1], [4, 1]]}\n',
        encoding="utf-8",
    )


def record(argv: list[str]) -> dict:
    """argv's entry: its exit code and the digests of what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def _workload_commands() -> list[list[str]]:
    sys.path.insert(0, str(REPO / "bench"))
    sys.dont_write_bytecode = True  # leave bench/ as it is
    import workloads

    return [
        list(argv)
        for name in workloads.GENERATORS
        for seed in WORKLOAD_SEEDS
        for argv in workloads.generate(name, seed).commands
    ]


def _test_cli_refusals() -> list[list[str]]:
    """The commands tests/test_cli.py runs that exit nonzero, read by
    running that file with cli.run wrapped."""
    import pytest

    run, seen = cli.run, []

    def recorded(argv):
        code = run(argv)
        seen.append((list(argv), code))
        return code

    with tempfile.TemporaryDirectory() as basetemp:
        cli.run = recorded
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", f"--basetemp={basetemp}",
                                  str(TESTS / "test_cli.py")])
        finally:
            cli.run = run
        if status:
            raise SystemExit("tests/test_cli.py fails; mend it before rewriting the outputs")
        return [argv for argv, code in seen if code and not any(basetemp in a for a in argv)]


def commands() -> list[list[str]]:
    """The pinned commands, without repeats, in first-seen order."""
    argvs = (
        _workload_commands()
        + [argv[1:] for argv in readme_cli_examples()]
        + _test_cli_refusals()
        + [list(argv) for argv in LARGE_K + BRANCHES]
    )
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def main() -> None:
    argvs = commands()
    with tempfile.TemporaryDirectory() as directory:
        write_character_files(directory)
        here = os.getcwd()
        os.chdir(directory)
        try:
            entries = [record(argv) for argv in argvs]
        finally:
            os.chdir(here)
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    OUTPUTS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{len(entries)} commands written to {OUTPUTS.relative_to(REPO)}")


if __name__ == "__main__":
    main()
