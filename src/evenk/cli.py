"""Command-line front end.

Subcommands compute single orders (`kgroup`, `kodd`), zeta values
(`zeta`), w invariants (`w`), inspection helpers (`siegel-coeffs`,
`esum`), table reproductions (`cubic-table`, `multiquad-table`),
divisibility witness scans (`prank-scan`), and character-file checks
(`char-check`).  Each is one entry of COMMANDS.  The order commands
(`kgroup`, `kodd` and the two tables) print a table of orders and take
`--format {text,json,csv}` and `--factor-budget`; the others take
`--format {text,json}`.

Field specs use a small grammar: `q`, `quad:D`, `cyclic:p:f` (or
`cyclic:p:f:orbit` when one conductor carries several fields), and
`elem:p:part,part,...` where each part is itself a `quad:` or
`cyclic:` spec.

Exit codes: 0 success, 1 usage error (including a field spec that names
no field, a negative --factor-budget, and a --method that does not
apply to the field, which k_even_order rejects with UnsupportedField),
2 computation/data error (NonIntegralOrder, InexactDivision,
NotRational, bad character files and kin), 3 witness inconsistency.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import namedtuple

from .arith import FactorBudget, factorize, is_prime
from .cyclodirichlet import (
    CharacterFileError,
    ImprimitiveCharacter,
    NotRational,
    parse_character_file,
    quadratic_character,
)
from .kgroups import (
    CyclicPrime,
    Elementary,
    FieldSpec,
    InexactDivision,
    KGroupOrder,
    NonIntegralOrder,
    Rationals,
    RealQuadratic,
    k_even_order,
    k_odd_order,
    w_invariant,
    zeta_abelian,
)
from .prank import scan
from .qseries import DegenerateConstantTerm, siegel_coeffs
from .siegel import e_sum, fundamental_discriminant

COMPUTATION_ERRORS = (
    NonIntegralOrder,
    InexactDivision,
    NotRational,
    DegenerateConstantTerm,
    ImprimitiveCharacter,
    CharacterFileError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


OutputRecord = namedtuple(
    "OutputRecord", ("field", "k", "index", "order", "factorization", "method", "zeta")
)
OutputRecord.__doc__ = """One table row: a field, the twist k, the K-index, the order as a
decimal string, its (possibly partial) factorization, the method tag,
and the zeta value as a fraction string; the fields are the columns."""


def parse_field_spec(text: str) -> FieldSpec:
    """Parse the field mini-language into a FieldSpec."""
    parts = text.strip().split(":")
    try:
        if parts == ["q"]:
            return Rationals()
        if parts[0] == "quad" and len(parts) == 2:
            return RealQuadratic(int(parts[1]))
        if parts[0] == "cyclic" and len(parts) in (3, 4):
            orbit = int(parts[3]) if len(parts) == 4 else 0
            return CyclicPrime(int(parts[1]), int(parts[2]), orbit)
        if parts[0] == "elem" and len(parts) >= 3:
            p = int(parts[1])
            rest = text.strip().split(":", 2)[2]
            members = tuple(parse_field_spec(tok) for tok in rest.split(","))
            return Elementary(p, members)
    except (ValueError, IndexError) as exc:
        raise UsageError(f"bad field spec {text!r}: {exc}") from exc
    raise UsageError(f"bad field spec {text!r}")


def _record_from_order(
    result: KGroupOrder, k: int, budget: FactorBudget
) -> OutputRecord:
    factorization = factorize(result.order, budget, result.pieces)
    return OutputRecord(
        field=result.field.label(),
        k=k,
        index=result.index,
        order=str(result.order),
        factorization=factorization.format(),
        method=result.method,
        zeta="" if result.zeta_value is None else str(result.zeta_value),
    )


def _field_sort_key(field: str):
    return tuple(
        int(tok) if tok.lstrip("-").isdigit() else tok
        for tok in field.replace(",", ":").split(":")
    )


def emit_table(records: list[OutputRecord], fmt: str) -> str:
    """Render records deterministically (sorted by field then k)."""
    records = sorted(records, key=lambda r: (_field_sort_key(r.field), r.k))
    columns = OutputRecord._fields
    if fmt == "json":
        import json

        return "".join(json.dumps(r._asdict()) + "\n" for r in records)
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(records)
        return buf.getvalue()
    if fmt == "text":
        rows = [columns] + [[str(v) for v in r] for r in records]
        widths = [max(len(row[i]) for row in rows) for i in range(len(columns))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class InconsistentWitnesses(Exception):
    """Raised by prank-scan after its output; args[0] lists the details
    of each inconsistent witness."""


def _kgroup(args):
    yield k_even_order(args.field, args.k, method=args.method), args.k


def _kodd(args):
    yield k_odd_order(args.field, args.k), args.k


def _cubic_table(args):
    for f in range(7, args.max_f + 1):
        if (is_prime(f) and f % 3 == 1) or f == 9:
            yield k_even_order(CyclicPrime(3, f), args.k), args.k


def _multiquad_table(args):
    if (args.m is None) == (args.parts is None):
        raise UsageError("multiquad-table needs exactly one of --m / --parts")
    if args.m is not None:
        m = args.m
        parts = [RealQuadratic(fundamental_discriminant(x))
                 for x in (2, 3, m, 6, 2 * m, 3 * m, 6 * m)]
    else:
        parts = [parse_field_spec(tok) for tok in args.parts.split(",")]
    spec = Elementary(2, tuple(parts))
    for k in range(1, args.max_k + 1):
        yield k_even_order(spec, k), k


def _zeta(args):
    label, value = args.field.label(), zeta_abelian(args.field, args.k)
    yield (
        {"field": label, "k": args.k, "zeta": str(value)},
        f"zeta_{label}(1-2*{args.k}) = {value}",
    )


def _w(args):
    label, w = args.field.label(), w_invariant(args.field, args.k)
    parts = sorted(w.parts.items())
    text = "·".join(f"{ell}^{e}" if e > 1 else str(ell) for ell, e in parts)
    yield (
        {"field": label, "k": args.k, "w": str(w.value),
         "parts": {str(ell): e for ell, e in parts}},
        f"w_{2 * args.k}({label}) = {w.value} = {text}",
    )


def _siegel_coeffs(args):
    coeffs = siegel_coeffs(args.h)
    yield (
        {"h": args.h, "b": [str(c) for c in coeffs]},
        "\n".join(f"b_{j}({args.h}) = {c}" for j, c in enumerate(coeffs, start=1)),
    )


def _esum(args):
    value = e_sum(args.m, args.j)
    yield {"m": args.m, "j": args.j, "e": str(value)}, f"e_{args.j}({args.m}) = {value}"


def _prank_scan(args):
    witnesses = scan(args.p, args.max_d)
    for w in witnesses:
        flags = " ".join("T" if value else "F" for _, value in w.statements)
        yield (
            {"D": w.d, "statements": dict(w.statements), "consistent": w.consistent},
            f"D={w.d} [{flags}] consistent={w.consistent}",
        )
    bad = [w.details() for w in witnesses if not w.consistent]
    if bad:
        raise InconsistentWitnesses(bad)


def _char_check(args):
    for chi in parse_character_file(args.file):
        matches_kronecker = False
        conductor = chi.conductor()
        if chi.order <= 2 and conductor > 1:
            # the Kronecker symbol of an odd character has a negative
            # discriminant
            matches_kronecker = chi.primitive_part() == quadratic_character(
                conductor if chi.is_even() else -conductor
            )
        payload = {
            "modulus": chi.modulus,
            "order": chi.order,
            "conductor": conductor,
            "even": chi.is_even(),
            "primitive": chi.is_primitive(),
            "matches_kronecker": matches_kronecker,
        }
        yield payload, "ok " + " ".join(f"{key}={value}" for key, value in payload.items())


Command = namedtuple("Command", ("help", "arguments", "handler", "table"), defaults=(False,))
Command.__doc__ = """A subcommand: help text, arguments (flag -> add_argument keywords),
and a handler of the parsed arguments.  A table command's handler
yields (KGroupOrder, k) pairs, which run factors under one budget and
renders with emit_table; such a command also takes `--format csv` and
--factor-budget.  Any other handler yields (JSON object, text) pairs,
which run prints one per line."""


_K = dict(type=int, required=True)
_FIELD_K = {"--field": dict(required=True, type=parse_field_spec), "--k": _K}

COMMANDS = {
    "kgroup": Command(
        "order of K_{4k-2}(O_F)",
        {**_FIELD_K, "--method": dict(choices=("characters", "zagier", "combiner", "kz"))},
        _kgroup, table=True,
    ),
    "kodd": Command("order of K_{4k-1}(O_F)", _FIELD_K, _kodd, table=True),
    "zeta": Command("exact zeta_F(1-2k)", _FIELD_K, _zeta),
    "w": Command("w invariant with per-prime breakdown", _FIELD_K, _w),
    "siegel-coeffs": Command("the weights b_j(h)", {"--h": _K}, _siegel_coeffs),
    "esum": Command("power sum e_j(m)", {"--m": _K, "--j": _K}, _esum),
    "cubic-table": Command(
        "cyclic cubic orders up to a conductor",
        {"--max-f": _K, "--k": _K}, _cubic_table, table=True,
    ),
    "multiquad-table": Command(
        "orders for Q(sqrt 2, sqrt 3, sqrt m)",
        {"--m": dict(type=int),
         "--parts": dict(help="explicit comma-separated quad: parts"),
         "--max-k": dict(type=int, default=10)},
        _multiquad_table, table=True,
    ),
    "prank-scan": Command(
        "divisibility witness scan",
        {"--p": dict(type=int, choices=(3, 5), required=True), "--max-d": _K},
        _prank_scan,
    ),
    "char-check": Command(
        "validate a character file", {"--file": dict(required=True)}, _char_check
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="evenk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in command.arguments.items():
            p.add_argument(flag, **options)
        formats = ("text", "json", "csv") if command.table else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
        if command.table:
            p.add_argument("--factor-budget", type=_nonnegative_int, default=10**6,
                           help="trial-division limit and Pollard-rho iteration cap")
    return parser


def run(argv: list[str]) -> int:
    """Entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        if command.table:
            budget = FactorBudget(
                trial_limit=args.factor_budget, rho_iterations=args.factor_budget
            )
            records = [_record_from_order(result, k, budget)
                       for result, k in command.handler(args)]
            sys.stdout.write(emit_table(records, args.format))
        elif args.format == "json":
            import json

            for obj, _ in command.handler(args):
                print(json.dumps(obj))
        else:
            for _, text in command.handler(args):
                print(text)
        return 0
    except InconsistentWitnesses as exc:
        for details in exc.args[0]:
            print(f"inconsistent witness: {details}", file=sys.stderr)
        return 3
    except COMPUTATION_ERRORS as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
