"""Command-line front end.

Subcommands compute single orders (`kgroup`, `kodd`), zeta values
(`zeta`), w invariants (`w`), inspection helpers (`siegel-coeffs`,
`esum`), table reproductions (`cubic-table`, `multiquad-table`),
divisibility witness scans (`prank-scan`), and character-file checks
(`char-check`).  Each is one entry of COMMANDS.  The order commands
(`kgroup`, `kodd` and the two tables) print a table of orders and take
`--format {text,json,csv}` and `--factor-budget`; the others take
`--format {text,json}`.

`--field` takes a field spec (`q`, `quad:D`, `cyclic:p:f[:orbit]`,
`elem:p:part,...`), read by kgroups.parse_spec.  Every integer, in a
spec or as an option's value, is written canonically (parse_natural):
0, or a nonzero digit followed by digits, with no sign, space or underscore.

Exit codes: 0 success, 1 usage error (including a field spec that names
no field, an integer option that is not canonical, a negative
--factor-budget among them, a --method that does not apply to the
field, which k_even_order rejects with UnsupportedField, a conductor
or divisor-sum argument that factor_small refuses, and a --k or --h
whose Bernoulli or weight table no list can hold), 2 computation/data
error (NonIntegralOrder, InexactDivision, NotRational, bad character
files and kin), 3 witness inconsistency.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import namedtuple
from math import prod

from .arith import ECM_CURVE_PRICE, FACTOR_BUDGET, RHO_CAP, factor_small, factorize, is_prime
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
    RealQuadratic,
    k_even_order,
    k_odd_order,
    parse_natural,
    parse_spec,
    w_invariant,
    zeta_abelian,
)
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
    """kgroups.parse_spec at the command line: every error is a
    UsageError that names the whole spec."""
    try:
        return parse_spec(text)
    except ValueError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise UsageError(f"bad field spec {text!r}{detail}") from exc


def _record_from_order(result: KGroupOrder, budget: int) -> OutputRecord:
    factorization = factorize(result.order, budget, result.pieces)
    return OutputRecord(
        field=result.field.label(),
        # the index is 4k - 2 or 4k - 1
        k=(result.index + 2) // 4,
        index=result.index,
        order=str(result.order),
        factorization=factorization.format(),
        method=result.method,
        zeta="" if result.zeta_value is None else str(result.zeta_value),
    )


def emit_table(records: list[OutputRecord], fmt: str) -> str:
    """Render records in the order given, as --format's json, csv or
    text; each table command yields its rows in print order."""
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
    rows = [columns] + [[str(v) for v in r] for r in records]
    widths = [max(len(row[i]) for row in rows) for i in range(len(columns))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _canonical_int(text: str) -> int:
    """An integer option's value, held to the rule of a spec's integers
    (parse_natural); argparse names the option in the error."""
    try:
        return parse_natural(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class InconsistentWitnesses(Exception):
    """Raised by prank-scan after its output; args[0] lists the details
    of each inconsistent witness."""


def _kgroup(args):
    yield k_even_order(args.field, args.k, method=args.method)


def _kodd(args):
    yield k_odd_order(args.field, args.k)


def _cubic_table(args):
    for f in range(7, args.max_f + 1):
        if (is_prime(f) and f % 3 == 1) or f == 9:
            yield k_even_order(CyclicPrime(3, f), args.k)


def _squarefree_part(n: int) -> int:
    return prod(p for p, e in factor_small(n) if e % 2)


def _multiquad_table(args):
    # Q(sqrt 2, sqrt 3, sqrt m) has the quadratic subfields Q(sqrt d), d the
    # squarefree parts of 2, 3, m, 6, 2m, 3m, 6m: seven unless m's is 1, 2, 3 or 6
    m = args.m
    if m < 1 or _squarefree_part(m) in (1, 2, 3, 6):
        raise UsageError(f"--m {m} must make Q(sqrt 2, sqrt 3, sqrt m) a real field of degree 8")
    ds = [_squarefree_part(x) for x in (2, 3, m, 6, 2 * m, 3 * m, 6 * m)]
    spec = Elementary(2, tuple(RealQuadratic(fundamental_discriminant(d)) for d in ds))
    for k in range(1, args.max_k + 1):
        yield k_even_order(spec, k)


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
    from .prank import scan

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
    chi = parse_character_file(args.file)
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
yields KGroupOrders, which run factors under one budget and renders
with emit_table, k read off each order's index; such a command also
takes `--format csv` and --factor-budget.  Any other handler yields
(JSON object, text) pairs, which run prints one per line."""


_K = dict(type=_canonical_int, required=True)
_FIELD_K = {"--field": dict(required=True, type=parse_field_spec), "--k": _K}

COMMANDS = {
    "kgroup": Command(
        "order of K_{4k-2}(O_F)",
        {**_FIELD_K, "--method": dict(choices=("characters", "zagier", "combiner"))},
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
        {"--m": _K, "--max-k": dict(type=_canonical_int, default=10)},
        _multiquad_table, table=True,
    ),
    "prank-scan": Command(
        "divisibility witness scan",
        {"--p": dict(type=_canonical_int, choices=(3, 5), required=True), "--max-d": _K},
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
            p.add_argument("--factor-budget", type=_canonical_int, default=FACTOR_BUDGET,
                           help="trial-division limit, and the search budget of each "
                                f"number left: Pollard-rho iterations up to {RHO_CAP}, "
                                "ECM modular multiplications beyond once they buy a "
                                f"whole curve (from {RHO_CAP + ECM_CURVE_PRICE} on); "
                                "below that, all of it for rho")
    return parser


def run(argv: list[str]) -> int:
    """Entry point; returns the process exit code."""
    # None before Python 3.10.7, which has no limit on int-to-str digits
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = _build_parser().parse_args(argv)
        # spec and option integers are read under the interpreter's limit;
        # an exact value is printed however many digits it has
        if digits is not None:
            sys.set_int_max_str_digits(0)
        command = COMMANDS[args.command]
        if command.table:
            records = [_record_from_order(result, args.factor_budget)
                       for result in command.handler(args)]
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
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
