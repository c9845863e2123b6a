"""Command-line front end.

Subcommands compute single orders (`kgroup`, `kodd`), zeta values
(`zeta`), w invariants (`w`), inspection helpers (`siegel-coeffs`,
`esum`), table reproductions (`cubic-table`, `multiquad-table`),
divisibility witness scans (`prank-scan`), and character-file checks
(`char-check`).

Field specs use a small grammar: `q`, `quad:D`, `cyclic:p:f` (or
`cyclic:p:f:orbit` when one conductor carries several fields), and
`elem:p:part,part,...` where each part is itself a `quad:` or
`cyclic:` spec.

Exit codes: 0 success, 1 usage error (including a field spec that names
no field, a --method that does not apply to the field and a negative
--factor-budget), 2 computation/data error (NonIntegralOrder,
InexactDivision, NotRational, bad character files and kin), 3 witness
inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass

from .arith import FactorBudget
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
    NoRepresentation,
    NonIntegralOrder,
    Rationals,
    RealQuadratic,
    UnsupportedField,
    k_even_order,
    k_odd_order,
    w_invariant,
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
    NoRepresentation,
    UnsupportedField,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass
class OutputRecord:
    """One table row: a field, the twist k, the K-index, the order as a
    decimal string, its (possibly partial) factorization, the method
    tag, and the zeta value as a fraction string."""

    field: str
    k: int
    index: int
    order: str
    factorization: str
    method: str
    zeta: str


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
    factorization = result.ensure_factorization(budget)
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
    columns = ["field", "k", "index", "order", "factorization", "method", "zeta"]
    if fmt == "json":
        return "".join(json.dumps(asdict(r)) + "\n" for r in records)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in records:
            d = asdict(r)
            writer.writerow([d[c] for c in columns])
        return buf.getvalue()
    if fmt == "text":
        rows = [columns] + [
            [str(v) for v in (r.field, r.k, r.index, r.order,
                              r.factorization, r.method, r.zeta)]
            for r in records
        ]
        widths = [max(len(row[i]) for row in rows) for i in range(len(columns))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    parser.add_argument(
        "--factor-budget",
        type=_int_at_least(0),
        default=10**6,
        help="trial-division limit and Pollard-rho iteration cap",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="evenk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kgroup", help="order of K_{4k-2}(O_F)")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("characters", "zagier", "combiner", "kz"))
    _add_common(p)

    p = sub.add_parser("kodd", help="order of K_{4k-1}(O_F)")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("zeta", help="exact zeta_F(1-2k)")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("w", help="w invariant with per-prime breakdown")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("siegel-coeffs", help="the weights b_j(h)")
    p.add_argument("--h", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("esum", help="power sum e_j(m)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("cubic-table", help="cyclic cubic orders up to a conductor")
    p.add_argument("--max-f", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser(
        "multiquad-table", help="orders for Q(sqrt 2, sqrt 3, sqrt m)"
    )
    p.add_argument("--m", type=int)
    p.add_argument("--parts", help="explicit comma-separated quad: parts")
    p.add_argument("--max-k", type=int, default=10)
    _add_common(p)

    p = sub.add_parser("prank-scan", help="divisibility witness scan")
    p.add_argument("--p", type=int, choices=(3, 5), required=True)
    p.add_argument("--max-d", type=int, required=True)
    p.add_argument("--json", action="store_true", help="shorthand for --format json")
    _add_common(p)

    p = sub.add_parser("char-check", help="validate a character file")
    p.add_argument("--file", required=True)
    _add_common(p)

    return parser


def _cubic_conductors(max_f: int) -> list[int]:
    from .arith import is_prime

    return [
        f
        for f in range(7, max_f + 1)
        if (is_prime(f) and f % 3 == 1) or f == 9
    ]


def _multiquad_spec(m: int) -> Elementary:
    members = tuple(
        RealQuadratic(fundamental_discriminant(x))
        for x in (2, 3, m, 6, 2 * m, 3 * m, 6 * m)
    )
    return Elementary(2, members)


def run(argv: list[str]) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except COMPUTATION_ERRORS as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    budget = FactorBudget(
        trial_limit=min(args.factor_budget, 10**6),
        rho_iterations=args.factor_budget,
    )
    fmt = args.format

    if args.command in ("kgroup", "kodd"):
        spec = parse_field_spec(args.field)
        if args.command == "kodd":
            result = k_odd_order(spec, args.k)
        elif args.method is None or args.method in spec.ORDER_METHODS:
            result = k_even_order(spec, args.k, method=args.method)
        else:
            raise UsageError(
                f"method {args.method!r} does not apply to {spec.label()}"
            )
        sys.stdout.write(
            emit_table([_record_from_order(result, args.k, budget)], fmt)
        )
        return 0

    if args.command == "zeta":
        from .kgroups import zeta_abelian

        spec = parse_field_spec(args.field)
        value = zeta_abelian(spec, args.k)
        if fmt == "json":
            sys.stdout.write(
                json.dumps(
                    {"field": spec.label(), "k": args.k, "zeta": str(value)}
                )
                + "\n"
            )
        else:
            print(f"zeta_{spec.label()}(1-2*{args.k}) = {value}")
        return 0

    if args.command == "w":
        spec = parse_field_spec(args.field)
        w = w_invariant(spec, args.k)
        parts = "·".join(
            f"{ell}^{e}" if e > 1 else str(ell)
            for ell, e in sorted(w.parts.items())
        )
        if fmt == "json":
            sys.stdout.write(
                json.dumps(
                    {
                        "field": spec.label(),
                        "k": args.k,
                        "w": str(w.value),
                        "parts": {str(l): e for l, e in sorted(w.parts.items())},
                    }
                )
                + "\n"
            )
        else:
            print(f"w_{2 * args.k}({spec.label()}) = {w.value} = {parts}")
        return 0

    if args.command == "siegel-coeffs":
        coeffs = siegel_coeffs(args.h)
        if fmt == "json":
            sys.stdout.write(
                json.dumps(
                    {"h": args.h, "b": [str(c) for c in coeffs]}
                )
                + "\n"
            )
        else:
            for j, c in enumerate(coeffs, start=1):
                print(f"b_{j}({args.h}) = {c}")
        return 0

    if args.command == "esum":
        value = e_sum(args.m, args.j)
        if fmt == "json":
            sys.stdout.write(
                json.dumps({"m": args.m, "j": args.j, "e": str(value)}) + "\n"
            )
        else:
            print(f"e_{args.j}({args.m}) = {value}")
        return 0

    if args.command == "cubic-table":
        records = [
            _record_from_order(
                k_even_order(CyclicPrime(3, f), args.k), args.k, budget
            )
            for f in _cubic_conductors(args.max_f)
        ]
        sys.stdout.write(emit_table(records, fmt))
        return 0

    if args.command == "multiquad-table":
        if (args.m is None) == (args.parts is None):
            raise UsageError("multiquad-table needs exactly one of --m / --parts")
        if args.m is not None:
            spec = _multiquad_spec(args.m)
        else:
            members = tuple(
                parse_field_spec(tok) for tok in args.parts.split(",")
            )
            spec = Elementary(2, members)
        records = [
            _record_from_order(k_even_order(spec, k), k, budget)
            for k in range(1, args.max_k + 1)
        ]
        sys.stdout.write(emit_table(records, fmt))
        return 0

    if args.command == "prank-scan":
        witnesses = scan(args.p, args.max_d)
        as_json = args.json or fmt == "json"
        bad = [w for w in witnesses if not w.consistent]
        for w in witnesses:
            if as_json:
                sys.stdout.write(
                    json.dumps(
                        {
                            "D": w.d,
                            "statements": {
                                label: value for label, value in w.statements
                            },
                            "consistent": w.consistent,
                        }
                    )
                    + "\n"
                )
            else:
                flags = " ".join(
                    "T" if value else "F" for _, value in w.statements
                )
                print(f"D={w.d} [{flags}] consistent={w.consistent}")
        if bad:
            for w in bad:
                print(f"inconsistent witness: {w.details()}", file=sys.stderr)
            return 3
        return 0

    if args.command == "char-check":
        chars = parse_character_file(args.file)
        for chi in chars:
            matches_kronecker = False
            if chi.order <= 2 and chi.conductor() > 1:
                matches_kronecker = chi.primitive_part() == quadratic_character(
                    chi.conductor()
                )
            payload = {
                "modulus": chi.modulus,
                "order": chi.order,
                "conductor": chi.conductor(),
                "even": chi.is_even(),
                "primitive": chi.is_primitive(),
                "matches_kronecker": matches_kronecker,
            }
            if fmt == "json":
                sys.stdout.write(json.dumps(payload) + "\n")
            else:
                print(
                    "ok "
                    + " ".join(f"{key}={value}" for key, value in payload.items())
                )
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
