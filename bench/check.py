"""Output checker.  Untimed; its verdicts feed `failed`.

A command fails on a wrong exit code, on output that cannot be parsed,
or on any value the checks below reject:

* orders in the reference tables under tests/data must match exactly,
  except the three criterion-3 rows of Q(sqrt2, sqrt3, sqrt5), which
  are known slips in the reference data: those are checked against the
  direct characters route and reported by name as deviations;
* every zeta value and q-series weight the program prints is compared
  modulo two 61-bit primes with a computation that shares no code with
  `evenk` (generalized Bernoulli numbers from power sums mod q, and
  eta/Eisenstein products mod q);
* the order and zeta value of a record agree up to a positive integer
  w, with the sign and power of 2 the K-group formula prescribes;
* every printed factorization lists increasing primes and multiplies
  back to the order, and a trailing `·C` cofactor is composite;
* a field queried by several routes in one pass gets one order and one
  zeta value, and the degree-9 and criterion-3 elementary orders of the
  combiner equal those of the characters route.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

from numtheory import euler_phi, is_prime, kronecker, primitive_root

COLUMNS = ["field", "k", "index", "order", "factorization", "method", "zeta"]

# Q(sqrt2, sqrt3, sqrt5) rows of tests/data/multiquad_orders.json that
# disagree with three independent routes (README, criterion 3).
REFERENCE_DEVIATIONS = {("5", 22), ("5", 26), ("5", 38)}

# q = 1 (mod 2*3*5*...*29) puts the p-th roots of unity in F_q for every
# degree p the workloads use.
_ROOTS_MODULUS = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29


class CheckError(Exception):
    """Raised inside one command's check; becomes a problem line."""


class _Unsupported(Exception):
    """A field the modular zeta check cannot describe by characters."""


def _check_primes() -> tuple[int, int]:
    out = []
    t = (1 << 61) // _ROOTS_MODULUS
    while len(out) < 2:
        t += 1
        if is_prime(1 + t * _ROOTS_MODULUS):
            out.append(1 + t * _ROOTS_MODULUS)
    return tuple(out)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_table(stdout: str) -> list[dict]:
    lines = stdout.splitlines()
    if not lines or lines[0].split() != COLUMNS:
        raise CheckError("missing table header")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) not in (6, 7):
            raise CheckError(f"bad table row {line!r}")
        row = dict(zip(COLUMNS, tokens + [""] * (7 - len(tokens))))
        row["k"] = int(row["k"])
        row["index"] = int(row["index"])
        row["order"] = int(row["order"])
        row["zeta"] = Fraction(row["zeta"]) if row["zeta"] else None
        rows.append(row)
    return rows


def check_factorization(text: str, order: int) -> bool:
    """Validate a printed factorization of `order`; True when it ends
    in the `·C` marker of an unfactored composite."""
    tokens = text.split("·")
    incomplete = tokens[-1] == "C"
    cofactor = 1
    if incomplete:
        if len(tokens) < 2:
            raise CheckError(f"bad factorization {text!r}")
        cofactor = int(tokens[-2])
        tokens = tokens[:-2]
        if cofactor < 2 or is_prime(cofactor):
            raise CheckError(f"cofactor {cofactor} marked ·C is not composite")
    if tokens == ["1"]:
        tokens = []
    value, last = cofactor, 1
    for tok in tokens:
        base, _, exp = tok.partition("^")
        p, e = int(base), int(exp) if exp else 1
        if p <= last or e < 1 or not is_prime(p):
            raise CheckError(f"bad prime power {tok!r} in {text!r}")
        value *= p**e
        last = p
    if value != order:
        raise CheckError(f"factorization {text!r} does not multiply to {order}")
    return incomplete


# ---------------------------------------------------------------------------
# Field specs (the checker's own reading of the CLI grammar)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Part:
    """q, quad:D or cyclic:p:f:orbit."""

    kind: str
    p: int = 1
    f: int = 1
    orbit: int = 0

    def label(self) -> str:
        if self.kind == "q":
            return "q"
        if self.kind == "quad":
            return f"quad:{self.f}"
        suffix = f":{self.orbit}" if self.orbit else ""
        return f"cyclic:{self.p}:{self.f}{suffix}"


def parse_part(text: str) -> Part:
    toks = text.split(":")
    if toks == ["q"]:
        return Part("q")
    if toks[0] == "quad":
        return Part("quad", 2, int(toks[1]))
    if toks[0] == "cyclic":
        orbit = int(toks[3]) if len(toks) == 4 else 0
        return Part("cyclic", int(toks[1]), int(toks[2]), orbit)
    raise CheckError(f"unknown field spec {text!r}")


def parse_field(text: str) -> tuple[int, list[Part]]:
    """(p, parts): p = 1 and one part for a single field."""
    if text.startswith("elem:"):
        _, p, rest = text.split(":", 2)
        return int(p), [parse_part(t) for t in rest.split(",")]
    return 1, [parse_part(text)]


def field_label(text: str) -> str:
    p, parts = parse_field(text)
    inner = ",".join(part.label() for part in parts)
    return f"elem:{p}:{inner}" if p > 1 else inner


def field_degree(text: str) -> int:
    p, parts = parse_field(text)
    if p > 1:
        return (len(parts) * (p - 1) + 1)  # p^n = 1 + (p-1)(p^n-1)/(p-1)
    return {"q": 1, "quad": 2, "cyclic": parts[0].p}[parts[0].kind]


def multiquad_field(m: int) -> str:
    def disc(x):
        return x if x % 4 == 1 else 4 * x

    return "elem:2:" + ",".join(
        f"quad:{disc(x)}" for x in (2, 3, m, 6, 2 * m, 3 * m, 6 * m)
    )


def cubic_conductors(max_f: int) -> list[int]:
    return [f for f in range(7, max_f + 1) if (is_prime(f) and f % 3 == 1) or f == 9]


# ---------------------------------------------------------------------------
# Independent arithmetic modulo a prime
# ---------------------------------------------------------------------------


class ModQ:
    """zeta values and q-series weights reduced modulo the prime q."""

    def __init__(self, q: int) -> None:
        self.q = q
        self.bern = [1]

    def frac(self, x: Fraction) -> int:
        if x.denominator % self.q == 0:
            raise CheckError(f"denominator divisible by the check prime {self.q}")
        return x.numerator * pow(x.denominator, -1, self.q) % self.q

    def bernoulli(self, n: int) -> int:
        """B_n mod q (B_1 = -1/2) from sum_{j<=m} C(m+1, j) B_j = 0."""
        q, b = self.q, self.bern
        while len(b) <= n:
            m = len(b)
            if m > 1 and m % 2:
                b.append(0)
                continue
            acc, c = 0, 1  # c = C(m+1, j)
            for j in range(m):
                if b[j]:
                    acc += c * b[j]
                c = c * (m + 1 - j) % q * pow(j + 1, -1, q) % q
            b.append(-acc * pow(m + 1, -1, q) % q)
        return b[n]

    def root_of_unity(self, p: int) -> int:
        for h in range(2, 1000):
            w = pow(h, (self.q - 1) // p, self.q)
            if w != 1:
                return w
        raise CheckError(f"no {p}-th root of unity mod {self.q}")

    def _l_norm(self, f: int, p: int, exponent: Callable[[int], "int | None"], k: int) -> int:
        """prod over t in (Z/p)^* of L(chi^t, 1-2k) mod q, where chi(a) =
        w^exponent(a) for a primitive p-th root of unity w (chi(a) = 0
        when exponent(a) is None) and chi is primitive of conductor f."""
        q, n = self.q, 2 * k
        # power sums by exponent class: P[e][j] = sum a^j over e(a) = e
        power = [[0] * (n + 1) for _ in range(p)]
        for a in range(1, f + 1):
            e = exponent(a)
            if e is None:
                continue
            row, x = power[e], 1
            for j in range(n + 1):
                row[j] += x
                x = x * a % q
        binom, c = [], 1
        for i in range(n + 1):
            binom.append(c)
            c = c * (n - i) % q * pow(i + 1, -1, q) % q
        w = self.root_of_unity(p) if p > 2 else q - 1
        f_inv = pow(f, -1, q)
        total = 1
        for t in range(1, p):
            weights = [pow(w, t * e % p, q) for e in range(p)]
            s = [sum(weights[e] * power[e][j] for e in range(p)) % q for j in range(n + 1)]
            # B_{n,chi} = sum_i C(n, i) B_i f^(i-1) S_{n-i}
            b_chi, f_pow = 0, f_inv
            for i in range(n + 1):
                bi = self.bernoulli(i)
                if bi:
                    b_chi += binom[i] * bi % q * f_pow % q * s[n - i]
                f_pow = f_pow * f % q
            total = total * (-b_chi * pow(n, -1, q)) % q
        return total

    def part_l_norm(self, part: Part, k: int) -> int:
        if part.kind == "quad":
            d = part.f
            return self._l_norm(
                d, 2, lambda a: None if gcd(a, d) > 1 else (0 if kronecker(d, a) == 1 else 1), k
            )
        p, f = part.p, part.f
        if f % 2 == 0:
            raise _Unsupported
        ell = next(x for x in range(3, f + 1) if f % x == 0)
        power = f
        while power % ell == 0:
            power //= ell
        if power != 1 or part.orbit or (euler_phi(f) % p) or (euler_phi(f // ell) % p == 0):
            raise _Unsupported
        g = primitive_root(f)
        dlog, x = {}, 1
        for i in range(euler_phi(f)):
            dlog[x] = i % p
            x = x * g % f
        return self._l_norm(f, p, dlog.get, k)

    def zeta(self, text: str, k: int) -> int:
        """zeta_F(1-2k) mod q; _Unsupported for fields this checker cannot
        describe by characters (several orbits at one conductor)."""
        value = -self.bernoulli(2 * k) * pow(2 * k, -1, self.q) % self.q
        _, parts = parse_field(text)
        for part in parts:
            if part.kind != "q":
                value = value * self.part_l_norm(part, k) % self.q
        return value

    def siegel_weights(self, h: int) -> list[int]:
        """b_j(h) = -c_{h,j} / c_{h,0} mod q from T_h = E_w Delta^-r."""
        q = self.q
        r = h // 12 if h % 12 == 2 else h // 12 + 1
        weight = 12 * r - h + 2
        n = r + 1
        # A = prod (1 - x^m) by Euler's pentagonal theorem
        a = [0] * n
        for s in range(-n, n + 1):
            g = s * (3 * s - 1) // 2
            if 0 <= g < n:
                a[g] = 1 if s % 2 == 0 else q - 1
        # B = A^alpha with alpha = -24 r: B_m = (1/m) sum ((alpha+1) j - m) A_j B_{m-j}
        alpha = -24 * r
        b = [1] + [0] * (n - 1)
        for m in range(1, n):
            acc = sum(((alpha + 1) * j - m) * a[j] * b[m - j] for j in range(1, m + 1))
            b[m] = acc % q * pow(m, -1, q) % q
        if weight:
            scale = -2 * weight * pow(self.bernoulli(weight), -1, q) % q
            e = [1] + [
                scale * sum(d ** (weight - 1) for d in range(1, m + 1) if m % d == 0) % q
                for m in range(1, n)
            ]
            b = [sum(e[i] * b[m - i] for i in range(m + 1)) % q for m in range(n)]
        c0_inv = pow(b[r], -1, q)
        return [-b[r - j] * c0_inv % q for j in range(1, r + 1)]


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    incomplete: int = 0  # printed factorizations ending in ·C
    deviations: dict[str, str] = field(default_factory=dict)  # name -> note


def _short(n: int) -> str:
    s = str(n)
    return s if len(s) <= 24 else f"{s[:10]}...{s[-10:]} ({len(s)} digits)"


def _opt(argv: tuple, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


class Checker:
    """Checks CLI outputs.  `run_cli(argv) -> (exit code, stdout)` runs
    the extra characters-route commands the cross-checks need.  Verdicts
    are cached per output, so repeated passes are checked once."""

    def __init__(self, data_dir: Path, run_cli: Callable[[tuple], tuple[int, str]]) -> None:
        self.run_cli = run_cli
        self.mods = [ModQ(q) for q in _check_primes()]
        self._verdicts: dict[tuple, Verdict] = {}
        load = lambda name: json.loads((data_dir / name).read_text(encoding="utf-8"))
        self.cubic = {
            (row["f"], int(index)): int(row["order"])
            for index, rows in load("cubic_orders.json").items()
            for row in rows
        }
        self.multiquad = {
            multiquad_field(int(m)): (m, {int(i): int(v) for i, v in rows.items()})
            for m, rows in load("multiquad_orders.json").items()
        }
        self.degree9 = {
            "elem:3:" + ",".join(f"cyclic:{p}:{f}:{o}" for p, f, o in entry["parts"]):
            {int(i): int(v) for i, v in entry["orders"].items()}
            for entry in load("degree9_orders.json")
            if entry["parts"] is not None
        }

    # -- public API --------------------------------------------------------

    def check_pass(self, results: list[tuple[tuple, int, str]]) -> list[Verdict]:
        """One verdict per (argv, exit code, stdout), plus the
        cross-route checks between commands of the same pass."""
        verdicts = [self.check_command(*r) for r in results]
        routes: dict[tuple, list[tuple[int, dict]]] = {}
        for i, (argv, rc, out) in enumerate(results):
            if argv[0] == "kgroup":
                try:
                    row = parse_table(out)[0]
                except (CheckError, ValueError, IndexError):
                    continue  # already a problem of that command
                routes.setdefault((_opt(argv, "--field"), row["k"]), []).append((i, row))
        for (spec, k), rows in routes.items():
            orders = {row["order"] for _, row in rows}
            zetas = {row["zeta"] for _, row in rows if row["zeta"] is not None}
            if len(orders) > 1 or len(zetas) > 1:
                problem = f"{spec} k={k}: routes disagree, orders {sorted(orders)}"
                for i, _ in rows:  # a new Verdict: the cached one stays as is
                    verdicts[i] = replace(verdicts[i], problems=verdicts[i].problems + [problem])
        return verdicts

    def check_command(self, argv: tuple, rc: int, stdout: str, expected_rc: int = 0) -> Verdict:
        key = (argv, rc, stdout, expected_rc)
        if key not in self._verdicts:
            verdict = Verdict()
            if rc != expected_rc:
                verdict.problems.append(f"exit code {rc}, expected {expected_rc}")
            else:
                try:
                    self._check_output(argv, stdout, verdict)
                except (CheckError, ValueError, KeyError, IndexError) as exc:
                    verdict.problems.append(f"{type(exc).__name__}: {exc}")
            self._verdicts[key] = verdict
        return self._verdicts[key]

    # -- per command -------------------------------------------------------

    def _check_output(self, argv: tuple, stdout: str, verdict: Verdict) -> None:
        cmd = argv[0]
        if cmd == "zeta":
            spec, k = _opt(argv, "--field"), int(_opt(argv, "--k"))
            want = f"zeta_{field_label(spec)}(1-2*{k}) = "
            lines = stdout.splitlines()
            if len(lines) != 1 or not lines[0].startswith(want):
                raise CheckError(f"unexpected zeta output {stdout[:80]!r}")
            self._check_zeta(spec, k, Fraction(lines[0][len(want):]))
        elif cmd == "siegel-coeffs":
            self._check_siegel(int(_opt(argv, "--h")), stdout)
        elif cmd in ("kgroup", "cubic-table", "multiquad-table"):
            for spec, row in self._expected_rows(argv, parse_table(stdout)):
                verdict.incomplete += self._check_row(argv, spec, row, verdict)
        else:
            raise CheckError(f"no check for subcommand {cmd!r}")

    def _expected_rows(self, argv: tuple, rows: list[dict]):
        """Pair each printed row with the field spec it must describe."""
        cmd = argv[0]
        if cmd == "kgroup":
            specs_ks = [(_opt(argv, "--field"), int(_opt(argv, "--k")))]
        elif cmd == "cubic-table":
            k = int(_opt(argv, "--k"))
            specs_ks = [(f"cyclic:3:{f}", k) for f in cubic_conductors(int(_opt(argv, "--max-f")))]
        else:
            spec = multiquad_field(int(_opt(argv, "--m")))
            specs_ks = [(spec, k) for k in range(1, int(_opt(argv, "--max-k", "10")) + 1)]
        if len(rows) != len(specs_ks):
            raise CheckError(f"{len(rows)} rows, expected {len(specs_ks)}")
        by_key = {(row["field"], row["k"]): row for row in rows}
        for spec, k in specs_ks:
            row = by_key.get((field_label(spec), k))
            if row is None:
                raise CheckError(f"no row for {field_label(spec)} k={k}")
            yield spec, row

    def _check_row(self, argv: tuple, spec: str, row: dict, verdict: Verdict) -> bool:
        k, order = row["k"], row["order"]
        if row["index"] != 4 * k - 2:
            raise CheckError(f"index {row['index']} for k={k}")
        if order < 1:
            raise CheckError(f"order {order} is not positive")
        elementary = spec.startswith("elem:")
        method = _opt(argv, "--method") or ("combiner" if elementary else "characters")
        if row["method"] != method:
            raise CheckError(f"method {row['method']}, expected {method}")
        incomplete = check_factorization(row["factorization"], order)
        if row["zeta"] is not None:
            self._check_zeta(spec, k, row["zeta"])
            self._check_order_vs_zeta(spec, k, order, row["zeta"])
        elif method != "characters" or not elementary:
            raise CheckError("zeta column is empty")
        self._check_reference(spec, k, order, verdict)
        return incomplete

    def _check_zeta(self, spec: str, k: int, value: Fraction) -> None:
        try:
            for mod in self.mods:
                if mod.frac(value) != mod.zeta(spec, k):
                    raise CheckError(f"zeta of {spec} at k={k} is wrong mod {mod.q}")
        except _Unsupported:
            pass  # several orbits at one conductor: covered by reference data

    @staticmethod
    def _check_order_vs_zeta(spec: str, k: int, order: int, zeta: Fraction) -> None:
        """order = (-1)^r w zeta (k odd) or w zeta / 2^r (k even), w >= 1."""
        r = field_degree(spec)
        w = Fraction(order) / zeta * ((-1) ** r if k % 2 else 2**r)
        if w.denominator != 1 or w < 1:
            raise CheckError(f"order / zeta gives w = {w} for {spec} k={k}")

    def _reference(self, spec: str, index: int) -> tuple[int | None, str | None]:
        """(reference order or None, name of a known reference deviation)."""
        if spec.startswith("cyclic:3:") and spec.count(":") == 2:
            return self.cubic.get((int(spec.split(":")[2]), index)), None
        if spec in self.multiquad:
            m, orders = self.multiquad[spec]
            known = (m, index) in REFERENCE_DEVIATIONS
            return orders.get(index), f"Q(sqrt2,sqrt3,sqrt{m}) K_{index}" if known else None
        return self.degree9.get(spec, {}).get(index), None

    def _check_reference(self, spec: str, k: int, order: int, verdict: Verdict) -> None:
        index = 4 * k - 2
        want, deviation = self._reference(spec, index)
        if deviation or spec in self.degree9:
            self._check_characters_route(spec, k, order)
        if deviation:
            verdict.deviations[deviation] = (
                f"computed {_short(order)} agrees with the characters route, "
                f"reference {_short(want)} does not"
                if order != want else "computed order now equals the reference"
            )
        elif want is not None and order != want:
            raise CheckError(f"{spec} K_{index}: order {order}, reference {want}")

    def _check_characters_route(self, spec: str, k: int, order: int) -> None:
        argv = ("kgroup", "--field", spec, "--k", str(k), "--method", "characters",
                "--factor-budget", "10000")
        rc, out = self.run_cli(argv)
        if rc != 0:
            raise CheckError(f"characters route for {spec} k={k} exited {rc}")
        other = parse_table(out)[0]["order"]
        if other != order:
            raise CheckError(f"{spec} k={k}: combiner {order} != characters {other}")

    def _check_siegel(self, h: int, stdout: str) -> None:
        lines = stdout.splitlines()
        values = []
        for j, line in enumerate(lines, start=1):
            head = f"b_{j}({h}) = "
            if not line.startswith(head):
                raise CheckError(f"unexpected line {line[:60]!r}")
            values.append(Fraction(line[len(head):]))
        for mod in self.mods:
            want = mod.siegel_weights(h)
            if len(values) != len(want):
                raise CheckError(f"{len(values)} weights for h={h}, expected {len(want)}")
            if [mod.frac(v) for v in values] != want:
                raise CheckError(f"siegel weights for h={h} are wrong mod {mod.q}")
