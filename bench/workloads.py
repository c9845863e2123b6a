"""Seeded workload generator.

Each workload is a list of `evenk` CLI argument vectors that the
benchmark runs one after another, each in a fresh process.  The seed
picks conductors, discriminants and k values; the program sees only
the generated argv.

Every workload is built from slots.  A slot is a pool of inputs whose
cost is nearly the same, and the seed draws one input per slot.  So
two seeds give different inputs of about the same total cost, and the
run-to-run spread of a metric measures the program and the machine,
not the luck of the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from numtheory import euler_phi, is_fundamental_discriminant, is_prime

REDUCED_BUDGET = ("--factor-budget", "10000")

DEGREE9_FIELD = "elem:3:cyclic:3:7,cyclic:3:9,cyclic:3:63:0,cyclic:3:63:1"
MULTIQUAD_M = (5, 7, 11, 13, 17, 19)

# (conductor, k) pairs whose order, at the default factor budget, leaves
# exactly one cofactor that defeats Pollard rho, so that rho spends its
# whole budget; each command took 1.44-1.64 reference seconds.
FACTOR_POOL = (
    (31, 10), (37, 8), (37, 9), (37, 10), (43, 9), (73, 8), (73, 9), (97, 8),
    (103, 7), (103, 10), (139, 9), (163, 7), (181, 7), (181, 8), (199, 7),
)


# Three small commands (about 0.1 s each, mostly interpreter start-up)
# that enter the layers a workload's own commands may skip: the
# combiner, the elementary characters route and the zagier route.  Every
# workload ends with them, so that every per-layer time is measured on
# every workload.
COVERAGE = (
    ("kgroup", "--field", "elem:2:quad:5,quad:8,quad:40", "--k", "1", *REDUCED_BUDGET),
    ("kgroup", "--field", "elem:2:quad:5,quad:8,quad:40", "--k", "1",
     "--method", "characters", *REDUCED_BUDGET),
    ("kgroup", "--field", "quad:5", "--k", "1", "--method", "zagier", *REDUCED_BUDGET),
)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]


def _primes_in(lo: int, hi: int, mod: int) -> list[int]:
    return [f for f in range(lo, hi) if f % mod == 1 and is_prime(f)]


def tables(rng: random.Random) -> list[tuple[str, ...]]:
    # k and 11 - k together cost the same within 3% for every k in 1..4
    # (5 and 6 together cost 10% more)
    k = rng.randint(1, 4)
    cmds = [
        ("cubic-table", "--max-f", "499", "--k", str(kk), *REDUCED_BUDGET)
        for kk in (k, 11 - k)
    ]
    cmds += [
        ("multiquad-table", "--m", str(m), "--max-k", "10", *REDUCED_BUDGET)
        for m in MULTIQUAD_M
    ]
    cmds += [
        ("kgroup", "--field", DEGREE9_FIELD, "--k", str(kk), *REDUCED_BUDGET)
        for kk in range(1, 11)
    ]
    return cmds


def bigcond(rng: random.Random) -> list[tuple[str, ...]]:
    # Character construction costs about (characters built) * phi(f)^2:
    # five characters for a cubic field, nine for a quintic one, and two
    # for a quadratic one.  The pools are matched to that cost, and the six
    # character queries outnumber the five short commands (zagier and
    # COVERAGE), so the median command is a character query.
    cubic = _primes_in(1450, 1550, 3)
    quintic = _primes_in(1100, 1210, 5)
    quad = [
        d for d in range(1000, 5001)
        if 2330 <= euler_phi(d) <= 2410 and is_fundamental_discriminant(d)
    ]
    cmds = []
    # the i-th smallest and i-th largest: their phi^2 sum varies by 2%
    i = rng.randrange(len(cubic) // 2)
    for f in (cubic[i], cubic[-1 - i]):
        cmds.append(("kgroup", "--field", f"cyclic:3:{f}",
                     "--k", str(rng.randint(1, 5)), *REDUCED_BUDGET))
    for f in rng.sample(quintic, 2):
        cmds.append(("kgroup", "--field", f"cyclic:5:{f}",
                     "--k", str(rng.randint(1, 5)), *REDUCED_BUDGET))
    for d in rng.sample(quad, 2):
        k = str(rng.randint(1, 5))
        for method in ("characters", "zagier"):
            cmds.append(("kgroup", "--field", f"quad:{d}", "--k", k,
                         "--method", method, *REDUCED_BUDGET))
    return cmds


def highk(rng: random.Random) -> list[tuple[str, ...]]:
    small_quad = [d for d in range(5, 100) if is_fundamental_discriminant(d)]

    def cyclic(*fields):
        # (p, f, lowest k, highest k): each costs the same within 10%
        p, f, lo, hi = rng.choice(fields)
        return ("zeta", "--field", f"cyclic:{p}:{f}", "--k", str(rng.randint(lo, hi)))

    return [
        ("zeta", "--field", "q", "--k", str(rng.randint(296, 300))),
        ("zeta", "--field", f"quad:{rng.choice(small_quad)}",
         "--k", str(rng.randint(200, 203))),
        ("zeta", "--field", f"quad:{rng.choice(small_quad)}",
         "--k", str(rng.randint(150, 153))),
        cyclic((29, 59, 18, 22)),
        cyclic((23, 47, 26, 30), (23, 139, 18, 22)),
        cyclic((19, 191, 18, 30)),
        cyclic((17, 103, 18, 30), (17, 137, 18, 30)),
        cyclic((11, 199, 18, 30), (13, 131, 18, 30), (13, 157, 18, 30)),
        # weight-0 T_h (h = 2 mod 12) is much cheaper than its neighbours
        ("siegel-coeffs", "--h",
         str(rng.choice([h for h in range(1030, 1101, 2) if h % 12 != 2]))),
    ]


def factor(rng: random.Random) -> list[tuple[str, ...]]:
    return [
        ("kgroup", "--field", f"cyclic:3:{f}", "--k", str(k))
        for f, k in rng.sample(FACTOR_POOL, 4)
    ]


GENERATORS = {
    "tables": tables,
    "bigcond": bigcond,
    "highk": highk,
    "factor": factor,
}


def generate(name: str, seed: int) -> Workload:
    """The command list of workload `name` for `seed`; deterministic."""
    rng = random.Random(f"{name}:{seed}")
    commands = tuple(tuple(c) for c in GENERATORS[name](rng)) + COVERAGE
    return Workload(name, commands)
