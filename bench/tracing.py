"""Traced runs: per-layer spans recorded from outside the program.

Run as a script, this file is the child process of one traced command:

    PYTHONPATH=src python bench/tracing.py SPANS.json CMD_ID ARGV...

It imports `evenk.cli`, wraps the layer functions listed in LAYERS in
every evenk module namespace that binds them, calls
`evenk.cli.run(argv)`, and writes the spans to SPANS.json when the
command ends.  A span is [name, start_ns, end_ns, parent, note]:
`parent` is the index of the enclosing span (-1 for none) and `note`
carries the Bernoulli index or whether a factorization came out
complete.  The program itself is not changed.

Imported as a module, it turns spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# span name -> functions ("module:attribute") that record it
LAYERS = {
    "cli.run": ["cli:run"],
    "kgroups.k_even_order": ["kgroups:k_even_order"],
    "kgroups.combine_elementary": ["kgroups:combine_elementary"],
    "kgroups.elementary_order_via_characters": ["kgroups:elementary_order_via_characters"],
    "winv": ["winv:w_rational", "winv:w_quadratic", "winv:w_cyclic", "winv:w_elementary"],
    "cyclodirichlet.characters": [
        "cyclodirichlet:characters_of_order_dividing",
        "cyclodirichlet:primitive_orbits_of_order",
        "cyclodirichlet:quadratic_character",
        "cyclodirichlet:CharacterOrbit.of",
        "cyclodirichlet:character_group",
    ],
    "cyclodirichlet.gen_bernoulli": ["cyclodirichlet:gen_bernoulli"],
    "cyclodirichlet.orbit_l_product": ["cyclodirichlet:orbit_l_product"],
    "arith.bernoulli": ["arith:bernoulli"],
    "arith.factorize": ["arith:factorize"],
    "arith.is_prime": ["arith:is_prime"],
    "qseries.siegel_coeffs": ["qseries:siegel_coeffs"],
    "siegel.zeta_quadratic": ["siegel:zeta_quadratic"],
    "siegel.e_sum": ["siegel:e_sum"],
}

NOTES = {
    "arith.bernoulli": lambda args, result: args[0],
    "arith.factorize": lambda args, result: int(result.complete),
}

# Layers grouped the way the workloads' predictions are stated.
GROUPS = {
    "characters": ["cyclodirichlet.characters"],
    "L-values": ["cyclodirichlet.gen_bernoulli", "cyclodirichlet.orbit_l_product"],
    "bernoulli": ["arith.bernoulli"],
    "factorization": ["arith.factorize", "arith.is_prime"],
    "q-series": ["qseries.siegel_coeffs"],
    "zagier": ["siegel.zeta_quadratic", "siegel.e_sum"],
    "assembly": [
        "kgroups.k_even_order",
        "kgroups.combine_elementary",
        "kgroups.elementary_order_via_characters",
        "winv",
    ],
    "cli": ["cli.run"],
}

# workload -> (groups of which one should hold the largest self-time
# share, groups whose share should be about 0)
PREDICTIONS = {
    "tables": ({"characters", "factorization"}, set()),
    "bigcond": ({"characters"}, set()),
    "highk": ({"L-values", "bernoulli", "q-series"}, {"factorization"}),
    "factor": ({"factorization"}, set()),
}
ABOUT_ZERO = 0.01


class Tracer:
    """Records spans in memory; single-threaded by construction."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS function wherever an evenk module binds it."""
    importlib.import_module("evenk.cli")  # imports every layer module
    modules = [m for n, m in sys.modules.items() if n == "evenk" or n.startswith("evenk.")]
    for name, targets in LAYERS.items():
        for target in targets:
            module_name, attr = target.split(":")
            owner = importlib.import_module(f"evenk.{module_name}")
            if "." in attr:  # a classmethod
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(tracer.wrap(name, fn, NOTES.get(name))))
                continue
            fn = getattr(owner, attr)
            wrapped = tracer.wrap(name, fn, NOTES.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_totals(commands: list[list[list]]) -> dict[str, dict]:
    """Per span name over a pass: calls from outside the layer, self
    time in seconds, and the notes."""
    totals = {name: {"calls": 0, "self_s": 0.0, "notes": []} for name in LAYERS}
    for spans in commands:
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            entry = totals[name]
            entry["self_s"] += own / 1e9
            if span[4] is not None:
                entry["notes"].append(span[4])
            parent = span[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry["calls"] += 1
    return totals


def layer_metrics(totals: dict[str, dict], names: list[str]) -> dict[str, float]:
    """The metrics among `names` (`<layer>.<stat>`, as in BENCHMARK.json's
    per_layer) that come from spans; `calls` counts entries into a layer
    from outside it."""
    out: dict[str, float] = {}
    for metric in names:
        layer, _, stat = metric.rpartition(".")
        if layer not in totals:
            continue
        entry = totals[layer]
        if stat == "max_index":
            out[metric] = max(entry["notes"], default=0)
        elif stat == "complete_ratio":
            notes = entry["notes"]
            out[metric] = sum(notes) / len(notes) if notes else 1.0
        else:
            out[metric] = entry[stat]
    return out


def shares(commands: list[list[list]]) -> dict[str, float]:
    """Each GROUPS entry's self time as a share of the traced commands'
    time (the durations of their root spans)."""
    totals = layer_totals(commands)
    whole = sum(s[2] - s[1] for spans in commands for s in spans if s[3] < 0) / 1e9 or 1.0
    return {
        group: sum(totals[layer]["self_s"] for layer in layers) / whole
        for group, layers in GROUPS.items()
    }


def judge(workload: str, share: dict[str, float]) -> list[str]:
    """Lines that confirm or refute the workload's predictions."""
    largest, zero = PREDICTIONS[workload]
    top = max(share, key=share.get)
    verdict = "confirmed" if top in largest else "MISS"
    lines = [
        f"prediction {workload}: largest self-time share is {top} "
        f"({share[top]:.1%}), predicted one of {sorted(largest)}: {verdict}"
    ]
    for group in sorted(zero):
        verdict = "confirmed" if share[group] < ABOUT_ZERO else "MISS"
        lines.append(
            f"prediction {workload}: {group} share {share[group]:.2%}, "
            f"predicted below {ABOUT_ZERO:.0%}: {verdict}"
        )
    return lines


def main(argv: list[str]) -> int:
    spans_path, cmd_id, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("evenk.cli")
    try:
        return cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"cmd": cmd_id, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
