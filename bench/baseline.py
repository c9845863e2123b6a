"""Record the benchmark's figures for the current tree in bench/baseline.json.

    python3 bench/baseline.py

Measures every workload at seed 0, once untraced and once traced, with
the run length of BENCHMARK.json, and keeps each run's result together
with its named reference deviations and, traced, the self-time shares
and prediction verdicts.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import run

SEED = 0


def main() -> int:
    run.pin_to_one_cpu()
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    out = {
        "seed": SEED,
        "run_seconds": seconds,
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}",
        "workloads": {},
    }
    with run.Harness() as harness:
        for workload in (w["name"] for w in spec["workloads"]):
            entry = out["workloads"][workload] = {}
            entry["untraced"], notes = run.measure(harness, spec, workload, SEED, seconds, False)
            entry["reference_deviations"] = notes["reference_deviations"]
            entry["traced"], notes = run.measure(harness, spec, workload, SEED, seconds, True)
            entry["shares"] = notes["shares"]
            entry["predictions"] = notes["predictions"]
    (run.BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
