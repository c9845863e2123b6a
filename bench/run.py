"""evenk benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it inside a checkout of the repository; the program runs from its
sources (`python -m evenk.cli` with PYTHONPATH=src).

Each workload is a list of CLI commands (see workloads.py).  A pass
runs the list once, as a closed loop with one client: every command is
a fresh process that starts when the previous one has exited.  Passes
repeat until --seconds is used up, and the metrics are medians over
passes.  Every output is checked (check.py) outside the timed region.

The workloads' "why" lines and the metric names and units come from
BENCHMARK.json at the root of the checkout.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       wall time of one pass (the sum of its commands' wall times)
  cpu_s        user+sys CPU time of the pass's child processes
  cmd_p50_s    median wall time of one command
  setup_s      fresh-process start-up: `kgroup --field q --k 1`, measured
               after one warm-up call so bytecode compilation is excluded
  peak_rss_mb  largest max-RSS of any command of a pass
--trace 1 alternates untraced and traced passes (tracing.py) and
reports the per-layer metrics, the tracing overhead and each layer's
share of the traced time.  On tables, bigcond and factor a 25-s run
holds one traced pass only, so there the per-layer figures and
trace.overhead_frac come from that one pass and carry its pass-to-pass
noise.

Times are reported in reference seconds.  The CPU speed of a shared
virtual machine can drift by tens of percent within minutes, and the drift hits
the program and any fixed Python loop alike.  So before each command
the harness times a fixed loop (calibration_s), and every time is
scaled by PROBE_REF_S / (median loop time over its pass).  The harness
and its children share one CPU, so the loop measures the CPU the
commands run on.  Raw pass times and probe medians are printed too.

Both modes also print failed_frac (failed / attempted commands) and
factor_incomplete (printed factorizations that end in ·C).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing
from check import Checker
from workloads import GENERATORS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = BENCH / ".work"  # command outputs and spans, removed after reading

SETUP_ARGV = ("kgroup", "--field", "q", "--k", "1")
SETUP_REPEATS = 15
COMMAND_TIMEOUT_S = 60.0
# calibration_s() on an unloaded 2-CPU x86 virtual machine (Python 3.11)
PROBE_REF_S = 0.02


@dataclass
class Result:
    argv: tuple
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    """One run of a command list, with the speed probe's median over it."""

    results: list[Result]
    spans: list[list]  # per command, traced passes only
    probe_s: float

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def scale(self) -> float:
        """Factor from raw to reference seconds."""
        return PROBE_REF_S / self.probe_s


def calibration_s() -> float:
    """Time of a fixed CPU-bound loop (dict, Fraction and big-integer
    work, like the program's): a probe of the machine's current speed."""
    start = time.perf_counter()
    table = {}
    for i in range(12000):
        table[i % 1009] = i * 7 % 1013
    x = Fraction(1)
    for i in range(1, 80):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    b, m = 3**2000, 7**1500
    for i in range(400):
        b = (b * b + i) % m
    return time.perf_counter() - start


class Harness:
    """Runs commands one at a time through a launcher process
    (launcher.py, which says why); use it as a context manager, so that
    the launcher is stopped at the end."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        WORK_DIR.mkdir(exist_ok=True)
        self.out = WORK_DIR / f"{os.getpid()}.out"
        self.err = WORK_DIR / f"{os.getpid()}.err"
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.checker = Checker(ROOT / "tests" / "data", self.cli_output)
        self.spans_made = 0

    def __enter__(self) -> "Harness":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()  # the launcher exits at the end of its input
        self.launcher.wait()
        self.launcher.stdout.close()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another harness still uses it

    def spawn(self, cmd: list[str], argv: tuple) -> Result:
        request = {"cmd": cmd, "out": str(self.out), "err": str(self.err),
                   "timeout": COMMAND_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        answer = json.loads(self.launcher.stdout.readline())
        out, err = (p.read_text(encoding="utf-8", errors="replace") for p in (self.out, self.err))
        return Result(argv, answer["rc"], out, err, answer["wall_s"], answer["cpu_s"],
                      answer["rss_mb"])

    def cli(self, argv: tuple) -> Result:
        return self.spawn([sys.executable, "-m", "evenk.cli", *argv], argv)

    def cli_output(self, argv: tuple) -> tuple[int, str]:
        result = self.cli(argv)
        return result.rc, result.stdout

    def traced(self, argv: tuple) -> tuple[Result, list]:
        self.spans_made += 1
        path = WORK_DIR / f"{os.getpid()}-{self.spans_made}.json"
        result = self.spawn(
            [sys.executable, str(BENCH / "tracing.py"), str(path), str(self.spans_made), *argv],
            argv,
        )
        try:
            spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
            path.unlink()
        except (OSError, ValueError, KeyError):
            spans = []  # the command failed before writing; its check fails too
        return result, spans

    def run_pass(self, commands, traced: bool = False) -> Pass:
        results, spans, probes = [], [], []
        for argv in commands:
            probes.append(calibration_s())
            if traced:
                result, cmd_spans = self.traced(argv)
                spans.append(cmd_spans)
            else:
                result = self.cli(argv)
            results.append(result)
        return Pass(results, spans, statistics.median(probes))


def check(harness: Harness, passes: list[list[Result]]):
    """(attempted, failed, problem lines, named deviations, ·C count of
    the first pass)."""
    attempted, failed, problems, deviations, incomplete = 0, 0, [], {}, []
    for results in passes:
        verdicts = harness.checker.check_pass([(r.argv, r.rc, r.stdout) for r in results])
        attempted += len(results)
        incomplete.append(sum(v.incomplete for v in verdicts))
        for r, v in zip(results, verdicts):
            deviations.update(v.deviations)
            if v.problems:
                failed += 1
                stderr = f" [stderr: {r.stderr.strip()[-200:]}]" if r.stderr.strip() else ""
                problems.append(f"{' '.join(r.argv)}: {'; '.join(v.problems)}{stderr}")
    return attempted, failed, problems, deviations, incomplete[0]


def load_spec() -> dict:
    """BENCHMARK.json: the workloads' "why" lines, the metrics' names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(harness: Harness, spec: dict, name: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """Run workload `name` for about `seconds` and check every output.

    Returns the result (the JSON line's keys) and notes for the record:
    the named reference deviations and, traced, each layer group's share
    of the traced time and the prediction verdicts."""
    workload = generate(name, seed)
    print(f"== {name} (seed {seed}): {len(workload.commands)} commands per pass; "
          f"{next(w['why'] for w in spec['workloads'] if w['name'] == name)}")
    setup = None
    if not trace:
        harness.cli(SETUP_ARGV)  # warm-up: compiles bytecode
        setup = harness.run_pass([SETUP_ARGV] * SETUP_REPEATS)
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        walls = [p.wall_s for p in plain + traced]
        out_of_time = time.perf_counter() - start + max(walls, default=0.0) > seconds
        if walls and out_of_time and (traced or not trace):
            break
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(harness.run_pass(workload.commands, use_trace))

    attempted, failed, problems, deviations, incomplete = check(
        harness, [p.results for p in plain + traced + ([setup] if setup else [])])
    for label, passes in (("untraced", plain), ("traced", traced)):
        if passes:
            print(f"{label} passes: raw wall s {[round(p.wall_s, 3) for p in passes]}, "
                  f"speed probe ms {[round(p.probe_s * 1e3, 2) for p in passes]}")

    notes: dict = {"reference_deviations": dict(sorted(deviations.items()))}
    if trace:
        metrics = spec["per_layer"]
        names = [m["name"] for m in metrics]
        per_pass = [
            {m: v * p.scale if m.endswith("_s") else v
             for m, v in tracing.layer_metrics(tracing.layer_totals(p.spans), names).items()}
            for p in traced
        ]
        values = {m: statistics.median(d[m] for d in per_pass) for m in per_pass[0]}
        values["trace.overhead_frac"] = (
            statistics.median(p.wall_s * p.scale for p in traced)
            / statistics.median(p.wall_s * p.scale for p in plain) - 1)
        values["factor_incomplete"] = incomplete
        share = tracing.shares([s for p in traced for s in p.spans])
        notes["shares"] = share
        notes["predictions"] = tracing.judge(name, share)
        print(f"per-layer figures from {len(traced)} traced pass(es), "
              f"overhead against {len(plain)} untraced; share of traced time:")
        for group, value in sorted(share.items(), key=lambda kv: -kv[1]):
            print(f"  {group:<14} {value:7.2%}")
        for line in notes["predictions"]:
            print(line)
    else:
        metrics = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(p.wall_s * p.scale for p in plain),
            "cpu_s": statistics.median(p.cpu_s * p.scale for p in plain),
            "cmd_p50_s": statistics.median(r.wall_s * p.scale for p in plain for r in p.results),
            "setup_s": statistics.median(r.wall_s * setup.scale for r in setup.results),
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in p.results) for p in plain),
        }
    out = {m["name"]: (values[m["name"]], m["unit"]) for m in metrics}
    report = {"failed_frac": (failed / attempted, "ratio"),
              "factor_incomplete": (incomplete, "count")}
    for metric, (value, unit) in {**report, **out}.items():
        print(f"  {metric:<48} {value:>14.6g} {unit}")
    for deviation, note in notes["reference_deviations"].items():
        print(f"reference deviation {deviation}: {note}")
    for problem in problems:
        print(f"FAILED {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in out.items()},
    }
    return result, notes


def pin_to_one_cpu() -> None:
    """Run the harness and its children on one CPU (see the module doc)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/evenk/cli.py", "tests/data/cubic_orders.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of evenk, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    spec = load_spec()
    with Harness() as harness:
        results = {n: measure(harness, spec, n, args.seed, args.seconds, bool(args.trace))[0]
                   for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
