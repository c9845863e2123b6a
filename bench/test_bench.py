"""Tests of the benchmark itself: python -m pytest bench -q"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from check import Checker

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

CUBIC_7 = (
    "field       k  index  order  factorization  method      zeta\n"
    "cyclic:3:7  1  2      8      2^3            characters  -1/21\n"
)
CUBIC_19 = (
    "field        k   index  order  factorization  method      zeta\n"
    "cyclic:3:19  10  38     2272250096402586405260999153465877447761707613028290787831  "
    "3·13·283·617·42449294191·7860486938013115581937135731442952369029·C  characters  "
    "757416698800862135086999717821959149253902537676096929277/550\n"
)
QUAD_5 = (
    "field   k  index  order  factorization  method  zeta\n"
    "quad:5  2  6      1      1              {method}  1/60\n"
)
ZETA = ("zeta_cyclic:11:23(1-2*3) = "
        "-3618692805791287924081254713751795948413147240878336/1449\n")
SIEGEL = ("b_1(40) = -602849/39067875\nb_2(40) = -197/1578500\n"
          "b_3(40) = -1/7441500\nb_4(40) = 1/1250172000\n")


def cli(argv):
    proc = subprocess.run([sys.executable, "-m", "evenk.cli", *argv], cwd=ROOT,
                          env=ENV, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def checker():
    return Checker(ROOT / "tests" / "data", cli)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(name):
    for seed in (0, 1, 17):
        assert workloads.generate(name, seed) == workloads.generate(name, seed)
    if name != "tables":  # tables has four seed classes only
        draws = {workloads.generate(name, seed).commands for seed in range(5)}
        assert len(draws) == 5


def test_checker_accepts_true_outputs(checker):
    kgroup = ("kgroup", "--field", "cyclic:3:7", "--k", "1")
    assert checker.check_command(kgroup, 0, CUBIC_7).problems == []
    verdict = checker.check_command(("kgroup", "--field", "cyclic:3:19", "--k", "10"), 0, CUBIC_19)
    assert verdict.problems == [] and verdict.incomplete == 1
    assert checker.check_command(("zeta", "--field", "cyclic:11:23", "--k", "3"), 0, ZETA).problems == []
    assert checker.check_command(("siegel-coeffs", "--h", "40"), 0, SIEGEL).problems == []


def test_checker_rejects_tampered_order(checker):
    # order and factorization changed together, so only the value is wrong
    tampered = CUBIC_7.replace("8      2^3", "16     2^4")
    assert checker.check_command(("kgroup", "--field", "cyclic:3:7", "--k", "1"), 0, tampered).problems


def test_checker_rejects_tampered_factorization(checker):
    argv = ("kgroup", "--field", "cyclic:3:7", "--k", "1")
    for bad in ("2·4  ", "2^2·2", "8    "):
        assert checker.check_command(argv, 0, CUBIC_7.replace("2^3  ", bad)).problems
    # a prime cofactor must not be marked composite
    argv19 = ("kgroup", "--field", "cyclic:3:19", "--k", "10")
    assert checker.check_command(argv19, 0, CUBIC_19.replace("·42449294191·", "·")
                                 .replace("·C", "·42449294191·C")).problems


def test_checker_rejects_wrong_exit_code(checker):
    argv = ("kgroup", "--field", "cyclic:3:7", "--k", "1")
    assert checker.check_command(argv, 2, CUBIC_7).problems
    assert checker.check_command(argv, 0, CUBIC_7, expected_rc=1).problems


def test_checker_rejects_wrong_zeta_and_weights(checker):
    argv = ("zeta", "--field", "cyclic:11:23", "--k", "3")
    assert checker.check_command(argv, 0, ZETA.replace("/1449", "/1448")).problems
    assert checker.check_command(("siegel-coeffs", "--h", "40"), 0,
                                 SIEGEL.replace("-197/", "-196/")).problems


def test_checker_rejects_disagreeing_routes(checker):
    zagier = (("kgroup", "--field", "quad:5", "--k", "2", "--method", "zagier"),
              0, QUAD_5.format(method="zagier"))
    chars = (("kgroup", "--field", "quad:5", "--k", "2", "--method", "characters"),
             0, QUAD_5.format(method="characters"))
    assert [v.problems for v in checker.check_pass([zagier, chars])] == [[], []]
    # the same wrong value on one route only: zeta must agree across routes
    bad = (chars[0], 0, chars[2].replace("1/60", "1/30").replace("1      1  ", "2      2  "))
    assert all(v.problems for v in checker.check_pass([zagier, bad]))


def test_criterion_3_rows_are_named_deviations(checker):
    argv = ("multiquad-table", "--m", "5", "--max-k", "10", "--factor-budget", "10000")
    verdict = checker.check_command(argv, *cli(argv))
    assert verdict.problems == []
    assert sorted(verdict.deviations) == [
        "Q(sqrt2,sqrt3,sqrt5) K_22", "Q(sqrt2,sqrt3,sqrt5) K_26", "Q(sqrt2,sqrt3,sqrt5) K_38",
    ]


def test_self_time_on_synthetic_tree():
    # root [0, 100] > a [10, 40] > a [20, 30] (recursion); root > b [50, 70];
    # two overlapping children of b count once: [55, 62] and [60, 65]
    spans = [
        ["cli.run", 0, 100, -1, None],
        ["arith.factorize", 10, 40, 0, 1],
        ["arith.factorize", 20, 30, 1, 0],
        ["winv", 50, 70, 0, None],
        ["arith.is_prime", 55, 62, 3, None],
        ["arith.is_prime", 60, 65, 3, None],
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 10, 7, 5]
    totals = tracing.layer_totals([spans])
    assert totals["arith.factorize"]["calls"] == 1  # the recursive call is internal
    assert totals["arith.is_prime"]["calls"] == 2
    metrics = tracing.layer_metrics(totals, [
        "arith.factorize.self_s", "arith.factorize.complete_ratio", "cli.run.self_s"])
    assert metrics["arith.factorize.self_s"] == pytest.approx(30e-9)
    assert metrics["arith.factorize.complete_ratio"] == 0.5
    assert metrics["cli.run.self_s"] == pytest.approx(50e-9)
    share = tracing.shares([spans])
    assert share["factorization"] == pytest.approx(0.42)
    assert share["cli"] == pytest.approx(0.5)


def test_traced_child_wraps_every_namespace(tmp_path):
    argv = ["kgroup", "--field", "quad:5", "--k", "2", "--method", "zagier"]
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans_path), "7", *argv],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert (traced.returncode, traced.stdout) == cli(argv)
    record = json.loads(spans_path.read_text())
    names = {span[0] for span in record["spans"]}
    assert record["cmd"] == "7"
    assert record["spans"][0][0] == "cli.run" and record["spans"][0][3] == -1
    # k_even_order and e_sum are reached through names imported into cli
    # and siegel; factorize through kgroups
    assert {"kgroups.k_even_order", "siegel.zeta_quadratic", "siegel.e_sum",
            "qseries.siegel_coeffs", "arith.bernoulli", "arith.factorize", "winv"} <= names


def test_peak_rss_is_the_commands_own():
    # the harness grows past a bare interpreter; a command it starts must
    # not report the harness's peak RSS as its own
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    with run.Harness() as harness:
        result = harness.spawn([sys.executable, "-c", "pass"], ("-c", "pass"))
    assert result.rc == 0 and result.cpu_s > 0
    assert result.rss_mb < 40 < len(ballast) >> 20
