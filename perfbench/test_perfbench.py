"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE)]

import run  # noqa: E402

run.check_checkout()

import workloads as wl  # noqa: E402
from dpoisson import fixtures as fx  # noqa: E402
from dpoisson.core import FreeAlgebra, Generator, tensor2  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return done


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, kind):
    done = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(l.startswith(f"{name} ") and l.endswith(f" {unit}") for l in lines), name
    assert any(l.startswith("fail_frac 0 ratio") for l in lines)


def test_corrupted_expected_answer_is_a_failed_operation():
    expected = wl.load_expected()
    bad = copy.deepcopy(expected)
    entry = bad["bracket-suite"]["corpus:fail_antisym.dbr:BAD"]["entries"][0]
    entry["witness"] = "(x, x.x)"
    quiet = lambda line: None  # noqa: E731
    ok = run.measure("bracket-suite", 1, 0.1, 0, tiny=True, expected=expected, emit=quiet)
    got = run.measure("bracket-suite", 1, 0.1, 0, tiny=True, expected=bad, emit=quiet)
    assert ok["failed"] == 0 and ok["correct"]
    assert got["failed"] >= 1 and not got["correct"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    one = wl.inputs_digest(wl.generate(workload, 1))
    assert one == wl.inputs_digest(wl.generate(workload, 1))
    assert one != wl.inputs_digest(wl.generate(workload, 2))


def test_stored_answers_match_fixture_pins():
    expected = wl.load_expected()
    dj = next(e for e in expected["bracket-suite"]["corpus:fail_jacobi.dbr:BAD"]["entries"]
              if e["axiom"] == "double-jacobi")
    assert (dj["witness"], dj["residual"]) == ("(x, x, y)", "- x (*) x (*) y")
    tables = expected["dlr-calculus"]["koszul:f2.dbr:F2"]["tables"]
    assert tables == wl.tables_answer(fx.koszul_f2_tables())


@pytest.mark.parametrize("c", ["2", "-1", "1/2", "-3/2"])
def test_scaled_rendering_matches_the_program(c):
    alg = FreeAlgebra((Generator("x"), Generator("y")))
    t = tensor2(alg, ("x", "1"), ("1", "x", -1), ("x.y", "y", 3), ("1", "1", Fraction(2, 3)))
    assert wl.scale_rendered(t.render(), Fraction(c)) == t.scale(Fraction(c)).render()


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bracket-suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout
