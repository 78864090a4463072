#!/usr/bin/env python3
"""Record the benchmark's expected answers from the current program.

Run from the root of a checkout, on the commit whose answers are the
reference (the answers in expected.json come from the seed commit):

    python3 perfbench/record.py

It runs every job whose answer is stored (corpus inputs and the whole
point-queries request pool), writes perfbench/expected.json, and then
cross-checks the result: against the answers the fixtures pin, and by
running the seeded families, whose answers are derived from the stored
ones, on a few seeds.  It exits 1 if any cross-check fails.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import check_checkout  # noqa: E402

check_checkout()

import workloads as wl  # noqa: E402
from dpoisson import fixtures as fx  # noqa: E402
from dpoisson.calculus import sn_bracket  # noqa: E402
from dpoisson.core import FreeAlgebra, Generator, ShiftContext  # noqa: E402


def record() -> dict:
    expected = {}
    for workload in ("bracket-suite", "dlr-calculus"):
        jobs = wl.build_pass(workload, wl.generate(workload, 1), None)
        expected[workload] = {job.name: job.answer(job.run()) for job in jobs}
    wl.write_generated_docs()
    pq = {}
    for stratum in wl.request_pool():
        for argv in stratum:
            job = wl.request_job(argv, None)
            if job.name not in pq:
                if job.before is not None:
                    job.before()
                pq[job.name] = job.answer(job.run())
    expected["point-queries"] = pq
    return expected


def cross_check(expected: dict) -> list:
    """Problems found; empty when the stored answers are consistent."""
    problems = []

    def want(ok: bool, what: str):
        if not ok:
            problems.append(what)

    bs, dc = expected["bracket-suite"], expected["dlr-calculus"]
    # fixtures.jacobi_violator: fails double Jacobi first at (x, x, y)
    dj = next(e for e in bs["corpus:fail_jacobi.dbr:BAD"]["entries"]
              if e["axiom"] == "double-jacobi")
    want(dj.get("witness") == "(x, x, y)" and dj.get("residual") == "- x (*) x (*) y",
         f"fail_jacobi double-jacobi answer {dj} differs from the fixture pin")
    # koszul_bracket(f2) must equal the hand-written koszul_f2_tables
    want(dc["koszul:f2.dbr:F2"]["tables"] == wl.tables_answer(fx.koszul_f2_tables()),
         "koszul(f2) differs from koszul_f2_tables")
    want(bs["corpus:f1.dbr:B"]["result"] == "pass", "f1 must pass its suite")
    for part in ("dlr", "square"):
        want(dc["koszul:f1.dbr:B"][part]["result"] == "pass", f"koszul(f1) {part} must pass")
    # c06: both routes agree on the linearised fixtures
    for fname, dname in wl.LINEARISED:
        lin = {e["axiom"]: e["verdict"] for e in bs[f"linear:{fname}:{dname}"]["entries"]}
        own = dc[f"dlr:{fname}:{dname}"]["result"]
        generic = "pass" if lin["antisymmetry"] == lin["double-jacobi"] == "pass" else "fail"
        want(own == generic, f"dual routes disagree on {fname}")
    # seeded families against their derived answers, on a few seeds
    for workload in ("bracket-suite", "dlr-calculus"):
        for seed in (1, 2, 3):
            for job in wl.build_pass(workload, wl.generate(workload, seed), expected):
                if job.name not in expected[workload]:
                    got = job.answer(job.run())
                    want(got == job.expected, f"{workload} seed {seed} {job.name}: {got}")
    # the sn rule for every degree vector on up to 3 generators
    for n in (1, 2, 3):
        for degs in itertools.product((0, 1), repeat=n):
            for r in (-2, -1, 0, 1):
                alg = FreeAlgebra(tuple(Generator(g, d) for g, d in zip(wl.SN_NAMES, degs)))
                got = wl.sn_answer(sn_bracket(alg, ShiftContext(r)))
                want(got == wl.sn_expected(list(degs), r), f"sn rule fails on {degs} r={r}")
    return problems


def main() -> int:
    expected = record()
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    problems = cross_check(expected)
    for p in problems:
        print(f"CROSS-CHECK FAILED {p}")
    n = sum(len(v) for v in expected.values())
    print(f"recorded {n} answers to {wl.EXPECTED_PATH}; {len(problems)} cross-check problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
