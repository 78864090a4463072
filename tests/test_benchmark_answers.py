"""Every batch job of the benchmark answers as perfbench/expected.json
records.

The benchmark rejects a run whose answers changed, but its own tests only
run the cheap jobs.  These tests run one full pass of the bracket-suite and
dlr-calculus workloads, which reach the linearised, sn, family and wide
bracket jobs and every dlr-calculus job.  The workload module is loaded by
file path and run from the repository root, where its fixture paths
resolve.
"""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"

_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # dataclass looks its module up there
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", ["bracket-suite", "dlr-calculus"])
def test_every_job_answers_as_recorded(monkeypatch, workload):
    monkeypatch.chdir(ROOT)
    jobs = workloads.build_pass(workload, workloads.generate(workload, 1),
                                workloads.load_expected())
    wrong = []
    for job in jobs:
        if job.before is not None:
            job.before()
        if job.answer(job.run()) != job.expected:
            wrong.append(job.name)
    assert jobs
    assert wrong == []
