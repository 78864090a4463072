"""Golden corpus: the CLI's reproducible output on every fixture and the
output of both corpus scripts, compared byte for byte with files under
tests/golden/.

Re-record (only when an output change is intended) with
    PYTHONPATH=src python tests/test_corpus_golden.py
"""

import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from dpoisson.cli import main

from conftest import FIXDIR

ROOT = FIXDIR.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FIXTURES = sorted(p.name for p in FIXDIR.glob("*.dbr"))
SCRIPTS = ["run_fixture_checks.py", "shift_survey.py"]


def check_argv(name: str) -> list:
    return ["check", str(FIXDIR / name), "--no-time", "--format", "json"]


def check_output(capsys, name: str):
    code = main(check_argv(name))
    return code, capsys.readouterr().out


def script_output(name: str):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def test_golden_covers_the_corpus():
    assert set(exit_codes()) == {f"check {n}" for n in FIXTURES} | set(SCRIPTS)


@pytest.mark.parametrize("name", FIXTURES)
def test_check_json_matches_golden(capsys, name):
    code, out = check_output(capsys, name)
    assert out == (GOLDEN / f"check_{name}.json").read_text()
    assert code == exit_codes()[f"check {name}"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_matches_golden(name):
    code, out = script_output(name)
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert code == exit_codes()[name]


def record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in FIXTURES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            codes[f"check {name}"] = main(check_argv(name))
        (GOLDEN / f"check_{name}.json").write_text(buf.getvalue())
    for name in SCRIPTS:
        codes[name], out = script_output(name)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
