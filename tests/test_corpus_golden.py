"""Golden corpus: the CLI's reproducible output on every fixture, its word
commands on every corpus bracket and the output of both corpus scripts,
compared byte for byte with files under tests/golden/.

Re-record (only when an output change is intended) with
    PYTHONPATH=src python tests/test_corpus_golden.py
"""

import contextlib
import io
import itertools
import json
import pathlib
import subprocess
import sys

import pytest

from dpoisson.cli import main
from dpoisson.textio import DocumentError, parse_document

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


def word_requests() -> list:
    """argv of the word commands on every bracket block of the corpus: eval,
    leibniz and necklace on every pair of nonempty words of length at most 2,
    jacobiator on every generator triple."""
    requests = []
    for name in FIXTURES:
        try:
            doc = parse_document((FIXDIR / name).read_text())
        except DocumentError:
            continue
        for bracket, spec in doc.brackets.items():
            alg = spec.algebra
            words = [alg.render_word(w) for w in alg.words_up_to(2) if w]
            head = [name, "--bracket", bracket]
            for command in ("eval", "leibniz", "necklace"):
                requests += [[command, *head, *ws] for ws in itertools.product(words, repeat=2)]
            requests += [["jacobiator", *head, *ws]
                         for ws in itertools.product([g.name for g in alg.gens], repeat=3)]
    return requests


def word_command_lines() -> str:
    """One line per word request: the request, its exit code and stdout."""
    lines = []
    for argv in word_requests():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], str(FIXDIR / argv[1]), *argv[2:]])
        lines.append(f"{' '.join(argv)} | {code} | {out.getvalue().rstrip()}\n")
    return "".join(lines)


def exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def test_golden_covers_the_corpus():
    assert set(exit_codes()) == {f"check {n}" for n in FIXTURES} | set(SCRIPTS)


@pytest.mark.parametrize("name", FIXTURES)
def test_check_json_matches_golden(capsys, name):
    code, out = check_output(capsys, name)
    assert out == (GOLDEN / f"check_{name}.json").read_text()
    assert code == exit_codes()[f"check {name}"]


def test_word_commands_match_golden():
    assert word_command_lines() == (GOLDEN / "word_commands.txt").read_text()


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
    (GOLDEN / "word_commands.txt").write_text(word_command_lines())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
