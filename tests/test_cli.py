"""Command line driver: exit codes, rendered output, document emission."""

import contextlib
import io
import json
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dpoisson import cli
from dpoisson.cli import main
from dpoisson.textio import DocumentError, format_document, parse_document

from conftest import FIXDIR

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
COMMANDS = ["check", "eval", "jacobiator", "leibniz", "necklace", "koszul", "sn", "shift",
            "verify-shift"]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- check ----------------------------------------------------------------


def test_check_pass_exits_zero(capsys):
    code, out, err = run(capsys, "check", FIXDIR / "f1.dbr")
    assert code == 0
    assert "check bracket B (max-len 3)" in out
    assert "result: PASS" in out
    assert err == ""


def test_check_fail_exits_one(capsys):
    code, out, _ = run(capsys, "check", FIXDIR / "fail_antisym.dbr")
    assert code == 1
    assert "antisymmetry: FAIL at (x, x)  residual: 2 * x (*) x" in out


def test_check_malformed_exits_two(capsys):
    code, out, err = run(capsys, "check", FIXDIR / "malformed.dbr")
    assert code == 2
    assert err.startswith("error: line 4")


def test_check_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", FIXDIR / "no_such.dbr")
    assert code == 2
    assert "cannot read" in err


def test_check_dlr_document(capsys):
    code, out, _ = run(capsys, "check", FIXDIR / "koszul_f2.dbr")
    assert code == 0
    assert "check dlr K (max-len 3)" in out
    for cond in ["a-antisymmetry", "anchor-properties", "b-derivation-compat",
                 "c-anchor-jacobi", "d-double-jacobi"]:
        assert f"{cond}: PASS" in out


def test_check_broken_dlr_signatures(capsys):
    code, out, _ = run(capsys, "check", FIXDIR / "flipped_anchor.dbr")
    assert code == 1
    assert "c-anchor-jacobi: FAIL at (x, dx, dx)" in out
    code, out, _ = run(capsys, "check", FIXDIR / "dropped_term.dbr")
    assert code == 1
    assert "a-antisymmetry: FAIL at (dx, dx)" in out


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", FIXDIR / "zero.dbr", "--format", "json", "--no-time")
    assert code == 0
    body = json.loads(out)
    assert body["result"] == "pass"
    assert body["max_len"] == 3
    assert body["reports"][0]["subject"] == "dlr ZERO"
    assert all("wall_time" not in r for r in body["reports"])


def test_check_max_len_flag(capsys):
    code, out, _ = run(capsys, "check", FIXDIR / "f1.dbr", "--max-len", "1")
    assert code == 0
    assert "(max-len 1)" in out


def test_check_zero_denominator_exits_two(capsys, tmp_path):
    p = tmp_path / "zero_den.dbr"
    p.write_text("algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\n"
                 "bracket B on A {\n  [x, y] = 1/0 * 1 (*) 1\n}\n")
    code, out, err = run(capsys, "check", p)
    assert code == 2
    assert out == ""
    assert err == "error: line 6, col 12: zero denominator in '1/0'\n"


@pytest.mark.parametrize("n", ["-3", "0"])
def test_check_rejects_max_len_below_one(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(FIXDIR / "f1.dbr"), "--max-len", n])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"argument --max-len: must be at least 1, got {n}" in cap.err
    assert "Traceback" not in cap.err


def test_check_empty_document(capsys, tmp_path):
    p = tmp_path / "only.dbr"
    p.write_text("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\n")
    code, out, _ = run(capsys, "check", p)
    assert code == 0
    assert "nothing to check" in out


def test_check_non_utf8_file_exits_two(capsys, tmp_path):
    p = tmp_path / "bytes.dbr"
    p.write_bytes(b"\xff\xfe algebra A {\n}\n")
    code, out, err = run(capsys, "check", p)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {p}: not UTF-8 (invalid start byte at byte 0)\n"


# past the interpreter's default limit of 4300 digits for int <-> str
BIG = "1" + "0" * 4999
DLR_DOC = (
    "algebra A {{\n  shift = {r}\n  gens = [ x:0 ]\n}}\n\n"
    "bimodule M over A {{\n  gens = [ m:{d} ]\n}}\n\n"
    "dlr D {{\n  module = M\n  anchor {{\n{anchor}  }}\n  bracket {{\n  }}\n}}\n"
)


@pytest.mark.parametrize("text", [
    DLR_DOC.format(r=BIG, d=0, anchor=""),
    DLR_DOC.format(r=0, d=BIG, anchor=""),
    DLR_DOC.format(r=0, d=0, anchor=f"    [m, x] = {BIG} * x (*) 1\n"),
], ids=["shift", "degree", "coefficient"])
def test_big_integers_round_trip(capsys, tmp_path, text):
    src, out_path = tmp_path / "big.dbr", tmp_path / "out.dbr"
    src.write_text(text)
    code, out, err = run(capsys, "shift", src, "--dlr", "D", "--delta", "0", "-o", out_path)
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text() == text


def test_big_coefficients_render_exactly(capsys, tmp_path):
    p = tmp_path / "big.dbr"
    p.write_text("algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\n"
                 f"bracket B on A {{\n  [x, y] = {'9' * 3000} * x (*) y\n}}\n")
    square = "9" * 2999 + "8" + "0" * 2999 + "1"  # (10**3000 - 1)**2
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "check", p, "--max-len", "1", "--no-time")
    assert (code, err) == (1, "")
    assert f"double-jacobi: FAIL at (x, x, y)  residual: - {square} * x (*) x (*) y\n" in out
    assert f"left-leibniz: FAIL at (x, y, x)  residual: - {square} * x.y.x + {square} * y.x.x\n" in out
    code, out, err = run(capsys, "jacobiator", p, "--bracket", "B", "x", "x", "y")
    assert (code, out, err) == (0, f"- {square} * x (*) x (*) y\n", "")
    # the process-wide limit is lifted for the run only
    assert sys.get_int_max_str_digits() == limit


# -- fuzz: any file ends in exit 0, 1 or 2, never a traceback --------------


CORPUS = [p.read_text() for p in sorted(FIXDIR.glob("*.dbr"))]
TOKENS = ["algebra", "bimodule", "bracket", "dlr", "A", "M", "B", "x", "y", "m", "dx", "over",
          "on", "module", "anchor", "shift", "gens", "=", "{", "}", "[", "]", ",", ":", ".",
          "+", "-", "*", "(*)", "1", "0", "2", "-1", "1/2", "1/0", "x.y", "\n", "#", "@"]


@st.composite
def mutated_documents(draw):
    """A corpus document with a few slices deleted, tokens inserted or
    slices copied."""
    text = draw(st.sampled_from(CORPUS))
    for _ in range(draw(st.integers(1, 4))):
        i, j = sorted(draw(st.tuples(st.integers(0, len(text)), st.integers(0, len(text)))))
        edit = draw(st.sampled_from(["delete", "insert", "copy"]))
        if edit == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 8)):]
        elif edit == "insert":
            text = text[:i] + f" {draw(st.sampled_from(TOKENS))} " + text[i:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text.encode()


token_soup = st.lists(st.sampled_from(TOKENS), max_size=40).map(lambda ts: " ".join(ts).encode())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(mutated_documents(), token_soup, st.binary(max_size=40)))
def test_check_contract_on_any_file(tmp_path, data):
    p = tmp_path / "fuzz.dbr"
    p.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(p), "--max-len", "1"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""


# -- evaluation commands --------------------------------------------------


def test_eval_pinned_example(capsys):
    code, out, _ = run(capsys, "eval", FIXDIR / "f1.dbr", "--bracket", "B", "x", "y.x")
    assert code == 0
    assert out.strip() == "1 (*) x"


def test_eval_unknown_bracket(capsys):
    code, _, err = run(capsys, "eval", FIXDIR / "f1.dbr", "--bracket", "NOPE", "x", "y")
    assert code == 2
    assert "no bracket named 'NOPE'" in err


def test_eval_malformed_word(capsys):
    code, _, err = run(capsys, "eval", FIXDIR / "f1.dbr", "--bracket", "B", "x..y", "y")
    assert code == 2
    assert "malformed word 'x..y'" in err


def test_jacobiator_zero_and_nonzero(capsys):
    code, out, _ = run(capsys, "jacobiator", FIXDIR / "f2.dbr", "--bracket", "F2",
                       "x", "x", "x")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "jacobiator", FIXDIR / "fail_jacobi.dbr", "--bracket", "BAD",
                       "x", "x", "y")
    assert code == 0
    assert out.strip() == "- x (*) x (*) y"


def test_jacobiator_unknown_generator(capsys):
    code, _, err = run(capsys, "jacobiator", FIXDIR / "f2.dbr", "--bracket", "F2",
                       "x", "z", "x")
    assert code == 2
    assert "unknown generator 'z'" in err


def test_leibniz_output(capsys):
    code, out, _ = run(capsys, "leibniz", FIXDIR / "f1.dbr", "--bracket", "B", "x", "x.y")
    assert code == 0
    assert out.strip() == "x"


def test_necklace_output(capsys):
    code, out, _ = run(capsys, "necklace", FIXDIR / "f1.dbr", "--bracket", "B", "x", "y")
    assert code == 0
    assert out.strip() == "[1]"


@pytest.mark.parametrize("command", ["eval", "leibniz", "necklace"])
def test_long_word_has_no_depth_limit(capsys, command):
    # {{x, x}} = 0 in f1, so every bracket of x with a power of x vanishes;
    # 3000 letters is past the default recursion limit of 1000
    word = ".".join("x" * 3000)
    code, out, err = run(capsys, command, FIXDIR / "f1.dbr", "--bracket", "B", "x", word)
    assert (code, out, err) == (0, "0\n", "")


# -- constructions --------------------------------------------------------


def test_koszul_output_reparses_and_passes(capsys, tmp_path):
    out_path = tmp_path / "k.dbr"
    code, _, _ = run(capsys, "koszul", FIXDIR / "f2.dbr", "--bracket", "F2",
                     "-o", out_path)
    assert code == 0
    text = out_path.read_text()
    doc = parse_document(text)
    assert format_document(doc) == text
    assert "koszul_F2" in doc.dlrs
    code, out, _ = run(capsys, "check", out_path)
    assert code == 0


def test_koszul_guard_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "koszul", FIXDIR / "fail_jacobi.dbr", "--bracket", "BAD",
                       "-o", tmp_path / "x.dbr")
    assert code == 1
    assert "input is not double Poisson" in err


@pytest.mark.parametrize("command, gen", [("koszul", "dx"), ("sn", "Dx")])
def test_generator_name_collision_exits_one(capsys, tmp_path, command, gen):
    # the form / derivation generator of x would be named like a given one
    doc = tmp_path / "clash.dbr"
    doc.write_text(
        f"algebra A {{\n  shift = 0\n  gens = [ x:0, {gen}:0 ]\n}}\n\n"
        f"bracket B on A {{\n  [x, {gen}] = 1 (*) 1\n}}\n"
    )
    target = ["--bracket", "B"] if command == "koszul" else ["--algebra", "A"]
    code, out, err = run(capsys, command, doc, *target, "-o", tmp_path / "out.dbr")
    assert code == 1
    assert out == ""
    assert err == f"error: generator name collision: '{gen}'\n"
    assert not (tmp_path / "out.dbr").exists()


def test_sn_output_reparses(capsys, tmp_path):
    out_path = tmp_path / "sn.dbr"
    code, _, _ = run(capsys, "sn", FIXDIR / "f1.dbr", "--algebra", "A", "-o", out_path)
    assert code == 0
    text = out_path.read_text()
    doc = parse_document(text)
    assert format_document(doc) == text
    spec = doc.brackets["sn_A"]
    amb = spec.algebra
    assert spec.eval_words(amb.word("Dx"), amb.word("x")).render() == "1 (*) 1"


def test_shift_round_trip_is_textual_identity(capsys, tmp_path):
    up = tmp_path / "up.dbr"
    back = tmp_path / "back.dbr"
    code, _, _ = run(capsys, "shift", FIXDIR / "koszul_f2.dbr", "--dlr", "K",
                     "--delta", "2", "-o", up)
    assert code == 0
    code, _, _ = run(capsys, "shift", up, "--dlr", "K", "--delta", "-2", "-o", back)
    assert code == 0
    assert back.read_text() == (FIXDIR / "koszul_f2.dbr").read_text()


def test_shift_zero_delta_renormalizes(capsys, tmp_path):
    out_path = tmp_path / "same.dbr"
    code, _, _ = run(capsys, "shift", FIXDIR / "idempotent.dbr", "--dlr", "IDEM",
                     "--delta", "0", "-o", out_path)
    assert code == 0
    assert out_path.read_text() == (FIXDIR / "idempotent.dbr").read_text()


def test_shift_unknown_dlr(capsys, tmp_path):
    code, _, err = run(capsys, "shift", FIXDIR / "koszul_f2.dbr", "--dlr", "NOPE",
                       "--delta", "1", "-o", tmp_path / "x.dbr")
    assert code == 2
    assert "no dlr named 'NOPE'" in err


def test_verify_shift_pass(capsys):
    code, out, _ = run(capsys, "verify-shift", FIXDIR / "koszul_f2.dbr",
                       "--dlr", "K", "--delta", "-2")
    assert code == 0
    assert "shift-equivalence (delta -2)" in out
    assert "result: PASS" in out


def test_verify_shift_broken_data_still_equivalent(capsys):
    # equivalence compares verdict vectors; failing data that fails the
    # same way on both sides is a pass
    code, out, _ = run(capsys, "verify-shift", FIXDIR / "flipped_anchor.dbr",
                       "--dlr", "KBAD", "--delta", "1")
    assert code == 0
    assert "result: PASS" in out


# -- one parser per process ---------------------------------------------------


def request(argv, out_path=None):
    """(exit, stdout, stderr, written file) of one in-process request; an
    argparse exit is ("SystemExit", code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as e:
            code = ("SystemExit", e.code)
    written = None
    if out_path is not None and out_path.exists():
        written = out_path.read_text()
        out_path.unlink()
    return code, out.getvalue(), err.getvalue(), written


def test_parser_is_built_once(monkeypatch, tmp_path):
    built, build = [], cli.build_parser

    def spy():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_parser", None)
    f1, k = FIXDIR / "f1.dbr", FIXDIR / "koszul_f2.dbr"
    argvs = [
        ["check", FIXDIR / "zero.dbr"],
        ["check", f1, "--max-len", "1", "--format", "json"],
        ["check", f1, "--max-len", "0"],
        ["eval", f1, "--bracket", "B", "x", "y.x"],
        ["eval", f1, "--bracket", "NOPE", "x", "y"],
        ["jacobiator", f1, "--bracket", "B", "x", "x", "y"],
        ["leibniz", f1, "--bracket", "B", "x", "x.y"],
        ["necklace", f1, "--bracket", "B", "x", "y"],
        ["koszul", FIXDIR / "f2.dbr", "--bracket", "F2", "-o", tmp_path / "k.dbr"],
        ["koszul", FIXDIR / "fail_jacobi.dbr", "--bracket", "BAD", "-o", tmp_path / "x.dbr"],
        ["sn", f1, "--algebra", "A", "-o", tmp_path / "sn.dbr"],
        ["shift", k, "--dlr", "K", "--delta", "2", "-o", tmp_path / "up.dbr"],
        ["shift", k, "--dlr", "K", "--delta", "x", "-o", tmp_path / "up.dbr"],
        ["verify-shift", k, "--dlr", "K", "--delta", "-2", "--max-len", "2"],
        ["verify-shift", FIXDIR / "flipped_anchor.dbr", "--dlr", "KBAD", "--delta", "1"],
        ["necklace", "--help"],
        ["--help"],
        ["nope"],
        [],
        ["eval", f1, "--bracket", "B", "x", "y.x"],
    ]
    assert len(argvs) == 20
    for argv in argvs:
        request(argv)
    assert built == [1]


def test_shared_parser_answers_like_a_fresh_one(monkeypatch, tmp_path):
    # an interleaved sequence through one parser, each request compared
    # with the same request on a freshly built parser
    monkeypatch.setenv("COLUMNS", "80")
    out_path = tmp_path / "up.dbr"
    f1 = FIXDIR / "f1.dbr"
    argvs = [
        ["eval", f1, "--bracket", "B", "x", "y.x"],
        ["check", f1, "--max-len", "0"],
        ["check", FIXDIR / "f2.dbr", "--format", "json", "--no-time"],
        ["shift", FIXDIR / "koszul_f2.dbr", "--dlr", "K", "--delta", "2", "-o", out_path],
        ["eval", "--help"],
        ["eval", f1, "--bracket", "B", "x", "y.x"],
        # a default that an earlier request set must not carry over
        ["check", FIXDIR / "f2.dbr", "--max-len", "1", "--no-time"],
    ]
    monkeypatch.setattr(cli, "_parser", None)
    shared = [request(argv, out_path) for argv in argvs]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(request(argv, out_path))
    assert shared == fresh
    assert [r[0] for r in shared] == [0, ("SystemExit", 2), 0, 0, ("SystemExit", 0), 0, 0]
    assert shared[3][3] is not None


@pytest.mark.parametrize("command", [None] + COMMANDS)
def test_help_matches_golden(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == 0
    cap = capsys.readouterr()
    name = "help.txt" if command is None else f"help_{command}.txt"
    assert (cap.out, cap.err) == ((GOLDEN / name).read_text(), "")


# -- fuzz: argv of every other subcommand ends in exit 0, 1 or 2 -------------


def corpus_names(path) -> dict:
    """Option -> names a fixture declares, and the letters of its algebras."""
    try:
        doc = parse_document(path.read_text())
    except DocumentError:
        return {}
    return {"--bracket": list(doc.brackets), "--algebra": list(doc.algebras),
            "--dlr": list(doc.dlrs),
            "letters": [g.name for alg, _ in doc.algebras.values() for g in alg.gens]}


FIXTURE_NAMES = {str(p): corpus_names(p) for p in sorted(FIXDIR.glob("*.dbr"))}
NAMED = {"koszul": "--bracket", "sn": "--algebra", "shift": "--dlr", "verify-shift": "--dlr"}
NAMED.update({c: "--bracket" for c in ("eval", "jacobiator", "leibniz", "necklace")})
WORD_COUNT = {"eval": 2, "jacobiator": 3, "leibniz": 2, "necklace": 2}
ident = st.text(alphabet="ABKxyz1_.", max_size=4)
odd_words = st.one_of(ident, st.sampled_from(["1", "", ".", "x..y", "x.", "x y", "-1", "2 * x"]))
deltas = st.one_of(st.integers(-3, 3).map(str),
                   st.sampled_from(["", "x", "1.5", "1" + "0" * 4999]))
max_lens = st.sampled_from(["-1", "0", "1", "2", "x", ""])


@st.composite
def requests(draw):
    """(command, argv) for one subcommand other than check.  The file is
    mostly a fixture, with names and words drawn mostly from it; else a
    mutated corpus document ("FUZZ") or a missing path.  The -o target
    ("OUT", "DIR" or "NODIR") is resolved under tmp_path."""
    command = draw(st.sampled_from(COMMANDS[1:]))
    option = NAMED[command]
    declaring = [f for f, known in FIXTURE_NAMES.items() if known.get(option)]
    file = draw(st.sampled_from(declaring * 8 + list(FIXTURE_NAMES) + ["FUZZ", "no_such.dbr"]))
    known = FIXTURE_NAMES.get(file, {})
    mostly = st.sampled_from([True, True, True, False])
    names = st.sampled_from(known[option]) if known.get(option) else ident
    argv = [command, file, option, draw(names if draw(mostly) else ident)]
    letters = known.get("letters") or ["x", "y"]
    words = st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(".".join)
    for _ in range(WORD_COUNT.get(command, 0)):
        argv.append(draw(words if draw(mostly) else odd_words))
    if command in ("shift", "verify-shift"):
        argv += ["--delta", draw(deltas)]
    if command == "verify-shift" and draw(st.booleans()):
        argv += ["--max-len", draw(max_lens)]
    if command in ("koszul", "sn", "shift"):
        argv += ["-o", draw(st.sampled_from(["OUT", "OUT", "DIR", "NODIR"]))]
    edit = draw(st.sampled_from(["none"] * 6 + ["drop", "junk"]))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "junk":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x", "-o"])))
    return command, argv


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(req=requests(), doc=mutated_documents())
def test_contract_on_any_request(tmp_path, req, doc):
    # all examples go through the one parser of this process
    command, argv = req
    (tmp_path / "fuzz.dbr").write_bytes(doc)
    out_path = tmp_path / "out.dbr"
    where = {"FUZZ": tmp_path / "fuzz.dbr", "OUT": out_path, "DIR": tmp_path,
             "NODIR": tmp_path / "no_dir" / "out.dbr"}
    code, out, err, written = request([where.get(a, a) for a in argv], out_path)
    if isinstance(code, tuple):  # argparse rejects the arguments
        assert code == ("SystemExit", 2)
        assert out == "" and "error: " in err
        return
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")
    elif code == 1 and command != "verify-shift":
        # a construction whose precondition fails says which one
        assert command in ("koszul", "sn") and err.startswith("error: ")
    else:
        assert err == ""
    assert written is None or code == 0
