"""The document grammar: parse, canonical formatting, and error positions."""

import pathlib
import sys

import pytest

from dpoisson.brackets import BracketSpec
from dpoisson.core import FreeAlgebra, Generator, ShiftContext, tensor2
from dpoisson.textio import Document, DocumentError, format_document, parse_document

from conftest import FIXDIR


CANONICAL = sorted(p for p in FIXDIR.glob("*.dbr") if p.name != "malformed.dbr")


def test_corpus_is_nonempty():
    assert len(CANONICAL) >= 8


@pytest.mark.parametrize("path", CANONICAL, ids=lambda p: p.name)
def test_corpus_textual_round_trip(path):
    text = path.read_text()
    doc = parse_document(text)
    assert format_document(doc) == text


@pytest.mark.parametrize("path", CANONICAL, ids=lambda p: p.name)
def test_corpus_object_round_trip(path):
    text = path.read_text()
    doc = parse_document(text)
    assert parse_document(format_document(doc)) == doc


def test_format_is_idempotent_on_noncanonical_input():
    src = (
        "algebra A{shift=0 gens=[y:0,x:0]}\n"
        "bracket B on A { [x,y]= 1 (*) 1 }\n"
    )
    doc = parse_document(src)
    once = format_document(doc)
    assert format_document(parse_document(once)) == once


def test_parse_accepts_comments_and_whitespace():
    src = (
        "# a comment line\n"
        "algebra A {  # trailing comment\n"
        "  shift = 0\n"
        "  gens = [ x:0 ]\n"
        "}\n"
    )
    doc = parse_document(src)
    assert ("algebra", "A") in doc.entries


def test_fraction_coefficients_round_trip():
    src = (
        "algebra A {\n"
        "  shift = 0\n"
        "  gens = [ x:0 ]\n"
        "}\n"
        "\n"
        "bracket B on A {\n"
        "  [x, x] = 5/3 * 1 (*) 1 - 5/3 * 1 (*) 1\n"
        "}\n"
    )
    doc = parse_document(src)
    out = format_document(doc)
    # the two halves cancel: the rule disappears from canonical output
    assert "[x, x]" not in out


def test_dotted_words_round_trip():
    src = (
        "algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\n\n"
        "bracket B on A {\n  [x, y] = 2 * x.y (*) 1 - 1 (*) y.x + 1/2 * x (*) y.y\n}\n"
    )
    doc = parse_document(src)
    out = format_document(doc)
    assert "  [x, y] = - 1 (*) y.x + 1/2 * x (*) y.y + 2 * x.y (*) 1\n" in out
    assert parse_document(out) == doc


def test_dlr_rule_splits_by_leg_weight():
    text = (FIXDIR / "koszul_f2.dbr").read_text()
    doc = parse_document(text)
    data = doc.dlrs["K"]
    amb = data.bimodule.ambient
    l, r = data.mb_gen(amb.index("dx"), amb.index("dx"))
    assert l.render() == "dx (*) 1"
    assert r.render() == "- 1 (*) dx"


def test_negative_shift_and_graded_gens():
    text = (FIXDIR / "graded.dbr").read_text()
    doc = parse_document(text)
    alg, shift = doc.algebras["G"]
    assert shift.r == -2
    assert alg.gens[0].degree == 1


ERRORS = [
    ("algebra A {\n  shift = 0\n  gens = [ x:0\n}\n", "expected ']', got '}'"),
    ("algebra A {\n  shift = 0\n  gens = [ ]\n}\nalgebra A {\n  shift = 0\n  gens = [ ]\n}\n",
     "duplicate name 'A'"),
    ("bracket B on Z {\n}\n", "unknown algebra or bimodule 'Z'"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\nbracket B on A {\n  [x, z] = 1 (*) 1\n}\n",
     "unknown generator 'z'"),
    ("algebra A {\n  shift = 0\n  gens = [ x:1, y:0 ]\n}\nbracket B on A {\n  [x, y] = 1 (*) 1\n}\n",
     "must be homogeneous of degree 1, got degrees [0]"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\n"
     "bimodule M over A {\n  gens = [ m:0 ]\n}\n"
     "dlr D {\n  module = M\n  anchor {\n    [x, x] = 1 (*) 1\n  }\n  bracket {\n  }\n}\n",
     "anchor rules pair a module generator with a base generator"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\n"
     "bimodule M over A {\n  gens = [ m:0 ]\n}\n"
     "dlr D {\n  module = M\n  anchor {\n  }\n  bracket {\n    [m, m] = x (*) x\n  }\n}\n",
     "each bracket term carries exactly one module letter"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\nbracket B on A {\n"
     "  [x, x] = x (*) 1 - 1 (*) x\n  [x, x] = 1 (*) 1\n}\n",
     "duplicate rule"),
    ("algebra @ {\n}\n", "unexpected character '@'"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\nbracket B on A {\n"
     "  [x, y] = 1 (*) 1\n  [y, x] = 1 (*) 1\n}\n",
     "inconsistent with antisymmetry"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\nbracket B on A {\n"
     "  [x, y] = 1 (*) 1 - 1/0 * x (*) y\n}\n",
     "line 6, col 22: zero denominator in '1/0'"),
    ("algebra A {\n  shfit = 0\n}\n", "line 2, col 3: expected 'shift', got 'shfit'"),
    ("algebra A {\n  = 0\n}\n", "line 2, col 3: expected 'shift', got '='"),
    ("algebra A {\n", "line 2, col 1: expected 'shift', got 'eof'"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\nbracket B in A {\n}\n",
     "line 5, col 11: expected 'on', got 'in'"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\nbracket B on A {\n"
     "  [x, y] = x.z (*) 1\n}\n",
     "line 6, col 14: unknown generator 'z'"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\nbracket B on A {\n"
     "  [x, y] = 2 (*) 1\n}\n",
     "line 6, col 12: a word is '1' or dotted generator names"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\nbracket B on A {\n"
     "  [x, y] = x. (*) 1\n}\n",
     "line 6, col 15: expected 'ident', got '(*)'"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\n"
     "bimodule M over A {\n  gens = [ m:0 ]\n}\n"
     "dlr D {\n  module = M\n  anchor {\n    [m, x] = x (*) 1\n    [m, x] = 1 (*) x\n"
     "  }\n  bracket {\n  }\n}\n",
     "line 12, col 5: duplicate rule [m, x]"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\n"
     "bimodule M over A {\n  gens = [ m:0 ]\n}\n"
     "dlr D {\n  module = M\n  anchor {\n  }\n  bracket {\n"
     "    [m, m] = m (*) 1\n    [m, m] = 1 (*) m\n  }\n}\n",
     "line 14, col 5: duplicate rule [m, m]"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\n"
     "bracket B on A {\n}\nbracket B on A {\n}\n",
     "line 7, col 9: duplicate name 'B'"),
    ("algebra A {\n  shift = 0\n  gens = [ x:0 ]\n}\n"
     "bimodule M over A {\n  gens = [ m:0 ]\n}\n"
     + "dlr D {\n  module = M\n  anchor {\n  }\n  bracket {\n  }\n}\n" * 2,
     "line 15, col 5: duplicate name 'D'"),
    # past the interpreter's default int/str digit limit, which only the CLI lifts
    ("algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\nbracket B on A {\n"
     f"  [x, y] = 1{'0' * 4300} * x (*) y\n}}\n",
     "line 6, col 12: Exceeds the limit (4300 digits)"),
]


@pytest.mark.parametrize("src,fragment", ERRORS, ids=range(len(ERRORS)))
def test_errors_are_positioned(src, fragment):
    with pytest.raises(DocumentError) as exc:
        parse_document(src)
    msg = str(exc.value)
    assert fragment in msg
    assert msg.startswith("line ")


def test_error_position_points_at_offender():
    with pytest.raises(DocumentError) as exc:
        parse_document("algebra A {\n  shift = oops\n}\n")
    assert str(exc.value).startswith("line 2")


def test_malformed_fixture_fails_to_parse():
    with pytest.raises(DocumentError):
        parse_document((FIXDIR / "malformed.dbr").read_text())


def test_format_document_past_the_digit_limit():
    # shifts, degrees and coefficients are written exactly while the
    # interpreter's default int/str digit limit (4300) stays in force
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000
    big, text = 10**5000 + 7, "1" + "0" * 4999 + "7"
    xy = FreeAlgebra((Generator("x"), Generator("y")))
    doc = Document()
    doc.add("algebra", "G", (FreeAlgebra((Generator("a", big),)), ShiftContext(-big)))
    doc.add("algebra", "A", (xy, ShiftContext(0)))
    spec = BracketSpec(xy, ShiftContext(0), {(0, 1): tensor2(xy, ("x", "y", big))})
    doc.add("bracket", "B", spec, "A")
    assert format_document(doc) == (
        f"algebra G {{\n  shift = -{text}\n  gens = [ a:{text} ]\n}}\n\n"
        "algebra A {\n  shift = 0\n  gens = [ x:0, y:0 ]\n}\n\n"
        f"bracket B on A {{\n  [x, y] = {text} * x (*) y\n}}\n"
    )
    assert sys.get_int_max_str_digits() == limit
