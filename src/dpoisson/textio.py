"""Plain-text documents describing algebras, bimodules, brackets, and
double Lie-Rinehart data.

The format is line-oriented only for readability; whitespace is free and
'#' starts a comment.  One document may define several named objects; all
names share one namespace.  The formatter emits a canonical layout (two
space indent, sorted rule keys, rendered coefficients) chosen so that
formatting is idempotent and parsing it back reproduces equal objects.

Grammar:

  document  := block*
  block     := "algebra" NAME "{" "shift" "=" INT "gens" "=" genlist "}"
             | "bimodule" NAME "over" NAME "{" "gens" "=" genlist "}"
             | "bracket" NAME "on" NAME "{" rule* "}"
             | "dlr" NAME "{" "module" "=" NAME
                              "anchor" "{" rule* "}"
                              "bracket" "{" rule* "}" "}"
  genlist   := "[" [ IDENT ":" INT ("," IDENT ":" INT)* ] "]"
  rule      := "[" IDENT "," IDENT "]" "=" tensor2
  tensor2   := ["+"|"-"] term (("+"|"-") term)*
  term      := [RATIONAL "*"] word "(*)" word
  word      := "1" | IDENT ("." IDENT)*

A dlr bracket rule carries both components in one sum; terms are routed
to the M (x) A or A (x) M half by which leg holds the module letter.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import (
    Colour,
    FreeAlgebra,
    Generator,
    Scalar,
    ShiftContext,
    Tensor2,
    add_into,
    exact_str,
    render_terms,
)
from .brackets import BracketSpec
from .dlr import BimoduleSpec, DLRData, split_components


class DocumentError(Exception):
    def __init__(self, msg: str, line: Optional[int] = None, col: Optional[int] = None):
        if line is not None:
            msg = f"line {line}, col {col}: {msg}"
        super().__init__(msg)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"\d+(?:/\d+)?")
_PUNCT = ("(*)", "{", "}", "[", "]", "=", ",", ":", ".", "+", "-", "*")


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            toks.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _NUMBER.match(text, i)
        if m:
            toks.append(Token("number", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise DocumentError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class Document:
    """Ordered named objects built from one source text.

    Each block is stored under its name in the table of its kind; a
    bimodule, bracket or dlr block also names the block it refers to (its
    `over`, `on` or `module`)."""

    def __init__(self):
        self.algebras: Dict[str, Tuple[FreeAlgebra, ShiftContext]] = {}
        self.bimodules: Dict[str, BimoduleSpec] = {}
        self.brackets: Dict[str, BracketSpec] = {}
        self.dlrs: Dict[str, DLRData] = {}
        self._blocks: Dict[str, Tuple[str, Optional[str]]] = {}

    @property
    def entries(self) -> List[Tuple]:
        """(kind, name) or (kind, name, reference) per block, in order."""
        return [(kind, name) if ref is None else (kind, name, ref)
                for name, (kind, ref) in self._blocks.items()]

    def add(self, kind: str, name: str, obj, ref: Optional[str] = None):
        if name in self._blocks:
            raise DocumentError(f"duplicate name '{name}'")
        tables = {"algebra": self.algebras, "bimodule": self.bimodules,
                  "bracket": self.brackets, "dlr": self.dlrs}
        tables[kind][name] = obj
        self._blocks[name] = (kind, ref)

    def ref(self, name: str) -> str:
        """The name the block `name` refers to."""
        return self._blocks[name][1]

    def shift_of(self, name: str) -> ShiftContext:
        """Shift context attached to an algebra or bimodule target name."""
        if name in self.algebras:
            return self.algebras[name][1]
        return self.algebras[self.ref(name)][1]

    def __eq__(self, other):
        return (
            isinstance(other, Document)
            and self.entries == other.entries
            and self.algebras == other.algebras
            and self.bimodules == other.bimodules
            and self.brackets == other.brackets
            and self.dlrs == other.dlrs
        )


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, value=None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            got = t.value if t.value else t.kind
            raise DocumentError(f"expected {want!r}, got {got!r}", t.line, t.col)
        return self.advance()

    def number(self) -> Scalar:
        """The value of the next token, which must be a number; every number
        of a document is read here."""
        t = self.expect("number")
        try:
            return Fraction(t.value) if "/" in t.value else int(t.value)
        except ZeroDivisionError:
            raise DocumentError(f"zero denominator in {t.value!r}", t.line, t.col) from None
        except ValueError as e:  # past the interpreter's int/str digit limit
            raise DocumentError(str(e), t.line, t.col) from None

    def integer(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.advance()
            neg = True
        t = self.peek()
        if t.kind == "number" and "/" in t.value:
            raise DocumentError("expected integer", t.line, t.col)
        n = self.number()
        return -n if neg else n

    def genlist(self) -> List[Tuple[str, int]]:
        self.expect("[")
        out: List[Tuple[str, int]] = []
        seen = set()
        if self.peek().kind != "]":
            while True:
                t = self.expect("ident")
                if t.value in seen:
                    raise DocumentError(f"duplicate generator '{t.value}'", t.line, t.col)
                seen.add(t.value)
                self.expect(":")
                out.append((t.value, self.integer()))
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
        self.expect("]")
        return out

    def word(self, alg: FreeAlgebra) -> tuple:
        t = self.peek()
        if t.kind == "number":
            if t.value != "1":
                raise DocumentError("a word is '1' or dotted generator names", t.line, t.col)
            self.advance()
            return ()
        letters = [_index(alg, self.expect("ident"))]
        while self.peek().kind == ".":
            self.advance()
            letters.append(_index(alg, self.expect("ident")))
        return tuple(letters)

    def tensor2_value(self, alg: FreeAlgebra) -> Tensor2:
        terms = []
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        while True:
            coeff = sign
            t = self.peek()
            if t.kind == "number" and self.toks[self.pos + 1].kind == "*":
                coeff *= self.number()
                self.advance()
            w1 = self.word(alg)
            self.expect("(*)")
            w2 = self.word(alg)
            terms.append(((w1, w2), coeff))
            if self.peek().kind in ("+", "-"):
                sign = -1 if self.advance().kind == "-" else 1
                continue
            break
        return Tensor2(alg, add_into({}, terms))

    def rules(self, alg: FreeAlgebra) -> list:
        """'{' rule* '}' as (generator-index pair, value, '[' token)."""
        self.expect("{")
        out = []
        while self.peek().kind == "[":
            t0 = self.advance()
            g1 = self.expect("ident")
            self.expect(",")
            g2 = self.expect("ident")
            self.expect("]")
            self.expect("=")
            key = (_index(alg, g1), _index(alg, g2))
            out.append((key, self.tensor2_value(alg), t0))
        self.expect("}")
        return out

    def document(self) -> Document:
        doc = Document()
        blocks = {"algebra": self._algebra, "bimodule": self._bimodule,
                  "bracket": self._bracket, "dlr": self._dlr}
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "ident":
                raise DocumentError(
                    f"expected a block keyword, got {t.value or t.kind!r}", t.line, t.col
                )
            if t.value not in blocks:
                raise DocumentError(f"unknown block kind '{t.value}'", t.line, t.col)
            self.advance()
            blocks[t.value](doc)
        return doc

    def _algebra(self, doc: Document):
        name = self.expect("ident")
        self.expect("{")
        self.expect("ident", "shift")
        self.expect("=")
        r = self.integer()
        self.expect("ident", "gens")
        self.expect("=")
        gens = self.genlist()
        self.expect("}")
        alg = FreeAlgebra(tuple(Generator(n, d) for n, d in gens))
        _add(doc, "algebra", name, (alg, ShiftContext(r)))

    def _bimodule(self, doc: Document):
        name = self.expect("ident")
        self.expect("ident", "over")
        over = self.expect("ident")
        if over.value not in doc.algebras:
            raise DocumentError(f"unknown algebra '{over.value}'", over.line, over.col)
        self.expect("{")
        self.expect("ident", "gens")
        self.expect("=")
        gens = self.genlist()
        self.expect("}")
        base = doc.algebras[over.value][0]
        try:
            bm = BimoduleSpec(base, [Generator(n, d, Colour.MODULE) for n, d in gens])
        except ValueError as e:
            raise DocumentError(str(e), name.line, name.col) from None
        _add(doc, "bimodule", name, bm, over.value)

    def _target(self, doc: Document, tok: Token) -> FreeAlgebra:
        if tok.value in doc.algebras:
            return doc.algebras[tok.value][0]
        if tok.value in doc.bimodules:
            return doc.bimodules[tok.value].ambient
        raise DocumentError(f"unknown algebra or bimodule '{tok.value}'", tok.line, tok.col)

    def _bracket(self, doc: Document):
        name = self.expect("ident")
        self.expect("ident", "on")
        on = self.expect("ident")
        alg = self._target(doc, on)
        t0 = self.peek()
        table = _rule_table(alg, self.rules(alg))
        try:
            spec = BracketSpec(alg, doc.shift_of(on.value), table)
        except ValueError as e:
            raise DocumentError(str(e), t0.line, t0.col)
        _add(doc, "bracket", name, spec, on.value)

    def _dlr(self, doc: Document):
        name = self.expect("ident")
        self.expect("{")
        self.expect("ident", "module")
        self.expect("=")
        mod = self.expect("ident")
        if mod.value not in doc.bimodules:
            raise DocumentError(f"unknown bimodule '{mod.value}'", mod.line, mod.col)
        bm = doc.bimodules[mod.value]
        alg = bm.ambient
        self.expect("ident", "anchor")
        anchor_rules = self.rules(alg)
        self.expect("ident", "bracket")
        t0 = self.peek()
        bracket_rules = self.rules(alg)
        self.expect("}")

        def anchor_rule(i, j, val):
            if not alg.is_module(i) or alg.is_module(j):
                raise ValueError("anchor rules pair a module generator with a base generator")
            return val

        def bracket_rule(i, j, val):
            if not (alg.is_module(i) and alg.is_module(j)):
                raise ValueError("bracket rules pair two module generators")
            return split_components(alg, val)

        anchor = _rule_table(alg, anchor_rules, anchor_rule)
        mbracket = _rule_table(alg, bracket_rules, bracket_rule)
        try:
            data = DLRData(bm, doc.shift_of(mod.value), anchor, mbracket)
        except ValueError as e:
            raise DocumentError(str(e), t0.line, t0.col)
        _add(doc, "dlr", name, data, mod.value)


def _add(doc: Document, kind: str, name: Token, obj, ref: Optional[str] = None):
    """Document.add, with a taken name reported at its token."""
    try:
        doc.add(kind, name.value, obj, ref)
    except DocumentError as e:
        raise DocumentError(str(e), name.line, name.col) from None


def _rule_table(alg: FreeAlgebra, rules: list, entry=None) -> dict:
    """The rules read by _Parser.rules as one table, judged only once the
    whole block is read.  entry(i, j, value), when given, returns what the
    table stores or raises ValueError; every error points at its rule."""
    out: dict = {}
    for (i, j), val, t in rules:
        if (i, j) in out:
            raise DocumentError(
                f"duplicate rule [{alg.gens[i].name}, {alg.gens[j].name}]", t.line, t.col)
        try:
            out[(i, j)] = val if entry is None else entry(i, j, val)
        except ValueError as e:
            raise DocumentError(str(e), t.line, t.col) from None
    return out


def _index(alg: FreeAlgebra, tok: Token) -> int:
    try:
        return alg.index(tok.value)
    except KeyError:
        raise DocumentError(f"unknown generator '{tok.value}'", tok.line, tok.col) from None


def parse_document(text: str) -> Document:
    return _Parser(text).document()


# -- canonical formatter --------------------------------------------------


def _fmt_genlist(gens) -> str:
    if not gens:
        return "[ ]"
    inner = ", ".join(f"{g.name}:{exact_str(g.degree)}" for g in gens)
    return f"[ {inner} ]"


def _fmt_rules(head: str, alg: FreeAlgebra, table: Dict[tuple, Tensor2],
               indent: str) -> str:
    """`head { rules }` at indent, one rule a line in sorted key order."""
    lines = [f"{indent}{head} {{"]
    for (i, j) in sorted(table):
        lines.append(
            f"{indent}  [{alg.gens[i].name}, {alg.gens[j].name}] = "
            f"{render_terms(alg, table[(i, j)].terms, 2)}"
        )
    lines.append(f"{indent}}}")
    return "\n".join(lines)


def format_document(doc: Document) -> str:
    blocks: List[str] = []
    for name, (kind, ref) in doc._blocks.items():
        if kind == "algebra":
            alg, shift = doc.algebras[name]
            blocks.append(
                f"algebra {name} {{\n"
                f"  shift = {exact_str(shift.r)}\n"
                f"  gens = {_fmt_genlist(alg.gens)}\n"
                f"}}"
            )
        elif kind == "bimodule":
            blocks.append(
                f"bimodule {name} over {ref} {{\n"
                f"  gens = {_fmt_genlist(doc.bimodules[name].mgens)}\n"
                f"}}"
            )
        elif kind == "bracket":
            spec = doc.brackets[name]
            blocks.append(_fmt_rules(f"bracket {name} on {ref}", spec.algebra, spec.table, ""))
        else:
            data = doc.dlrs[name]
            alg = data.bimodule.ambient
            merged = {k: l + r for k, (l, r) in data.mbracket.items()}
            blocks.append("\n".join([
                f"dlr {name} {{",
                f"  module = {ref}",
                _fmt_rules("anchor", alg, data.anchor, "  "),
                _fmt_rules("bracket", alg, merged, "  "),
                "}",
            ]))
    return "\n\n".join(blocks) + "\n"
