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
    ShiftContext,
    Tensor2,
    add_into,
    render_terms,
)
from .brackets import BracketSpec
from .dlr import BimoduleSpec, DLRData


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
    """Ordered named objects built from one source text."""

    def __init__(self):
        self.entries: List[Tuple] = []
        self.algebras: Dict[str, Tuple[FreeAlgebra, ShiftContext]] = {}
        self.bimodules: Dict[str, BimoduleSpec] = {}
        self.brackets: Dict[str, BracketSpec] = {}
        self.dlrs: Dict[str, DLRData] = {}
        self._names = set()

    def _claim(self, name: str):
        if name in self._names:
            raise DocumentError(f"duplicate name '{name}'")
        self._names.add(name)

    def add_algebra(self, name: str, alg: FreeAlgebra, shift: ShiftContext):
        self._claim(name)
        self.algebras[name] = (alg, shift)
        self.entries.append(("algebra", name))

    def add_bimodule(self, name: str, bm: BimoduleSpec, over: str):
        self._claim(name)
        self.bimodules[name] = bm
        self.entries.append(("bimodule", name, over))

    def add_bracket(self, name: str, spec: BracketSpec, on: str):
        self._claim(name)
        self.brackets[name] = spec
        self.entries.append(("bracket", name, on))

    def add_dlr(self, name: str, data: DLRData, module: str):
        self._claim(name)
        self.dlrs[name] = data
        self.entries.append(("dlr", name, module))

    def shift_of(self, name: str) -> ShiftContext:
        """Shift context attached to an algebra or bimodule target name."""
        if name in self.algebras:
            return self.algebras[name][1]
        over = next(e[2] for e in self.entries if e[0] == "bimodule" and e[1] == name)
        return self.algebras[over][1]

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

    def integer(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.advance()
            neg = True
        t = self.expect("number")
        if "/" in t.value:
            raise DocumentError("expected integer", t.line, t.col)
        return -int(t.value) if neg else int(t.value)

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
        letters = []
        while True:
            t = self.expect("ident")
            try:
                letters.append(alg.index(t.value))
            except KeyError:
                raise DocumentError(f"unknown generator '{t.value}'", t.line, t.col)
            if self.peek().kind == ".":
                self.advance()
                continue
            break
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
                self.advance()
                self.advance()
                try:
                    coeff *= Fraction(t.value)
                except ZeroDivisionError:
                    raise DocumentError(
                        f"zero denominator in {t.value!r}", t.line, t.col
                    ) from None
            w1 = self.word(alg)
            self.expect("(*)")
            w2 = self.word(alg)
            terms.append(((w1, w2), coeff))
            if self.peek().kind in ("+", "-"):
                sign = -1 if self.advance().kind == "-" else 1
                continue
            break
        return Tensor2(alg, add_into({}, terms))

    def rules(self, alg: FreeAlgebra):
        """Bracket-style rules up to the closing brace; yields position
        info for later error attribution."""
        out = []
        while self.peek().kind == "[":
            t0 = self.advance()
            g1 = self.expect("ident")
            self.expect(",")
            g2 = self.expect("ident")
            self.expect("]")
            self.expect("=")
            for g in (g1, g2):
                try:
                    alg.index(g.value)
                except KeyError:
                    raise DocumentError(f"unknown generator '{g.value}'", g.line, g.col)
            val = self.tensor2_value(alg)
            out.append((g1.value, g2.value, val, t0.line, t0.col))
        return out

    def document(self) -> Document:
        doc = Document()
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "ident":
                raise DocumentError(
                    f"expected a block keyword, got {t.value or t.kind!r}", t.line, t.col
                )
            if t.value == "algebra":
                self.advance()
                self._algebra(doc)
            elif t.value == "bimodule":
                self.advance()
                self._bimodule(doc)
            elif t.value == "bracket":
                self.advance()
                self._bracket(doc)
            elif t.value == "dlr":
                self.advance()
                self._dlr(doc)
            else:
                raise DocumentError(f"unknown block kind '{t.value}'", t.line, t.col)
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
        try:
            doc.add_algebra(name.value, alg, ShiftContext(r))
        except DocumentError as e:
            raise DocumentError(str(e), name.line, name.col)

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
            bm = BimoduleSpec(
                base, [Generator(n, d, Colour.MODULE) for n, d in gens]
            )
            doc.add_bimodule(name.value, bm, over.value)
        except (ValueError, DocumentError) as e:
            raise DocumentError(str(e), name.line, name.col)

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
        shift = doc.shift_of(on.value)
        t0 = self.expect("{")
        rules = self.rules(alg)
        self.expect("}")
        table: dict = {}
        for g1, g2, val, ln, cl in rules:
            key = (g1, g2)
            if key in table:
                raise DocumentError(f"duplicate rule [{g1}, {g2}]", ln, cl)
            table[key] = val
        try:
            spec = BracketSpec(alg, shift, table)
        except ValueError as e:
            raise DocumentError(str(e), t0.line, t0.col)
        doc.add_bracket(name.value, spec, on.value)

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
        shift = doc.shift_of(mod.value)
        self.expect("ident", "anchor")
        self.expect("{")
        anchor_rules = self.rules(alg)
        self.expect("}")
        self.expect("ident", "bracket")
        t0 = self.expect("{")
        bracket_rules = self.rules(alg)
        self.expect("}")
        self.expect("}")

        anchor: dict = {}
        for g1, g2, val, ln, cl in anchor_rules:
            i, j = alg.index(g1), alg.index(g2)
            if not alg.is_module(i) or alg.is_module(j):
                raise DocumentError(
                    "anchor rules pair a module generator with a base generator", ln, cl
                )
            if (i, j) in anchor:
                raise DocumentError(f"duplicate rule [{g1}, {g2}]", ln, cl)
            anchor[(i, j)] = val
        mbracket: dict = {}
        for g1, g2, val, ln, cl in bracket_rules:
            i, j = alg.index(g1), alg.index(g2)
            if not (alg.is_module(i) and alg.is_module(j)):
                raise DocumentError(
                    "bracket rules pair two module generators", ln, cl
                )
            if (i, j) in mbracket:
                raise DocumentError(f"duplicate rule [{g1}, {g2}]", ln, cl)
            lt, rt = {}, {}
            for (u, v), c in val.terms.items():
                wu, wv = alg.weight(u), alg.weight(v)
                if (wu, wv) == (1, 0):
                    lt[(u, v)] = c
                elif (wu, wv) == (0, 1):
                    rt[(u, v)] = c
                else:
                    raise DocumentError(
                        "each bracket term carries exactly one module letter", ln, cl
                    )
            mbracket[(i, j)] = (Tensor2(alg, lt), Tensor2(alg, rt))
        try:
            data = DLRData(bm, shift, anchor, mbracket)
        except ValueError as e:
            raise DocumentError(str(e), t0.line, t0.col)
        doc.add_dlr(name.value, data, mod.value)


def parse_document(text: str) -> Document:
    return _Parser(text).document()


# -- canonical formatter --------------------------------------------------


def _fmt_genlist(gens) -> str:
    if not gens:
        return "[ ]"
    inner = ", ".join(f"{g.name}:{g.degree}" for g in gens)
    return f"[ {inner} ]"


def _fmt_rules(alg: FreeAlgebra, table: Dict[tuple, Tensor2], indent: str) -> List[str]:
    lines = []
    for (i, j) in sorted(table):
        val = table[(i, j)]
        lines.append(
            f"{indent}[{alg.gens[i].name}, {alg.gens[j].name}] = "
            f"{render_terms(alg, val.terms, 2)}"
        )
    return lines


def format_document(doc: Document) -> str:
    blocks: List[str] = []
    for entry in doc.entries:
        kind, name = entry[0], entry[1]
        if kind == "algebra":
            alg, shift = doc.algebras[name]
            blocks.append(
                f"algebra {name} {{\n"
                f"  shift = {shift.r}\n"
                f"  gens = {_fmt_genlist(alg.gens)}\n"
                f"}}"
            )
        elif kind == "bimodule":
            bm = doc.bimodules[name]
            blocks.append(
                f"bimodule {name} over {entry[2]} {{\n"
                f"  gens = {_fmt_genlist(bm.mgens)}\n"
                f"}}"
            )
        elif kind == "bracket":
            spec = doc.brackets[name]
            lines = _fmt_rules(spec.algebra, spec.table, "  ")
            body = "\n".join(lines)
            blocks.append(
                f"bracket {name} on {entry[2]} {{\n"
                + (body + "\n" if body else "")
                + "}"
            )
        elif kind == "dlr":
            data = doc.dlrs[name]
            alg = data.bimodule.ambient
            merged = {k: l + r for k, (l, r) in data.mbracket.items()}
            anchor_lines = _fmt_rules(alg, data.anchor, "    ")
            bracket_lines = _fmt_rules(alg, merged, "    ")
            a_body = "\n".join(anchor_lines)
            b_body = "\n".join(bracket_lines)
            blocks.append(
                f"dlr {name} {{\n"
                f"  module = {entry[2]}\n"
                "  anchor {\n"
                + (a_body + "\n" if a_body else "")
                + "  }\n"
                "  bracket {\n"
                + (b_body + "\n" if b_body else "")
                + "  }\n"
                "}"
            )
    return "\n\n".join(blocks) + "\n"
