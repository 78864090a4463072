"""Exact arithmetic for free graded noncommutative algebras over Q.

Scalars are exact: a coefficient is stored as an `int` when it is integral
and as a `fractions.Fraction` otherwise; nothing in this package ever
touches floating point.  A word is a tuple of generator indices into a fixed
`FreeAlgebra`; the empty tuple is the unit.  Polynomials and tensors are
sparse maps from words (or leg tuples) to nonzero coefficients.

Every graded sign in the package is produced by `koszul_sign` / `sign_exp`:
moving material of total degree d1 past material of total degree d2 costs
(-1)^(d1*d2).  The suspension symbol of a shift context counts as material
of degree r when it moves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]
Word = tuple  # tuple of generator indices


class Colour(enum.Enum):
    """Generator colour: BASE letters span the base algebra, MODULE letters
    span a free bimodule layered on top of it."""

    BASE = "base"
    MODULE = "module"


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int = 0
    colour: Colour = Colour.BASE

    def __post_init__(self):
        if not self.name or not (self.name[0].isalpha() or self.name[0] == "_"):
            raise ValueError(f"bad generator name {self.name!r}")


@dataclass(frozen=True)
class ShiftContext:
    """Degree of the suspension symbol used by a shifted bracket."""

    r: int = 0


def sign_exp(d1: int, d2: int) -> int:
    """Sign of moving degree-d1 material past degree-d2 material."""
    return -1 if (d1 & 1) and (d2 & 1) else 1


def koszul_sign(degrees_moved: Iterable[int], degrees_passed: Iterable[int]) -> int:
    """Koszul sign (-1)^(sum(moved) * sum(passed)) as an int.

    This is the one place graded commutativity signs come from; composite
    morphisms are evaluated as sequences of elementary moves, each paying
    its toll here.
    """
    return sign_exp(sum(degrees_moved), sum(degrees_passed))


class FreeAlgebra:
    """Presentation of a free algebra on an ordered list of graded generators.

    Word order (used for canonical forms) is length, then left-to-right by
    declaration position.  When MODULE generators are present the same object
    presents the tensor algebra of a free bimodule over the BASE part.
    """

    __slots__ = ("gens", "_index", "_degrees", "_module_mask", "_word_degrees")

    def __init__(self, gens: Sequence[Generator]):
        gens = tuple(gens)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique within one algebra")
        self.gens = gens
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._degrees = tuple(g.degree for g in gens)
        self._module_mask = tuple(g.colour is Colour.MODULE for g in gens)
        self._word_degrees: dict = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FreeAlgebra) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return "FreeAlgebra(%s)" % ", ".join(
            f"{g.name}:{g.degree}{'*' if g.colour is Colour.MODULE else ''}" for g in self.gens
        )

    # -- generator access -------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    @property
    def base_indices(self) -> tuple:
        return tuple(i for i, m in enumerate(self._module_mask) if not m)

    @property
    def module_indices(self) -> tuple:
        return tuple(i for i, m in enumerate(self._module_mask) if m)

    def is_module(self, i: int) -> bool:
        return self._module_mask[i]

    # -- words ------------------------------------------------------------

    def degree(self, w: Word) -> int:
        """Total degree of a word, memoised per word: the sign rules ask for
        the same few words' degrees many times over."""
        d = self._word_degrees.get(w)
        if d is None:
            degs = self._degrees
            d = self._word_degrees[w] = sum(degs[i] for i in w)
        return d

    def weight(self, w: Word) -> int:
        """Number of MODULE letters in the word."""
        m = self._module_mask
        return sum(1 for i in w if m[i])

    def word(self, text: str) -> Word:
        """Parse a dotted word, e.g. ``"x.y.x"``; ``"1"`` is the unit."""
        text = text.strip()
        if text == "1":
            return ()
        return tuple(self.index(part) for part in text.split("."))

    def render_word(self, w: Word) -> str:
        if not w:
            return "1"
        return ".".join(self.gens[i].name for i in w)

    def words_up_to(self, max_len: int, *, letters: Optional[Sequence[int]] = None) -> Iterator[Word]:
        """All words of length 0..max_len in deterministic order."""
        pool = tuple(range(len(self.gens))) if letters is None else tuple(letters)
        yield ()
        layer = [()]
        for _ in range(max_len):
            layer = [w + (i,) for w in layer for i in pool]
            yield from layer

    # -- element constructors --------------------------------------------

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return NCPoly(self, {(): 1})

    def gen(self, name: str) -> "NCPoly":
        return NCPoly(self, {(self.index(name),): 1})

    def poly(self, terms: Mapping[Word, Scalar]) -> "NCPoly":
        return NCPoly(self, terms)

    def monomial(self, text: str, coeff: Scalar = 1) -> "NCPoly":
        return NCPoly(self, {self.word(text): coeff})


def exact_scalar(c) -> Scalar:
    """The exact value of a scalar: an int when it is integral, a Fraction
    otherwise.  Python mixes the two exactly and renders them alike."""
    t = type(c)
    if t is int:
        return c
    if t is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _clean(terms: Mapping) -> dict:
    """Drop zero coefficients and store the rest by `exact_scalar`."""
    out = {}
    for k, c in terms.items():
        if type(c) is not int:
            c = exact_scalar(c)
        if c:
            out[k] = c
    return out


def _require_same(a: FreeAlgebra, b: FreeAlgebra):
    if a != b:
        raise ValueError("incompatible algebras")


class NCPoly:
    """Sparse noncommutative polynomial: finite map word -> nonzero exact
    scalar (an int when integral, a Fraction otherwise)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeAlgebra, terms: Mapping[Word, Scalar]):
        self.algebra = algebra
        self.terms = _clean(terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, NCPoly)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"NCPoly({self.render()})"

    def render(self) -> str:
        return render_terms(self.algebra, self.terms, legs=1)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        _require_same(self.algebra, other.algebra)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCPoly(self.algebra, out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.algebra, {w: -c for w, c in self.terms.items()})

    def scale(self, c: Scalar) -> "NCPoly":
        c = exact_scalar(c)
        return NCPoly(self.algebra, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        return poly_mul(self, other)


def poly_mul(a: NCPoly, b: NCPoly) -> NCPoly:
    """Concatenation product, extended bilinearly."""
    _require_same(a.algebra, b.algebra)
    out: dict = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return NCPoly(a.algebra, out)


class Tensor2:
    """Element of a two-fold tensor product of word spaces over one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeAlgebra, terms: Mapping):
        self.algebra = algebra
        self.terms = _clean(terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor2)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Tensor2({self.render()})"

    def render(self) -> str:
        return render_terms(self.algebra, self.terms, legs=2)

    def __add__(self, other: "Tensor2") -> "Tensor2":
        _require_same(self.algebra, other.algebra)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return Tensor2(self.algebra, out)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + (-other)

    def __neg__(self) -> "Tensor2":
        return Tensor2(self.algebra, {k: -c for k, c in self.terms.items()})

    def scale(self, c: Scalar) -> "Tensor2":
        c = exact_scalar(c)
        return Tensor2(self.algebra, {k: c * v for k, v in self.terms.items()})

    def degrees(self) -> set:
        alg = self.algebra
        return {alg.degree(u) + alg.degree(v) for (u, v) in self.terms}

    def is_homogeneous_of(self, d: int) -> bool:
        return self.degrees() <= {d}

    def leg_weights(self) -> set:
        alg = self.algebra
        return {(alg.weight(u), alg.weight(v)) for (u, v) in self.terms}


class Tensor3:
    """Element of a three-fold tensor product of word spaces over one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeAlgebra, terms: Mapping):
        self.algebra = algebra
        self.terms = _clean(terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor3)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Tensor3({self.render()})"

    def render(self) -> str:
        return render_terms(self.algebra, self.terms, legs=3)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        _require_same(self.algebra, other.algebra)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return Tensor3(self.algebra, out)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return self + (-other)

    def __neg__(self) -> "Tensor3":
        return Tensor3(self.algebra, {k: -c for k, c in self.terms.items()})

    def scale(self, c: Scalar) -> "Tensor3":
        c = exact_scalar(c)
        return Tensor3(self.algebra, {k: c * v for k, v in self.terms.items()})


def tensor2(algebra: FreeAlgebra, *entries) -> Tensor2:
    """Convenience constructor: tensor2(alg, ("x", "1"), ("1", "x", -1))."""
    terms: dict = {}
    for e in entries:
        if len(e) == 2:
            (t1, t2), c = e, 1
        else:
            t1, t2, c = e
        k = (algebra.word(t1), algebra.word(t2))
        terms[k] = terms.get(k, 0) + exact_scalar(c)
    return Tensor2(algebra, terms)


def render_terms(algebra: FreeAlgebra, terms: Mapping, legs: int) -> str:
    """Deterministic rendering shared by polynomials and tensors.

    Terms are sorted by leg words (length then declaration order), the
    coefficient magnitude is printed only when it is not 1, and signs become
    separators, e.g. ``x (*) 1 - 1 (*) x``.
    """
    if not terms:
        return "0"

    def keyfun(k):
        ws = (k,) if legs == 1 else k
        return tuple((len(w), w) for w in ws)

    pieces = []
    for k in sorted(terms, key=keyfun):
        c = terms[k]
        ws = (k,) if legs == 1 else k
        body = " (*) ".join(algebra.render_word(w) for w in ws)
        mag = abs(c)
        if mag != 1:
            body = f"{mag} * {body}"
        pieces.append(("-" if c < 0 else "+", body))
    sign0, body0 = pieces[0]
    out = body0 if sign0 == "+" else "- " + body0
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def cyclic_normalize(algebra: FreeAlgebra, w: Word) -> tuple:
    """Canonical representative of a cyclic word, with the rotation sign.

    Successively moves the last letter to the front; each single rotation
    costs (-1)^(|last| * |rest|).  Returns ``(canonical_word, sign)`` where
    the canonical word is the lexicographically least rotation (declaration
    order) reached the earliest.  The unit has no cyclic class.
    """
    if not w:
        raise ValueError("unit has no cyclic class")
    deg = algebra.degree
    rotations = []
    cur, sign = w, 1
    for _ in range(len(w)):
        rotations.append((cur, sign))
        last = cur[-1]
        rest = cur[:-1]
        sign *= sign_exp(deg((last,)), deg(rest))
        cur = (last,) + rest
    best = min(r for r, _ in rotations)
    for r, s in rotations:
        if r == best:
            return best, s
    raise AssertionError("unreachable")


def cyclic_class(algebra: FreeAlgebra, w: Word) -> Optional[tuple]:
    """Like `cyclic_normalize` but detects classes killed by their own
    rotation signs: if some rotation fixes the canonical word with sign -1
    the class is 2-torsion, hence zero over Q, and None is returned."""
    if not w:
        raise ValueError("unit has no cyclic class")
    deg = algebra.degree
    seen: dict = {}
    cur, sign = w, 1
    for _ in range(len(w)):
        if cur in seen and seen[cur] != sign:
            return None
        seen.setdefault(cur, sign)
        last = cur[-1]
        rest = cur[:-1]
        sign *= sign_exp(deg((last,)), deg(rest))
        cur = (last,) + rest
    if sign != 1 and w in seen and seen[w] != sign:
        return None
    best = min(seen)
    return best, seen[best]
