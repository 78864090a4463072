"""Exact arithmetic for free graded noncommutative algebras over Q.

Scalars are exact: a coefficient is stored as an `int` when it is integral
and as a `fractions.Fraction` otherwise; nothing in this package ever
touches floating point.  The bracket axiom checks keep to `int` arithmetic
on a rational table by running on its integral multiple, D times the
table for the least common denominator D of its coefficients, and scale
each residual back by 1/D^k, k = 1 for the identities linear in the
bracket and 2 for the quadratic ones (`BracketSpec.integral`).

A word is a tuple of generator indices into a fixed `FreeAlgebra`; the
empty tuple is the unit.

Polynomials and tensors are one exact sparse class, `Sparse`: a map from
words (one leg) or tuples of words (two or more legs) to nonzero
coefficients, with the shared arithmetic, degree and rendering.  The
public types only fix the number of legs: `NCPoly` (1, with the
concatenation product), `Tensor2` (2) and `Tensor3` (3).  Every signed move
of tensor legs is one call of `Sparse.permute` (the swap tau, the rotations
of the double Jacobi identity) or of one of the two bimodule actions of A on
A (x) A (Van den Bergh, *Double Poisson algebras*, section 2):

  outer   p (u (x) v) q   = pu (x) vq
  inner   p * (u (x) v) * q = (-1)^(|p||u| + |p||q| + |q||v|) uq (x) pv

A double bracket is a derivation in its second slot for the outer action
and in its first slot for the inner one; `outer` and `inner` add an action
into an accumulating dict, as `add_into` adds raw (key, coefficient) pairs
and `bilinear` c times the bilinear extension of a map defined on pairs of
words.  The hot kernels accumulate inline instead: the double-Jacobi
orbit kernel and the left-Leibniz check in `brackets.py` and dlr
conditions (c) and (d), which run on per-check int ids of words
(`intern_words`) and a table of values per pair of ids; all but left
Leibniz move their legs inline.

Every graded sign in the package is (-1)^(d1*d2) for moving material of
total degree d1 past material of total degree d2, computed by `sign_exp` or
by the inline parity test of `Sparse.permute`; the suspension symbol of a
shift context counts as material of degree r when it moves.  On an algebra
whose generators all have even degree every word is even, so every sign
between plain algebra words is +1 and only shifts of odd r pay;
`FreeAlgebra.has_odd` is the one place this is decided, and the hot kernels
read it once and skip their per-term leg signs when it is False.
"""

from __future__ import annotations

import decimal
import enum
import functools
import itertools
import operator
from dataclasses import dataclass
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


class FreeAlgebra:
    """Presentation of a free algebra on an ordered list of graded generators.

    Word order (used for canonical forms) is length, then left-to-right by
    declaration position.  When MODULE generators are present the same object
    presents the tensor algebra of a free bimodule over the BASE part.
    """

    __slots__ = ("gens", "_index", "_degrees", "_module_mask", "_word_degrees", "has_odd")

    def __init__(self, gens: Sequence[Generator]):
        gens = tuple(gens)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique within one algebra")
        self.gens = gens
        self._index = {g.name: i for i, g in enumerate(gens)}
        self._degrees = tuple(g.degree for g in gens)
        self.has_odd = any(d & 1 for d in self._degrees)  # False: every leg sign is +1
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

    def index(self, name: Union[str, int]) -> int:
        """Index of the generator named `name`; an index in range is returned
        as is."""
        i = name if isinstance(name, int) else self._index.get(name)
        if i is None or not 0 <= i < len(self.gens):
            raise KeyError(f"unknown generator {name!r}")
        return i

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

    def render_words(self, *ws: Word) -> str:
        """Words as a witness tuple, e.g. ``(x, y.x, 1)``."""
        return "(" + ", ".join(map(self.render_word, ws)) + ")"

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


def add_into(out: dict, pairs: Iterable) -> dict:
    """Accumulate (key, coefficient) pairs into out and return it."""
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return out


def bilinear(out: dict, f, xs: Mapping, ys: Mapping, c: Scalar = 1) -> dict:
    """Add c times the bilinear extension of f, which maps a pair of keys
    to a term map, over the term maps xs and ys into out and return it."""
    for x, cx in xs.items():
        for y, cy in ys.items():
            cxy = c * cx * cy
            for k, v in f(x, y).items():
                out[k] = out.get(k, 0) + cxy * v
    return out


def intern_words(algebra: FreeAlgebra, words: Iterable) -> tuple:
    """(words, degs, word_id) of one check: the given words are ids 0..n-1
    in order, word_id gives each new word the next id, and degs[i] is the
    degree of words[i]; both lists grow as word_id meets new words."""
    words = list(words)
    degs = list(map(algebra.degree, words))
    ids = {w: i for i, w in enumerate(words)}

    def word_id(w: Word) -> int:
        if w not in ids:
            ids[w] = len(words)
            words.append(w)
            degs.append(algebra.degree(w))
        return ids[w]

    return words, degs, word_id


@functools.lru_cache(maxsize=None)
def _permutation_plan(order: tuple) -> tuple:
    """Key picker and crossed leg pairs of a leg permutation: input legs
    i < j cross when leg j is placed before leg i."""
    pos = {leg: k for k, leg in enumerate(order)}
    crossed = tuple((i, j) for i, j in itertools.combinations(range(len(order)), 2)
                    if pos[i] > pos[j])
    return operator.itemgetter(*order), crossed


class Sparse:
    """Exact sparse element of a tensor power of the word space of one
    algebra: a finite map key -> nonzero scalar (an int when integral, a
    Fraction otherwise).  A key is a word when `legs` is 1 and a tuple of
    `legs` words otherwise.  Subclasses fix `legs`."""

    __slots__ = ("algebra", "terms")
    legs = 0

    def __init__(self, algebra: FreeAlgebra, terms: Mapping):
        self.algebra = algebra
        self.terms = _clean(terms)

    def _new(self, terms: Mapping):
        return type(self)(self.algebra, terms)

    def _leg_words(self, k) -> tuple:
        return (k,) if self.legs == 1 else k

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"

    def render(self) -> str:
        return render_terms(self.algebra, self.terms, legs=self.legs)

    def __add__(self, other):
        _require_same(self.algebra, other.algebra)
        return self._new(add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c: Scalar):
        c = exact_scalar(c)
        return self._new({k: c * v for k, v in self.terms.items()})

    def degrees(self) -> set:
        deg = self.algebra.degree
        return {sum(map(deg, self._leg_words(k))) for k in self.terms}

    def is_homogeneous_of(self, d: int) -> bool:
        return self.degrees() <= {d}

    def leg_weights(self) -> set:
        weight = self.algebra.weight
        return {tuple(map(weight, self._leg_words(k))) for k in self.terms}

    def permute(self, order: Sequence[int], c: Scalar = 1):
        """Signed leg permutation times c, for two or more legs: output leg
        i is input leg order[i], and each pair of legs that changes order
        pays (-1)^(|leg||leg'|)."""
        pick, crossed = _permutation_plan(tuple(order))
        if not self.algebra.has_odd:
            crossed = ()
        deg = self.algebra.degree
        c = exact_scalar(c)
        out = {}
        for k, v in self.terms.items():
            odd = 0
            for i, j in crossed:
                odd ^= deg(k[i]) & deg(k[j]) & 1
            out[pick(k)] = -c * v if odd else c * v
        return self._new(out)


class NCPoly(Sparse):
    """Sparse noncommutative polynomial: one leg, keyed by words."""

    __slots__ = ()
    legs = 1

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        return poly_mul(self, other)


def poly_mul(a: NCPoly, b: NCPoly) -> NCPoly:
    """Concatenation product, extended bilinearly."""
    _require_same(a.algebra, b.algebra)
    return NCPoly(a.algebra, add_into({}, (
        (w1 + w2, c1 * c2) for w1, c1 in a.terms.items() for w2, c2 in b.terms.items()
    )))


class Tensor2(Sparse):
    """Element of a two-fold tensor product of word spaces over one algebra."""

    __slots__ = ()
    legs = 2


class Tensor3(Sparse):
    """Element of a three-fold tensor product of word spaces over one algebra."""

    __slots__ = ()
    legs = 3


def outer(out: dict, t: Tensor2, p: Word = (), q: Word = (), c: Scalar = 1) -> dict:
    """Add c times the outer bimodule action p (u (x) v) q = pu (x) vq on t
    into out and return it.  It moves no material past another: no sign."""
    for (u, v), a in t.terms.items():
        k = (p + u, v + q)
        out[k] = out.get(k, 0) + c * a
    return out


def inner(out: dict, t: Tensor2, p: Word = (), q: Word = (), c: Scalar = 1) -> dict:
    """Add c times the inner bimodule action
    p * (u (x) v) * q = (-1)^(|p||u| + |p||q| + |q||v|) uq (x) pv
    on t into out and return it: p moves past u and q, q past v."""
    deg, odd = t.algebra.degree, t.algebra.has_odd
    dp, dq = deg(p), deg(q)
    c = sign_exp(dp, dq) * c
    for (u, v), a in t.terms.items():
        k = (u + q, p + v)
        if odd:
            a = sign_exp(dp, deg(u)) * sign_exp(dq, deg(v)) * a
        out[k] = out.get(k, 0) + c * a
    return out


def tensor2(algebra: FreeAlgebra, *entries) -> Tensor2:
    """Convenience constructor: tensor2(alg, ("x", "1"), ("1", "x", -1))."""

    def term(t1, t2, c=1):
        return (algebra.word(t1), algebra.word(t2)), exact_scalar(c)

    return Tensor2(algebra, add_into({}, (term(*e) for e in entries)))


def exact_str(q: Scalar) -> str:
    """`str` of an int or Fraction of any length.  Past the interpreter's
    int/str digit limit (Python >= 3.10.7) `str` raises; `Decimal` prints an
    int exactly and is not bound by that limit."""
    if isinstance(q, Fraction):
        return f"{exact_str(q.numerator)}/{exact_str(q.denominator)}"
    try:
        return str(q)
    except ValueError:
        return str(decimal.Decimal(q))


def render_terms(algebra: FreeAlgebra, terms: Mapping, legs: int,
                 cyclic: bool = False) -> str:
    """Deterministic rendering shared by polynomials, tensors and cyclic
    classes.

    Terms are sorted by leg words (length then declaration order), the
    coefficient magnitude is printed only when it is not 1, and signs become
    separators, e.g. ``x (*) 1 - 1 (*) x``.  With `cyclic`, the one-leg keys
    are cyclic word classes, each rendered as ``[w]``.
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
        if cyclic:
            body = f"[{body}]"
        mag = abs(c)
        if mag != 1:
            body = f"{exact_str(mag)} * {body}"
        pieces.append(("-" if c < 0 else "+", body))
    sign0, body0 = pieces[0]
    out = body0 if sign0 == "+" else "- " + body0
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def cyclic_class(algebra: FreeAlgebra, w: Word) -> Optional[tuple]:
    """Canonical representative of a cyclic word, with the rotation sign.

    Successively moves the last letter to the front; each single rotation
    costs (-1)^(|last| * |rest|).  Returns ``(canonical_word, sign)`` where
    the canonical word is the lexicographically least rotation (declaration
    order) and the sign is the one it is first reached with.  If some
    rotation fixes a word with the opposite sign the class is 2-torsion,
    hence zero over Q, and None is returned.  The unit has no cyclic class.
    """
    if not w:
        raise ValueError("unit has no cyclic class")
    deg = algebra.degree
    seen: dict = {}
    cur, sign = w, 1
    for _ in range(len(w)):
        if seen.setdefault(cur, sign) != sign:
            return None
        last = cur[-1]
        rest = cur[:-1]
        sign *= sign_exp(deg((last,)), deg(rest))
        cur = (last,) + rest
    if sign != 1:
        return None
    best = min(seen)
    return best, seen[best]
